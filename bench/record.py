"""Record bench/expected.json from the current sources.

    python3 bench/record.py

It stores the enclosures the rho checks must overlap, and the stdout and
exit-code digests of every job for the recorded seeds.  Record only at a
commit whose outputs are known good: later runs on a recorded seed fail any
job whose output differs.
"""

import json
import sys

from run import EXPECTED, run_job
from workloads import ENCLOSURE_KEYS, RECORDED_SEEDS, WORKLOADS, Job, make_jobs


def _keep_json(job: Job, rc: int, out: str) -> list[str]:
    job.parsed = json.loads(out)
    return [] if rc == 0 else [f"exit code {rc}"]


def main() -> int:
    enclosures = {}
    for key in ENCLOSURE_KEYS:
        deltas, tol = key.split("@")
        job = Job(["rho", "--delta", deltas, "--tol", tol, "--format", "json"], _keep_json)
        res = run_job(job, None, None)
        if res["problems"]:
            print(f"error: {key}: {res['problems']}", file=sys.stderr)
            return 1
        enclosures[key] = [job.parsed["lo"], job.parsed["hi"]]
    expected = {"enclosures": enclosures, "digests": {}}
    for workload in WORKLOADS:
        expected["digests"][workload] = {}
        for seed in RECORDED_SEEDS:
            rows = []
            for job in make_jobs(workload, seed, expected):
                res = run_job(job, None, None)
                if res["problems"]:
                    print(f"error: `{job.label}`: {res['problems']}", file=sys.stderr)
                    return 1
                rows.append({"argv": job.argv, "rc": res["rc"], "stdout_sha256": res["sha256"]})
            expected["digests"][workload][str(seed)] = rows
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
