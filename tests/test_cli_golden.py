"""Byte-exact guard on the CLI output of the streaming and lattice commands.

Each case pins the exit code and the sha256 of stdout.  The digests were
recorded before the odd-gap passes and the column sweeps were merged into
one pass and one sweep, so any change in what these commands print shows
up here.  `verify all` at Q = 40 exits 1 on purpose: 1/3 is an
odd-denominator fraction, so the closed (streaming) and half-open (lattice)
interval rules count one h = 1 window differently, and the check says so.
"""

import hashlib

import pytest

from oddfarey.cli import main

GOLDEN = [
    (["stats", "--q", "60", "--h", "1"], 0,
     "e7151e5f7574bbdf38828fba838d75e4004c31982f8aeb1af78c7b19a59114ac"),
    (["stats", "--q", "60", "--h", "2", "--format", "json"], 0,
     "27fc5644db8dec2eaf81125fbd5f9a8fbee0d245414b655e99230b17e43f6199"),
    (["stats", "--q", "60", "--h", "3", "--delta-max", "4"], 0,
     "3adcb336b722c811e550d3290170ce545f2820212e52f419f3df45edc6cb2017"),
    (["stats", "--q", "60", "--h", "1", "--interval", "1/4,3/4", "--format", "json"], 0,
     "7ebbef4a159f2195c9870d917c919300f3df50d672022de7bbd742cdd1b4a76a"),
    (["stats", "--q", "60", "--h", "2", "--interval", "1/3,2/3"], 0,
     "8ce3e4717405d53f779ae618b1752d4107fea40755040c38f6d61e3b91f74c24"),
    (["stats", "--q", "60", "--h", "3", "--interval", "0,1/2", "--delta-max", "3",
      "--format", "json"], 0,
     "ecd19081f20b51e6f8a6c9e054f9f3fcf15b97cc2c84748de6bc0837f7154324"),
    (["compare", "--delta", "2", "--q", "60"], 0,
     "06a1d0cb1941e3de96cb1f35d4e6011ae3f21d7ab8bfd4adb375df448b332dea"),
    (["compare", "--delta", "1,1", "--q", "60", "--tol", "1/1000", "--interval", "1/5,4/5",
      "--format", "json"], 0,
     "08a0c6cb51d13f99db0357eed237982c7b4b69004ed6d7bf61a3d7692d965a5d"),
    (["short-interval", "--q", "60", "--delta", "2", "--interval", "0,1/2",
      "--format", "json"], 0,
     "bbe02ca4385c69bd0091d8ef97417ffa09385ce263676d25b6e3cd055bcc79fe"),
    (["short-interval", "--q", "60", "--delta", "1,1", "--interval", "1/3,2/3",
      "--tol", "1/1000"], 0,
     "9ffdfe2f359359198da720b99c825b06502ede313879bd463d35dde56696d3c6"),
    (["lattice", "--ks", "2", "--q", "60", "--parity", "odd,even"], 0,
     "ca2ebdf97d7469496b1f4b78958f9dc8447efdcb623953fee7b6996b762f6fff"),
    (["lattice", "--ks", "1,2", "--q", "60", "--parity", "odd,any", "--interval", "1/4,3/4",
      "--format", "json"], 0,
     "6744b5f2b18fec1c874c933238dc08a04b124b134774da2b865ee536571dac71"),
    (["lattice", "--ks", "", "--q", "60", "--all-points", "--format", "csv"], 0,
     "081d8486d4ca0190edc422f7096cc39113c7dca1b16752ce69226b411d77e72e"),
    (["verify", "all", "--q", "40", "--interval", "1/3,2/3"], 1,
     "9c56562a58ed2cb47f10b68f61f2d3273faa0a8382fce6f5bc36c3492d6ae2b8"),
]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_cli_output_is_unchanged(capsys, argv, code, digest):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
