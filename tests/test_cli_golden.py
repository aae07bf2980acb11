"""Byte-exact guard on the CLI output of every command.

Each case pins the exit code and the sha256 of stdout.  The first 14
digests were recorded before the odd-gap passes and the column sweeps were
merged into one pass and one sweep; the rest, which cover every other
command in each of its formats, before the per-command output blocks were
merged into one emitter.  So any change in what these commands print shows
up here.  One digest was re-recorded on purpose: `paths --format csv`
printed the text form and now prints a walk,arity,first_vertex,free_slots
table.  `verify all` at Q = 40 exits 1 on purpose: 1/3 is an
odd-denominator fraction, so the closed (streaming) and half-open (lattice)
interval rules count one h = 1 window differently, and the check says so.
Two cases, `stats --delta-max -1` in csv and json, pinned the empty table a
negative limit printed; that input is now an error (test_cli.py).
The last two digests, of whole-sequence pair and triple histograms, were
recorded from the streaming pass before such windows were counted from
lattice row blocks instead.
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
    (["list", "--q", "8", "--odd", "--format", "text"], 0,
     "0f5ad2c3cf8d6854d68ff74782cf49c3c661ed1940212f3a518edb7d588a25c9"),
    (["list", "--q", "8", "--odd", "--format", "csv"], 0,
     "01c5adc507fa34359d2389f57617c34599d20cf1214bd9203828b8385c9a7de9"),
    (["list", "--q", "8", "--odd", "--format", "json"], 0,
     "41cd2c146710ea355ae9a726059064e138ed907921874d1e4ed16a9123392ec3"),
    (["rho", "--delta", "2", "--format", "text"], 0,
     "2d6f7ede8093d266cfd07e873d49a4850cfac0a547e33fa724933e09730e4b4c"),
    (["rho", "--delta", "2", "--format", "csv"], 0,
     "6054e3cabbc85d600ccd3f3c2dcd994267dab5b53aecc57f7b3182d92cba028e"),
    (["rho", "--delta", "2", "--format", "json"], 0,
     "e3acbdb211fce0f107e6ce8586d85309b9a01409003b34eb862904ec3d1da9f2"),
    (["rho", "--delta", "1,1", "--tol", "1/1000", "--format", "text"], 0,
     "ded6e7c1ee17e4bdc41984cd11394b573edf31888aacea0bbbd0a61c90f3ae47"),
    (["rho", "--delta", "1,1", "--tol", "1/1000", "--format", "csv"], 0,
     "c0946e37e46b73013ac08d713d9836d863a4fe8e7a0a3823e707b79545da1dac"),
    (["rho", "--delta", "1,1", "--tol", "1/1000", "--format", "json"], 0,
     "2fc24a26c06b31904aaf905caf2fd2437a53a6b728735744bf5a60878e0cde85"),
    (["rho-table", "--h", "2", "--delta-max", "2", "--tol", "1/100", "--format", "text"], 0,
     "5288117e39e6127ac506e06e4d6582a3eeac8654797f1c372b38150ef3124f14"),
    (["rho-table", "--h", "2", "--delta-max", "2", "--tol", "1/100", "--format", "csv"], 0,
     "5288117e39e6127ac506e06e4d6582a3eeac8654797f1c372b38150ef3124f14"),
    (["rho-table", "--h", "2", "--delta-max", "2", "--tol", "1/100", "--format", "json"], 0,
     "6ea7050e811ca3024ea0eefe0f826525e20fcafc67ae1f9c6abed672b9ca9e92"),
    (["region", "--ks", "2,1", "--format", "text"], 0,
     "7428a9d09910623e483d2face3814d26bc62499457cf5cb8d9d46bf615b3d582"),
    (["region", "--ks", "2,1", "--format", "csv"], 0,
     "65f65e5bf1b96257e51cc8a7ef3557809268bc9cf9ee0e4e49ff8cfdc7bd0859"),
    (["region", "--ks", "2,1", "--format", "json"], 0,
     "58162cd7b48141503445f6301651be3daf8c189c5492d245920fc0c96246cdda"),
    (["region", "--quadrangle", "6,1,1", "--format", "text"], 0,
     "dfc275f3e1fd6523ed3ff3f95693592b92501956a3180ad18d2b7eadaa376e67"),
    (["region", "--quadrangle", "6,1,1", "--format", "csv"], 0,
     "79844bfd65dbb6f8adf7e2728f58382d0004da9195e67381d3160559396a3c22"),
    (["region", "--quadrangle", "6,1,1", "--format", "json"], 0,
     "b805178243c39dfb7380022dae4e23fda2b1ad1315941814743447d318616993"),
    (["paths", "--delta", "1,2", "--format", "text"], 0,
     "88e82ceb685bad9088ac14d867e94427b70058d0cad0315ff1da3515b9313643"),
    (["paths", "--delta", "1,2", "--format", "csv"], 0,
     "9fd0050aaa00dcc23c8ea162a38e9f2d86a9ab8f54047d8218b699f76989aa6e"),
    (["paths", "--delta", "1,2", "--format", "json"], 0,
     "59aa4e8ebfd64fdd4868056ac8233235e23ba066d00f767efb2c77e37163aff3"),
    (["lattice", "--ks", "2", "--q", "60", "--parity", "odd,any", "--interval", "1/4,3/4", "--format", "text"], 0,
     "03e5575136ba25c6c8e6e4260e7e1ed1072a27472f41a43188f976a580f285b2"),
    (["lattice", "--ks", "2", "--q", "60", "--parity", "odd,any", "--interval", "1/4,3/4", "--format", "csv"], 0,
     "73106c45fa1d686fee8916df17cc1f01a3872eb9eeb629a5beed584b1609c2c6"),
    (["lattice", "--ks", "2", "--q", "60", "--parity", "odd,any", "--interval", "1/4,3/4", "--format", "json"], 0,
     "b82aaf8d4e275e40f6580cfedd5d9fca46e838d1e6f87aa07d326b8516fe6291"),
    (["orbit", "--point", "3/4,1/2", "--steps", "5"], 0,
     "ffffa27a7cb438fc4958fdd207f6847ee5cef14ffeaf7cd2b83c3b651210cd2f"),
    (["stats", "--q", "1000", "--h", "2", "--format", "csv"], 0,
     "7192c92f5b28997305bfcf6fd54ffacef45686803b94ebd80ecc6a8d0df55a7d"),
    (["stats", "--q", "1000", "--h", "3", "--format", "csv"], 0,
     "407f124e631714791ed54049b3676e5b27c9f2bab3a43c269febeef2f6c71115"),
]


@pytest.mark.parametrize(
    "argv,code,digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_cli_output_is_unchanged(capsys, argv, code, digest):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
