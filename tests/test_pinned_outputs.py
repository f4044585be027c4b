"""CLI outputs pinned byte for byte.

Each case runs one subcommand with ``--json`` in process and compares the
sha256 of its stdout with a digest recorded before the exact matrix
product went over nonzero entries: ``kz``, with and without ``--zero``, on
the first three Veech generators (``orbit.veech_generators``) of each small
fixture, ``simplicity`` on dema, ``mc --seed 7`` on l3 and ew, and ``kz
T12`` on z6 (294 x 294, charpoly coefficients of 290 bits), whose digest
was taken with the dense Berkowitz loop that ``charpoly`` replaced;
``spin`` and ``component`` on every fixture, whose digests were taken
while ``Homology`` still read coordinates off a cotree peel.  The two
``mc`` digests were taken again when the walk began to multiply each QR
period's 20 integer step matrices exactly before the frame, rounding the
frame once per period instead of once per step: every estimate and
standard error moved by less than 1.3e-14.  A change
that means to alter one of these outputs updates its digest here and
says why.
"""

import hashlib

import pytest

from origami_lab import cli

from conftest import fixture_path

PINNED = [
    (('kz', 'l3', 'TT'), 'd603bb5bc18722c19e81dbc922b2b4abaa5c6e75b2c77f54948370c21e2c70a3'),
    (('kz', 'l3', 'TT', '--zero'), '740bd2670b208be4e5fedcd5dcb70e5b1feea5ef48aecb25507abd990658a519'),
    (('kz', 'l3', 'tST'), 'a09a9c8c9f72d0ce2d358566c6242c903ad6723b38366b0b94cdce5645f8f2bf'),
    (('kz', 'l3', 'tST', '--zero'), '8fc180a0c7aaa7bb6d3a635782408dae131d3a68bd19c7fd8d6c0e0982af59ec'),
    (('kz', 'l3', 'sTS'), '8d637b070942b0fd003c4d5914a6b886e60a9cf09c00edd220c3b7d4ae933e78'),
    (('kz', 'l3', 'sTS', '--zero'), '46b7b4fadf420aa366e4359c54bb2d2f333728e6d0f98b911fc20abc4b8a9383'),
    (('kz', 'dema', 'TT'), 'aa0cc38a05976bbbcc443c3f250edb51882609b66f52698ee2b59677a4c358ef'),
    (('kz', 'dema', 'TT', '--zero'), '6f51e44e012e842b17d7162df19bcf0a8180196546546620922a2dc18e4a0802'),
    (('kz', 'dema', 'tST'), 'fe345b7d51d75e7872f3e07106e8344c2d20f121d56f5cb99e6b0e7bdf3d94ba'),
    (('kz', 'dema', 'tST', '--zero'), 'ea5c3006d2f78259f657872abd2b708ac1ed11236eea03a6a9e1313fd4d76ca7'),
    (('kz', 'dema', 'sTS'), 'fccc32d564078d016d1dfa678ab4c8f0a35f89f1d99e088b52bcf8eb716c1942'),
    (('kz', 'dema', 'sTS', '--zero'), '13c6166a222c96909f5757e4d517d8618f3eb163d7dac68adea068f19faa019f'),
    (('kz', 'mstar', 'TTTTTT'), 'f38e62a52f4da26161564b1f5a77a357522288af4f413b8fcac7e19ec1de3ea6'),
    (('kz', 'mstar', 'TTTTTT', '--zero'), '01fe06dfacfea272540df81a4a60ae4d9a7df58924f4cd6dff3b8d2e4c2951a6'),
    (('kz', 'mstar', 'tssstsTSSSSS'), '4997ed28dcc7e0a4f6594f4c1c30059fab934dcd8023674e08a2e891073e05b2'),
    (('kz', 'mstar', 'tssstsTSSSSS', '--zero'), '5bb295e2e4b4e7c379b0776d507bfbd7a58226beae8750238603f455ecda4137'),
    (('kz', 'mstar', 'SSSSSS'), '109b30814a2f65a39aa7c82ae77f8283daa110a52ed1481a32f3ce5bccda7aa3'),
    (('kz', 'mstar', 'SSSSSS', '--zero'), '8a98a9eb3c5f24e5cf232ee076d932c69b2713c45e404e5f26a4f7aa6aae1d62'),
    (('kz', 'mstarstar', 'SS'), 'f8b4578e9e90857540b5f0cca14765d856e643934f3fd50eef5b095efcadb99f'),
    (('kz', 'mstarstar', 'SS', '--zero'), '676097cbdf589ee797f8872517355d9e4da0a21b29e8ef0d4dec0a175189ef62'),
    (('kz', 'mstarstar', 'TTTTTT'), 'd3f0bc8f8ce9af56e22ec62f11b880e41fe50a942a6fd420b1eed33c63b522c4'),
    (('kz', 'mstarstar', 'TTTTTT', '--zero'), '9fcb9ff889989318913ec7b418246b35ab3e62c39d7fb4f924aa8276e99f9b76'),
    (('kz', 'mstarstar', 'tSSTTTTT'), 'e5c5e4e1975b2aae7acdc58b874cbafa621cd803186f85fb8254c8f511e45c36'),
    (('kz', 'mstarstar', 'tSSTTTTT', '--zero'), '66ac22ecd1ec420b35e706867f44861d3f18f61a66b3f86c35f8ce557b713782'),
    (('kz', 'mbar_star', 'TTTTTT'), '955568bb36263d595e56032d45ac2f662d55712f25db6e119bfb322ff50ce768'),
    (('kz', 'mbar_star', 'TTTTTT', '--zero'), '537f96487f1931ed4dfa61b08f6868723a12294455992b5b116b5dfa7becbdd9'),
    (('kz', 'mbar_star', 'tssstsTSSSSS'), '9800f08baeb677291891fc60f03d11c44af31112005e1f0f1127104c55a01f13'),
    (('kz', 'mbar_star', 'tssstsTSSSSS', '--zero'), '6331907b5a13e7b77bf1452e9185c94fd75bb34dfdee19bd86e1c09ed78d62b7'),
    (('kz', 'mbar_star', 'SSSSSS'), '1215af413dc5f8019d9a4621139c88e3b8844d1a10b0962598abaffe69346290'),
    (('kz', 'mbar_star', 'SSSSSS', '--zero'), '582239e6077c2ce79da830ce86b5d1c59b2d76d1b1e5c9bcbe30b1254367c31d'),
    (('kz', 'ew', 'T'), '47082ab6e160efa952a0631c8d1fee9c999477e886aef8ae6e8bec0e4800679a'),
    (('kz', 'ew', 'T', '--zero'), '527ca587addb6cacf56c7cdd59f52332b4bd74598fa77e4f9787a1ac04e0d458'),
    (('kz', 'ew', 'S'), 'f8a8517a5519ad365e6ae536557ffeb14d8fec87e92a18b00162be3336fe5235'),
    (('kz', 'ew', 'S', '--zero'), '34f825c008219000aa50579ef6cad46931e4f3b43f1cc58c47b3474e2cce9f3e'),
    (('kz', 'ltilde', 'TTTT'), 'd681cfb78e2bbb285897dad180ed99fea50a5103b4bdd4340f359fe555f1a2ab'),
    (('kz', 'ltilde', 'TTTT', '--zero'), '8cf57a5605377bc2320f5f0872733933ff1abffe0843d1c8ab50d5c57348f290'),
    (('kz', 'ltilde', 'tttSTTT'), '5faf356e068cff78637b0e0f5e1acf4a27688e7e56ad175d476afb63e9adfc71'),
    (('kz', 'ltilde', 'tttSTTT', '--zero'), '240f8afe120db7d33071d1cb76fda16b60235badf2b05b90894c09360ac3221d'),
    (('kz', 'ltilde', 'sssTSSS'), '96e3d87c4ef76218d57d9cd45c3a64618aff9f74017e6a767314f562b7abbb47'),
    (('kz', 'ltilde', 'sssTSSS', '--zero'), 'efcf183b0303eb8423648859e6f2afc66228411ba3c7047e8b443e1743639d74'),
    (('simplicity', 'dema'), '9598e5b07a42e344c086d0d2073ea52fb7992a392a47f5d581e509fb364a37a8'),
    (('mc', 'l3', '--seed', '7'), 'ee19d880bc598941b430c5ddc29f6cbe64148663da8ed9b7d1854144b95b67e1'),
    (('mc', 'ew', '--seed', '7'), '954227c36bf24a74a9aeb67e71b087749a8c2cbe3236e439381e5d590393ceab'),
    (('kz', 'z6_origami', 'T12'), 'b81554a63cd90e45a14e8755dd034a4baaba5be4711011fc4e0be5b337274a35'),
    (('spin', 'dema'), 'eff18e3c6e6f9b7ff5e6655106fe6bca1b87c90961f63eea5998e8718f6a4b7b'),
    (('spin', 'l3'), 'eff18e3c6e6f9b7ff5e6655106fe6bca1b87c90961f63eea5998e8718f6a4b7b'),
    (('spin', 'mbar_star'), 'eff18e3c6e6f9b7ff5e6655106fe6bca1b87c90961f63eea5998e8718f6a4b7b'),
    (('spin', 'mbar_star_3'), 'eff18e3c6e6f9b7ff5e6655106fe6bca1b87c90961f63eea5998e8718f6a4b7b'),
    (('spin', 'mbar_star_5'), 'eff18e3c6e6f9b7ff5e6655106fe6bca1b87c90961f63eea5998e8718f6a4b7b'),
    (('spin', 'mbar_star_7'), 'eff18e3c6e6f9b7ff5e6655106fe6bca1b87c90961f63eea5998e8718f6a4b7b'),
    (('spin', 'mstar'), 'eff18e3c6e6f9b7ff5e6655106fe6bca1b87c90961f63eea5998e8718f6a4b7b'),
    (('spin', 'mstarstar'), '4ad4c7f004c1334d14cfb1b4f19d8c54ada0cbe43473c28c06a8e94f0da2f137'),
    (('component', 'dema'), '70c62bbda1c8775c0e73d955b2a3530292e7897b0bb5e979e648ceb19ddffef0'),
    (('component', 'ew'), '429e4e933195486aa39279b1e0d58a2214582ac79d9b02567d7ed95bf248a5ee'),
    (('component', 'l3'), 'e2c893dca7b6e6b222656a0918297f35615202f1313f4e2a5f5f5877b337c9a6'),
    (('component', 'ltilde'), '82c39828eed3e9da0ed7c16d30df01d93f3b5afaec45fbe88311e5d2bb0a0192'),
    (('component', 'mbar_star'), 'bcbd9d63490b9fe27a3d747b0f9058a1ac7ddf1fedfcb3f18b60b93797486fbd'),
    (('component', 'mbar_star_3'), 'abb75b6b5f490fd5858d36f28b19578e61abf5b08345cc1dfe565e98580d66de'),
    (('component', 'mbar_star_5'), '5fb55065ce70c1fcc2782f12cf86e14d558ffa0bc95364e7326e6b0095f607ce'),
    (('component', 'mbar_star_7'), 'f3c1d766c645d3e52167daf31a973e4951dc066b112fd38010b9efd76459747f'),
    (('component', 'mstar'), 'bcbd9d63490b9fe27a3d747b0f9058a1ac7ddf1fedfcb3f18b60b93797486fbd'),
    (('component', 'mstarstar'), 'cdf46dc6b368ac39d56d2cbe593c5b178489c1c25418e898a71f3a8853d07bc5'),
    (('component', 'z6_origami'), '0871c726f808147a249b5c7ec229e1f60183a8a8f06f7c111ef9476d84115900'),
]


@pytest.mark.parametrize("command,digest", PINNED, ids=[" ".join(c) for c, _ in PINNED])
def test_cli_output_is_pinned(capsys, command, digest):
    name, fixture, *rest = command
    assert cli.main([name, fixture_path(fixture), *rest, "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# surfaces with a zero of odd order have no spin structure: exit 1, one
# line on stderr and nothing on stdout
SPIN_REFUSED = ("ew", "ltilde", "z6_origami")


@pytest.mark.parametrize("fixture", SPIN_REFUSED)
def test_spin_refusal_is_pinned(capsys, fixture):
    assert cli.main(["spin", fixture_path(fixture), "--json"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: spin structure requires all zero orders even\n")
