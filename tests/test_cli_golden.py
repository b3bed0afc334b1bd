"""Byte-identity gate for the CLI: the SHA-256 of stdout for a fixed list of
commands.  The digests were recorded before the refactor that merged the
duplicated arithmetic helpers, so any change to a printed digit, key order
or float shows up here.  Update a digest only for a deliberate change of
output, and say which one in CHANGES.md.

The closed-form unit groups at inert and ramified primes changed the
unit-group basis, hence the printed `generators` and the character that
`lseries --char` names, for five of the moduli with such a factor.  Their
other fields are pinned to the earlier output by
`test_non_generator_fields_pinned`."""

import hashlib
import json

import pytest

from iqtower.cli import main

# a small tower file for `selmer`; its basename appears in the output config
TOWER = {"label": "golden", "q": 3, "d": 1, "p": 5,
         "levels": [{"n": 0, "s_f": 1, "r_cl": 0, "r_cls": 0, "e_n": 1,
                     "sel0": {"s": 1, "T": [5]}},
                    {"n": 1, "s_f": 2, "r_cl": 1, "r_cls": 0, "e_n": 2,
                     "sel0": {"s": 2, "T": [5, 25]}},
                    {"n": 2, "s_f": 2, "r_cl": 1, "r_cls": 1,
                     "sel0": {"s": 2, "T": [5, 25]}}]}

CASES = [
    ("rayclass-d1-split", ["rayclass", "--d", "1", "--modulus", "2+1*w"]),
    ("rayclass-d1-inert", ["rayclass", "--d", "1", "--modulus", "3"]),
    ("rayclass-d1-ramified", ["rayclass", "--d", "1", "--modulus", "4"]),
    ("rayclass-d1-mixed", ["rayclass", "--d", "1", "--modulus", "15"]),
    ("rayclass-d1-mixed-csv", ["rayclass", "--d", "1", "--modulus", "6+3*w",
                               "--format", "csv"]),
    ("rayclass-d3-split", ["rayclass", "--d", "3", "--modulus", "7"]),
    ("rayclass-d3-inert", ["rayclass", "--d", "3", "--modulus", "2"]),
    ("rayclass-d3-ramified", ["rayclass", "--d", "3", "--modulus", "3"]),
    ("rayclass-d3-mixed", ["rayclass", "--d", "3", "--modulus", "6"]),
    ("rayclass-d2-inert", ["rayclass", "--d", "2", "--modulus", "5"]),
    ("rayclass-d7-mixed", ["rayclass", "--d", "7", "--modulus", "14"]),
    ("rayclass-d11-split-square", ["rayclass", "--d", "11", "--modulus", "9"]),
    ("rayclass-d43-split", ["rayclass", "--d", "43", "--modulus", "4+1*w"]),
    ("lseries-d1-mixed-char", ["lseries", "--d", "1", "--modulus", "6+3*w", "--s", "2.0",
                               "--B", "3000", "--char", "3"]),
    ("lseries-d2-inert-char", ["lseries", "--d", "2", "--modulus", "5", "--s", "1.5",
                               "--B", "2000", "--char", "5"]),
    ("lseries-d3-trivial", ["lseries", "--d", "3", "--modulus", "6", "--s", "2.0",
                            "--B", "5000"]),
    ("tower", ["tower", "--d", "1", "--q", "5", "--depth", "2"]),
    ("cmsearch", ["cmsearch", "--d", "43", "--rbound", "3"]),
    ("nonvanish-d1", ["nonvanish", "--d", "1", "--p", "5", "--q", "3",
                      "--lambda", "7", "--k", "4"]),
    ("nonvanish-d2", ["nonvanish", "--d", "2", "--p", "11", "--q", "5",
                      "--lambda", "1+1*w", "--k", "3"]),
    ("classgroup-S", ["classgroup", "--disc", "-471", "--S", "2", "3"]),
    ("table2-csv", ["table2", "--format", "csv"]),
    ("fit", ["fit", "--q", "3", "--e", "7,6,13,32,87"]),
    ("selmer", ["selmer", "--input", "{tower}"]),
]

DIGESTS = {
    "rayclass-d1-split": "50c906303d629e07d4840ff08655ca8959467b57992e449ea00fe77136a19293",
    "rayclass-d1-inert": "d96cd9b373ae43d88808494dac3a0e5ae9b2b1ae465f2f47a76f800888ae75ab",
    "rayclass-d1-ramified": "7d9f7b6033df0ae1685cd020afa2da7a9a215f7c4846a855c922b603513f7bde",
    "rayclass-d1-mixed": "a90b423c043f5846ba63e4c50405892aedfe5e030d4f57124bda197875d43944",
    "rayclass-d1-mixed-csv": "2485d98a13a5d01fc456f8437624a990fecf358e01def1b1d5ecaf5e47c3413f",
    "rayclass-d3-split": "93609c47fbac0e9096c604fa0b61eaf677cab1594269eeb837008aa98246c029",
    "rayclass-d3-inert": "e26dc1eca4e8846d86c9285bafeed79c6641b219fa37ba323c98c323ce407264",
    "rayclass-d3-ramified": "2b393796ac07cfa4e85dc47fb5028af33f7ecc55b64cff0ab3d77cc0c6530f31",
    "rayclass-d3-mixed": "4a3e4313ab760a011f014724a574f259c200acb5cb108a324de7ee9d0f80f88e",
    "rayclass-d2-inert": "b96d2747b128dcb64d091e355f62897523d80e114431cf309389cdade21990c3",
    "rayclass-d7-mixed": "e505f9944065d468279e0e4cbeb170e2e5c30c840d63869b1aec1fd548f5999b",
    "rayclass-d11-split-square": "dfe05c9c7b20877d12688f6bed326eedd1a3517356844942d550a4dd4424736f",
    "rayclass-d43-split": "c02927bea9794b896d6470ef946b5de587e4a760166ef81a0c1db2530fa090c4",
    "lseries-d1-mixed-char": "8c15079c460648d53e5408798d362f5cc7771d9bfa7857bfe39e94f6e10165f7",
    "lseries-d2-inert-char": "e9ff36d9fb878b8b5b8117343b09bb8dba52144b5cfc9d92d70754b0656502f8",
    "lseries-d3-trivial": "2416035ee256e94ce0176ae63013730e1c91e723283f93a7ec162bce65e4c537",
    "tower": "12d6c2f557fcdf6a0dfe6792508473d8691e0636cadabf337732e031d574af72",
    "cmsearch": "c41c189aa827f5c850c24bd2d49153e4fd5d8228cfdf125c252a76323dc5bdb3",
    "nonvanish-d1": "1865f75fc27fba15096a6414c1b473d41028dd0064da0698615f151de62238e1",
    "nonvanish-d2": "592a016f2cd4f00d685def583324776562c6b8690eecc81ecad923e29598cbca",
    "classgroup-S": "9eb6d8f9d7a5636171a1cfb76399ec52aafd184c08e3ba49e80379f6e4e7c14f",
    "table2-csv": "303d29804dd00773bbf4ec5ff349e20620aef41ca8cfed6b11f7546818c0cd43",
    "fit": "b24f1434600bef16046cd9d0c775b3bfda68b71fe781f1a27be16b07d3c804fc",
    "selmer": "d25026c9f857a42df0c50340315711f6bb6285ce90db93d9f0ea1562703e2401",
}


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_digest(name, argv, tmp_path, capsys):
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps(TOWER))
    argv = [str(tower) if a == "{tower}" else a for a in argv]
    code = main(argv)
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


# Everything but the basis-dependent fields of the moduli with an inert or
# ramified factor, as printed before the unit groups went closed-form:
# `generators` (rayclass) and the L-values and the Euler error (lseries,
# whose --char exponents are read against the new basis) are left out.
PINNED = {
    "rayclass-d1-inert": {"modulus": "d=1:3+0*w", "invariants": [2], "order": 2,
                          "unit_group_invariants": [8]},
    "rayclass-d1-ramified": {"modulus": "d=1:4+0*w", "invariants": [2], "order": 2,
                             "unit_group_invariants": [2, 4]},
    "rayclass-d1-mixed": {"modulus": "d=1:15+0*w", "invariants": [4, 8], "order": 32,
                          "unit_group_invariants": [4, 4, 8]},
    "rayclass-d1-mixed-csv": {"modulus": "d=1:6+3*w", "invariants": "8", "order": "8",
                              "unit_group_invariants": "4;8"},
    "rayclass-d3-inert": {"modulus": "d=3:2+0*w", "invariants": [], "order": 1,
                          "unit_group_invariants": [3]},
    "rayclass-d3-ramified": {"modulus": "d=3:3+0*w", "invariants": [], "order": 1,
                             "unit_group_invariants": [6]},
    "rayclass-d3-mixed": {"modulus": "d=3:6+0*w", "invariants": [3], "order": 3,
                          "unit_group_invariants": [3, 6]},
    "rayclass-d2-inert": {"modulus": "d=2:5+0*w", "invariants": [12], "order": 12,
                          "unit_group_invariants": [24]},
    "rayclass-d7-mixed": {"modulus": "d=7:14+0*w", "invariants": [21], "order": 21,
                          "unit_group_invariants": [42]},
    "lseries-d1-mixed-char": {"B": 3000, "d": 1, "modulus": "d=1:6+3*w", "s": 2.0,
                              "dirichlet_error": 0.07407407407407407},
    "lseries-d2-inert-char": {"B": 2000, "d": 2, "modulus": "d=2:5+0*w", "s": 1.5,
                              "dirichlet_error": 1.8090680674665818},
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_non_generator_fields_pinned(name, capsys):
    argv = dict(CASES)[name]
    assert main(argv) == 0
    out, _ = capsys.readouterr()
    if "csv" in argv:
        header, row = out.splitlines()
        rec = dict(zip(header.split(","), row.split(",")))
        gens, invs = rec["generators"].split(";"), rec["invariants"].split(";")
    else:
        rec = json.loads(out)["records"][0]
        gens, invs = rec.get("generators", []), rec.get("invariants", [])
    assert {k: rec[k] for k in PINNED[name]} == PINNED[name]
    # one generator per Smith invariant
    assert len(gens) == len(invs)
