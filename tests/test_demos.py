"""Every demo runs in a fresh interpreter against this checkout, exits 0,
writes nothing to stderr, and prints the same bytes as when its digest was
recorded.  Update a digest only for a deliberate change of output, and say
which one in CHANGES.md."""

import hashlib
import pathlib
import subprocess
import sys

import pytest

from test_cli import child_env

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "01_rings_and_primes.py": "00171b2169b6447d1e3acdca4f0ad12399fb9e4d197a56d13ca38d6b104fd4c4",
    "02_ray_class_groups.py": "33be66c89c151260b8e39db5297d63aed97671675f8672961f020eb226b01159",
    "03_twist_table.py": "b30b3af9b026c69b45e97632add3a3d9d3b26159882a668a51c97b36e3bf7755",
    "04_anticyclotomic_towers.py": "7048879b72271a2f3e073d5f3d51719942b394abb20ed774b66ef1336314661c",
    "05_nonvanishing.py": "335a2b3d91e95a0f70d3681d2ecc48d32a1f61f4ceec6fd157310a8dd74d883e",
    "06_l_series.py": "d2b95eeada456d3e1a14e923cdde67c1c61d2ca31c1ba438962ed750039fc36c",
    "07_class_groups.py": "414e9052d96d391d59de5cfa54b1b39fdc5fad8a34afccd2d06e47b672fa80d3",
    "08_selmer_growth.py": "a1d4bc7a596cbffbc6d0f16e5fa95bc4c62fa1e0e16befc4e4f616d9659eef19",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout(name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          env=child_env(), cwd=DEMOS.parent, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
