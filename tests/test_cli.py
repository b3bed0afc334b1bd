import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

import iqtower
from iqtower.cli import main
from iqtower.okring import field, parse_element
from iqtower.rayclass import euler_phi, ray_class_group

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def child_env():
    """Environment whose PYTHONPATH puts the imported iqtower package first,
    so a child process runs this checkout and not some installed copy."""
    src = str(pathlib.Path(iqtower.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def load_toml(path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: tomllib is 3.11+
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestTable2:
    def test_csv_degrees(self, capsys):
        code, out, err = run_cli(["table2", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\r\n")
        assert lines[0] == "d,bad_primes,norm,degree,condition_c,source,flag"
        rows = [line.split(",") for line in lines[1:]]
        degrees = [int(r[3]) for r in rows[:6]] + [int(r[3]) for r in rows[-3:]]
        assert [int(line.split(",")[0]) for line in lines[1:7]] == [1, 2, 3, 7, 11, 19]
        got = {}
        for line in lines[1:]:
            first = line.split(",")
            got[int(first[0])] = int(first[3])
        assert got == {1: 1, 2: 1, 3: 6, 7: 21, 11: 1, 19: 3, 43: 29, 67: 41, 163: 89}
        d19_line = [line for line in lines if line.startswith("19,")][0]
        assert "norm 5" in d19_line

    def test_json_has_config(self, capsys):
        code, out, _ = run_cli(["table2"], capsys)
        payload = json.loads(out)
        assert payload["config"] == {"command": "table2"}
        assert len(payload["records"]) == 9


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(["tower", "--d", "2", "--q", "11", "--depth", "2"], capsys)
            outs.append(out)
        assert outs[0] == outs[1]
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(["lseries", "--d", "1", "--modulus", "1", "--s", "2.0",
                                 "--B", "2000"], capsys)
            outs.append(out)
        assert outs[0] == outs[1]


class TestSubcommands:
    def test_rayclass(self, capsys):
        code, out, _ = run_cli(["rayclass", "--d", "43", "--modulus", "4+1*w"], capsys)
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["order"] == 29 and rec["invariants"] == [29]

    def test_tower(self, capsys):
        code, out, _ = run_cli(["tower", "--d", "1", "--q", "5", "--depth", "2"], capsys)
        recs = json.loads(out)["records"]
        assert [r["order"] for r in recs] == [1, 5, 25]

    def test_cmsearch(self, capsys):
        code, out, _ = run_cli(["cmsearch", "--d", "43", "--rbound", "2"], capsys)
        recs = json.loads(out)["records"]
        assert recs[0]["prime"] == "d=43:4+1*w" and recs[0]["degree"] == 29

    def test_nonvanish(self, capsys):
        code, out, _ = run_cli(["nonvanish", "--d", "1", "--p", "5", "--q", "3",
                                "--lambda", "7", "--k", "4"], capsys)
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert "N1" in rec and rec["s"] == 2
        assert rec["distinct_roots_mod_p"] is True

    def test_lseries(self, capsys):
        code, out, _ = run_cli(["lseries", "--d", "1", "--modulus", "1", "--s", "2.0",
                                "--B", "50000"], capsys)
        rec = json.loads(out)["records"][0]
        assert abs(rec["dirichlet"] - 1.50670) < 1e-3
        assert abs(rec["euler"] - 1.50670) < 1e-3

    def test_classgroup(self, capsys):
        code, out, _ = run_cli(["classgroup", "--disc", "-23", "--S", "2"], capsys)
        rec = json.loads(out)["records"][0]
        assert rec["order"] == 3 and rec["s_order"] == 1

    def test_selmer(self, tmp_path, capsys):
        payload = {"label": "t", "q": 3, "d": 1, "p": 5,
                   "levels": [{"n": 0, "s_f": 1, "r_cl": 0, "r_cls": 0,
                               "sel0": {"s": 1, "T": []}},
                              {"n": 1, "s_f": 1, "r_cl": 0, "r_cls": 0,
                               "sel0": {"s": 1, "T": []}}]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(["selmer", "--input", str(path)], capsys)
        assert code == 0
        recs = json.loads(out)["records"]
        assert all(r["stabilized_at"] == 0 for r in recs)

    def test_fit(self, capsys):
        code, out, _ = run_cli(["fit", "--q", "3", "--e", "5,5,5,5"], capsys)
        rec = json.loads(out)["records"][0]
        assert (rec["mu"], rec["lambda"], rec["nu"]) == (0, 0, 5)

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, _, _ = run_cli(["table2", "--format", "csv", "--out", str(target)], capsys)
        assert code == 0
        assert target.read_text().startswith("d,bad_primes")


class TestExitCodes:
    def test_invalid_config_is_2(self, capsys):
        code, _, err = run_cli(["tower", "--d", "1", "--q", "5", "--depth", "9"], capsys)
        assert code == 2 and "cap" in err
        code, _, err = run_cli(["lseries", "--d", "1", "--modulus", "1", "--s", "2.0",
                                "--B", str(10 ** 9)], capsys)
        assert code == 2
        code, _, err = run_cli(["rayclass", "--d", "1", "--modulus", "1001+100*w"], capsys)
        assert code == 2 and "norm" in err

    def test_precondition_violation_is_3(self, capsys):
        code, _, err = run_cli(["tower", "--d", "1", "--q", "7", "--depth", "1"], capsys)
        assert code == 3 and "split" in err
        code, _, err = run_cli(["nonvanish", "--d", "1", "--p", "7", "--q", "3",
                                "--lambda", "3"], capsys)
        assert code == 3
        code, _, err = run_cli(["classgroup", "--disc", "-6"], capsys)
        assert code == 3

    def test_ingest_failure_is_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, err = run_cli(["selmer", "--input", str(bad)], capsys)
        assert code == 4

    @pytest.mark.parametrize("top,sel0", [
        ({"d": True}, {"s": 0, "T": []}),
        ({}, {"s": 0, "T": [25.0]}),
        ({}, {"s": 0, "T": ["a"]}),
    ])
    def test_tower_file_wrong_types_are_4(self, tmp_path, capsys, top, sel0):
        payload = {"label": "x", "q": 3, "d": 1, "p": 5,
                   "levels": [{"n": 0, "s_f": 0, "r_cl": 0, "r_cls": 0, "sel0": sel0}],
                   **top}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code, out, err = run_cli(["selmer", "--input", str(bad)], capsys)
        assert code == 4 and out == "" and "rejected" in err

    def test_argparse_error_is_2(self):
        proc = subprocess.run([sys.executable, "-m", "iqtower.cli", "tower", "--d", "1"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 2

    def test_threads_env_validated(self, capsys, monkeypatch):
        monkeypatch.setenv("ITL_THREADS", "zero")
        code, _, err = run_cli(["fit", "--q", "3", "--e", "1,1,1,1"], capsys)
        assert code == 2 and "ITL_THREADS" in err
        monkeypatch.setenv("ITL_THREADS", "4")
        code, _, _ = run_cli(["fit", "--q", "3", "--e", "1,1,1,1"], capsys)
        assert code == 0


class TestCaps:
    """The worst inputs with an inert or ramified factor that the modulus cap
    (norm <= 10^6) admits build in bounded time."""

    SECONDS = 2.0

    @pytest.mark.parametrize("d,modulus,units", [
        (1, "343", [49, 2352]),          # 7^3, inert
        (1, "991", None),                # inert, norm 982081
        (1, "-512+512*w", None),         # (1+i)^19, ramified
        (3, "729", None),                # 3^6 = sqrt(-3)^12 up to a unit
        (3, "512", None),                # 2^9, inert
        (2, "625", None),                # 5^4, inert
    ])
    def test_worst_nonsplit_inputs(self, capsys, d, modulus, units):
        ray_class_group.cache_clear()
        start = time.perf_counter()
        code, out, _ = run_cli(["rayclass", "--d", str(d), f"--modulus={modulus}"], capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        rec = json.loads(out)["records"][0]
        phi = euler_phi(parse_element(field(d), modulus))
        assert math.prod(rec["unit_group_invariants"]) == phi
        if units is not None:
            assert rec["unit_group_invariants"] == units
        assert elapsed < self.SECONDS, (d, modulus, elapsed)


class TestEntryPoint:
    def test_console_script(self):
        # Run the declared [project.scripts] target in a fresh interpreter the
        # way the wrapper that pip writes onto PATH does, so no install is needed.
        target = load_toml(PYPROJECT)["project"]["scripts"]["iqtower"]
        assert target == "iqtower.cli:main"
        module, func = target.split(":")
        wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
        proc = subprocess.run([sys.executable, "-c", wrapper,
                               "fit", "--q", "3", "--e", "2,2,2,2"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["records"][0]["nu"] == 2
