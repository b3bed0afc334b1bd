import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest
from sympy import isprime

import iqtower
from iqtower import cli
from iqtower import selmerrank as sr
from iqtower.cli import main
from iqtower.okring import field, parse_element
from iqtower.rayclass import UnitGroup, euler_phi, ray_class_group

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

    def test_rayclass_realizes_only_the_printed_generators(self, capsys, monkeypatch):
        # the unit group's invariants need no realized generators
        words = []
        power_word = UnitGroup.power_word

        def recorded(self, exponents):
            words.append(exponents)
            return power_word(self, exponents)

        monkeypatch.setattr(UnitGroup, "power_word", recorded)
        code, out, _ = run_cli(["rayclass", "--d", "1", "--modulus", "35"], capsys)
        rec = json.loads(out)["records"][0]
        assert code == 0 and len(rec["unit_group_invariants"]) == 3
        assert len(words) == len(rec["generators"]) == len(rec["invariants"]) == 2

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
        assert code == 2 and "tower depth 9 exceeds the cap 4" in err
        code, _, err = run_cli(["lseries", "--d", "1", "--modulus", "1", "--s", "2.0",
                                "--B", str(10 ** 9)], capsys)
        assert code == 2
        code, _, err = run_cli(["rayclass", "--d", "1", "--modulus", "1001+100*w"], capsys)
        assert code == 2 and "norm" in err

    @pytest.mark.parametrize("flag,value,reason", [
        ("--B", "0", "below 2"), ("--B", "1", "below 2"), ("--B", "-5", "below 2"),
        ("--s", "nan", "finite"), ("--s", "inf", "finite")])
    def test_lseries_bad_bound_or_s_is_2(self, capsys, flag, value, reason):
        args = {"--s": "2.0", "--B": "100", flag: value}
        code, out, err = run_cli(["lseries", "--d", "1", "--modulus", "1",
                                  "--s", args["--s"], "--B", args["--B"]], capsys)
        assert code == 2 and out == "" and reason in err

    def test_precondition_violation_is_3(self, capsys):
        code, _, err = run_cli(["tower", "--d", "1", "--q", "7", "--depth", "1"], capsys)
        assert code == 3 and "split" in err
        code, _, err = run_cli(["nonvanish", "--d", "1", "--p", "7", "--q", "3",
                                "--lambda", "3"], capsys)
        assert code == 3
        code, _, err = run_cli(["classgroup", "--disc", "-6"], capsys)
        assert code == 3

    def test_nonvanish_lambda_in_the_chosen_prime_is_3(self, capsys):
        # the default root 2 of -1 mod 5 sends 1 + 2i to 1 + 2*2 = 0
        code, out, err = run_cli(["nonvanish", "--d", "1", "--p", "5", "--q", "3",
                                  "--lambda", "1+2*w"], capsys)
        assert code == 3 and out == "" and "--root" in err
        code, _, _ = run_cli(["nonvanish", "--d", "1", "--p", "5", "--q", "3",
                              "--lambda", "1+2*w", "--root", "3"], capsys)
        assert code == 0

    def test_lseries_character_of_the_wrong_length_is_3(self, capsys):
        # the ray class group of 3 in Z[i] is cyclic of order 2: one exponent
        code, out, err = run_cli(["lseries", "--d", "1", "--modulus", "3", "--s", "2.0",
                                  "--B", "200", "--char", "1,1"], capsys)
        assert code == 3 and out == "" and "does not match" in err

    def test_tower_negative_depth_is_3(self, capsys):
        code, out, err = run_cli(["tower", "--d", "1", "--q", "5", "--depth", "-1"], capsys)
        assert code == 3 and out == "" and "nonnegative" in err

    @pytest.mark.parametrize("S", [["4", "6"], ["0"], ["-5"], ["2", "9"]])
    def test_classgroup_non_prime_s_is_3(self, capsys, S):
        code, out, err = run_cli(["classgroup", "--disc", "-471", "--S", *S], capsys)
        assert code == 3 and out == "" and "not a prime" in err

    def test_classgroup_s_checked_before_the_group(self, capsys, monkeypatch):
        # near the cap the group takes seconds to build; a bad S must not wait
        def no_group(disc):
            raise AssertionError("class group built before S was checked")
        monkeypatch.setattr("iqtower.cli.class_group", no_group)
        monkeypatch.setattr("iqtower.classforms.class_group", no_group)
        code, out, err = run_cli(["classgroup", "--disc", "-99999999", "--S", "4"],
                                 capsys)
        assert code == 3 and out == "" and "not a prime" in err

    @pytest.mark.parametrize("disc", ["-100000003", "100000001"])
    def test_classgroup_disc_cap_is_2(self, capsys, disc):
        code, out, err = run_cli(["classgroup", "--disc", disc], capsys)
        assert code == 2 and out == "" and "cap" in err

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


class TestParserBuiltOnce:
    """`main` parses with the one parser built at import."""

    @staticmethod
    def _tree(parser):
        yield parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from TestParserBuiltOnce._tree(sub)

    def test_main_builds_no_parser(self, tmp_path, capsys, monkeypatch):
        tower = tmp_path / "t.json"
        tower.write_text(json.dumps({"label": "t", "q": 3, "d": 1, "p": 5, "levels": [
            {"n": 0, "s_f": 1, "r_cl": 0, "r_cls": 0, "sel0": {"s": 1, "T": []}}]}))
        calls = [
            (["table2"], 0), (["table2", "--format", "csv"], 0),
            (["rayclass", "--d", "1", "--modulus", "2+1*w"], 0),
            (["rayclass", "--d", "1", "--modulus", "0"], 2),
            (["tower", "--d", "1", "--q", "5", "--depth", "1"], 0),
            (["tower", "--d", "1", "--q", "5", "--depth", "9"], 2),
            (["cmsearch", "--d", "43", "--rbound", "3"], 0),
            (["cmsearch", "--d", "3", "--rbound", "3"], 3),
            (["nonvanish", "--d", "1", "--p", "5", "--q", "3", "--lambda", "7"], 0),
            (["nonvanish", "--d", "1", "--p", "7", "--q", "3", "--lambda", "3"], 3),
            (["lseries", "--d", "1", "--modulus", "1", "--s", "2.0", "--B", "200"], 0),
            (["lseries", "--d", "1", "--modulus", "3", "--s", "2.0", "--B", "200",
              "--char", "1"], 0),
            (["classgroup", "--disc", "-23"], 0),
            (["classgroup", "--disc", "-23", "--S", "2", "3"], 0),
            (["classgroup", "--disc", "-6"], 3),
            (["selmer", "--input", str(tower)], 0),
            (["selmer", "--input", str(tower), "--p", "7"], 2),
            (["fit", "--q", "3", "--e", "5,5,5,5"], 0),
            (["fit", "--q", "3", "--e", "7,6,13,32,87", "--format", "csv"], 0),
            (["table2", "--out", str(tmp_path / "t2.json")], 0),
        ]
        assert len(calls) == 20
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv, code in calls:
            assert main(argv) == code, argv
        capsys.readouterr()
        assert built == []

    def test_usage_error_leaves_no_state(self, capsys):
        argv = ["classgroup", "--disc", "-23"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["classgroup", "--disc", "-23", "--S", "2", "x"])
        assert exc.value.code == 2
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(second)["config"]["S"] == []

    def test_no_mutable_default(self):
        mutable = (list, dict, set, bytearray)
        parsers = list(self._tree(cli.PARSER))
        assert len(parsers) == 10
        for parser in parsers:
            for action in parser._actions:
                assert not isinstance(action.default, mutable), (parser.prog, action.dest)
            for key, value in parser._defaults.items():
                assert not isinstance(value, mutable), (parser.prog, key)


class TestCaps:
    """The worst inputs with an inert or ramified factor that the modulus cap
    (norm <= 10^6) admits build in bounded time, and so do towers at a
    seven-digit q and at the q cap, an L-value at the largest split
    prime under the modulus cap, the slowest fit under its caps, and the
    rejection of a tower file whose q is a prime of thousands of digits."""

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

    def test_tower_large_q(self, capsys):
        # the q-part generator is a power near q: reduced at every step it
        # stays small, unreduced it has about q digits
        start = time.perf_counter()
        code, out, _ = run_cli(["tower", "--d", "1", "--q", "1000033", "--depth", "1"], capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        recs = json.loads(out)["records"]
        assert [r["order"] for r in recs] == [1, 1000033]
        assert recs[1]["invariants"] == [1000033]
        assert elapsed < self.SECONDS, elapsed

    def test_tower_q_at_cap(self):
        # the slowest q measured below the cap at depth 4 over the nine fields
        # (q - 1 = 2 * prime; q - 1 = 4 * prime in d = 1, 6 * prime in d = 3)
        q = 99998819
        assert q <= cli.MAX_TOWER_Q
        script = ("import resource, sys, time\n"
                  "from iqtower.cli import MAX_TOWER_DEPTH, main\n"
                  "start = time.perf_counter()\n"
                  f"code = main(['tower', '--d', '2', '--q', '{q}',\n"
                  "             '--depth', str(MAX_TOWER_DEPTH)])\n"
                  "print(code, time.perf_counter() - start,\n"
                  "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=child_env())
        code, elapsed, rss_kb = proc.stderr.split()
        assert code == "0"
        recs = json.loads(proc.stdout)["records"]
        assert [r["order"] for r in recs] == [q ** n for n in range(cli.MAX_TOWER_DEPTH + 1)]
        assert float(elapsed) < self.SECONDS, elapsed
        assert int(rss_kb) < 300 * 1024, rss_kb

    def test_tower_q_past_cap_is_2(self, capsys, monkeypatch):
        def no_tower(tag, q, depth):
            raise AssertionError("built a tower past the cap")
        monkeypatch.setattr("iqtower.cli.anticyclotomic_tower", no_tower)
        code, out, err = run_cli(["tower", "--d", "2", "--q", str(cli.MAX_TOWER_Q + 1),
                                  "--depth", "1"], capsys)
        assert code == 2 and out == "" and "cap" in err

    def test_fit_at_caps(self):
        # the slowest --e measured under the cap: zeros and a 1 (the JSON
        # echo of the values dominates; 4,300-digit values and q^n + n
        # sequences that fit all the way down took less)
        script = ("import resource, sys, time\n"
                  "from iqtower.cli import MAX_FIT_CHARS, main\n"
                  "e = ','.join(['0'] * (MAX_FIT_CHARS // 2 - 1) + ['1'])\n"
                  "start = time.perf_counter()\n"
                  "code = main(['fit', '--q', '3', '--e', e])\n"
                  "print(code, time.perf_counter() - start,\n"
                  "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=child_env())
        code, elapsed, rss_kb = proc.stderr.split()
        assert code == "0"
        payload = json.loads(proc.stdout)
        assert len(payload["config"]["e"]) == cli.MAX_FIT_CHARS // 2
        assert payload["records"][0]["fitted"] is False
        assert float(elapsed) < self.SECONDS, elapsed
        assert int(rss_kb) < 300 * 1024, rss_kb

    @pytest.mark.parametrize("q,e,want", [
        ("3", "0," * (cli.MAX_FIT_CHARS // 2) + "1", 2),     # one character past the cap
        (str(cli.MAX_TOWER_Q + 7), "1,1,1,1", 2),             # a prime past the q cap
        ("9", "1,1,1,1", 3),                                  # q must be prime
        ("99999989", "1,1,1,1", 0),                           # the largest prime under the cap
    ])
    def test_fit_caps(self, capsys, q, e, want):
        code, out, err = run_cli(["fit", "--q", q, "--e", e], capsys)
        assert code == want
        assert (out == "") == (want != 0)
        if want == 2:
            assert "cap" in err
        if want == 3:
            assert "prime" in err

    def test_tower_file_prime_past_cap(self, tmp_path):
        # 1477! + 1 is a prime of 4,042 digits: sympy's isprime took 25 s on
        # it on a 2-vCPU x86-64 VM, so the cap on q must come before it
        path = tmp_path / "tower.json"
        path.write_text(json.dumps({
            "label": "x", "q": math.factorial(1477) + 1, "d": 1, "p": 5,
            "levels": [{"n": n, "s_f": 1, "r_cl": 0, "r_cls": 0} for n in range(100)]}))
        script = ("import resource, sys, time\n"
                  "from iqtower.cli import main\n"
                  "start = time.perf_counter()\n"
                  f"code = main(['selmer', '--input', {str(path)!r}])\n"
                  "print(code, time.perf_counter() - start,\n"
                  "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=child_env())
        *_, code, elapsed, rss_kb = proc.stderr.split()
        assert code == "4" and proc.stdout == ""
        assert f"tower file rejected: p and q must be at most {cli.MAX_TOWER_Q}" in proc.stderr
        assert float(elapsed) < self.SECONDS, elapsed
        assert int(rss_kb) < 300 * 1024, rss_kb

    def test_cmsearch_rbound_at_cap(self):
        # d = 163 is the slowest field at the cap: 16r^2 + 163 is prime for
        # the most r.  Run in a fresh interpreter to read its peak RSS.
        script = ("import resource, sys, time\n"
                  "from iqtower.cli import MAX_RBOUND, main\n"
                  "start = time.perf_counter()\n"
                  "code = main(['cmsearch', '--d', '163', '--rbound', str(MAX_RBOUND)])\n"
                  "print(code, time.perf_counter() - start,\n"
                  "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=child_env())
        code, elapsed, rss_kb = proc.stderr.split()
        assert code == "0"
        recs = json.loads(proc.stdout)["records"]
        assert len(recs) == sum(isprime(16 * r * r + 163)
                                for r in range(1, cli.MAX_RBOUND + 1))
        assert all(r["degree"] == (r["norm"] - 1) // 2 for r in recs)
        assert float(elapsed) < self.SECONDS, elapsed
        assert int(rss_kb) < 300 * 1024, rss_kb

    def test_lseries_largest_split_prime(self):
        # a prime of norm 999,961, the largest split prime under the norm cap:
        # chi of order 249,990 meets nearly every residue class at B = 10^6.
        # The digest is the output of the per-class dict path it replaced.
        script = ("import resource, sys, time\n"
                  "from iqtower.cli import main\n"
                  "start = time.perf_counter()\n"
                  "code = main(['lseries', '--d', '1', '--modulus', '765+644*w', '--char', '1',\n"
                  "             '--s', '2', '--B', '1000000'])\n"
                  "print(code, time.perf_counter() - start,\n"
                  "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=child_env())
        code, elapsed, rss_kb = proc.stderr.split()
        assert code == "0"
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
            "d0bbc43c1c081284f514f701ed3f287b830b4be2e67d12ad467898eb31f1a009"
        assert float(elapsed) < self.SECONDS, elapsed
        assert int(rss_kb) < 300 * 1024, rss_kb

    def test_cmsearch_rbound_past_cap_is_2(self, capsys, monkeypatch):
        def no_search(tag, r_bound):
            raise AssertionError("searched past the cap")
        monkeypatch.setattr("iqtower.cmsearch.find_twist_candidates", no_search)
        code, out, err = run_cli(["cmsearch", "--d", "43", "--rbound",
                                  str(cli.MAX_RBOUND + 1)], capsys)
        assert code == 2 and out == "" and "cap" in err


    def _main_fresh(self, argv):
        """main(argv) in a fresh interpreter: (exit code, stdout), with its
        time and peak RSS checked against the caps' bounds."""
        script = ("import resource, sys, time\n"
                  "from iqtower.cli import main\n"
                  "start = time.perf_counter()\n"
                  f"code = main({argv!r})\n"
                  "print(code, time.perf_counter() - start,\n"
                  "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=child_env())
        *_, code, elapsed, rss_kb = proc.stderr.split()
        assert float(elapsed) < self.SECONDS, (argv[0], elapsed)
        assert int(rss_kb) < 300 * 1024, (argv[0], rss_kb)
        return int(code), proc.stdout

    def test_classgroup_s_at_cap(self):
        # one prime of MAX_S_DIGITS digits: a prime's test and square root
        # cost the cube of its digits, so the digits of S are slowest together
        ell = 10 ** (cli.MAX_S_DIGITS - 1) + 153
        assert isprime(ell)
        code, out = self._main_fresh(["classgroup", "--disc", "-23", "--S", str(ell)])
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["S"] == [ell] and rec["order"] == 3

    def test_classgroup_s_past_cap_is_2(self, capsys, monkeypatch):
        def no_group(disc, primes):
            raise AssertionError("built an S-class group past the cap")
        monkeypatch.setattr("iqtower.cli.s_class_group", no_group)
        S = [str(ell) for ell in (10 ** (cli.MAX_S_DIGITS - 2) + 1, 2, 3)]
        assert sum(map(len, S)) == cli.MAX_S_DIGITS + 1
        code, out, err = run_cli(["classgroup", "--disc", "-23", "--S", *S], capsys)
        assert code == 2 and out == "" and "cap" in err

    def test_nonvanish_at_caps(self):
        # the prime of 300 digits below 10^300 that splits in Z[i], q at its
        # cap, and a k of 4,300 digits, Python's limit for int()
        p, q = 10 ** cli.MAX_RESIDUE_P_DIGITS - 347, 99999989
        assert isprime(p) and p % 4 == 1 and len(str(p)) == cli.MAX_RESIDUE_P_DIGITS
        code, out = self._main_fresh(["nonvanish", "--d", "1", "--p", str(p), "--q", str(q),
                                         "--lambda", "3+2*w", "--k", "9" * 4300])
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["N1"] in (0, 1) and (p - 1) % q != 0

    @pytest.mark.parametrize("p,q", [
        (10 ** 300 + 7, 3),                         # 301 digits
        (math.factorial(1477) + 1, 3),              # a prime of 4,042 digits
        (5, cli.MAX_TOWER_Q + 7),                   # a prime past the q cap
    ])
    def test_nonvanish_past_caps_is_2(self, capsys, monkeypatch, p, q):
        def no_embedding(*args):
            raise AssertionError("tested a prime past the cap")
        monkeypatch.setattr("iqtower.cli.ResidueEmbedding.create", no_embedding)
        code, out, err = run_cli(["nonvanish", "--d", "1", "--p", str(p), "--q", str(q),
                                  "--lambda", "3+2*w"], capsys)
        assert code == 2 and out == "" and "cap" in err

    def test_selmer_file_at_cap(self, tmp_path):
        # the slowest file measured under the cap: torsion orders 2^k of
        # 4,300 digits, whose 2-adic valuations take one division per bit
        k = 14284
        assert len(str(2 ** k)) == 4300
        levels = [{"n": 0, "s_f": 0, "r_cl": 0, "r_cls": 0, "sel0": {"s": 0, "T": [2 ** k] * 15}}]
        text = json.dumps({"label": "x", "q": 3, "d": 1, "p": 2, "levels": levels})
        assert len(text) <= sr.MAX_TOWER_FILE_BYTES < len(text) * 16 / 15
        path = tmp_path / "tower.json"
        path.write_text(text)
        code, out = self._main_fresh(["selmer", "--input", str(path)])
        assert code == 0
        assert [r["n"] for r in json.loads(out)["records"]] == [0]

    def test_selmer_file_past_cap_is_4(self, capsys, tmp_path):
        # 10^5 levels in 4.7 MB took 1.6-1.8 s before the cap (2-vCPU x86-64 VM)
        path = tmp_path / "tower.json"
        path.write_text(json.dumps({
            "label": "x", "q": 3, "d": 1, "p": 5,
            "levels": [{"n": n, "s_f": 0, "r_cl": 0, "r_cls": 0} for n in range(10 ** 5)]}))
        start = time.perf_counter()
        code, out, err = run_cli(["selmer", "--input", str(path)], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 4 and out == ""
        assert f"exceeds the cap of {sr.MAX_TOWER_FILE_BYTES} bytes" in err


class TestLargeSPrime:
    def test_classgroup_s_prime_form(self, capsys):
        # a scan over b < 2*ell would take about 2*10^9 steps
        start = time.perf_counter()
        code, out, _ = run_cli(["classgroup", "--disc", "-471", "--S", "1000000007"],
                               capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        rec = json.loads(out)["records"][0]
        # Cl(-471) is cyclic of order 16, and the prime form of 10^9 + 7 is
        # (2, -1, 59), the inverse of a generator
        assert rec["S"] == [1000000007] and rec["invariants"] == [16]
        assert rec["s_order"] == 1
        assert elapsed < 2.0, elapsed


class TestLargePrime:
    """`nonvanish` at a split p with p^2 > 2^63: the root of -1 mod p is not
    found by scanning [0, p), and F_p arithmetic must not overflow int64.
    `nonvanish` builds no extension field: the distinctness of the q^m-th
    roots of unity mod p is a theorem."""

    P, Q = 4294967357, 7

    @pytest.mark.parametrize("lam,x,y,k", [("3+2*w", 3, 2, 4), ("5", 5, 0, 2)])
    def test_nonvanish(self, capsys, lam, x, y, k):
        p, q = self.P, self.Q
        start = time.perf_counter()
        code, out, _ = run_cli(["nonvanish", "--d", "1", "--p", str(p), "--q", str(q),
                                "--lambda", lam, "--k", str(k)], capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        rec = json.loads(out)["records"][0]
        s = rec["s"]
        assert s * s % p == p - 1 and s < p - s     # the smaller square root of -1
        residue = (x * x + y * y) * pow((x + y * s) % p, -k, p) % p
        assert rec["residue"] == residue
        # 7 does not divide p - 1, so the residue is a 7-power root of unity
        # only when it is 1
        assert (p - 1) % q != 0
        assert rec["N1"] == (1 if residue == 1 else 0)
        assert elapsed < 2.0, elapsed


    def test_nonvanish_near_1e12(self, capsys):
        # ord(p mod 3^3) = 2, so a check that built F_{p^2} would search
        # about 10^12 quadratic candidates
        p = 1000000000997
        assert isprime(p) and p % 4 == 1 and pow(p, 2, 27) == 1 != p % 27
        start = time.perf_counter()
        code, out, _ = run_cli(["nonvanish", "--d", "1", "--p", str(p), "--q", "3",
                                "--lambda", "3+2*w", "--k", "4"], capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["distinct_roots_mod_p"] is True
        # 3 does not divide p - 1: N1 is 1 when the residue is 1 and 0 otherwise
        assert (p - 1) % 3 != 0
        assert rec["N1"] == (1 if rec["residue"] == 1 else 0)
        assert elapsed < 2.0, elapsed


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
