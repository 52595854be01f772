import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from simds import GF
from simds.cli import main

REMARK = '{"p":2,"m":3,"poly":13,"n":3,"rows":[[6,1,5],[1,6,3],[5,3,6]]}'
PARAMS16 = '{"field":{"p":2,"m":4,"poly":25},"a":[1,2,4],"d":[2,2,9],"x":1,"y":2}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_remark_matrix(capsys):
    code, out, err = run(capsys, "check", "--json", REMARK)
    assert code == 0
    assert json.loads(out) == {"mds": True, "involutory": False, "si": True,
                               "branch": "nowhere-zero", "D": [7, 6, 3],
                               "c": 1, "a": 1}


def test_check_identity(capsys):
    mat = '{"p":2,"m":3,"poly":13,"n":3,"rows":[[1,0,0],[0,1,0],[0,0,1]]}'
    code, out, _ = run(capsys, "check", "--json", mat)
    rep = json.loads(out)
    assert code == 0
    assert rep["mds"] is False and rep["involutory"] is True and rep["si"] is True


def test_check_f11(capsys):
    code, out, _ = run(capsys, "check", "--json",
                       '{"p":11,"m":1,"n":2,"rows":[[7,3],[4,2]]}')
    rep = json.loads(out)
    assert code == 0 and rep["si"] is True and rep["mds"] is True


def test_check_singular_in_band(capsys):
    mat = '{"p":2,"m":2,"poly":7,"n":3,"rows":[[1,3,3],[3,2,2],[1,3,3]]}'
    code, out, _ = run(capsys, "check", "--json", mat)
    rep = json.loads(out)
    assert code == 0
    assert rep["si"] is False and rep["singular"] is True


def test_check_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "check", "--json", "{broken")
    assert code == 2 and err
    code, _, _ = run(capsys, "check", "--json",
                     '{"p":2,"m":3,"n":3,"rows":[[1,1,1],[1,1,1],[1,1,1]]}')
    assert code == 2  # no default modulus


def test_check_out_of_domain_input_exit_2(capsys):
    code, _, err = run(capsys, "check", "--json",
                       '{"p":1000000000000000003,"m":1,"n":2,"rows":[[1,0],[0,1]]}')
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "check", "--json",
                       '{"p":2,"m":3,"poly":11,"n":2,"rows":[[true,false],[false,true]]}')
    assert code == 2 and "boolean" in err


def test_negative_modulus_exit_2(capsys):
    for argv in (("field-table", "--m", "3", "--poly", "-9"),
                 ("field-table", "--m", "3", "--poly", "-13"),
                 ("check", "--json", '{"p":2,"m":3,"poly":-13,"rows":[[1]]}')):
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "irreducible" in err
        assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("p", [2, 3])
def test_check_5x5_identity(capsys, p):
    """The 5x5 identity is semi-involutory with witness I; deciding that
    it is reducible, so that it has no witness scalars, takes no search
    over its 5! permutations."""
    rows = [[int(i == j) for j in range(5)] for i in range(5)]
    code, out, err = run(capsys, "check", "--json",
                         json.dumps({"p": p, "m": 1, "n": 5, "rows": rows}))
    assert code == 0 and not err
    assert json.loads(out) == {"mds": False, "involutory": True, "si": True,
                               "branch": "oracle-only", "D": [1] * 5}


def test_check_large_n_exit_3(capsys):
    """The MDS test of an n x n Cauchy matrix (MDS, so no early exit)
    stops at its minor budget."""
    gf = GF(2, 8, 0b100011011)
    for n in (12, 16):
        rows = [[gf.inv(i ^ (n + j)) for j in range(n)] for i in range(n)]
        t0 = time.monotonic()
        code, out, err = run(capsys, "check", "--json",
                             json.dumps({**gf.to_dict(), "rows": rows}))
        assert code == 3 and not out and "minors" in err
        assert time.monotonic() - t0 < 2.0


def test_check_entry_budget_exit_3(capsys):
    """`check` refuses a matrix of more than CHECK_BUDGET = 4096 entries
    before its O(n^3) work: det, the involution test and the oracle's
    search plan.  A triangular matrix over GF(2) has a width-1 diagonal
    search and a zero entry, so no other budget stops it."""
    n = 200
    gf2 = GF(2)
    gf16 = GF(2, 4, 0b10011)
    payloads = (
        {**gf2.to_dict(), "rows": [[int(j >= i) for j in range(n)] for i in range(n)]},
        {**gf16.to_dict(), "rows": [[(i * n + j) % 16 for j in range(n)]
                                    for i in range(n)]})
    for payload in payloads:
        t0 = time.monotonic()
        code, out, err = run(capsys, "check", "--json", json.dumps(payload))
        assert time.monotonic() - t0 < 1.0
        assert code == 3 and not out
        assert err == "budget: n^2 = 40000 entries exceed the check budget 4096\n"


def test_check_oracle_budget_exit_3(capsys):
    """The semi-involutory check of a non-singular 4x4 matrix over
    GF(16) stops at its diagonal budget: 15^4 diagonals exceed 4096."""
    gf = GF(2, 4, 0b10011)
    rows = [[gf.inv(i ^ (4 + j)) for j in range(4)] for i in range(4)]
    t0 = time.monotonic()
    code, out, err = run(capsys, "check", "--json",
                         json.dumps({**gf.to_dict(), "rows": rows}))
    assert code == 3 and not out
    assert err == "budget: (q-1)^4 = 50625 exceeds the search budget 4096\n"
    assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("m, poly", [(8, 283), (12, 4179), (13, 8219)])
def test_check_3x3_witness_reach(capsys, m, poly):
    """A 3x3 `check` solves its witness in one walk over d2, so the
    matrix `build` makes from a = (2, 3, 5), d = (7, 11, 13), x = 17,
    y = 19 is witnessed over GF(2^8) and GF(2^12), with c = 1 and D a
    multiple of d; over GF(2^13) the walk's q - 1 exceeds the budget."""
    gf = GF(2, m, poly)
    params = {"field": gf.to_dict(), "a": [2, 3, 5], "d": [7, 11, 13], "x": 17, "y": 19}
    t0 = time.monotonic()
    code, out, _ = run(capsys, "build", "--json", json.dumps(params))
    assert code == 0
    code, out, err = run(capsys, "check", "--json", json.dumps(json.loads(out)["matrix"]))
    assert time.monotonic() - t0 < 2.0
    if m == 13:
        assert code == 3 and not out
        assert err == "budget: (q-1)^1 = 8191 exceeds the search budget 4096\n"
        return
    rep = json.loads(out)
    assert code == 0 and rep["si"] is True and rep["c"] == 1
    assert len({gf.div(w, d) for w, d in zip(rep["D"], (7, 11, 13))}) == 1


def test_count_many_jobs_capped(capsys, inline_pool):
    code, out, _ = run(capsys, "count", "--m", "2", "--poly", "7",
                       "--set", "S", "--jobs", "100000")
    assert code == 0 and json.loads(out)["match"] is True
    assert inline_pool == [min(3 ** 6, os.cpu_count() or 1)]


def test_count_huge_jobs_bounded(capsys, monkeypatch, inline_pool):
    """A job count far above the CPUs is capped at them before the work
    is split, so it costs no more spans than the CPUs ask for: at
    q = 16 with two CPUs, 10^9 jobs make 8 spans and a pool of 2."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run(capsys, "count", "--m", "4", "--poly", "19", "--set", "S",
                         "--jobs", "1000000000", "--progress")
    assert code == 0 and json.loads(out)["match"] is True
    lines = err.splitlines()
    assert len(lines) <= 8 and lines[-1] == "progress 100%"
    assert inline_pool == [2]


@pytest.mark.parametrize("command", ["count", "verify-lemmas"])
@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_exit_2(capsys, command, jobs):
    """A job count below 1 is bad input, not a silent one-process run."""
    code, out, err = run(capsys, command, "--m", "2", "--poly", "7", "--jobs", str(jobs))
    assert code == 2 and not out
    assert err == f"error: jobs must be at least 1, not {jobs}\n"


def test_build_gf16_example(capsys):
    code, out, _ = run(capsys, "build", "--json", PARAMS16)
    rep = json.loads(out)
    assert code == 0
    assert rep["matrix"]["rows"] == [[1, 10, 10], [9, 2, 10], [8, 5, 4]]
    assert rep["mds"] is True and rep["si"] is True
    assert rep["ada"] == [7, 7, 9]
    assert rep["sums"]["nonzero"] == [True, True, True, True]


def test_build_counterexample(capsys):
    params = '{"field":{"p":2,"m":2,"poly":7},"a":[1,2,3],"d":[2,3,1],"x":2,"y":3}'
    code, out, _ = run(capsys, "build", "--json", params)
    rep = json.loads(out)
    assert code == 0
    assert rep["det"] == 0 and rep["si"] is False and rep["mds"] is False


def test_build_zero_param_exit_2(capsys):
    params = '{"field":{"p":2,"m":3,"poly":13},"a":[0,2,4],"d":[2,2,1],"x":1,"y":2}'
    code, _, err = run(capsys, "build", "--json", params)
    assert code == 2 and err


def test_booleans_rejected_exit_2(capsys):
    params = ('{"field":{"p":2,"m":3,"poly":13},"a":[true,2,4],"d":[2,2,true],'
              '"x":true,"y":2}')
    code, _, err = run(capsys, "build", "--json", params)
    assert code == 2 and "boolean" in err
    code, out, _ = run(capsys, "build", "--json", PARAMS16)
    matrix = json.dumps(json.loads(out)["matrix"])
    code, _, err = run(capsys, "extract", "--json",
                       '{"matrix": %s, "D": [true,true,true]}' % matrix)
    assert code == 2 and "boolean" in err
    code, _, err = run(capsys, "check", "--json",
                       '{"p":2,"m":true,"rows":[[1]]}')
    assert code == 2 and "boolean" in err


def test_non_integer_numbers_rejected_exit_2(capsys):
    params = ('{"field":{"p":2,"m":3,"poly":13},"a":[1.9,2,4],"d":[2,2,"3"],'
              '"x":1,"y":2}')
    code, out, err = run(capsys, "build", "--json", params)
    assert code == 2 and not out and "1.9" in err
    code, out, err = run(capsys, "check", "--json",
                         '{"p":2.5,"m":"3","poly":13,"rows":[[1]]}')
    assert code == 2 and not out and "2.5" in err
    code, out, err = run(capsys, "check", "--json",
                         '{"p":2,"m":3,"poly":13,"n":1.0,"rows":[[1]]}')
    assert code == 2 and not out and "1.0" in err


@pytest.mark.parametrize("command", ["check", "build", "extract"])
def test_deeply_nested_payload_exit_2(capsys, tmp_path, command):
    """A payload nested past the JSON parser's recursion limit is bad
    input, exit 2, whether it comes by --json or by --file."""
    deep = "[" * 5000 + "]" * 5000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for source in (["--json", deep], ["--file", str(path)]):
        code, out, err = run(capsys, command, *source)
        assert code == 2 and not out
        assert err.startswith("error:") and "nested too deeply" in err


def test_build_check_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "build", "--json", PARAMS16)
    matrix = json.dumps(json.loads(out)["matrix"])
    path = tmp_path / "mat.json"
    path.write_text(matrix)
    code, out, _ = run(capsys, "check", "--file", str(path))
    rep = json.loads(out)
    assert code == 0 and rep["si"] is True and rep["mds"] is True


def test_check_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(REMARK))
    code, out, _ = run(capsys, "check", "--file", "-")
    assert code == 0 and json.loads(out)["si"] is True


def test_extract(capsys):
    code, out, _ = run(capsys, "build", "--json", PARAMS16)
    matrix = json.dumps(json.loads(out)["matrix"])
    code, out, _ = run(capsys, "extract", "--json",
                       '{"matrix": %s, "D": [2,2,9]}' % matrix)
    assert code == 0
    assert json.loads(out) == {"found": True, "x": 1, "y": 2}
    code, out, _ = run(capsys, "extract", "--json",
                       '{"matrix": %s, "D": [1,2,3]}' % matrix)
    assert json.loads(out) == {"found": False}


def test_curupira(capsys):
    code, out, _ = run(capsys, "curupira", "--m", "3", "--poly", "13",
                       "--a", "2", "--b", "4")
    rep = json.loads(out)
    assert code == 0
    assert rep["matrix"]["rows"] == [[3, 2, 2], [4, 5, 4], [6, 6, 7]]
    assert rep["involutory"] is True and rep["mds"] is True
    code, out, _ = run(capsys, "curupira", "--m", "3", "--poly", "13",
                       "--a", "1", "--b", "4")
    assert json.loads(out)["mds"] is False


def test_count_json_and_exit_codes(capsys):
    code, out, _ = run(capsys, "count", "--m", "3", "--poly", "11",
                       "--set", "SI_MDS", "--mode", "both")
    rep = json.loads(out)
    assert code == 0
    assert rep["formula"] == 403368 and rep["brute_force"] == 403368
    assert rep["match"] is True


def test_count_formula_only(capsys):
    code, out, _ = run(capsys, "count", "--m", "4", "--poly", "19",
                       "--set", "SI_MDS", "--mode", "formula")
    rep = json.loads(out)
    assert code == 0
    assert rep["formula"] == 127575000 and rep["brute_force"] is None


def test_count_budget_exit_3(capsys):
    code, out, err = run(capsys, "count", "--m", "4", "--poly", "19",
                         "--set", "SI_MDS", "--mode", "both")
    assert code == 3
    assert "long-run" in err
    assert json.loads(out)["brute_force"] is None


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--m", "2", "--poly", "7",
                       "--set", "all", "--format", "csv")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "set,q,formula,brute_force,match,seconds"
    assert len(lines) == 9
    assert all(line.split(",")[4] == "true" for line in lines[1:])


def test_count_deterministic_across_jobs(capsys):
    _, out1, _ = run(capsys, "count", "--m", "3", "--poly", "11",
                     "--set", "S,S1", "--format", "csv")
    _, out2, _ = run(capsys, "count", "--m", "3", "--poly", "11",
                     "--set", "S,S1", "--format", "csv", "--jobs", "2")
    strip = lambda s: [",".join(line.split(",")[:5]) for line in s.splitlines()]
    assert strip(out1) == strip(out2)


def test_count_progress_with_jobs(capsys):
    code, _, err = run(capsys, "count", "--m", "3", "--poly", "11",
                       "--set", "INV_MDS", "--exhaustive", "--jobs", "2",
                       "--progress")
    assert code == 0
    assert err.splitlines()[-1] == "progress 100%"


def test_count_progress_covers_enumeration(capsys):
    """The parametrized enumeration reports progress per (a11, a22)
    group on stderr and leaves stdout unchanged."""
    argv = ("count", "--m", "3", "--poly", "11", "--set", "SI_MDS")
    code1, out1, err1 = run(capsys, *argv)
    code2, out2, err2 = run(capsys, *argv, "--progress")
    assert code1 == code2 == 0 and err1 == ""
    drop = lambda s: {k: v for k, v in json.loads(s).items() if k != "seconds"}
    assert drop(out2) == drop(out1)
    assert drop(out1)["brute_force"] == 403368
    lines = err2.splitlines()
    assert len(lines) == 49 and lines[-1] == "progress 100%"


def test_count_progress_covers_tuple_sets(capsys, inline_pool):
    """A tuple-set count reports progress per span of the 6-tuples on
    stderr, at jobs=1 too, and leaves its count unchanged."""
    argv = ("count", "--m", "3", "--poly", "11", "--set", "S")
    code1, out1, err1 = run(capsys, *argv)
    code2, out2, err2 = run(capsys, *argv, "--progress")
    code3, out3, _ = run(capsys, *argv, "--jobs", "3")
    assert code1 == code2 == code3 == 0 and err1 == ""
    drop = lambda s: {k: v for k, v in json.loads(s).items() if k != "seconds"}
    assert drop(out1) == drop(out2) == drop(out3)
    assert drop(out1)["brute_force"] == 57624
    lines = err2.splitlines()
    assert len(lines) >= 8 and lines[-1] == "progress 100%"
    assert inline_pool == [min(3, os.cpu_count() or 1)]


def test_count_repeat_runs_identical(capsys):
    _, out1, _ = run(capsys, "count", "--m", "2", "--poly", "7",
                     "--set", "SI_MDS")
    _, out2, _ = run(capsys, "count", "--m", "2", "--poly", "7",
                     "--set", "SI_MDS")
    drop = lambda s: {k: v for k, v in json.loads(s).items() if k != "seconds"}
    assert drop(out1) == drop(out2)


def test_count_unknown_set_exit_2(capsys):
    code, _, err = run(capsys, "count", "--m", "3", "--poly", "11",
                       "--set", "S9")
    assert code == 2 and err


def test_verify_lemmas_gf4(capsys):
    code, out, _ = run(capsys, "verify-lemmas", "--m", "2", "--poly", "7")
    lines = out.strip().splitlines()
    assert code == 0
    summary = json.loads(lines[-1])
    assert summary == {"partition_identity": True,
                       "distinct_diag_identity": True,
                       "inner_triples_checked": 6,
                       "all_match": True}
    for line in lines[:-1]:
        assert json.loads(line)["match"] is True


def test_verify_lemmas_over_budget_exit_3(capsys):
    """Above q = 16 the tuple sets are over budget: exit 3 with a
    `budget:` line, before the inner-triple loop."""
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify-lemmas", "--m", "5", "--poly", "37")
    assert time.monotonic() - t0 < 2
    assert code == 3
    assert err.startswith("budget: S: ")
    assert [json.loads(line)["brute_force"] for line in out.splitlines()] == [None] * 6
    code, out, _ = run(capsys, "verify-lemmas", "--m", "3", "--poly", "11")
    assert code == 0 and json.loads(out.splitlines()[-1])["all_match"] is True


def test_python_m_simds():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "simds", "count", "--m", "2",
                           "--poly", "7", "--set", "SI_MDS"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["match"] is True


def test_field_table(capsys):
    code, out, _ = run(capsys, "field-table", "--m", "2", "--poly", "7",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "value,inverse"
    code, out, _ = run(capsys, "field-table", "--m", "3", "--poly", "13")
    rep = json.loads(out)
    assert rep["q"] == 8 and len(rep["elements"]) == 8
    code, _, _ = run(capsys, "field-table", "--m", "3")
    assert code == 2  # modulus is mandatory


def test_check_1x1(capsys):
    code, out, _ = run(capsys, "check", "--json",
                       '{"p":2,"m":2,"poly":7,"n":1,"rows":[[3]]}')
    rep = json.loads(out)
    assert code == 0 and rep["si"] is True and rep["mds"] is True


def test_check_1x1_beyond_table_size(capsys):
    # GF(2^9) has no lookup tables; the diagonal search runs scalar
    code, out, _ = run(capsys, "check", "--json",
                       '{"p":2,"m":9,"poly":529,"rows":[[3]]}')
    rep = json.loads(out)
    assert code == 0 and rep["si"] is True and rep["mds"] is True


def test_pretty_format_is_valid_json(capsys):
    code, out, _ = run(capsys, "check", "--json", REMARK, "--format", "pretty")
    assert code == 0 and json.loads(out)["si"] is True


def test_count_long_run_over_budget_exit_3(capsys):
    """`--long-run` lifts only the q = 16 enumeration cap: a brute force
    still over budget exits 3 with a `budget:` line per set."""
    for argv, sets in ((("--m", "5", "--poly", "37", "--set", "SI_MDS,S"),
                        ["S", "SI_MDS"]),
                       (("--m", "5", "--poly", "37", "--set", "SI_MDS",
                         "--exhaustive"), ["SI_MDS"]),
                       (("--m", "9", "--poly", "529", "--set", "INV_MDS",
                         "--exhaustive"), ["INV_MDS"])):
        t0 = time.monotonic()
        code, out, err = run(capsys, "count", *argv, "--long-run")
        assert time.monotonic() - t0 < 2
        assert code == 3
        assert [line.split(": ")[1] for line in err.splitlines()] == sets
        assert all(json.loads(line)["brute_force"] is None
                   for line in out.splitlines())
    code, out, _ = run(capsys, "count", "--m", "3", "--poly", "11",
                       "--set", "SI_MDS", "--long-run")
    assert code == 0 and json.loads(out)["match"] is True
