import collections
import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_utils import exact_root
from test_protocol import sweep_grid

import qetsim.cli
import qetsim.model
import qetsim.protocol
import qetsim.refdata
import qetsim.sampler
import qetsim.teleport
import qetsim.tiling
from qetsim.cli import main
from qetsim.ops import MAX_STATEVECTOR_QUBITS


def run_cli(*argv):
    return main(list(argv))


# --- table1 -------------------------------------------------------------------

def test_table1_row_counts_and_check(tmp_path):
    out = tmp_path / "table.csv"
    code = run_cli("table1", "--shots", "2000", "--check", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 84 + 84  # header + exact + sampled
    assert lines[0].endswith("ref_mean,ref_stderr,tolerance,status")
    assert all(line.endswith(",pass") for line in lines[1:])


def test_table1_check_at_the_default_shots(tmp_path, capsys):
    # the paper's reference check at 10^6 shots per basis run
    assert run_cli("table1", "--check", "--out", str(tmp_path / "t.csv")) == 0
    assert "check: 168/168 cells within tolerance" in capsys.readouterr().err


def test_table1_exact_only_and_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("table1", "--method", "exact", "--out", str(a)) == 0
    assert run_cli("table1", "--method", "exact", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 1 + 84


def test_table1_exact_only_does_not_sample(tmp_path, monkeypatch):
    both, exact = tmp_path / "both.csv", tmp_path / "exact.csv"
    assert run_cli("table1", "--shots", "500", "--seed", "7", "--out", str(both)) == 0
    calls = []

    def sample_protocol(*args, **kwargs):
        calls.append(args)
        raise AssertionError("an exact-only table must not sample")

    monkeypatch.setattr(qetsim.sampler, "sample_protocol", sample_protocol)
    assert run_cli("table1", "--method", "exact", "--shots", "500", "--seed", "7",
                   "--out", str(exact)) == 0
    assert calls == []
    lines = both.read_text().splitlines()
    rows = list(csv.reader(lines))
    method = rows[0].index("method")
    exact_lines = [line for line, row in zip(lines[1:], rows[1:]) if row[method] == "exact"]
    assert len(exact_lines) == 84
    want = [lines[0]] + exact_lines
    assert exact.read_text().splitlines() == want


def test_table1_wide_layout(tmp_path):
    out = tmp_path / "wide.csv"
    assert run_cli("table1", "--method", "exact", "--wide", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("tiling,observable,method,")
    assert len(lines) == 1 + 3 * 7  # 3 tilings x 7 observables, exact only


def test_table1_failing_check_exits_1(tmp_path, capsys):
    # one shot per basis run: every sampled stderr is 0, so every sampled
    # cell misses its exact value, while every exact cell still passes
    out = tmp_path / "t.csv"
    assert run_cli("table1", "--check", "--shots", "1", "--seed", "4", "--out", str(out)) == 1
    assert capsys.readouterr().err == "check: 84/168 cells within tolerance\n"
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {row["status"] for row in rows if row["method"] == "sampled"} == {"fail"}
    assert {row["status"] for row in rows if row["method"] == "exact"} == {"pass"}


def test_table_csv_bytes_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("table1", "--shots", "2000", "--seed", "11", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_table_layout_and_sites(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli("table1", "--shots", "500", "--seed", "1", "--out", str(out)) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    # per config, its 7 exact cells and then its 7 sampled cells
    assert len(rows) == 12 * 2 * 7
    assert [row["method"] for row in rows[:14]] == ["exact"] * 7 + ["sampled"] * 7
    first = rows[:7]
    assert [row["observable"] for row in first] == ["E0", "HX1", "HZ1", "E1", "HX2", "HZ2", "E2"]
    assert [row["site"] for row in first] == ["0", "1", "1", "1", "2", "2", "2"]
    sampled = [row for row in rows if row["method"] == "sampled"]
    assert all(row["stderr"] and row["shots"] == "500" and row["seed"] == "1" for row in sampled)
    exact = [row for row in rows if row["method"] == "exact"]
    assert all(row["stderr"] == row["shots"] == row["seed"] == "" for row in exact)


def test_csv_header_and_quoting(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli("table1", "--shots", "100", "--seed", "1", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("tiling,h,k,observable,site,method,mean,stderr,shots,seed,"
                        "ref_mean,ref_stderr,tolerance,status")
    assert lines[1].startswith('"{3,6}",9,2,E0,0,exact,')


# --- sweep ---------------------------------------------------------------------

def test_sweep_grid_rows_and_positivity(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--h", "0.2:2.0:10", "--k", "0.2:2.0:10",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "h,k,E_B"
    assert len(lines) == 1 + 100
    assert all(float(line.split(",")[2]) >= -1e-10 for line in lines[1:])


def test_sweep_rejects_nonpositive_grid():
    assert run_cli("sweep", "--h", "0:1:5", "--k", "1") == 2


@pytest.mark.parametrize("text", ["1:2:0", "1:2:1.5", "1:2"])
def test_sweep_bad_range_names_the_option_and_form(text, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--h", text, "--k", "1")
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "argument --h: expected a value or min:max:steps with a positive integer steps, "
        f"got '{text}'\n"
    )


def test_sweep_grid_beyond_the_bound_exits_2_before_any_solve(capsys, monkeypatch):
    # 10^12 points: rejected from the step counts, before any grid is built
    def solve(*args):
        raise AssertionError("the bound must reject the grid before any solve")

    monkeypatch.setattr(qetsim.protocol, "_minimal_eb", solve)
    assert run_cli("sweep", "--h", "0.2:3:1000000", "--k", "0.2:3:1000000") == 2
    assert capsys.readouterr().err == (
        f"error: sweep grid has 1000000000000 points, more than {qetsim.cli.MAX_SWEEP_POINTS}\n"
    )


def test_sweep_failing_in_its_last_chunk_writes_nothing(tmp_path, capsys, monkeypatch):
    # chunks of 2 points: h = 1.2e12 alone, in the third chunk, is ill-conditioned;
    # the grid's 4 corners are solved before any chunk and fail first
    solves, solve = [], qetsim.protocol._minimal_eb

    def counted(h, k, field_term):
        solves.append(h.size)
        return solve(h, k, field_term)

    monkeypatch.setattr(qetsim.protocol, "SWEEP_CHUNK_POINTS", 2)
    monkeypatch.setattr(qetsim.protocol, "_minimal_eb", counted)
    argv = ("sweep", "--h", "1:1.2e12:5", "--k", "1")
    assert run_cli(*argv) == 1
    assert solves == [4]
    assert capsys.readouterr() == ("", "error: ill-conditioned: h/k = 1.2e+12 > 1e+12\n")
    out = tmp_path / "sweep.csv"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert not out.exists()


def test_sweep_rows_do_not_depend_on_the_chunking(tmp_path, monkeypatch):
    # chunks of 3 rows over a 4 x 5 grid: every row keeps its own (h, k)
    argv = ("sweep", "--h", "0.5:1.5:4", "--k", "0.5:2:5", "--field-term-column")
    whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
    assert run_cli(*argv, "--out", str(whole)) == 0
    monkeypatch.setattr(qetsim.protocol, "SWEEP_CHUNK_POINTS", 3)
    assert run_cli(*argv, "--out", str(chunked)) == 0
    assert chunked.read_bytes() == whole.read_bytes()
    rows = [line.split(",")[:2] for line in whole.read_text().splitlines()[1:]]
    assert rows == [[format(h, ".12g"), format(k, ".12g")]
                    for h in np.linspace(0.5, 1.5, 4) for k in np.linspace(0.5, 2, 5)]


def test_sweep_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("sweep", "--h", "0.5:1.5:4", "--k", "0.5:1.5:4", "--out", str(a))
    run_cli("sweep", "--h", "0.5:1.5:4", "--k", "0.5:1.5:4", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# sha256 and size of the sweep's output; its bytes do not change
SWEEP_DIGESTS = {
    (): ("93f7b7fc20da2ea72915b316dec7b4939e025228835a0543dac54394ee5102d0", 101_195),
    ("--h", "0.05:20:37", "--k", "0.001:1000:41", "--field-term-column"):
        ("22aba907cd937d2b2c5e0246dcbee94f26b70c990b514a50f6e695878421032c", 81_623),
}


@pytest.mark.parametrize("argv", SWEEP_DIGESTS)
def test_sweep_bytes_are_pinned(argv, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", *argv, "--out", str(out)) == 0
    got = out.read_bytes()
    assert (hashlib.sha256(got).hexdigest(), len(got)) == SWEEP_DIGESTS[argv]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    h=st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.integers(1, 9)),
    k=st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.integers(1, 9)),
    chunk=st.integers(1, 11),
    field_term=st.booleans(),
)
def test_sweep_rows_match_a_per_row_oracle_property(h, k, chunk, field_term):
    # chunks of 1..11 points split the rows anywhere; every row is the
    # per-point f-string of sweep_EB's values
    argv = ["sweep", "--h={!r}:{!r}:{}".format(*h), "--k={!r}:{!r}:{}".format(*k)]
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(qetsim.protocol, "SWEEP_CHUNK_POINTS", chunk)
        assert main(argv + ["--field-term-column"] * field_term) == 0
    hs, ks = np.linspace(*h), np.linspace(*k)
    e_b, field = sweep_grid(hs, ks, field_term=True)
    fmt = qetsim.cli._fmt
    rows = ["h,k,E_B" + ",E_B_field_term" * field_term + "\n"]
    for i, j in np.ndindex(e_b.shape):
        cells = [hs[i], ks[j], e_b[i, j]] + [field[i, j]] * field_term
        rows.append(",".join(fmt(float(x)) for x in cells) + "\n")
    assert out.getvalue() == "".join(rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bits=st.integers(0, 2**64 - 1))
def test_percent_g_formats_like_fmt(bits):
    # the sweep's rows use '%.12g' % x where _fmt uses format(x, '.12g'):
    # the same C conversion, pinned here on special doubles and random bit patterns
    x = np.array(bits, dtype=np.uint64).view(np.float64).item()
    special = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e-300, -1e-300,
               math.inf, -math.inf, math.nan)
    for value in (x, *special):
        assert "%.12g" % value == qetsim.cli._fmt(value)


# --- tiling ----------------------------------------------------------------------

def test_tiling_hexagonal_counts(tmp_path, capsys):
    out = tmp_path / "rings.csv"
    edges = tmp_path / "edges.txt"
    assert run_cli("tiling", "--q", "6", "--depth", "4", "--out", str(out),
                   "--edges-out", str(edges)) == 0
    assert out.read_text().splitlines() == [
        "ring,count", "0,1", "1,6", "2,12", "3,18", "4,24",
    ]
    assert "Euclidean" in capsys.readouterr().err
    assert len(edges.read_text().splitlines()) > 0


def test_tiling_spherical_warns_without_generating(capsys):
    assert run_cli("tiling", "--q", "5", "--depth", "3") == 0
    err = capsys.readouterr().err
    assert "Spherical" in err
    assert "q >= 6" in err


def test_tiling_bad_q_usage_error(capsys):
    assert run_cli("tiling", "--q", "2", "--depth", "1") == 2
    # the CLI fixes p = 3, so only q is named
    assert capsys.readouterr().err == "error: q must be at least 3, got 2\n"


@pytest.mark.parametrize("q", [5, 7])
def test_tiling_negative_depth_exits_2_for_any_q(q, capsys):
    # q = 5 stops at the spherical warning, before any tiling code reads the depth
    with pytest.raises(SystemExit) as exc:
        run_cli("tiling", "--q", str(q), "--depth", "-1")
    assert exc.value.code == 2
    assert "argument --depth: expected an integer >= 0, got '-1'" in capsys.readouterr().err


def test_tiling_depth_zero_writes_no_edges_at_any_q(tmp_path, capsys):
    # depth 0 is the centre alone, so no ring's child counts are built: a q
    # whose first ring could never be held still exits 0, with no edges
    edges = tmp_path / "edges.txt"
    assert run_cli("tiling", "--q", "1000000000000000", "--depth", "0",
                   "--edges-out", str(edges)) == 0
    assert capsys.readouterr().out == "ring,count\n0,1\n"
    assert edges.read_bytes() == b""


# sha256 of the ring counts and the edge list; the tiling's bytes do not change
TILING_DIGESTS = {
    (6, 7): ("11241c34c1f9f4237fc88e105650b1595283673c03044120ed63908a1fdd7cc3",
             "7fc1d20bf4abb2819f96f714e5939c81f6e9e15c609b5412e604c707dadcbe3a"),
    (7, 6): ("a0a0100b9c679d524dffce302dcfda771660c706713cefd433713d08552338d7",
             "f39abf0fb686bce2a563925a41e9097d015d05ca36b64b09d9be41594bc96ffd"),
    (10, 4): ("1fd9fdfd6ec3f282d6bc106506d4ba36a7c0d395af91ede1a3c851f8fbf650b3",
              "b9d0afc128827f5da5e36c61ba9abdc86e834d22ca240cba4b61c23b66881fa4"),
}


@pytest.mark.parametrize("q,depth", TILING_DIGESTS)
def test_tiling_bytes_are_pinned(q, depth, tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    assert run_cli("tiling", "--q", str(q), "--depth", str(depth),
                   "--edges-out", str(edges)) == 0
    got = (capsys.readouterr().out.encode(), edges.read_bytes())
    assert tuple(hashlib.sha256(b).hexdigest() for b in got) == TILING_DIGESTS[q, depth]


def test_tiling_counts_build_no_graph(tmp_path, capsys, monkeypatch):
    calls = []
    generate = qetsim.tiling.generate

    def refuse(q, depth):
        raise AssertionError("the ring counts must not build the graph")

    monkeypatch.setattr(qetsim.tiling, "generate", refuse)
    assert run_cli("tiling", "--q", "7", "--depth", "12") == 0
    counts = [1, 7, 21, 56, 147, 385, 1008, 2639, 6909, 18088, 47355, 123977, 324576]
    want = "ring,count\n" + "".join(f"{d},{c}\n" for d, c in enumerate(counts))
    assert capsys.readouterr().out == want

    def counted(q, depth):
        calls.append((q, depth))
        return generate(q, depth)

    monkeypatch.setattr(qetsim.tiling, "generate", counted)
    assert run_cli("tiling", "--q", "7", "--depth", "3",
                   "--edges-out", str(tmp_path / "edges.txt")) == 0
    assert calls == [(7, 3)]


# --- qet / qed -------------------------------------------------------------------

def test_qet_json_record(tmp_path):
    out = tmp_path / "qet.json"
    assert run_cli("qet", "--h", "1", "--k", "1", "--method", "exact",
                   "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["E0"] == pytest.approx(0.7071067811865475, abs=1e-10)
    r = payload["receivers"]["1"]
    assert r["E_B"] == pytest.approx(-r["E_j"], abs=1e-14)


def test_qet_csv_both_methods(tmp_path):
    out = tmp_path / "qet.csv"
    assert run_cli("qet", "--h", "1", "--k", "1", "--method", "both",
                   "--shots", "2000", "--format", "csv", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "observable,site,method,mean,stderr"
    assert len(lines) == 1 + 4 + 4  # E0,HX1,HZ1,E1 for each method


def test_qed_receiver_independence_in_output(tmp_path):
    out = tmp_path / "qed.json"
    assert run_cli("qed", "--h", "7", "--k", "2", "--q", "7", "--receivers", "1,2",
                   "--method", "exact", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["receivers"]["1"]["E_j"] == pytest.approx(
        payload["receivers"]["2"]["E_j"], abs=1e-10
    )


def test_qed_invalid_q_usage_error():
    assert run_cli("qed", "--h", "1", "--k", "1", "--q", "99") == 2


def test_qed_beyond_the_statevector_guard_exits_2(capsys, monkeypatch):
    # parameter validation only: nothing is solved
    def solve(*args):
        raise AssertionError("the guard must reject q before any solve")

    monkeypatch.setattr(qetsim.model, "_star_solve", solve)
    q = MAX_STATEVECTOR_QUBITS + 1
    assert run_cli("qed", "--h", "1", "--k", "1", "--q", str(q)) == 2
    err = capsys.readouterr().err
    assert f"q = {q} exceeds the {MAX_STATEVECTOR_QUBITS}-qubit statevector guard" in err


def test_qed_degenerate_ground_exits_1(capsys):
    # h << k: the two X-aligned states split by ~h^q / k^(q-1), far below the
    # degeneracy tolerance; a numerical failure, not a usage error
    assert run_cli("qed", "--h", "0.01", "--k", "1", "--q", "6", "--method", "exact") == 1
    assert "error: ground space degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("h, k, unresolved", [
    # the q = 2 gap is the closed form 2h^2 / (r + k), which keeps every
    # digit; only an eigensolve's gap can drown in roundoff
    ("1e-12", "1", False), ("1", "1e300", False), ("1e-5", "1", False),
    # k/h above ~3.2e4: the gap, ~h^2 / k, falls below 1e-9 * k
    ("1", "1e5", False), ("1", "1e6", False),
])
def test_degenerate_ground_message_names_the_relative_gap(h, k, unresolved, capsys):
    assert run_cli("qet", "--h", h, "--k", k, "--method", "exact") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ground space degenerate within tolerance (gap = ")
    assert f"relative to max(h, k) = {max(float(h), float(k)):.3g}" in err
    assert ("below double precision" in err) == unresolved


@pytest.mark.parametrize("h, k", [("1e-12", "1"), ("1", "1e300"), ("1", "1e8")])
def test_block_solve_notes_a_gap_below_its_roundoff(h, k, capsys):
    # at q = 3 the gap is a difference of bisected levels, which carry ~16 eps |H|
    assert run_cli("qed", "--h", h, "--k", k, "--q", "3", "--receivers", "1",
                   "--method", "exact") == 1
    assert "; below double precision, so the solve cannot resolve it)" in capsys.readouterr().err


def test_minimal_degeneracy_guard_bound_and_message(tmp_path, capsys):
    # gap / k = 2 (h/k)^2 / (1 + sqrt(1 + (h/k)^2)) ~ (h/k)^2 crosses 1e-9 near k/h = 3.16e4
    out = str(tmp_path / "qet.json")
    assert run_cli("qet", "--h", "1", "--k", "31000", "--method", "exact", "--out", out) == 0
    for k in ("31700", "4e4", "1e8"):
        assert run_cli("qet", "--h", "1", "--k", k, "--method", "exact", "--out", out) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: ground space degenerate within tolerance "
        "(gap = 1.000e-08, 1.000e-16 relative to max(h, k) = 1e+08) at h = 1, k = 100000000"
    )


@pytest.mark.parametrize("argv, point", [
    # the grid's points are h = 1e-6, 0.5000005 and 1; only the first fails
    ("sweep --h 1e-6:1:3 --k 1", "h = 1e-06, k = 1"),
    # k = 500000.5 and 1e6 both fail; the message names the worse, relative to max(h, k)
    ("sweep --h 1 --k 1:1e6:3", "h = 1, k = 1000000"),
    ("qed --h 0.01 --k 1 --q 6 --method exact", "h = 0.01, k = 1"),
])
def test_degenerate_message_names_the_failing_point(argv, point, capsys):
    assert run_cli(*argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ground space degenerate within tolerance (gap = ")
    assert err.endswith(f") at {point}\n")


def assert_scaled_copy(scale, tmp_path):
    tiny, unit = tmp_path / "tiny.json", tmp_path / "unit.json"
    assert run_cli("qet", "--h", scale, "--k", scale, "--method", "exact",
                   "--out", str(tiny)) == 0
    assert run_cli("qet", "--h", "1", "--k", "1", "--method", "exact", "--out", str(unit)) == 0
    tiny, unit = json.loads(tiny.read_text()), json.loads(unit.read_text())
    assert tiny["E0"] / float(scale) == pytest.approx(unit["E0"], rel=1e-15)
    for field, value in unit["receivers"]["1"].items():
        assert tiny["receivers"]["1"][field] / float(scale) == pytest.approx(value, rel=1e-15)
    assert tiny["theta"]["1"]["theta"] == pytest.approx(unit["theta"]["1"]["theta"], rel=1e-15)


def test_tiny_fields_run_as_a_scaled_copy(tmp_path):
    # the degeneracy test is relative to max(h, k), so h = k = 1e-300 is
    # h = k = 1 scaled by 1e-300
    assert_scaled_copy("1e-300", tmp_path)


def test_fields_just_above_the_smallest_normal_run_as_a_scaled_copy(tmp_path):
    assert_scaled_copy("3e-308", tmp_path)


def test_degenerate_ground_raised_inside_a_command_exits_1(capsys, monkeypatch):
    def exact_record(*args):
        raise qetsim.model.DegenerateGroundError("ground space degenerate (patched)")

    monkeypatch.setattr(qetsim.cli, "exact_record", exact_record)
    assert run_cli("qed", "--h", "9", "--k", "2", "--q", "6", "--method", "exact") == 1
    assert "error: ground space degenerate (patched)" in capsys.readouterr().err


def test_assertion_failure_exits_1(capsys, monkeypatch):
    def run_longrange_qet(*args, **kwargs):
        raise AssertionError("teleportation branches disagree after correction")

    monkeypatch.setattr(qetsim.cli, "run_longrange_qet", run_longrange_qet)
    assert run_cli("longrange", "--h", "1", "--k", "1") == 1
    assert "error: teleportation branches disagree" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "qet --h {f} --k {f} --method exact",
    "qed --h {f} --k {f} --q 4 --method exact",
    "longrange --h {f} --k {f} --hops 3",
    "sweep --h {f} --k {f}",
])
def test_subnormal_fields_exit_2(argv, tmp_path, capsys):
    # below the smallest normal float the fields lose digits: at h = k =
    # 1e-320, qet's E1 was off by 1.1e-3
    out = ["--out", str(tmp_path / "out")]
    assert run_cli(*argv.format(f="1e-320").split(), *out) == 2
    assert "error: h and k must be at least 2.2250738585072014e-308" in capsys.readouterr().err
    assert run_cli(*argv.format(f="3e-308").split(), *out) == 0


@pytest.mark.parametrize("h, k", [("inf", "1"), ("1", "inf"), ("nan", "1")])
def test_qet_non_finite_coupling_exits_2(h, k, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("qet", "--h", h, "--k", k, "--method", "exact") == 2
    assert "error: h and k must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("h, k", [("1e308", "1"), ("1", "1e308")])
def test_qet_overflow_exits_1(h, k, capsys):
    # finite but huge: the spin block overflows; a numerical failure, with
    # no NaN or Infinity printed, no warning and no traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("qet", "--h", h, "--k", k) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: floating-point failure: overflow encountered")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [("qet", "--method", "exact"), ("longrange",)])
def test_q2_overflow_past_the_ground_level_exits_1(argv, tmp_path, capsys):
    # the ground level -2r is finite at h = 8e307, k = 4e307, but xi is not:
    # a q = 2 record is formed on floats, where nothing raises, so the closed
    # form checks what it forms rather than print xi as Infinity
    out = tmp_path / "r.json"
    assert run_cli(*argv, "--h", "8e307", "--k", "4e307", "--out", str(out)) == 1
    assert capsys.readouterr() == (
        "", "error: floating-point failure: overflow encountered in the q = 2 closed form\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("qet", "--h", "1e20", "--k", "1"),
    ("qed", "--h", "1e13", "--k", "1", "--q", "6"),
    ("sweep", "--h", "1:1e13:3", "--k", "1"),
])
def test_ill_conditioned_ratio_exits_1(argv, capsys):
    # past h/k = 1e12 the ground solve no longer resolves E_B: no number is
    # printed, with no warning and no traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ill-conditioned: h/k = 1e+")
    assert "Traceback" not in err


def sampled_qet(tmp_path, shots):
    out = tmp_path / "qet.json"
    code = run_cli("qet", "--h", "1", "--k", "1", "--method", "sampled",
                   "--shots", str(shots), "--out", str(out))
    return code, out


def finite_json(path):
    def numbers(node):
        if isinstance(node, dict):
            return [x for v in node.values() for x in numbers(v)]
        return [node] if isinstance(node, float) else []

    values = numbers(json.loads(path.read_text()))
    return bool(values) and all(math.isfinite(x) for x in values)


@pytest.mark.parametrize("argv", [
    ("qet", "--h", "1", "--k", "1", "--method", "sampled"),
    ("table1", "--method", "exact"),
])
def test_shots_beyond_int64_exit_2(argv, capsys):
    for shots in (str(2**63), "0"):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--shots", shots)
        assert exc.value.code == 2
        assert (f"argument --shots: expected an integer in 1..9223372036854775807, got '{shots}'"
                in capsys.readouterr().err)


def test_shots_at_two_to_the_62_give_finite_json(tmp_path):
    code, out = sampled_qet(tmp_path, 2**62)
    assert code == 0 and finite_json(out)


def test_four_billion_shots_take_under_a_second(tmp_path):
    # O(|R|^2) binomial draws per basis run: the cost does not grow with shots
    start = time.perf_counter()
    code, out = sampled_qet(tmp_path, 4_000_000_000)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and finite_json(out)


@pytest.mark.parametrize("h", ["nan:1:3", "inf", "1:inf:3", "-inf:1:3"])
def test_sweep_non_finite_grid_exits_2(h, capsys):
    # checked before np.linspace, which would fail on the endpoint under main's errstate
    assert run_cli("sweep", f"--h={h}", "--k", "1") == 2
    assert "error: h and k must be finite and positive" in capsys.readouterr().err


def test_qed_bad_receiver_usage_error():
    assert run_cli("qed", "--h", "1", "--k", "1", "--q", "6",
                   "--receivers", "1,9") == 2


@pytest.mark.parametrize("receivers", ["a", "1,,2", "", "1,", "1 2"])
def test_receivers_value_is_checked_by_the_parser(receivers, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("qed", "--h", "9", "--k", "2", "--q", "6", f"--receivers={receivers}")
    assert exc.value.code == 2
    assert "argument --receivers: expected comma-separated integers" in capsys.readouterr().err


def test_receivers_value_may_hold_spaces(capsys):
    argv = ("qed", "--h", "9", "--k", "2", "--q", "6", "--method", "exact")
    assert run_cli(*argv, "--receivers", " 2 , 1") == 0
    spaced = capsys.readouterr()
    assert run_cli(*argv, "--receivers", "2,1") == 0
    assert spaced == capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("qet", "--h", "1e300", "--k", "1e300", "--shots", str(2**62)),
    ("qed", "--h", "1e300", "--k", "1e300", "--q", "2", "--receivers", "1",
     "--shots", str(2**62), "--method", "sampled"),
])
def test_sampled_estimate_overflow_exits_1(argv, capsys):
    # the shot-weighted sum of the per-shot values overflows, so the mean does
    assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: floating-point failure: overflow in the estimate of Z on (0,)")


def fraction_estimate(tallies, site, coeff, offset) -> float:
    """The standard error of a local term's estimate from its tallies in
    exact rational arithmetic: the odd-parity shots counted from the site's
    (mu, b0, b) tallies, then the sample variance over the shots."""
    c = tallies.counts[tallies.sites.index(site)]
    odd = sum(c[4 * mu + 2 * b0 + b] for mu in (0, 1) for b0 in (0, 1) for b in (0, 1)
              if (b0 + b if tallies.basis == "X" else b) % 2)
    n = tallies.shots
    even_value = Fraction(offset) + Fraction(coeff)
    odd_value = Fraction(offset) - Fraction(coeff)
    mean = ((n - odd) * even_value + odd * odd_value) / n
    var = ((n - odd) * (even_value - mean) ** 2 + odd * (odd_value - mean) ** 2) / (n - 1)
    return exact_root(var / n)


@pytest.mark.parametrize("argv", [
    ("qet", "--h", "1e200", "--k", "1e200"),
    ("qed", "--h", "1e150", "--k", "1e150", "--q", "2", "--receivers", "1",
     "--shots", str(2**62), "--method", "sampled"),
    ("qet", "--h", "1e-300", "--k", "1e-300", "--method", "sampled", "--shots", "1000"),
])
def test_sampled_stderr_at_extreme_field_scales_matches_a_fraction_oracle(argv, monkeypatch,
                                                                           capsys):
    # the deviations are scaled by a power of two before they are squared,
    # so the standard error neither overflows nor underflows to 0
    seen, estimate = [], qetsim.sampler.estimate

    def recorded(tallies, *term):
        out = estimate(tallies, *term)
        seen.append((tallies, term, out[1]))
        return out

    monkeypatch.setattr(qetsim.sampler, "estimate", recorded)
    assert run_cli(*argv, "--format", "csv") == 0
    assert len(seen) == 3  # E0, then HZ1 and HX1
    for tallies, term, stderr in seen:
        want = fraction_estimate(tallies, *term)
        assert 0 < stderr < math.inf and want > 0
        assert stderr == pytest.approx(want, rel=1e-13), term
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert all(0 < float(r["stderr"]) < math.inf for r in rows if r["method"] == "sampled")


# --- longrange --------------------------------------------------------------------

def test_longrange_artifacts(tmp_path):
    out = tmp_path / "record.json"
    tr = tmp_path / "messages.log"
    assert run_cli("longrange", "--h", "1", "--k", "1", "--hops", "2",
                   "--out", str(out), "--transcript-out", str(tr)) == 0
    payload = json.loads(out.read_text())
    assert payload["hops"] == 2
    assert payload["relay_vs_local_max_delta"] <= 1e-10
    r = payload["receivers"]["1"]
    assert r["E_B"] == pytest.approx(-r["E_j"], abs=1e-14)
    lines = tr.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # broadcast + two 1-bit messages per hop
    assert lines[0].endswith("mu-broadcast x")


def test_longrange_sampled_transcript(tmp_path):
    out = tmp_path / "record.json"
    tr = tmp_path / "messages.log"
    assert run_cli("longrange", "--h", "1", "--k", "1", "--hops", "3",
                   "--seed", "11", "--sample-transcript",
                   "--out", str(out), "--transcript-out", str(tr)) == 0
    text = tr.read_text()
    assert "x" not in text
    assert len(text.splitlines()) == 1 + 2 * 3


@pytest.mark.parametrize("h, k", [("1", "1e6"), ("1.001e12", "1")])
def test_longrange_ill_conditioned_exits_1_before_any_pass(h, k, tmp_path, capsys, monkeypatch):
    # the star model's own failures, raised before any draw or output
    error = ("error: ill-conditioned: h/k = 1e+12 > 1e+12" if float(h) > float(k)
             else "error: ground space degenerate")
    passes = count_calls(monkeypatch, qetsim.protocol, "run_protocol")
    out = tmp_path / "r.json"
    assert run_cli("longrange", "--h", h, "--k", k, "--hops", "1000", "--out", str(out),
                   "--transcript-out", str(tmp_path / "t.log")) == 1
    assert capsys.readouterr().err.startswith(error)
    assert passes == [] and not out.exists()


@pytest.mark.parametrize("h, k", [("1e8", "1"), ("10001", "1")])
def test_longrange_runs_at_large_field_ratios(h, k, tmp_path):
    # the record is the closed form's, so E_B is `qet --method exact`'s
    out, local = tmp_path / "r.json", tmp_path / "q.json"
    assert run_cli("longrange", "--h", h, "--k", k, "--hops", "3", "--out", str(out),
                   "--transcript-out", str(tmp_path / "t.log")) == 0
    assert run_cli("qet", "--h", h, "--k", k, "--method", "exact", "--out", str(local)) == 0
    e_b = json.loads(out.read_text())["receivers"]["1"]["E_B"]
    assert e_b > 0 and e_b == json.loads(local.read_text())["receivers"]["1"]["E_B"]


@pytest.mark.parametrize("scale", ["1e6", "1", "1e-6"])
def test_longrange_check_is_relative_to_the_field_scale(scale, tmp_path):
    # the relayed branch operators do not depend on the fields, so the JSON
    # field, their check's residual, is the same at every scale
    out = tmp_path / "r.json"
    assert run_cli("longrange", "--h", scale, "--k", scale, "--hops", "2", "--out", str(out),
                   "--transcript-out", str(tmp_path / "t.log")) == 0
    residual = json.loads(out.read_text())["relay_vs_local_max_delta"]
    assert residual <= 1e-15 and residual == qetsim.teleport._branch_law()[1]


def test_longrange_perturbed_relay_exits_1(tmp_path, capsys, monkeypatch):
    # branch (1, 1)'s operator turned by 1e-8 fails the relay's check, which
    # runs before the record is written
    branch_ops = qetsim.teleport._branch_ops
    tilt = np.zeros((4, 2, 2))
    tilt[3] = [[0.0, -1e-8], [1e-8, 0.0]]
    monkeypatch.setattr(qetsim.teleport, "_branch_ops", lambda: branch_ops() + tilt)
    out = tmp_path / "r.json"
    assert run_cli("longrange", "--h", "1", "--k", "1", "--hops", "2", "--out", str(out),
                   "--transcript-out", str(tmp_path / "t.log")) == 1
    assert capsys.readouterr().err == "error: teleportation branches disagree after correction\n"
    assert not out.exists()


@pytest.mark.parametrize("scale", ["3e-308", "1e-6", "1", "1e6", "1e300"])
@pytest.mark.parametrize("ratio", ["1e-6", "1e-4", "1", "1e4", "1e8", "1e12", "1.001e12"])
def test_longrange_accepts_what_qet_accepts(ratio, scale, tmp_path, capsys):
    # h = ratio * k: the same exit code and error line, and on success the
    # same record bit for bit.  At k = 3e-308, h/k < 1 puts h below the
    # smallest normal float; at k = 1e300, h/k = 1e8 overflows the closed
    # form and h/k >= 1e12 overflows h itself
    h, k = repr(float(ratio) * float(scale)), scale
    runs = {}
    for argv in (["longrange", "--hops", "2", "--transcript-out", str(tmp_path / "t.log")],
                 ["qet", "--method", "exact"]):
        out = tmp_path / f"{argv[0]}.json"
        code = run_cli(*argv, "--h", h, "--k", k, "--out", str(out))
        err = capsys.readouterr().err
        record = json.loads(out.read_text()) if code == 0 else {}
        runs[argv[0]] = (code, [line for line in err.splitlines() if line.startswith("error:")],
                         [record.get(key) for key in ("receivers", "E0", "theta")])
    assert runs["longrange"] == runs["qet"]


# --- one protocol pass per run ------------------------------------------------------

def count_calls(monkeypatch, module, name):
    """Count calls of module.name, wherever a qetsim module has imported it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname == "qetsim" or modname.startswith("qetsim."):
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_qed_both_methods_run_one_pass(monkeypatch):
    passes = count_calls(monkeypatch, qetsim.protocol, "run_protocol")
    assert run_cli("qed", "--h", "9", "--k", "2", "--q", "6", "--method", "both",
                   "--shots", "2000") == 0
    assert len(passes) == 1


def test_table1_runs_one_solve_per_config_and_one_pass_per_tiling(tmp_path, monkeypatch):
    # each (h, k) cell is one chain solve, and each tiling's four cells one
    # stacked pass, so the 12 configs take 12 solves and 3 passes, every
    # config once, in CONFIGS order
    solves, passes = [], []
    solve, run_protocol = qetsim.model._star_solve, qetsim.protocol.run_protocol

    def counted_solve(h, k, q):
        solves.append((q, h, k))
        return solve(h, k, q)

    def counted_pass(bundles, receivers):
        passes.append([(b.params.q, b.params.h, b.params.k) for b in bundles])
        return run_protocol(bundles, receivers)

    monkeypatch.setattr(qetsim.model, "_star_solve", counted_solve)
    monkeypatch.setattr(qetsim.cli, "run_protocol", counted_pass)
    assert run_cli("table1", "--check", "--shots", "2000",
                   "--out", str(tmp_path / "t.csv")) == 0
    configs = [(q, float(h), float(k)) for q, h, k in qetsim.refdata.CONFIGS]
    assert solves == configs
    assert [len(cells) for cells in passes] == [4, 4, 4]
    assert [config for cells in passes for config in cells] == configs


def test_longrange_runs_no_protocol_pass(tmp_path, monkeypatch):
    # the record is the closed form's and mu is drawn at 1/2
    passes = count_calls(monkeypatch, qetsim.protocol, "run_protocol")
    assert run_cli("longrange", "--h", "1", "--k", "1", "--hops", "3", "--sample-transcript",
                   "--out", str(tmp_path / "r.json"),
                   "--transcript-out", str(tmp_path / "t.log")) == 0
    assert passes == []


@pytest.mark.parametrize("argv", [
    ("sweep", "--h", "0.5:2:4", "--k", "0.5:2:4"),
    ("table1", "--method", "exact"),
    ("qet", "--h", "1", "--k", "1", "--method", "exact"),
    ("qed", "--h", "9", "--k", "2", "--q", "6", "--receivers", "1,2,3", "--method", "exact"),
])
def test_exact_only_runs_make_no_statevector_pass(argv, tmp_path, monkeypatch):
    passes = count_calls(monkeypatch, qetsim.protocol, "run_protocol")
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 0
    assert passes == []


def test_minimal_model_runs_need_no_eigensolver(tmp_path, monkeypatch):
    # the q = 2 star is solved in closed form, and a q >= 3 star's chains by
    # Sturm counts and inverse iteration on floats
    def no_eigensolver(*args, **kwargs):
        raise RuntimeError("eigensolver called")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_eigensolver)
    out = str(tmp_path / "out")
    assert run_cli("sweep", "--out", out) == 0
    assert run_cli("qet", "--h", "1", "--k", "1", "--method", "exact", "--out", out) == 0
    assert run_cli("longrange", "--h", "1", "--k", "1", "--hops", "3", "--sample-transcript",
                   "--out", out, "--transcript-out", out) == 0
    assert run_cli("qed", "--h", "9", "--k", "2", "--q", "3", "--method", "exact", "--out", out) == 0


def test_runs_without_shot_sampling_never_import_numpy_random(tmp_path):
    # importing numpy.random costs a fresh process ~15 ms; the relay and the
    # shot sampler both draw from `random`, so no command imports it.  numpy
    # itself loads on first use: the parser, `longrange`, `tiling` and the
    # exact-only q = 2 runs, which compute on floats and ints, never load it;
    # the other commands do.  The records are named tuples, so the start-up
    # loads neither `dataclasses` nor the `inspect` it imports
    script = f"""
import sys
from qetsim.cli import build_parser, main
build_parser()
print("numpy", "numpy" in sys.modules)
print("dataclasses", "dataclasses" in sys.modules)
print("inspect", "inspect" in sys.modules)
out = {str(tmp_path / "out")!r}
numpy_free = [
    ["longrange", "--h", "1", "--k", "1", "--hops", "3", "--sample-transcript",
     "--out", out, "--transcript-out", out],
    ["tiling", "--q", "7", "--depth", "2", "--out", out, "--edges-out", out],
    ["qet", "--h", "1", "--k", "1", "--method", "exact", "--out", out],
    ["qed", "--h", "9", "--k", "2", "--q", "2", "--receivers", "1", "--method", "exact",
     "--out", out],
]
runs = [
    ["sweep", "--out", out],
    ["qet", "--h", "1", "--k", "1", "--method", "sampled", "--shots", "10", "--out", out],
    ["qed", "--h", "9", "--k", "2", "--q", "6", "--receivers", "1,2,3", "--out", out],
    ["table1", "--shots", "1000", "--check", "--out", out],
]
for argv in numpy_free + runs:
    assert main(argv) == 0, argv
    print("numpy.random", "numpy.random" in sys.modules)
    if argv is numpy_free[-1] or argv is runs[-1]:
        print("numpy", "numpy" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(qetsim.cli.__file__))
    run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == (
        ["numpy False", "dataclasses False", "inspect False"]
        + ["numpy.random False"] * 4 + ["numpy False"]
        + ["numpy.random False"] * 4 + ["numpy True"])


def test_sampled_transcript_relays_each_branch_once(tmp_path, monkeypatch):
    calls = []
    relay_bits = qetsim.teleport._relay_bits

    def counted(p, hops, rng):
        calls.append((hops, type(rng)))
        return relay_bits(p, hops, rng)

    monkeypatch.setattr(qetsim.teleport, "_relay_bits", counted)
    assert run_cli("longrange", "--h", "1", "--k", "1", "--hops", "3",
                   "--sample-transcript", "--out", str(tmp_path / "r.json"),
                   "--transcript-out", str(tmp_path / "t.log")) == 0
    assert calls == [(3, random.Random)]  # one call draws the bits of all three hops


def test_longrange_hops_beyond_the_bound_exit_2_before_any_pass(tmp_path, capsys, monkeypatch):
    passes = count_calls(monkeypatch, qetsim.protocol, "run_protocol")
    assert run_cli("longrange", "--h", "1", "--k", "1",
                   "--hops", str(qetsim.teleport.MAX_HOPS + 1),
                   "--out", str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err.startswith("error: hops must be in 1..")
    assert passes == []
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("receivers", ["1,2", "19,3,11", ",".join(map(str, range(1, 20)))])
def test_qed_at_the_guard_builds_no_2_to_the_q_amplitudes(receivers, tmp_path, monkeypatch):
    # q = 20: the pass and the readout law hold the sender and the
    # receivers' Dicke classes, never 2^|R| strings, even with all 19
    # receivers, and never the 2^20 amplitudes of the register
    shapes = []
    run_protocol, readout_law = qetsim.protocol.run_protocol, qetsim.sampler.readout_law

    def recorded(fn):
        def wrapper(*args):
            out = fn(*args)
            shapes.append(out.shape)
            return out
        return wrapper

    monkeypatch.setattr(qetsim.cli, "run_protocol", recorded(run_protocol))
    monkeypatch.setattr(qetsim.sampler, "readout_law", recorded(readout_law))
    assert run_cli("qed", "--h", "9", "--k", "2", "--q", "20", "--receivers", receivers,
                   "--shots", "1000", "--out", str(tmp_path / "qed.json")) == 0
    r = len(receivers.split(","))
    assert shapes == [(1, 2, 20 - r, 2, r + 1)] + [(2, 2, r + 1)] * 2  # a stack of one pass


# --- pinned sampled bytes ---------------------------------------------------------

# sha256 of sampled output bytes; they change only with an entry in CHANGES.md
SAMPLED_DIGESTS = {
    "table1": "30e746ffea9dde7f913e7f274cce7bf64a3f72eafe821f824d45852240d363f6",
    "qed": "6d01c872f174b151e58c71f724a38dee266d4bc62dbe8816a99227265aea355b",
    # seeded `longrange --sample-transcript` transcripts, h = k = 1, by hop count
    "transcript-1": "aad79286a708f3ef0dc057e979cf0260c17925d89c79fc213fe3ac011a8e2bfd",
    "transcript-3": "195311812e93e657fcbdb83f7b35d84936b48c0e8cd3ef64c322ebf5e5e70c75",
    "transcript-65": "be97e249e47a40f533504835a3116fd7e3b26115ed50c6cfa4931cc67fa26621",
    "transcript-1000": "6b88b90171b8fc55dab21ec2acb59c1beaac2f3419bffd44af1d3e9cb4f711c1",
    "transcript-100000": "c05a1c4071818446ea0e4d034f6a4ffc5a5bd9a35d5b2ebbfee92b3543368d3d",
    # the JSON record of the 3-hop run
    "longrange": "95696ed263f09e1627eeb224da2defaecde75163de2d528ac6c07383fa47a013",
}


def test_sampled_output_bytes_are_pinned(tmp_path):
    table, qed, log = tmp_path / "t.csv", tmp_path / "qed.json", tmp_path / "t.log"
    assert run_cli("table1", "--shots", "2000", "--seed", "11", "--out", str(table)) == 0
    assert run_cli("qed", "--h", "9", "--k", "2", "--q", "6", "--method", "sampled",
                   "--shots", "2000", "--seed", "5", "--out", str(qed)) == 0
    got = {"table1": table.read_bytes(), "qed": qed.read_bytes()}
    for hops in (1, 3, 65, 1000, 100000):
        assert run_cli("longrange", "--h", "1", "--k", "1", "--hops", str(hops), "--seed", "11",
                       "--sample-transcript", "--out", str(tmp_path / "r.json"),
                       "--transcript-out", str(log)) == 0
        got[f"transcript-{hops}"] = log.read_bytes()
        if hops == 3:
            got["longrange"] = (tmp_path / "r.json").read_bytes()
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == SAMPLED_DIGESTS


def test_sampled_bytes_do_not_depend_on_the_receivers_order(tmp_path):
    # the sampler is keyed by the receiver set, as the pass ignores its order
    def qed(receivers):
        out = tmp_path / f"{receivers}.json"
        assert run_cli("qed", "--h", "9", "--k", "2", "--q", "6", "--receivers", receivers,
                       "--method", "sampled", "--shots", "2000", "--seed", "5",
                       "--out", str(out)) == 0
        return out.read_bytes()

    assert qed("2,1") == qed("1,2") and qed("3,1,2") == qed("1,2,3")


# --- config file and usage ----------------------------------------------------------

def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 1.0\nk = 1.0\nmethod = exact\n# comment\n")
    out = tmp_path / "qet.json"
    assert run_cli("qet", "--config", str(cfg), "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["params"] == {"h": 1.0, "k": 1.0}


def test_config_equals_form_is_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 1.0\nk = 1.0\n")
    out = tmp_path / "qet.json"
    assert run_cli("qet", f"--config={cfg}", "--method", "exact", "--out", str(out)) == 0
    assert json.loads(out.read_text())["params"] == {"h": 1.0, "k": 1.0}


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 1.0\nk = 1.0\nbogus_key = 3\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("qet", "--config", str(cfg), "--method", "exact")
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus-key=3" in capsys.readouterr().err


def test_config_malformed_quoted_value_names_file_and_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('out = "abc\n')
    assert run_cli("qet", "--h", "1", "--k", "1", "--config", str(cfg)) == 2
    assert capsys.readouterr().err == (
        f"error: config {cfg}, key 'out': Unterminated string starting at: line 1 column 1 "
        "(char 0)\n"
    )


@pytest.mark.parametrize("config", [["--config", "a.cfg"], ["--config=a.cfg"]])
def test_config_before_the_command_exits_2(config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.cfg").write_text("h = 1\n")
    assert run_cli(*config, "qet", "--k", "1") == 2
    assert capsys.readouterr().err == (
        "error: --config goes after the command name: qetsim COMMAND --config FILE\n"
    )


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert run_cli("qet", "--config", str(tmp_path / "missing.cfg")) == 1
    assert "i/o error" in capsys.readouterr().err


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 1.0\nk = 1.0\nmethod = exact\n")
    out = tmp_path / "qet.json"
    assert run_cli("qet", "--config", str(cfg), "--h", "2.0", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert payload["params"]["h"] == 2.0


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("qet", "--h", "1")
    assert exc.value.code == 2
    assert "the following arguments are required: --k" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("qet", "--h", "1", "--k", "1", "--bogus")
    assert exc.value.code == 2
    capsys.readouterr()


# Each config line once took its own parse path: a JSON value installed as a
# default, past the flag's type, choices and switch handling.  Each must now
# fail as the flag would, or run exactly as the flag does.
CONFIG_LINES = [
    (["qet", "--k", "1"], "h = [1, 2]", "argument --h:"),
    (["qet", "--h", "1", "--k", "1"], 'method = "foo"', "argument --method:"),
    (["longrange", "--h", "1", "--k", "1"], "hops = 2.5", "argument --hops:"),
    (["tiling"], "q = 7.5", "argument --q:"),
    (["qed", "--h", "9", "--k", "2", "--q", "6", "--method", "exact"], "receivers = 1",
     ["--receivers", "1"]),
    (["qet", "--h", "1", "--k", "1", "--method", "exact"], "out = 5", ["--out", "5"]),
    (["qet", "--h", "1", "--k", "1"], 'format = "xml"', "argument --format:"),
    (["longrange", "--h", "1", "--k", "1"], 'sample_transcript = "no"',
     "argument --sample-transcript:"),
    (["table1", "--method", "exact"], 'check = "false"', "argument --check:"),
    (["qet", "--h", "1", "--k", "1"], "shots = 1.5", "argument --shots:"),
    (["qet", "--h", "1", "--k", "1"], "shots = true", "argument --shots:"),
    (["table1", "--method", "exact"], "shots = 2000.7", "argument --shots:"),
    (["qet", "--k", "1", "--method", "exact"], "h = 1", ["--h", "1"]),
]


def _run_captured(capsys, workdir, *argv):
    """Exit code, stdout, stderr and the bytes of a file named "5"."""
    try:
        code = run_cli(*argv)
    except SystemExit as exc:
        code = exc.code
    written = workdir / "5"
    data = written.read_bytes() if written.exists() else None
    written.unlink(missing_ok=True)
    return (code, *capsys.readouterr(), data)


@pytest.mark.parametrize("argv, line, expected", CONFIG_LINES)
def test_config_values_parse_as_flags(argv, line, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    got = _run_captured(capsys, tmp_path, *argv, "--config", str(cfg))
    if isinstance(expected, str):
        assert got[0] == 2
        assert expected in got[2]
    else:
        assert got[0] == 0
        assert got == _run_captured(capsys, tmp_path, *argv, *expected)


@pytest.mark.parametrize("argv, lines, flags", [
    (["qed", "--k", "2", "--q", "6"], 'h = 1.0\nmethod = exact\nreceivers = "1, 2"\n',
     ["--h", "1.0", "--method", "exact", "--receivers", "1, 2"]),
    (["table1", "--method", "exact"], "check = true\nwide = false\n", ["--check"]),
])
def test_valid_config_runs_as_the_same_flags(argv, lines, flags, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    got = _run_captured(capsys, tmp_path, *argv, "--config", str(cfg))
    assert got[0] == 0
    assert got == _run_captured(capsys, tmp_path, *argv, *flags)


@pytest.mark.parametrize("key", ["config", "conf"])
def test_config_key_naming_config_exits_2(key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"h = 1.0\nk = 1.0\n{key} = other.cfg\n")
    assert run_cli("qet", "--config", str(cfg)) == 2
    assert f"config key '{key}' names --config" in capsys.readouterr().err


@pytest.mark.parametrize("argv, line", [
    (["qet", "--k", "1"], "h = [1, 2]"),
    (["table1", "--method", "exact"], 'check = "false"'),
    (["qet", "--h", "1", "--k", "1"], "bogus_key = 3"),
])
def test_bad_config_exits_2_in_a_process(argv, line, tmp_path):
    # in-process tests see SystemExit; a user sees the process's exit code
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    src = os.path.dirname(os.path.dirname(qetsim.cli.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "qetsim.cli", *argv, "--config", str(cfg)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert run.returncode == 2
    assert "error:" in run.stderr and "Traceback" not in run.stderr


@pytest.mark.parametrize("argv", [
    ["qet", "--h", "1", "--k", "1", "--method", "sampled", "--shots", "10"],
    ["longrange", "--h", "1", "--k", "1"],
])
def test_negative_seed_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--seed", "-1")
    assert exc.value.code == 2
    assert "argument --seed: expected an integer >= 0, got '-1'" in capsys.readouterr().err
    # seeds of any size are accepted
    assert run_cli(*argv, "--seed", str(2**80)) == 0


# --- the front end in one process ---------------------------------------------------

def test_the_parser_is_built_once():
    assert qetsim.cli.build_parser() is qetsim.cli.build_parser()


def freeze_counts(monkeypatch, *commands):
    """The freeze count as each of the named cmd_* functions starts."""
    seen = []
    for name in commands:
        command = getattr(qetsim.cli, name)

        def recorded(args, command=command):
            seen.append(gc.get_freeze_count())
            return command(args)

        monkeypatch.setattr(qetsim.cli, name, recorded)
    return seen


@pytest.mark.parametrize("argv, code", [
    (["tiling", "--q", "7", "--depth", "1"], 0),
    (["qed", "--h", "0.01", "--k", "1", "--q", "6", "--method", "exact"], 1),
    (["qed", "--h", "1", "--k", "1", "--q", "99"], 2),
    (["qet", "--h", "1"], "SystemExit"),
])
def test_main_restores_the_collector_on_every_exit(argv, code, capsys, monkeypatch):
    # the run's command sees the objects made before the call frozen
    frozen = freeze_counts(monkeypatch, "cmd_tiling", "cmd_qed", "cmd_qet")
    assert gc.isenabled() and gc.get_freeze_count() == 0
    try:
        got = run_cli(*argv)
    except SystemExit:
        got = "SystemExit"
    capsys.readouterr()
    assert got == code
    assert gc.isenabled() and gc.get_freeze_count() == 0
    assert frozen == [] if code == "SystemExit" else frozen[0] > 0


def test_main_leaves_a_host_freeze_and_a_disabled_collector_alone(capsys, monkeypatch):
    frozen = freeze_counts(monkeypatch, "cmd_tiling")
    gc.disable()
    gc.freeze()
    try:
        before = gc.get_freeze_count()
        assert run_cli("tiling", "--q", "7", "--depth", "1") == 0
        # no second freeze inside the call, and no unfreeze after it
        assert 0 < frozen[0] <= before and 0 < gc.get_freeze_count() <= before
        assert not gc.isenabled()
    finally:
        gc.unfreeze()
        gc.enable()
    capsys.readouterr()


@pytest.mark.parametrize("first, second", [
    (["qet", "--config", "{cfg}", "--out", "{dir}/first.csv"],
     ["qet", "--h", "2", "--k", "1", "--out", "{dir}/second.json"]),
    (["qed", "--h", "9", "--k", "2", "--q", "6", "--method", "sampled", "--shots", "2000",
      "--seed", "5", "--out", "{dir}/first.json"],
     ["table1", "--shots", "2000", "--seed", "11", "--out", "{dir}/second.csv"]),
])
def test_back_to_back_runs_give_the_bytes_of_separate_runs(first, second, tmp_path):
    # the shared parser keeps nothing from one parse to the next: a run after
    # another in one process writes what it writes in a fresh process
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 1.0\nk = 1.0\nmethod = exact\nformat = csv\n")
    src = os.path.dirname(os.path.dirname(qetsim.cli.__file__))
    alone, together = tmp_path / "alone", tmp_path / "together"
    alone.mkdir()
    together.mkdir()
    for argv in (first, second):
        subprocess.run([sys.executable, "-m", "qetsim.cli",
                        *(a.format(cfg=cfg, dir=alone) for a in argv)],
                       check=True, env={**os.environ, "PYTHONPATH": src})
        assert run_cli(*(a.format(cfg=cfg, dir=together) for a in argv)) == 0
    written = {p.name: p.read_bytes() for p in alone.iterdir()}
    assert len(written) == 2
    assert {p.name: p.read_bytes() for p in together.iterdir()} == written


# --- every accepted input: clean exit ---------------------------------------------

SMALLEST_NORMAL, LARGEST = 2.2250738585072014e-308, 1.7976931348623157e308
# log-uniform over the normal floats, plus both ends
FIELDS = st.one_of(
    st.sampled_from([SMALLEST_NORMAL, LARGEST]),
    st.floats(-1022.0, 1023.99).map(lambda e: 2.0**e),
).map(repr)
SHOTS = st.sampled_from(["1", "2", "1000", str(2**62)])
SEEDS = st.integers(0, 2**64).map(str)


@st.composite
def cli_runs(draw):
    h, k = draw(FIELDS), draw(FIELDS)
    command = draw(st.sampled_from(["qet", "qed", "longrange", "sweep"]))
    if command == "longrange":
        return ["longrange", "--h", h, "--k", k, "--hops", str(draw(st.integers(1, 3))),
                "--seed", draw(SEEDS), "--sample-transcript"]
    if command == "sweep":
        steps = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return ["sweep", f"--h={h}:{draw(FIELDS)}:{steps[0]}",
                f"--k={k}:{draw(FIELDS)}:{steps[1]}", "--field-term-column"]
    argv = [command, "--h", h, "--k", k, "--shots", draw(SHOTS), "--seed", draw(SEEDS),
            "--method", draw(st.sampled_from(["exact", "sampled", "both"])),
            "--format", draw(st.sampled_from(["json", "csv"]))]
    if command == "qed":
        q = draw(st.integers(2, 7))
        receivers = draw(st.lists(st.integers(1, q - 1), min_size=1, max_size=q - 1,
                                  unique=True))
        argv += ["--q", str(q), "--receivers", ",".join(map(str, receivers))]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=cli_runs())
@example(argv=["qet", "--h", "1e200", "--k", "1e200"])
@example(argv=["qed", "--h", "1e150", "--k", "1e150", "--q", "2", "--receivers", "1",
               "--shots", str(2**62), "--method", "sampled"])
def test_accepted_runs_exit_cleanly_property(argv):
    # exit 0 with only finite numbers out, or exit 1 or 2 with a message; a
    # traceback or a warning escapes as an exception and fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        numbers = []
        for token in re.split(r'[\s,:{}\[\]"]+', out):
            with contextlib.suppress(ValueError):
                numbers.append(float(token))
        assert numbers and all(map(math.isfinite, numbers)), out
    else:
        assert code in (1, 2), (code, err)
        assert err.startswith("error: ") or (code == 2 and err.startswith("usage: ")), err


# --- the q = 2 h/k error grid -------------------------------------------------------

# each axis value once for h and once for k: the float range's edges, the
# ill-conditioned and degenerate edges and the overflow edge, then invalid values
ERROR_GRID = ("1e-320", "3e-308", "1e-300", "1e-150", "1e-5", "1", "3.3e4", "1e5", "1e12",
              "1.2e12", "1e150", "1e296", "1e300", "2.3e307", "4e307", "5e307", "8e307",
              "9e307", "1e308", "1.5e308", "1.79e308", "inf", "nan", "0", "-1")
ERROR_GRID_DIGEST = "925fd205621890c6c17127765e787ec5818b8f700c659a610afdd82c6d49fb81"
STAR_ERROR_GRID_DIGEST = "3854b9521f3bd92133f89dab1c005f1b3910466602addede9a51925edebfde6d"


def test_error_grid_exits_and_messages_are_pinned(capsys):
    # every q = 2 command, then `qed` at q >= 3, on every (h, k) of the grid:
    # its exit code, stdout and stderr; after the prefix, a numpy
    # FloatingPointError's wording is numpy's, so it is cut there
    prefix = "error: floating-point failure:"
    ours = f"{prefix} {qetsim.model._OVERFLOW}\n"

    def grid_digest(commands):
        digest, codes = hashlib.sha256(), collections.defaultdict(list)
        for h, k in itertools.product(ERROR_GRID, repeat=2):
            for command in commands:
                code = main([*command, f"--h={h}", f"--k={k}"])
                out, err = capsys.readouterr()
                if err.startswith(prefix) and err != ours:
                    err = prefix
                digest.update(repr((code, out, err)).encode())
                codes[command].append((code, err))
        return digest.hexdigest(), codes

    minimal = (("sweep",), ("qet", "--method", "exact"),
               ("qed", "--q", "2", "--receivers", "1", "--method", "exact"))
    digest, codes = grid_digest(minimal)
    assert collections.Counter(code for runs in codes.values() for code, _ in runs) == {
        2: 675, 1: 1101, 0: 99}
    assert digest == ERROR_GRID_DIGEST
    # at q >= 3 the usage errors, the 5 invalid values against any of the
    # 25, are the only exit 2; h/k is checked before the solve, so an
    # eigensolver that does not converge far beyond it cannot be reported as
    # usage
    star = [("qed", "--q", str(q), "--receivers", "1", *method) for q in (3, 4, 7, 20)
            for method in (("--method", "exact"), ("--method", "both", "--shots", "10"))]
    digest, codes = grid_digest(star)
    for command, runs in codes.items():
        usage = [err for code, err in runs if code == 2]
        assert len(usage) == 225, command
        assert all(err.startswith("error: h and k must be") for err in usage), command
    assert digest == STAR_ERROR_GRID_DIGEST
