"""Tests of the benchmark itself, at tiny workload sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import re
import shutil

import pytest

import run
import spans
import verify

SEED = 3
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def outputs():
    """One real tiny invocation per workload: {name: (out_dir, check, rc)}."""
    work = run.WORK / "test"
    shutil.rmtree(work, ignore_errors=True)
    env = run.child_env()
    made = {}
    for name, make in run.WORKLOADS.items():
        args, check = make(random.Random(f"{name}/{SEED}"), True)
        out = work / name
        result = run.invoke(out, name, args(out), False, env, 120.0)
        assert "error" not in result, result
        made[name] = (out, check, result["rc"])
    yield made
    shutil.rmtree(work, ignore_errors=True)


def test_spec_matches_harness(benchmark_spec):
    assert benchmark_spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in benchmark_spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in benchmark_spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in benchmark_spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert e2e["setup_s"] == "s"
    bounds = {m["name"]: m["bound"] for m in benchmark_spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for metric in benchmark_spec["end_to_end"] + benchmark_spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for workload in benchmark_spec["workloads"]:
        assert NAME.match(workload["name"]) and len(workload["why"]) <= 200


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_present_with_unit(name, trace, capsys):
    measured = run.measure(name, SEED, seconds=0, trace=trace, small=True)
    assert measured["failed"] == 0, measured["problems"]
    assert measured["attempted"] == (2 if trace else 1)
    values = run.print_run(measured, trace)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert set(values) == set(units)
    assert all(isinstance(v, (int, float)) for v in values.values())
    printed = capsys.readouterr().out
    for metric, unit in units.items():
        assert re.search(rf"^  {re.escape(metric)} .* {re.escape(unit)}\b", printed, re.M)
    if trace:
        assert measured["hook_errors"] == []
        assert values["trace.spans"] > 0 and values["cli.bytes_out"] > 0
        assert values["model.dense_bytes"] > 0
        if name in ("table1", "star"):
            assert values["sampler.shots"] > 0
        assert abs(sum(values[f"{layer}.share"] for layer in spans.LAYERS) - 1.0) < 0.05
    else:
        assert values["pass_rate"] == 1.0 and values["wall_ref"] > 0 and values["setup_s"] > 0


def test_result_line_names_every_metric(capsys):
    assert run.main(["--workload", "relay", "--seed", str(SEED), "--seconds", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END


def test_refuses_to_run_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", run.HERE)
    assert run.main(["--workload", "table1", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_hotta_closed_form():
    # E_B(1, 1) = (sqrt(10) - 3) / sqrt(2)
    assert verify.hotta_eb(1.0, 1.0) == pytest.approx((10**0.5 - 3) / 2**0.5, abs=1e-15)


def test_star_exact_reduces_to_minimal_model():
    # the q = 2 star is the minimal model, whose E_j is -E_B
    for h, k in ((1.0, 1.0), (0.7, 1.9), (2.5, 0.4)):
        assert verify.star_exact(h, k, 2)["E_j"] == pytest.approx(-verify.hotta_eb(h, k), abs=1e-12)


def _replace_line(text: str, index: int, line: str) -> str:
    lines = text.splitlines()
    lines[index] = line
    return "\n".join(lines) + "\n"


def test_table1_verifier(outputs):
    out, check, rc = outputs["table1"]
    assert check(out, rc) == []
    text = (out / "table1.csv").read_text()
    lines = text.splitlines()
    sampled = next(i for i, line in enumerate(lines) if ",sampled," in line)
    fields = lines[sampled].split(",")  # the quoted tiling label holds one comma
    fields[7] = format(float(fields[7]) + 1.0, ".12g")  # mean moved far past 5 stderr
    assert verify.table1(_replace_line(text, sampled, ",".join(fields)), 2000, int(fields[10]))
    assert verify.table1(text.replace(",pass", ",fail", 1), 2000, int(fields[10]))
    assert verify.table1("\n".join(lines[:-1]) + "\n", 2000, int(fields[10]))
    exact = next(i for i, line in enumerate(lines) if ",exact," in line)
    fields = lines[exact].split(",")
    fields[7] = format(float(fields[7]) + 0.5, ".12g")  # outside the reference tolerance
    assert verify.table1(_replace_line(text, exact, ",".join(fields)), 2000, 0)
    # same seed, different bytes: the byte-identity oracle fires
    (out / "table1.csv").write_text(text.replace("\n", "\r\n", 1))
    assert any("differ" in p for p in check(out, rc))
    (out / "table1.csv").write_text(text)


def test_sweep_verifier(outputs):
    out, check, rc = outputs["sweep"]
    assert check(out, rc) == []
    text = (out / "sweep.csv").read_text()
    h, k, e_b = text.splitlines()[5].split(",")
    bumped = _replace_line(text, 5, f"{h},{k},{format(float(e_b) + 1e-9, '.12g')}")
    (out / "sweep.csv").write_text(bumped)
    assert check(out, rc)
    (out / "sweep.csv").write_text(_replace_line(text, 5, f"{h},{k}0,{e_b}"))
    assert check(out, rc)
    (out / "sweep.csv").write_text(text)
    assert check(out, 2)


def test_star_verifier(outputs):
    out, check, rc = outputs["star"]
    assert check(out, rc) == []
    original = (out / "star.json").read_text()
    doc = json.loads(original)
    doc["exact"]["receivers"]["2"]["E_j"] += 1e-8
    (out / "star.json").write_text(json.dumps(doc))
    assert check(out, rc)
    # every receiver moved alike, still self-consistent: only the independent solve sees it
    doc = json.loads(original)
    for r in doc["exact"]["receivers"].values():
        r["HX"] += 1e-7
        r["E_j"] += 1e-7
        r["E_B"] = -r["E_j"]
    (out / "star.json").write_text(json.dumps(doc))
    assert any("independent solve" in p for p in check(out, rc))
    doc = json.loads(original)
    doc["exact"]["E0"] += 1e-7
    (out / "star.json").write_text(json.dumps(doc))
    assert any("independent solve" in p for p in check(out, rc))
    doc = json.loads(original)
    doc["sampled"]["receivers"]["1"]["HX"] += 10 * doc["sampled"]["stderr"]["HX1"]
    (out / "star.json").write_text(json.dumps(doc))
    assert check(out, rc)
    (out / "star.json").write_text(original)


def test_relay_verifier(outputs):
    out, check, rc = outputs["relay"]
    assert check(out, rc) == []
    record, transcript = (out / "relay.json").read_text(), (out / "relay.txt").read_text()
    doc = json.loads(record)
    doc["relay_vs_local_max_delta"] = 1e-9
    (out / "relay.json").write_text(json.dumps(doc))
    assert check(out, rc)
    (out / "relay.json").write_text(record)
    lines = transcript.splitlines()
    for broken in (lines[:-1], lines[:3] + [lines[3][:-1] + "2"] + lines[4:],
                   lines[:1] + lines[2:3] + lines[1:2] + lines[3:]):
        (out / "relay.txt").write_text("\n".join(broken) + "\n")
        assert check(out, rc)
    (out / "relay.txt").write_text(transcript)
    assert check(out, rc) == []
