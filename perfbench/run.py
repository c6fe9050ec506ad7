"""qetsim benchmark: four CLI workloads, verified outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Run it from the repository root; it needs nothing installed beyond numpy
and scipy, and imports qetsim from ./src.  `--workload all` runs the four
workloads one after another and prints every metric of each.

How it runs: a closed loop with one client.  Each timed invocation of
`qetsim.cli.main` runs in a fresh process (invoke.py), one after another,
because a CLI user pays interpreter start-up, imports and the ground solve
on every run; in one long-lived process the `lru_cache` on the model
builders would hide the solve from the second call on.  BLAS threads are
capped at the number of usable cores.  The workload seed only feeds the
input generator here; the program receives the generated arguments.

End-to-end metrics (`--trace 0`), medians over the invocations of a run:
  wall_ref     time inside cli.main (parse, compute, write output) divided
               by the time of a fixed reference loop run in the same process
               just before and just after it (invoke.reference_s)
  setup_s      process start until qetsim is imported and its parser built
  peak_rss_mb  ru_maxrss of the invocation's process
  pass_rate    share of invocations that exit 0 and pass verification,
               i.e. 1 - error_rate; `attempted` and `failed` carry the counts

Why wall_ref and not the wall time itself: on a shared host the speed of a
core drifts by 30% and more over seconds to minutes as other tenants load
it, and the time of the same invocation follows it (its CPU time moves with
its wall time, so the core runs slower; the process does not wait).  The
median wall time of a 30 s run then measures how loaded the host was in
that run.  The reference loop, timed on the same core a moment before and
after, slows down with it.  Measured on a 2-vCPU VM over ten 30 s runs of
each workload, the spread of the run medians (quartile distance over the
median) was 0.03-0.06 for wall_ref against 0.05-0.29 for the wall time on
sweep, table1 and relay.  The dense q = 12 solve of star does not follow
the drift the loop sees, so there the ratio carries the loop's noise:
0.10-0.14 for wall_ref against 0.06-0.12 for the wall time.  The loop
calls no qetsim code, so a change to qetsim moves wall_ref as it moves the
wall time; only a change that left work running in the process after
cli.main returned could slow the loop timed after it.  The median wall
time in seconds is printed next to wall_ref, so that would show.

Per-layer metrics (`--trace 1`) come from traced invocations that alternate
with untraced ones in the same run; `trace.overhead_s` is the difference of
their median wall times.  See spans.py for the layers and the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # every run must end within 180 s, whatever the program does
OUTPUT_FILES_EXCLUDED = ("result.json", spans.SPANS_FILE)

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}

PER_LAYER = {
    "sampler.sample_protocol.s": "s",
    "sampler.shots": "count",
    "sampler.shots_per_s": "1/s",
    "sampler.outcomes": "count",
    "sampler.estimate.s": "s",
    "model.solve_ground.s": "s",
    "model.solve_ground.calls": "count",
    "model.dense_bytes": "B",
    "model.feedback_angle.s": "s",
    "model.feedback_angle.calls": "count",
    "protocol.alice_measure.calls": "count",
    "protocol.apply_feedback.calls": "count",
    "protocol.useful_pass_ratio": "ratio",
    "ops.expectation.calls": "count",
    "kernels.calls": "count",
    "kernels.bytes": "B",
    "teleport.relay_hop.calls": "count",
    "teleport.relay_hop.s": "s",
    "teleport.transcript_bits": "count",
    "cli.serialize.s": "s",
    "cli.bytes_out": "B",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    **{f"{layer}.share": "ratio" for layer in spans.LAYERS},
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Layer expected to hold the largest self time on each workload.
PREDICTED_TOP_LAYER = {
    "table1": ("sampler",),
    "sweep": ("protocol", "model", "ops"),
    "star": ("model",),
    "relay": ("teleport",),
}


# --- workloads ------------------------------------------------------------------
# Each maker draws the inputs from the workload seed and returns
# (args(out_dir) -> CLI argv, check(out_dir, rc) -> problems).  `small`
# shrinks every size for the benchmark's own tests.

def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        return f"<unreadable: {exc}>"


def make_table1(rng: random.Random, small: bool):
    seed = rng.randrange(1, 2**31)
    shots = 2000 if small else 1_000_000
    digests: set[str] = set()

    def args(out: Path) -> list[str]:
        return ["table1", "--check", "--shots", str(shots), "--seed", str(seed),
                "--out", str(out / "table1.csv")]

    def check(out: Path, rc: int) -> list[str]:
        path = out / "table1.csv"
        data = path.read_bytes() if path.is_file() else b""
        digests.add(hashlib.sha256(data).hexdigest())
        problems = [] if rc == 0 else [f"table1 --check exited {rc}"]
        if len(digests) > 1:
            problems.append("table1: output bytes differ between invocations with one seed")
        return problems + verify.table1(data.decode(errors="replace"), shots, seed)

    return args, check


def make_sweep(rng: random.Random, small: bool):
    steps = 4 if small else 50
    h_range, k_range = ((round(0.2 + rng.randrange(50) / 1000, 3),
                         round(3.0 - rng.randrange(50) / 1000, 3), steps) for _ in range(2))

    def args(out: Path) -> list[str]:
        return ["sweep", "--h", "{}:{}:{}".format(*h_range), "--k", "{}:{}:{}".format(*k_range),
                "--out", str(out / "sweep.csv")]

    def check(out: Path, rc: int) -> list[str]:
        problems = [] if rc == 0 else [f"sweep exited {rc}"]
        return problems + verify.sweep(_read(out / "sweep.csv"), h_range, k_range)

    return args, check


def make_star(rng: random.Random, small: bool):
    q = 4 if small else 12
    shots = 2000 if small else 1_000_000
    h = rng.randrange(6000, 9001) / 1000
    seed = rng.randrange(1, 2**31)
    receivers = ",".join(str(j) for j in range(1, q))

    def args(out: Path) -> list[str]:
        return ["qed", "--h", str(h), "--k", "2", "--q", str(q), "--receivers", receivers,
                "--shots", str(shots), "--seed", str(seed), "--out", str(out / "star.json")]

    def check(out: Path, rc: int) -> list[str]:
        problems = [] if rc == 0 else [f"qed exited {rc}"]
        return problems + verify.star(_read(out / "star.json"), h, 2.0, q)

    return args, check


def make_relay(rng: random.Random, small: bool):
    hops = 3 if small else 1000
    h, k = (rng.randrange(500, 2001) / 1000 for _ in range(2))
    seed = rng.randrange(1, 2**31)

    def args(out: Path) -> list[str]:
        return ["longrange", "--h", str(h), "--k", str(k), "--hops", str(hops), "--sample-transcript",
                "--seed", str(seed), "--out", str(out / "relay.json"),
                "--transcript-out", str(out / "relay.txt")]

    def check(out: Path, rc: int) -> list[str]:
        problems = [] if rc == 0 else [f"longrange exited {rc}"]
        return problems + verify.relay(_read(out / "relay.json"), _read(out / "relay.txt"),
                                       h, k, hops)

    return args, check


WORKLOADS = {
    "table1": make_table1,
    "sweep": make_sweep,
    "star": make_star,
    "relay": make_relay,
}


# --- invocations ------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, nproc)
    return env


def invoke(out: Path, invocation: str, cli_args: list[str], trace: bool,
           env: dict[str, str], timeout: float) -> dict:
    """Run invoke.py once; returns its result, or {"error": ...}."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "invoke.py"), str(out), invocation,
           "1" if trace else "0", *cli_args]
    t0 = time.monotonic()
    with open(out / "stdout.txt", "wb") as stdout, open(out / "stderr.txt", "wb") as stderr:
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s", "timed_out": True}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        tail = _read(out / "stderr.txt").strip().splitlines()[-3:]
        return {"error": f"invocation process exited {code}: " + " | ".join(tail)}
    result = json.loads((out / "result.json").read_text())
    result["setup_s"] = result["ready"] - t0
    return result


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir()
               if p.is_file() and p.name not in OUTPUT_FILES_EXCLUDED)


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One run of one workload: a warm-up, then timed invocations for
    `seconds` (at least one; alternating untraced and traced when tracing,
    at least one of each)."""
    run_start = time.monotonic()
    args, check = WORKLOADS[name](random.Random(f"{name}/{seed}"), small)
    env = child_env()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)

    def once(out: Path, cli_args: list[str], traced: bool) -> dict:
        remaining = RUN_LIMIT_S - (time.monotonic() - run_start)
        return invoke(out, f"{name}-{seed}-{out.name}", cli_args, traced, env, remaining)

    # The warm-up stops after set-up; it fills the file cache and writes
    # bytecode on a fresh checkout, and is not counted.
    once(work / "warmup", [], False)
    shutil.rmtree(work / "warmup", ignore_errors=True)

    walls, ratios, setup, rss, traced_walls, layer_runs, paces = [], [], [], [], [], [], []
    attempted, failed, problems, cli_argv, hook_errors, provenance = 0, 0, [], [], set(), {}
    window_start = time.monotonic()
    deadline = window_start + seconds
    while True:
        traced = trace and attempted % 2 == 1
        out = work / f"{attempted:05d}"
        cli_argv = args(out)
        started = time.monotonic()
        result = once(out, cli_argv, traced)
        paces.append(time.monotonic() - started)
        attempted += 1
        if "error" in result:
            found = [result["error"]]
        else:
            provenance = result["provenance"]
            try:
                found = check(out, result["rc"])
            except Exception as exc:  # noqa: BLE001 - malformed output is a failed invocation
                found = [f"{name}: output could not be verified: {exc!r}"]
        if found:
            failed += 1
            problems.extend(found)
        else:
            setup.append(result["setup_s"])
            if traced:
                traced_walls.append(result["wall_s"])
                layer, errors = spans.analyse(out / spans.SPANS_FILE)
                layer["cli.bytes_out"] = output_bytes(out)
                hook_errors.update(errors)
                layer_runs.append(layer)
            else:
                walls.append(result["wall_s"])
                ratios.append(result["wall_s"] / result["reference_s"])
                rss.append(result["peak_rss_mb"])
        shutil.rmtree(out, ignore_errors=True)
        if result.get("timed_out"):
            break
        # stop when the next invocation would likely end past the deadline
        if (time.monotonic() + statistics.median(paces) > deadline
                and (not trace or attempted >= 2)):
            break
    shutil.rmtree(work, ignore_errors=True)

    return {
        "workload": name,
        "seed": seed,
        "cli_argv": cli_argv,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "window_s": time.monotonic() - window_start,
        "samples": {"wall_ref": ratios, "wall_s": walls, "setup_s": setup, "peak_rss_mb": rss,
                    "trace.wall_s": traced_walls},
        "layer_runs": layer_runs,
        "hook_errors": sorted(hook_errors),
        "provenance": provenance,
    }


# --- reporting --------------------------------------------------------------------

def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(values: list[float]) -> str:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    for pct in (99, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            return f", p{pct} {cut:.6g}"
    return ""


def end_to_end(run: dict) -> dict[str, float]:
    s = run["samples"]
    return {
        "wall_ref": _median(s["wall_ref"]),
        "setup_s": _median(s["setup_s"]),
        "peak_rss_mb": _median(s["peak_rss_mb"]),
        "pass_rate": (run["attempted"] - run["failed"]) / run["attempted"],
    }


def per_layer(run: dict) -> dict[str, float]:
    """Medians over the traced invocations; counts repeat exactly across them."""
    runs = run["layer_runs"]
    metrics = {name: _median([r[name] for r in runs if name in r])
               for name in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (
        _median(run["samples"]["trace.wall_s"]) - _median(run["samples"]["wall_s"])
        if run["samples"]["trace.wall_s"] and run["samples"]["wall_s"] else 0.0
    )
    return metrics


def print_run(run: dict, trace: bool) -> dict[str, float]:
    name = run["workload"]
    print(f"workload {name}: seed {run['seed']}, {run['attempted']} invocations "
          f"({run['failed']} failed) in {run['window_s']:.1f} s")
    print(f"  argv: {' '.join(run['cli_argv'])}")
    for problem in run["problems"][:10]:
        print(f"  FAILED: {problem}")
    if not trace:
        metrics = end_to_end(run)
        for metric, unit in END_TO_END.items():
            samples = run["samples"].get(metric)
            detail = (f"median of {len(samples)}, range {min(samples, default=0):.6g}"
                      f"..{max(samples, default=0):.6g}{tail_percentile(samples)}"
                      if samples is not None
                      else f"error_rate {run['failed']}/{run['attempted']}")
            print(f"  {metric:<28} {metrics[metric]:>14.6g} {unit:<6} {detail}")
        walls = run["samples"]["wall_s"]
        print(f"  {'(wall_s, not bounded)':<28} {_median(walls):>14.6g} {'s':<6} "
              f"median of {len(walls)}, range {min(walls, default=0):.6g}"
              f"..{max(walls, default=0):.6g}{tail_percentile(walls)}")
    else:
        metrics = per_layer(run)
        for metric, unit in PER_LAYER.items():
            print(f"  {metric:<28} {metrics[metric]:>14.6g} {unit}")
        for error in run["hook_errors"]:
            print(f"  trace hook failed: {error}")
        top = max(spans.LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
        verdict = "as predicted" if top in PREDICTED_TOP_LAYER[name] else "NOT as predicted"
        print(f"  largest self-time layer: {top} "
              f"(predicted {'/'.join(PREDICTED_TOP_LAYER[name])}: {verdict})")
    provenance = dict(run["provenance"], workload_seed=run["seed"])
    print("  provenance " + json.dumps(provenance, sort_keys=True))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qetsim" / "cli.py").is_file():
        print(f"error: no qetsim sources under {ROOT / 'src'}; run from a qetsim checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            run = measure(name, args.seed, args.seconds, bool(args.trace))
            values = print_run(run, bool(args.trace))
            prefix = f"{name}." if len(names) > 1 else ""
            for metric, unit in units.items():
                metrics[prefix + metric] = {"value": values[metric], "unit": unit}
            attempted += run["attempted"]
            failed += run["failed"]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
