"""Command-line front end: reproduce the reference table, the parameter
sweep, tiling statistics, and single protocol runs, writing CSV/JSON
artifacts.

Every command is deterministic given its full configuration (seed included).
Exit codes: 0 success, 1 failed check, numerical failure (degenerate ground
space, ill-conditioned h/k, floating-point overflow, failed internal
assertion) or I/O failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import model, refdata, tiling
from .model import MinimalModelParams, StarModelParams, star_model
from .protocol import exact_record, run_protocol, sweep_EB
from .sampler import TableCell, cells_to_csv, check_shots, estimate_table1, sampled_record
from .teleport import run_longrange_qet

DEFAULT_SHOTS = 1_000_000
DEFAULT_SEED = 20230917  # documented fixed default; change via --seed
# Largest `sweep` grid, h steps times k steps.  A grid point peaks at
# ~300 B in-process (1000 x 1000 at 320 MB, 1500 x 1500 at 680 MB), so a
# grid at the bound peaks at ~1.3 GB.
MAX_SWEEP_POINTS = 4_000_000


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _parse_range(option: str, text: str) -> tuple[float, float, int]:
    """'a:b:n' -> (a, b, n), n evenly spaced values in [a, b]; plain
    number -> (x, x, 1)."""
    try:
        if ":" not in text:
            return float(text), float(text), 1
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
        if steps < 1:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"--{option} expects a value or min:max:steps with a positive integer "
            f"steps, got {text!r}"
        ) from None
    return lo, hi, steps


def _parse_receivers(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _require(args, *names) -> None:
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(
            "missing required option(s): " + ", ".join(f"--{m}" for m in missing)
        )


def _load_config(path: str) -> dict:
    """key = value lines; '#' starts a comment; values parsed as JSON when possible."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def _apply_config(sp: argparse.ArgumentParser, path: str) -> None:
    """Make the file's values the command's defaults; reject unknown keys."""
    config = _load_config(path)
    options = set(vars(sp.parse_args([]))) - {"func", "config"}
    unknown = sorted(set(config) - options)
    if unknown:
        raise ValueError(
            f"config key(s) not options of {sp.prog}: " + ", ".join(unknown)
        )
    sp.set_defaults(**config)


def _record_rows(record) -> list[str]:
    rows = ["observable,site,method,mean,stderr"]
    for obs, site, value in record.observables():
        err = record.stderr.get(obs)
        rows.append(
            f"{obs},{site},{record.method},{_fmt(value)},{'' if err is None else _fmt(err)}"
        )
    return rows


# --- table1 -----------------------------------------------------------------

def cmd_table1(args) -> int:
    methods = ("exact", "sampled") if args.method == "both" else (args.method,)
    cells = estimate_table1(refdata.CONFIGS, args.shots, args.seed, methods=methods)
    exact_by_key = {
        (c.tiling, c.h, c.k, c.observable): c.mean
        for c in cells if c.method == "exact"
    }
    kept: list[TableCell] = [c for c in cells if c.method in methods]

    ref_means, ref_errs, tols, statuses = [], [], [], []
    failures = 0
    for c in kept:
        q = int(c.tiling.strip("{}").split(",")[1])
        ref_mean, ref_err = refdata.REFERENCE_TABLE[(q, int(c.h), int(c.k))][c.observable]
        ref_means.append(ref_mean)
        ref_errs.append(ref_err)
        if c.method == "exact":
            tol = refdata.exact_tolerance(ref_err)
            ok = abs(c.mean - ref_mean) <= tol
        else:
            exact = exact_by_key[(c.tiling, c.h, c.k, c.observable)]
            tol = 5.0 * c.stderr
            ok = abs(c.mean - exact) <= tol
        tols.append(tol)
        statuses.append("pass" if ok else "fail")
        failures += 0 if ok else 1

    if args.wide:
        text = _wide_table(kept)
    else:
        text = cells_to_csv(
            kept,
            extra_columns={
                "ref_mean": ref_means, "ref_stderr": ref_errs,
                "tolerance": tols, "status": statuses,
            },
        )
    _write_text(args.out, text)
    if args.check:
        total = len(kept)
        print(f"check: {total - failures}/{total} cells within tolerance", file=sys.stderr)
        return 0 if failures == 0 else 1
    return 0


def _wide_table(cells: list[TableCell]) -> str:
    pairs = [(9, 2), (8, 2), (7, 2), (6, 2)]
    header = ["tiling", "observable", "method"] + [f"(h={h};k={k})" for h, k in pairs]
    lines = [",".join(header)]
    seen = {}
    for c in cells:
        seen.setdefault((c.tiling, c.observable, c.method), {})[(int(c.h), int(c.k))] = c
    for (tiling_label, obs, method), row in seen.items():
        out = [f'"{tiling_label}"', obs, method]
        for pair in pairs:
            c = row[pair]
            if c.stderr is None:
                out.append(f"{c.mean:.4f}")
            else:
                out.append(f"{c.mean:.4f}+-{c.stderr:.4f}")
        lines.append(",".join(out))
    return "\n".join(lines) + "\n"


# --- sweep ------------------------------------------------------------------

def cmd_sweep(args) -> int:
    h_range, k_range = _parse_range("h", args.h), _parse_range("k", args.k)
    points = h_range[2] * k_range[2]
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid has {points} points, more than {MAX_SWEEP_POINTS}")
    h_values, k_values = ([float(v) for v in np.linspace(*r)] for r in (h_range, k_range))
    if min(h_values) <= 0 or min(k_values) <= 0:
        raise ValueError("sweep grids must be strictly positive")
    grid = sweep_EB(h_values, k_values, field_term_column=args.field_term_column)
    lines = ["h,k,E_B" + (",E_B_field_term" if args.field_term_column else "")]
    for i, h in enumerate(grid.h_values):
        for j, k in enumerate(grid.k_values):
            row = f"{_fmt(h)},{_fmt(k)},{_fmt(grid.e_b[i, j])}"
            if args.field_term_column:
                row += f",{_fmt(grid.e_b_field_term[i, j])}"
            lines.append(row)
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# --- tiling -----------------------------------------------------------------

def cmd_tiling(args) -> int:
    _require(args, "q")
    kind = tiling.classify(3, args.q)
    print(f"classification: {{3,{args.q}}} is {kind}", file=sys.stderr)
    if args.q < 6:
        print(
            "warning: the energy-distribution model needs q >= 6; "
            "not generating a spherical tiling",
            file=sys.stderr,
        )
        return 0
    spec = tiling.TilingSpec(p=3, q=args.q, depth=args.depth)
    graph = tiling.generate(spec)
    counts = tiling.ring_sizes(graph)
    lines = ["ring,count"] + [f"{d},{c}" for d, c in enumerate(counts)]
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.edges_out:
        Path(args.edges_out).write_text(tiling.export_edges(graph))
    return 0


# --- qet / qed --------------------------------------------------------------

def _emit_record(args, exact, sampled) -> None:
    records = [r for r in (exact, sampled) if r is not None]
    if args.format == "json":
        payload = records[0].as_dict() if len(records) == 1 else {
            "exact": records[0].as_dict(), "sampled": records[1].as_dict()
        }
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = []
        for r in records:
            rows = _record_rows(r)
            lines.extend(rows if not lines else rows[1:])
        _write_text(args.out, "\n".join(lines) + "\n")


def _run_record(args, params, receivers) -> int:
    """The exact record, and the sampled one drawn from the protocol pass."""
    bundle = star_model(params)
    exact = exact_record(bundle, receivers)
    sampled = None
    if args.method in ("sampled", "both"):
        fed = run_protocol(bundle, receivers)
        sampled = sampled_record(bundle, exact, fed, args.shots, args.seed)
    _emit_record(args, None if args.method == "sampled" else exact, sampled)
    return 0


def cmd_qet(args) -> int:
    _require(args, "h", "k")
    return _run_record(args, MinimalModelParams(h=args.h, k=args.k), (1,))


def cmd_qed(args) -> int:
    _require(args, "h", "k", "q")
    params = StarModelParams(h=args.h, k=args.k, q=args.q)
    return _run_record(args, params, _parse_receivers(args.receivers))


# --- longrange --------------------------------------------------------------

def cmd_longrange(args) -> int:
    _require(args, "h", "k")
    params = MinimalModelParams(h=args.h, k=args.k)
    record, transcript, worst = run_longrange_qet(
        params, args.hops, seed=args.seed if args.sample_transcript else None
    )
    payload = record.as_dict()
    payload["hops"] = args.hops
    payload["relay_vs_local_max_delta"] = worst
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.transcript_out:
        Path(args.transcript_out).write_text(transcript.serialize())
    else:
        sys.stdout.write(transcript.serialize())
    # the pass's roundoff grows with the field scale, so the check is relative
    scale = max(args.h, args.k)
    if worst > 1e-10 * scale:
        print(f"relay/non-relay mismatch: {worst:.3e} > 1e-10 * max(h, k) = {1e-10 * scale:.3e}",
              file=sys.stderr)
        return 1
    return 0


# --- parser -----------------------------------------------------------------

def _add_common(sp, shots=True):
    sp.add_argument("--config", help="key = value file applied as defaults")
    sp.add_argument("--out", help="output path (stdout if omitted)")
    if shots:
        sp.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="qetsim",
        description="Exact and shot-sampled energy-teleportation simulations "
        "on the minimal 2-qubit model and {3,q} star networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    sp = sub.add_parser("table1", help="all 12 star configs x 7 observables")
    _add_common(sp)
    sp.add_argument("--method", choices=("exact", "sampled", "both"), default="both")
    sp.add_argument("--check", action="store_true",
                    help="exit 1 unless every cell passes its tolerance")
    sp.add_argument("--wide", action="store_true",
                    help="reference-style wide layout instead of tidy rows")
    sp.set_defaults(func=cmd_table1)
    commands["table1"] = sp

    sp = sub.add_parser("sweep", help="minimal-model E_B over an (h,k) grid")
    _add_common(sp, shots=False)
    sp.add_argument("--h", default="0.2:3.0:50", help="value or min:max:steps")
    sp.add_argument("--k", default="0.2:3.0:50", help="value or min:max:steps")
    sp.add_argument("--field-term-column", action="store_true",
                    help="also emit the receiver field-term-only column")
    sp.set_defaults(func=cmd_sweep)
    commands["sweep"] = sp

    sp = sub.add_parser("tiling", help="ring sizes and edges of a {3,q} tiling")
    _add_common(sp, shots=False)
    sp.add_argument("--q", type=int)
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--edges-out", help="also write the edge list here")
    sp.set_defaults(func=cmd_tiling)
    commands["tiling"] = sp

    sp = sub.add_parser("qet", help="one minimal-model run")
    _add_common(sp)
    sp.add_argument("--h", type=float)
    sp.add_argument("--k", type=float)
    sp.add_argument("--method", choices=("exact", "sampled", "both"), default="both")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_qet)
    commands["qet"] = sp

    sp = sub.add_parser("qed", help="one star-model multi-receiver run")
    _add_common(sp)
    sp.add_argument("--h", type=float)
    sp.add_argument("--k", type=float)
    sp.add_argument("--q", type=int)
    sp.add_argument("--receivers", default="1,2", help="comma list, e.g. 1,2")
    sp.add_argument("--method", choices=("exact", "sampled", "both"), default="both")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_qed)
    commands["qed"] = sp

    sp = sub.add_parser("longrange", help="relayed minimal-model run + transcript")
    _add_common(sp, shots=False)
    sp.add_argument("--h", type=float)
    sp.add_argument("--k", type=float)
    sp.add_argument("--hops", type=int, default=1)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--sample-transcript", action="store_true",
                    help="fill the transcript from one sampled trajectory")
    sp.add_argument("--transcript-out", help="transcript path (stdout if omitted)")
    sp.set_defaults(func=cmd_longrange)
    commands["longrange"] = sp

    return parser, commands


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _apply_config(commands[args.command], args.config)
            args = parser.parse_args(argv)
        if "shots" in args:
            check_shots(args.shots)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (model.DegenerateGroundError, model.IllConditionedError, AssertionError) as exc:
        # numerical failures, not usage, though both errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        # raised by the errstate above, e.g. "overflow encountered in add"
        print(f"error: floating-point failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
