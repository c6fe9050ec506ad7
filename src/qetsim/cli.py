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
import functools
import gc
import itertools
import json
import math
import sys
from pathlib import Path

from . import model, refdata, tiling
from ._kernels import np
from .model import MinimalModelParams, StarModelParams, star_models
from .protocol import exact_record, run_protocol, sweep_EB
from .sampler import MAX_SHOTS, sampled_record
from .teleport import run_longrange_qet

DEFAULT_SHOTS = 1_000_000
DEFAULT_SEED = 20230917  # documented fixed default; change via --seed
# Largest `sweep` grid, h steps times k steps: a time bound, since a grid is
# solved and written one chunk at a time and only its axes' 8 B floats grow
# with it.  In-process on 2 vCPU, with --field-term-column --out FILE, a
# 2000 x 2000 grid took 4.0-4.2 s at a 51 MB peak (256 x 256: 48 MB) and a
# 1 x 4,000,000 grid 5.4-5.5 s at 89 MB, 32 MB of it the long axis.
MAX_SWEEP_POINTS = 4_000_000


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _parse_range(text: str) -> tuple[float, float, int]:
    """An argparse type: 'a:b:n' -> (a, b, n), n evenly spaced values in
    [a, b]; plain number -> (x, x, 1)."""
    try:
        if ":" not in text:
            return float(text), float(text), 1
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
        if steps < 1:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a value or min:max:steps with a positive integer steps, got {text!r}"
        ) from None
    return lo, hi, steps


def _receivers(text: str) -> tuple[int, ...]:
    """A `--receivers` value: one or more comma-separated integers."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        message = f"expected comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _int_in(lo: int, hi: float = math.inf):
    """An argparse type: an integer in lo..hi."""
    expected = f"in {lo}..{hi}" if hi < math.inf else f">= {lo}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"expected an integer {expected}, got {text!r}")
        return value

    return parse


def _write_text(path: str | None, chunks) -> None:
    """Write an iterable of text chunks to the file at `path`, or to stdout.
    A single string goes in a one-element list: `writelines` would write a
    bare str one character at a time."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as f:
            f.writelines(chunks)


@functools.cache
def _prescan_parser() -> argparse.ArgumentParser:
    prescan = argparse.ArgumentParser(prog="qetsim", add_help=False)
    prescan.add_argument("--config")
    return prescan


def _config_flags(argv: list[str]) -> list[str]:
    """The `--config` file's `key = value` lines as `--key=value` flags; '#'
    starts a comment, a quoted JSON string loses its quotes, `true` gives the
    bare switch `--key` and `false` no flag."""
    path = _prescan_parser().parse_known_args(argv)[0].config
    if path is None:
        return []
    if argv[0].startswith("-"):
        raise ValueError("--config goes after the command name: qetsim COMMAND --config FILE")
    flags = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        name, value = (part.strip() for part in line.split("=", 1))
        key = name.replace("_", "-")
        # argparse takes any prefix of an option's name as that option
        if key and "config".startswith(key):
            raise ValueError(f"config key {key!r} names --config, which a config cannot set")
        if value == "true":
            flags.append(f"--{key}")
        elif value != "false":
            if value.startswith('"'):
                try:
                    value = json.loads(value)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"config {path}, key {name!r}: {exc}") from None
            flags.append(f"--{key}={value}")
    return flags


def _record_rows(record) -> list[str]:
    rows = ["observable,site,method,mean,stderr"]
    for obs, site, value in record.observables():
        err = record.stderr.get(obs)
        rows.append(
            f"{obs},{site},{record.method},{_fmt(value)},{'' if err is None else _fmt(err)}"
        )
    return rows


def _shown(args, exact, sampled) -> list:
    """The records `--method` asks for."""
    return {"exact": [exact], "sampled": [sampled], "both": [exact, sampled]}[args.method]


def _records(args, params, receivers) -> list[tuple]:
    """Each model's exact record, and unless `--method exact` its sampled one
    from one stacked pass: the models share q."""
    bundles = star_models(params)
    exact = [exact_record(b, receivers) for b in bundles]
    if args.method == "exact":
        return [(e, None) for e in exact]
    feds = run_protocol(bundles, receivers)
    return [(e, sampled_record(b, fed, receivers, args.shots, args.seed))
            for e, b, fed in zip(exact, bundles, feds)]


# --- table1 -----------------------------------------------------------------

def cmd_table1(args) -> int:
    """Each config's exact and sampled records, as long rows or in the wide
    layout, with every cell checked: the exact value against the reference
    within `refdata.exact_tolerance`, the sampled one within 5 stderr of the
    exact one."""
    lines = ["tiling,h,k,observable,site,method,mean,stderr,shots,seed,"
             "ref_mean,ref_stderr,tolerance,status"]
    wide: dict[tuple, list[str]] = {}
    total = failures = 0
    # CONFIGS runs over TILING_QS x HK_PAIRS: a tiling's cells are one stack
    records = [pair for q in refdata.TILING_QS for pair in _records(
        args, [StarModelParams(h=float(h), k=float(k), q=q) for h, k in refdata.HK_PAIRS], (1, 2))]
    for (q, h, k), (exact, sampled) in zip(refdata.CONFIGS, records):
        reference = refdata.REFERENCE_TABLE[(q, h, k)]
        for record in _shown(args, exact, sampled):
            rows = zip(record.observables(), exact.observables())
            for (obs, site, mean), (_, _, exact_mean) in rows:
                ref_mean, ref_err = reference[obs]
                if record is exact:
                    tol = refdata.exact_tolerance(ref_err)
                    ok = abs(mean - ref_mean) <= tol
                    run, cell = ",,", f"{mean:.4f}"
                else:
                    err = record.stderr[obs]
                    tol = 5.0 * err
                    ok = abs(mean - exact_mean) <= tol
                    run, cell = f"{_fmt(err)},{args.shots},{args.seed}", f"{mean:.4f}+-{err:.4f}"
                total += 1
                failures += not ok
                lines.append(
                    f'"{{3,{q}}}",{h},{k},{obs},{site},{record.method},{_fmt(mean)},{run},'
                    f"{_fmt(ref_mean)},{_fmt(ref_err)},{_fmt(tol)},{'pass' if ok else 'fail'}"
                )
                wide.setdefault((q, obs, record.method), []).append(cell)
    if args.wide:
        pairs = ",".join(f"(h={h};k={k})" for h, k in refdata.HK_PAIRS)
        lines = [f"tiling,observable,method,{pairs}"]
        lines += [f'"{{3,{q}}}",{obs},{method},' + ",".join(cells)
                  for (q, obs, method), cells in wide.items()]
    _write_text(args.out, ["\n".join(lines) + "\n"])
    if args.check:
        print(f"check: {total - failures}/{total} cells within tolerance", file=sys.stderr)
        return 0 if failures == 0 else 1
    return 0


# --- sweep ------------------------------------------------------------------

def cmd_sweep(args) -> int:
    h_range, k_range = args.h, args.k
    points = h_range[2] * k_range[2]
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid has {points} points, more than {MAX_SWEEP_POINTS}")
    # endpoints first: np.linspace fails on a non-finite one under main's errstate
    for h, k in zip(h_range[:2], k_range[:2]):
        model._check_hk(h, k)
    h_values, k_values = (np.linspace(*r) for r in (h_range, k_range))
    # the grid's corners decide every failure before the first byte is written
    chunks = sweep_EB(h_values, k_values, args.field_term_column)

    def rows():
        yield "h,k,E_B" + (",E_B_field_term" if args.field_term_column else "") + "\n"
        # '%.12g' % x is format(x, '.12g'), the same C conversion as _fmt
        line = "%s,%s" + ",%.12g" * (1 + args.field_term_column) + "\n"
        for h, k, columns in chunks:
            # lists first: the arrays are freed before the text is formed
            columns = [c.ravel().tolist() for c in columns]
            hs, ks = ([_fmt(x) for x in axis.tolist()] for axis in (h, k))
            h_run = itertools.chain.from_iterable(itertools.repeat(x, len(ks)) for x in hs)
            # the whole chunk is one %-format: no Python code runs per row
            cells = itertools.chain.from_iterable(zip(h_run, itertools.cycle(ks), *columns))
            yield (line * len(columns[0])) % tuple(cells)

    _write_text(args.out, rows())
    return 0


# --- tiling -----------------------------------------------------------------

def cmd_tiling(args) -> int:
    kind = tiling.classify(3, args.q)
    print(f"classification: {{3,{args.q}}} is {kind}", file=sys.stderr)
    if args.q < 6:
        print(
            "warning: the energy-distribution model needs q >= 6; "
            "not generating a spherical tiling",
            file=sys.stderr,
        )
        return 0
    counts = tiling.ring_sizes(args.q, args.depth)
    lines = ["ring,count"] + [f"{d},{c}" for d, c in enumerate(counts)]
    _write_text(args.out, ["\n".join(lines) + "\n"])
    # the counts need no graph; it is built only for its edge list
    if args.edges_out:
        edges = tiling.generate(args.q, args.depth)
        _write_text(args.edges_out, tiling.export_edges(edges))
    return 0


# --- qet / qed --------------------------------------------------------------

def _emit_record(args, exact, sampled) -> int:
    records = _shown(args, exact, sampled)
    if args.format == "json":
        payload = records[0].as_dict() if len(records) == 1 else {
            "exact": records[0].as_dict(), "sampled": records[1].as_dict()
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = []
        for r in records:
            rows = _record_rows(r)
            lines.extend(rows if not lines else rows[1:])
        text = "\n".join(lines) + "\n"
    _write_text(args.out, [text])
    return 0


def cmd_qet(args) -> int:
    return _emit_record(args, *_records(args, [MinimalModelParams(h=args.h, k=args.k)], (1,))[0])


def cmd_qed(args) -> int:
    params = StarModelParams(h=args.h, k=args.k, q=args.q)
    return _emit_record(args, *_records(args, [params], args.receivers)[0])


# --- longrange --------------------------------------------------------------

def cmd_longrange(args) -> int:
    params = MinimalModelParams(h=args.h, k=args.k)
    record, transcript, residual = run_longrange_qet(
        params, args.hops, seed=args.seed if args.sample_transcript else None
    )
    payload = record.as_dict()
    payload["hops"] = args.hops
    # the residual of the relay's branch check, `teleport._branch_law`
    payload["relay_vs_local_max_delta"] = residual
    _write_text(args.out, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    _write_text(args.transcript_out, transcript.serialize())
    return 0


# --- parser -----------------------------------------------------------------

def _add_common(sp, shots=True):
    sp.add_argument("--config", help="file of key = value lines, each read as the flag "
                    "--key=value before the command line's flags")
    sp.add_argument("--out", help="output path (stdout if omitted)")
    if shots:
        sp.add_argument("--shots", type=_int_in(1, MAX_SHOTS), default=DEFAULT_SHOTS)
        sp.add_argument("--seed", type=_int_in(0), default=DEFAULT_SEED)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and returned by every later
    one: a parse keeps no state in it, so `main` can run many times in one
    process.  Every caller shares the object, so none may change it."""
    parser = argparse.ArgumentParser(
        prog="qetsim",
        description="Exact and shot-sampled energy-teleportation simulations "
        "on the minimal 2-qubit model and {3,q} star networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table1", help="all 12 star configs x 7 observables")
    _add_common(sp)
    sp.add_argument("--method", choices=("exact", "sampled", "both"), default="both")
    sp.add_argument("--check", action="store_true",
                    help="exit 1 unless every cell passes its tolerance")
    sp.add_argument("--wide", action="store_true",
                    help="reference-style wide layout instead of tidy rows")

    sp = sub.add_parser("sweep", help="minimal-model E_B over an (h,k) grid")
    _add_common(sp, shots=False)
    sp.add_argument("--h", type=_parse_range, default="0.2:3.0:50", help="value or min:max:steps")
    sp.add_argument("--k", type=_parse_range, default="0.2:3.0:50", help="value or min:max:steps")
    sp.add_argument("--field-term-column", action="store_true",
                    help="also emit the receiver field-term-only column")

    sp = sub.add_parser("tiling", help="ring sizes and edges of a {3,q} tiling")
    _add_common(sp, shots=False)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--depth", type=_int_in(0), default=4)
    sp.add_argument("--edges-out", help="also write the edge list here")

    sp = sub.add_parser("qet", help="one minimal-model run")
    _add_common(sp)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--method", choices=("exact", "sampled", "both"), default="both")
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("qed", help="one star-model multi-receiver run")
    _add_common(sp)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--receivers", type=_receivers, default="1,2", help="comma list, e.g. 1,2")
    sp.add_argument("--method", choices=("exact", "sampled", "both"), default="both")
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("longrange", help="relayed minimal-model run + transcript")
    _add_common(sp, shots=False)
    sp.add_argument("--h", type=float, required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--hops", type=int, default=1)
    sp.add_argument("--seed", type=_int_in(0), default=DEFAULT_SEED)
    sp.add_argument("--sample-transcript", action="store_true",
                    help="fill the transcript from one sampled trajectory")
    sp.add_argument("--transcript-out", help="transcript path (stdout if omitted)")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Collections during the run traverse only what it allocates: the objects
    # that existed before the call are frozen until it returns.  A host that
    # froze its own objects keeps them frozen.
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        # config flags go right after the command name, so later flags win
        argv[1:1] = _config_flags(argv)
        args = build_parser().parse_args(argv)
        # looked up by name on each call: the shared parser outlives any later
        # rebinding of a cmd_* function
        command = globals()[f"cmd_{args.command}"]
        # on floats and ints, without numpy: the tiling and every exact-only
        # minimal-model run, whose closed form raises its own FloatingPointError
        if args.command in ("longrange", "tiling") or (
                args.command in ("qet", "qed") and args.method == "exact"
                and getattr(args, "q", 2) == 2):
            return command(args)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return command(args)
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
    finally:
        if freeze:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
