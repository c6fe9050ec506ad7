"""Layer tracing for the benchmark: an in-memory span recorder that wraps
the public functions of each qetsim module, and the analysis that turns the
recorded spans into per-layer metrics.

The layers are the package modules.  Modules bind each other's functions
with ``from .x import y``, so a wrapper is rebound at every import site,
not only in the defining module.  A span is (id, parent id, name, start,
end); the spans of one invocation are kept in memory and written, under
the invocation's id, to one file when it ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYER_MODULES = {
    "cli": "qetsim.cli",
    "model": "qetsim.model",
    "protocol": "qetsim.protocol",
    "sampler": "qetsim.sampler",
    "teleport": "qetsim.teleport",
    "ops": "qetsim.ops",
    "kernels": "qetsim._kernels",
}
LAYERS = tuple(LAYER_MODULES)
ROOT = "cli.main"

# Functions that render or write output.  Private helpers and one method are
# wrapped too, so that serialization time is measured.
SERIALIZERS = (
    "cli._write_text",
    "cli._emit_record",
    "cli._wide_table",
    "sampler.cells_to_csv",
    "teleport.LoccTranscript.serialize",
)

SPANS_FILE = "spans.json"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans and counters for one invocation."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.hook_errors: list[str] = []
        self.passes: list[tuple[object, set]] = []
        # id(ensemble) -> (pass index, ensemble); holding the ensemble keeps
        # its id from being reused by a later object
        self._pass_of: dict[int, tuple[int, object]] = {}
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        before, after = HOOKS.get(name, (None, None))
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            if before is not None:
                tracer._hook(before, args, kwargs, None)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name_id, t0, t1))
            if after is not None:
                tracer._hook(after, args, kwargs, result)
            return result

        return traced

    def _hook(self, hook, args, kwargs, result) -> None:
        # A hook that no longer fits a changed signature must not break the
        # program under test; the failure is reported with the metrics.
        try:
            hook(self, args, kwargs, result)
        except Exception as exc:  # noqa: BLE001 - boundary around the program
            self.hook_errors.append(f"{hook.__name__}: {exc!r}")

    def save(self, out_dir: Path, invocation: str) -> None:
        """Write spans, names and counters to one JSON file in `out_dir`."""
        distinct = {(key, frozenset(sites)) for key, sites in self.passes}
        counters = dict(self.counters)
        counters["protocol.passes"] = len(self.passes)
        counters["protocol.distinct_passes"] = len(distinct)
        payload = {
            "invocation": invocation,
            "names": self.names,
            "spans": self.spans,
            "counters": counters,
            "hook_errors": sorted(set(self.hook_errors)),
        }
        (out_dir / SPANS_FILE).write_text(json.dumps(payload, separators=(",", ":")))


# --- counters recorded at layer boundaries ----------------------------------

def _dense_bytes(tr, args, kwargs, result):
    n = _arg(args, kwargs, 0, "obs").n_qubits
    tr.counters["model.dense_bytes"] += 16 * 4**n


def _shots(tr, args, kwargs, result):
    tr.counters["sampler.shots"] += _arg(args, kwargs, 3, "plan").shots
    tr.counters["sampler.outcomes"] += 2 ** _arg(args, kwargs, 0, "bundle").n_qubits


def _kernel_bytes(tr, args, kwargs, result):
    tr.counters["kernels.bytes"] += 16 * len(args[0])


def _measure_pass(tr, args, kwargs, result):
    params = _arg(args, kwargs, 0, "bundle").params
    ensemble = result[0]
    tr._pass_of[id(ensemble)] = (len(tr.passes), ensemble)
    tr.passes.append(((type(params).__name__, params), set()))


def _feedback_pass(tr, args, kwargs, result):
    entry = tr._pass_of.get(id(_arg(args, kwargs, 0, "ensemble")))
    if entry is not None:
        tr.passes[entry[0]][1].add(_arg(args, kwargs, 1, "receiver_site"))
        tr._pass_of[id(result)] = (entry[0], result)


def _transcript_bits(tr, args, kwargs, result):
    tr.counters["teleport.transcript_bits"] += result[1].bit_count()


HOOKS = {
    "model.solve_ground": (_dense_bytes, None),
    "sampler.sample_protocol": (_shots, None),
    "kernels.apply_word": (_kernel_bytes, None),
    "kernels.expect_word": (_kernel_bytes, None),
    "kernels.pauli_eigs": (_kernel_bytes, None),
    "protocol.alice_measure": (None, _measure_pass),
    "protocol.apply_feedback": (None, _feedback_pass),
    "teleport.run_longrange_qet": (None, _transcript_bits),
}


def install(tracer: Tracer) -> None:
    """Wrap every public function of each layer (plus SERIALIZERS) and rebind
    the wrappers wherever a qetsim module holds the original object."""
    wrapped: dict[int, tuple[object, object]] = {}
    for layer, modname in LAYER_MODULES.items():
        module = sys.modules[modname]
        # shortest name first, so an alias such as apply_word_numpy is
        # recorded under its dispatch name apply_word
        for attr, obj in sorted(vars(module).items(), key=lambda kv: len(kv[0])):
            name = f"{layer}.{attr}"
            if attr.startswith("_") and name not in SERIALIZERS:
                continue
            if isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != modname or id(obj) in wrapped:
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj))
    for name in SERIALIZERS:
        layer, *path = name.split(".")
        if len(path) == 2:
            cls = getattr(sys.modules[LAYER_MODULES[layer]], path[0])
            setattr(cls, path[1], tracer.wrap(name, vars(cls)[path[1]]))
    for modname, module in list(sys.modules.items()):
        if modname != "qetsim" and not modname.startswith("qetsim."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


# --- analysis -----------------------------------------------------------------

def analyse(path: Path) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced invocation from its spans file, and
    the counter hooks that failed."""
    import numpy as np

    doc = json.loads(path.read_text())
    names = doc["names"]
    counters = doc["counters"]
    spans = np.array(doc["spans"], dtype=np.float64).reshape(-1, 5)
    sid = spans[:, 0].astype(np.int64)
    parent = spans[:, 1].astype(np.int64)
    name_id = spans[:, 2].astype(np.int64)
    dur = spans[:, 4] - spans[:, 3]

    row_of = np.full(int(sid.max(initial=0)) + 1, -1, dtype=np.int64)
    row_of[sid] = np.arange(len(sid))
    has_parent = parent > 0
    parent_row = np.where(has_parent, row_of[parent], -1)
    child_time = np.bincount(parent_row[has_parent], weights=dur[has_parent],
                             minlength=len(sid))
    self_time = dur - child_time

    span_layer = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=np.int64)
    layer_self = np.bincount(span_layer[name_id], weights=self_time, minlength=len(LAYERS))
    calls = np.bincount(name_id, minlength=len(names))
    total = np.bincount(name_id, weights=dur, minlength=len(names))

    def calls_of(name):
        return int(calls[names.index(name)]) if name in names else 0

    def seconds_of(name):
        return float(total[names.index(name)]) if name in names else 0.0

    is_serializer = np.array([n in SERIALIZERS for n in names], dtype=bool)
    outer = is_serializer[name_id] & ~(
        has_parent & is_serializer[name_id[np.maximum(parent_row, 0)]]
    )
    wall = seconds_of(ROOT)
    passes = counters.get("protocol.passes", 0)
    sample_s = seconds_of("sampler.sample_protocol")
    shots = counters.get("sampler.shots", 0)

    metrics = {
        "sampler.sample_protocol.s": sample_s,
        "sampler.shots": shots,
        "sampler.shots_per_s": shots / sample_s if sample_s > 0 else 0.0,
        "sampler.outcomes": counters.get("sampler.outcomes", 0),
        "sampler.estimate.s": seconds_of("sampler.estimate"),
        "model.solve_ground.s": seconds_of("model.solve_ground"),
        "model.solve_ground.calls": calls_of("model.solve_ground"),
        "model.dense_bytes": counters.get("model.dense_bytes", 0),
        "model.feedback_angle.s": seconds_of("model.feedback_angle"),
        "model.feedback_angle.calls": calls_of("model.feedback_angle"),
        "protocol.alice_measure.calls": calls_of("protocol.alice_measure"),
        "protocol.apply_feedback.calls": calls_of("protocol.apply_feedback"),
        # no pass at all wastes nothing, hence 1
        "protocol.useful_pass_ratio": (
            counters.get("protocol.distinct_passes", 0) / passes if passes else 1.0
        ),
        "ops.expectation.calls": calls_of("ops.expectation"),
        "kernels.calls": int(sum(calls[i] for i, n in enumerate(names)
                                 if n.startswith("kernels."))),
        "kernels.bytes": counters.get("kernels.bytes", 0),
        "teleport.relay_hop.calls": calls_of("teleport.relay_hop"),
        "teleport.relay_hop.s": seconds_of("teleport.relay_hop"),
        "teleport.transcript_bits": counters.get("teleport.transcript_bits", 0),
        "cli.serialize.s": float(dur[outer].sum()),
        "trace.spans": len(sid),
        "trace.wall_s": wall,
    }
    for i, layer in enumerate(LAYERS):
        metrics[f"{layer}.self_s"] = float(layer_self[i])
        metrics[f"{layer}.share"] = float(layer_self[i]) / wall if wall > 0 else 0.0
    return metrics, doc["hook_errors"]
