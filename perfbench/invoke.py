"""One benchmark invocation of the qetsim CLI, in a fresh process.

    python3 invoke.py OUT_DIR INVOCATION_ID TRACE [CLI ARG ...]

Imports qetsim and builds its parser (the set-up a CLI user pays on every
run), then times `qetsim.cli.main(CLI ARGS)`, with a fixed reference loop
timed right before and right after it.  With TRACE=1 every layer's public
functions are wrapped first and the spans are written to OUT_DIR.
Without CLI arguments it stops after set-up (a warm-up).  Timings,
peak RSS and provenance go to OUT_DIR/result.json.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


REFERENCE_ITERATIONS = 6000


def reference_s() -> float:
    """Time of a fixed loop that calls no qetsim code: Python arithmetic and
    4x4 numpy products and eigensolves, the kind of work the CLI does per
    call.  Timed next to the CLI call on the same core, it tells how fast
    the core ran at that moment."""
    import numpy

    matrix = numpy.arange(16.0).reshape(4, 4) / 16.0
    matrix = matrix + matrix.T + numpy.eye(4)
    t0 = time.perf_counter()
    total = 0.0
    for i in range(REFERENCE_ITERATIONS * 100):
        total += i * 0.5
    for _ in range(REFERENCE_ITERATIONS):
        numpy.linalg.eigh(matrix @ matrix)
    return time.perf_counter() - t0


def provenance() -> dict:
    import numpy
    import scipy

    import qetsim
    from qetsim import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qetsim": qetsim.__version__,
        "qetsim_path": str(Path(qetsim.__file__).parent),
        "backend": qetsim.backend_name(),
        "numba": "importable" if getattr(_kernels, "HAS_NUMBA", False)
        else "not importable: the numba path is not measured",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def main() -> int:
    out_dir, invocation, trace = Path(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[4:]

    import qetsim.cli

    qetsim.cli.build_parser()
    result = {"ready": time.monotonic()}
    if cli_args:
        tracer = None
        if trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        reference_before = reference_s()
        t0 = time.perf_counter()
        try:
            rc = qetsim.cli.main(cli_args)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        result["wall_s"] = time.perf_counter() - t0
        result["reference_s"] = (reference_before + reference_s()) / 2
        result["rc"] = rc
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.save(out_dir, invocation)
    result["provenance"] = provenance()
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
