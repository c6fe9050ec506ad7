import importlib
import os
import subprocess
import sys

import qetsim
from qetsim import LoccTranscript, MinimalModelParams, _kernels, run_longrange_qet


def test_benchmark_entry_points_exist():
    # perfbench/invoke.py reads these on every invocation, and its traced
    # runs look the layer modules up in sys.modules by name; losing one
    # fails every benchmark run
    import qetsim.cli

    assert qetsim.backend_name() == "numpy"
    assert qetsim._kernels is _kernels
    assert isinstance(qetsim.__version__, str) and qetsim.__version__
    # perfbench calls build_parser() once before it times main
    parser = qetsim.cli.build_parser()
    for argv in (["table1"], ["sweep"], ["tiling", "--q", "7"], ["qet", "--h", "1", "--k", "1"],
                 ["qed", "--h", "1", "--k", "1", "--q", "6"], ["longrange", "--h", "1", "--k", "1"]):
        assert parser.parse_args(argv).func is getattr(qetsim.cli, f"cmd_{argv[0]}")
    # perfbench wraps LoccTranscript.serialize from the class body and
    # counts the transcript's bits from run_longrange_qet's second value
    assert "serialize" in vars(LoccTranscript)
    # perfbench times output by wrapping these by name; every command's
    # output goes through _write_text
    assert callable(qetsim.cli._write_text) and callable(qetsim.cli._emit_record)
    assert run_longrange_qet(MinimalModelParams(1, 1), 3)[1].bit_count() == 7
    # in a fresh interpreter, `import qetsim` alone loads both modules
    src = os.path.dirname(os.path.dirname(qetsim.__file__))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, qetsim; "
         "print(all(m in sys.modules for m in ('qetsim.ops', 'qetsim._kernels')))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert loaded.stdout.strip() == "True"


def test_hypothesis_can_report_a_falsifying_example():
    # a failing property prints its example through this module; under the
    # suite's warnings-as-errors filters its import must not raise, or the
    # run ends in an INTERNALERROR instead of the example
    importlib.import_module("hypothesis.extra._patching")
