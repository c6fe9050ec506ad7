import importlib
import os
import subprocess
import sys

import qetsim
from qetsim import _kernels


def test_benchmark_entry_points_exist():
    # perfbench/invoke.py reads these on every invocation, and its traced
    # runs look the layer modules up in sys.modules by name; losing one
    # fails every benchmark run
    import qetsim.cli

    assert qetsim.backend_name() == "numpy"
    assert qetsim._kernels is _kernels
    assert isinstance(qetsim.__version__, str) and qetsim.__version__
    parser, commands = qetsim.cli.build_parser()
    assert set(commands) == {"table1", "sweep", "tiling", "qet", "qed", "longrange"}
    assert parser.parse_args(["qet", "--h", "1", "--k", "1"]).func is qetsim.cli.cmd_qet
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
