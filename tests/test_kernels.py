import numpy as np

import qetsim
from qetsim import _kernels


def test_pauli_eigs_parity():
    idx = np.arange(2**10, dtype=np.int64)
    for mask in (0b1, 0b1010, 0b1111111111, 0):
        want = np.array([(-1) ** bin(i & mask).count("1") for i in idx], dtype=float)
        assert np.array_equal(_kernels.pauli_eigs(idx, mask), want)


def test_pauli_eigs_parity_above_16_bits():
    # a bit fold of 8/4/2/1 shifts loses every bit above the 16th
    idx = np.array([0, 1 << 20, (1 << 20) | 1, (1 << 20) | (1 << 3), (1 << 21) - 1], dtype=np.int64)
    for mask in (1 << 20, (1 << 20) | 1, (1 << 21) - 1):
        want = np.array([(-1) ** bin(int(i) & mask).count("1") for i in idx], dtype=float)
        assert np.array_equal(_kernels.pauli_eigs(idx, mask), want)


def test_benchmark_entry_points_exist():
    # perfbench/invoke.py reads these on every invocation; losing one fails
    # every benchmark run
    import qetsim.cli

    assert qetsim.backend_name() == "numpy"
    assert qetsim._kernels is _kernels
    assert isinstance(qetsim.__version__, str) and qetsim.__version__
    parser, commands = qetsim.cli.build_parser()
    assert set(commands) == {"table1", "sweep", "tiling", "qet", "qed", "longrange"}
    assert parser.parse_args(["qet", "--h", "1", "--k", "1"]).func is qetsim.cli.cmd_qet
