import numpy as np

from qetsim import _kernels

RNG = np.random.default_rng(11)


def _random_state(n):
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def test_apply_word_against_dense():
    from oracle_utils import word_matrix

    n = 3
    amps = _random_state(n)
    for letters in ("XIZ", "YYI", "ZXY", "IIY", "XXX"):
        x = z = 0
        for site, letter in enumerate(letters):
            pos = n - 1 - site
            if letter in "XY":
                x |= 1 << pos
            if letter in "ZY":
                z |= 1 << pos
        phase = 1j ** letters.count("Y")
        expected = word_matrix(letters) @ amps
        assert np.allclose(_kernels.apply_word(amps, x, z, phase), expected, atol=1e-13)


def test_expect_word_matches_apply():
    n = 6
    amps = _random_state(n)
    for _ in range(10):
        x = int(RNG.integers(0, 2**n))
        z = int(RNG.integers(0, 2**n))
        phase = 1j ** (bin(x & z).count("1") % 4)
        want = np.vdot(amps, _kernels.apply_word(amps, x, z, phase))
        assert abs(_kernels.expect_word(amps, x, z, phase) - want) < 1e-12


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
