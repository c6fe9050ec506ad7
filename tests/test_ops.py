"""The dense oracle's state operations (tests/oracle_utils.py) that the
protocol tests measure the package against: word application, expectations
of the package's local terms, projective measurement, conditional rotations
and the teleport oracle's gates."""

import numpy as np
import pytest

from oracle_utils import (
    HADAMARD,
    Term,
    apply_cnot,
    apply_word,
    dense_expectation,
    drop_qubits,
    ensemble_expectation,
    expectation,
    local_matrix,
    measure,
    on_site,
    op_on,
    pure_trace_distance,
    rotate,
    solve_ground,
    star_ground,
    star_terms,
    word_matrix,
)

from qetsim.model import StarModelParams, star_model

RNG = np.random.default_rng(23)


def random_state(n):
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def basis(n, label):
    amps = np.zeros(2**n, dtype=complex)
    amps[int(label, 2) if isinstance(label, str) else label] = 1.0
    return amps


def random_locals(n, n_terms=4):
    out = []
    for _ in range(n_terms):
        sites = tuple(sorted(RNG.choice(n, size=RNG.integers(1, n + 1), replace=False).tolist()))
        out.append(Term(float(RNG.normal()), str(RNG.choice(["X", "Z"])), sites,
                         float(RNG.normal())))
    return out


# --- word application (the oracle's per-site gates against np.kron) ---------------

def test_apply_x_flips_qubit0():
    assert np.allclose(apply_word(basis(2, "00"), "XI"), basis(2, "10"))


def test_apply_z_on_plus_gives_minus():
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert np.allclose(apply_word(plus, "Z"), minus)


def test_apply_y_on_zero():
    assert np.allclose(apply_word(basis(1, 0), "Y"), [0, 1j])


def test_apply_twice_is_identity():
    for n in (1, 2, 4):
        state = random_state(n)
        for _ in range(5):
            word = "".join(RNG.choice(list("IXYZ"), size=n))
            once = apply_word(state, word)
            assert np.max(np.abs(once - word_matrix(word) @ state)) < 1e-14
            assert np.max(np.abs(apply_word(once, word) - state)) < 1e-14


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        apply_word(random_state(2), "XII")


# --- expectation -------------------------------------------------------------

def test_basis_eigenstate_expectation():
    local = Term(9.0, "Z", (0,), 0.0)
    assert expectation(basis(2, "00"), local) == pytest.approx(9.0, abs=1e-12)
    assert expectation(basis(2, "10"), local, local) == pytest.approx(-18.0, abs=1e-12)


def test_expectation_matches_dense_quadratic_form():
    for n in (2, 3):
        for _ in range(10):
            state = random_state(n)
            locals_ = random_locals(n)
            want = dense_expectation(state, local_matrix(n, *locals_)).real
            assert expectation(state, *locals_) == pytest.approx(want, abs=1e-10)


def test_symmetric_mixture_expectation():
    branches = [(0.5, basis(1, 0), +1), (0.5, basis(1, 1), -1)]
    assert ensemble_expectation(branches, Term(1.0, "Z", (0,), 0.0)) == pytest.approx(
        0.0, abs=1e-14
    )


# --- projective measurement ----------------------------------------------------

def test_measure_eigenstate_single_branch():
    plus = np.kron([1, 1] / np.sqrt(2), [1, 0])
    branches = measure(plus, "XI")
    assert len(branches) == 1
    p, _, mu = branches[0]
    assert mu == +1
    assert p == pytest.approx(1.0, abs=1e-12)


def test_measure_ground_state_half_half():
    # amplitudes of the (h=k) minimal-model ground state on |00>, |11>
    a = np.sqrt((1 - 1 / np.sqrt(2)) / 2)
    b = -np.sqrt((1 + 1 / np.sqrt(2)) / 2)
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = a
    amps[0b11] = b
    probs = sorted(p for p, _, _ in measure(amps, "XI"))
    assert probs == pytest.approx([0.5, 0.5], abs=1e-12)


def test_branch_probabilities_sum_to_one():
    for _ in range(10):
        branches = measure(random_state(3), "XZY")
        assert sum(p for p, _, _ in branches) == pytest.approx(1.0, abs=1e-12)


def test_commuting_observable_preserved_by_measurement():
    for _ in range(5):
        state = random_state(3)
        locals_ = (Term(1.3, "Z", (1,), 0.2), Term(0.7, "X", (0, 1), 0.0))
        M, S = local_matrix(3, *locals_), word_matrix("XII")
        assert np.allclose(M @ S, S @ M)
        branches = measure(state, "XII")
        assert ensemble_expectation(branches, *locals_) == pytest.approx(
            expectation(state, *locals_), abs=1e-10
        )


# --- conditional rotation ----------------------------------------------------

def test_rotation_theta_zero_is_identity():
    state = random_state(2)
    assert np.allclose(rotate(state, "IY", 0.0, +1), state)


def test_rotation_half_pi_is_pauli_up_to_phase():
    out = rotate(basis(2, "00"), "IY", np.pi / 2, +1)
    assert np.allclose(out, -1j * apply_word(basis(2, "00"), "IY"))


def test_rotation_composes_and_preserves_norm():
    state = random_state(2)
    for _ in range(5):
        t1, t2 = RNG.uniform(-2, 2, size=2)
        mu = int(RNG.choice([-1, 1]))
        once = rotate(rotate(state, "YI", t1, mu), "YI", t2, mu)
        combined = rotate(state, "YI", t1 + t2, mu)
        assert np.max(np.abs(once - combined)) < 1e-12
        assert np.linalg.norm(once) == pytest.approx(1.0, abs=1e-12)


def test_rotation_bad_mu_rejected():
    with pytest.raises(ValueError):
        rotate(random_state(1), "X", 0.3, 2)


# --- the oracle's Hamiltonian: the sum of the star's terms --------------------

def test_sum_of_locals_equals_total():
    # the star's np.kron Hamiltonian plus the terms' summed offsets, whose
    # dense ground level is 0
    for q, h, k in ((2, 1.0, 1.0), (4, 9.0, 2.0), (5, 3.0, 0.7)):
        bundle = star_model(StarModelParams(h, k, q))
        terms = star_terms(bundle)
        x0 = op_on("X", 0, q)
        H = sum(h * op_on("Z", i, q) for i in range(q))
        H = H + sum(2 * k * x0 @ op_on("X", j, q) for j in range(1, q))
        offset = sum(local.offset for local in terms.values())
        total = local_matrix(q, *terms.values())
        assert np.abs(total - H - offset * np.eye(2**q)).max() < 1e-12
        assert solve_ground(total).energy == pytest.approx(0.0, abs=1e-10)
        assert expectation(star_ground(bundle), *terms.values()) == pytest.approx(
            0.0, abs=1e-10
        )


# --- the teleport oracle's gates -------------------------------------------------

def test_tensor_and_gate_and_cnot_roundtrip():
    # H on qubit 0 then CNOT(0 -> 1) builds a Bell state from |00>
    state = apply_cnot(on_site(basis(2, "00"), 0, HADAMARD), 0, 1)
    assert np.allclose(state, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_drop_qubits_checks_support():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    padded = np.kron(bell, basis(1, 0))
    out = drop_qubits(padded, {2: 0})
    assert np.allclose(out, bell)
    with pytest.raises(ValueError):
        drop_qubits(padded, {2: 1})
    with pytest.raises(ValueError):
        drop_qubits(padded, {0: 0})


def test_pure_trace_distance_resolves_tiny_differences():
    state = random_state(2)
    assert pure_trace_distance(state, state) < 1e-15
    bumped = state * np.exp(1j * 0.3)
    # global phase is not a physical difference but the overlap handles it
    assert pure_trace_distance(state, bumped) < 1e-12
