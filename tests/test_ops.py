import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import dense_expectation, dense_observable, word_matrix

from qetsim.ops import (
    Branch,
    Ensemble,
    ObservableSum,
    PauliString,
    StateVector,
    apply_cnot,
    apply_gate_1q,
    apply_pauli,
    conditional_rotation,
    drop_qubits,
    expectation,
    HADAMARD,
    projective_measure,
    pure_trace_distance,
    single_term,
    tensor,
    to_dense,
    x_on,
    y_on,
    z_on,
)

RNG = np.random.default_rng(23)


def random_state(n):
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_observable(n, n_terms=4):
    terms = []
    for _ in range(n_terms):
        letters = "".join(RNG.choice(list("IXYZ"), size=n))
        terms.append((float(RNG.normal()), PauliString(n, letters)))
    return ObservableSum(n, tuple(terms), offset=float(RNG.normal()))


# --- PauliString -------------------------------------------------------------

def test_letters_length_enforced():
    with pytest.raises(ValueError):
        PauliString(3, "XY")
    with pytest.raises(ValueError):
        PauliString(2, "XQ")


# --- apply_pauli -------------------------------------------------------------

def test_apply_x_flips_qubit0():
    out = apply_pauli(StateVector.basis(2, "00"), x_on(2, 0))
    assert np.allclose(out.amplitudes, StateVector.basis(2, "10").amplitudes)


def test_apply_z_on_plus_gives_minus():
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    minus = StateVector(1, np.array([1, -1]) / np.sqrt(2))
    out = apply_pauli(plus, z_on(1, 0))
    assert np.allclose(out.amplitudes, minus.amplitudes)


def test_apply_y_on_zero():
    out = apply_pauli(StateVector.basis(1, 0), y_on(1, 0))
    assert np.allclose(out.amplitudes, [0, 1j])


def test_apply_twice_is_identity():
    for n in (1, 2, 4):
        state = random_state(n)
        for _ in range(5):
            word = PauliString(n, "".join(RNG.choice(list("IXYZ"), size=n)))
            back = apply_pauli(apply_pauli(state, word), word)
            assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-14


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        apply_pauli(random_state(2), x_on(3, 0))


# --- expectation -------------------------------------------------------------

def test_basis_eigenstate_expectation():
    obs = single_term(9.0, z_on(2, 0))
    assert expectation(StateVector.basis(2, "00"), obs) == pytest.approx(9.0, abs=1e-12)


def test_expectation_matches_dense_quadratic_form():
    for n in (2, 3):
        for _ in range(10):
            state = random_state(n)
            obs = random_observable(n)
            want = dense_expectation(state.amplitudes, dense_observable(obs)).real
            assert expectation(state, obs) == pytest.approx(want, abs=1e-10)


def test_symmetric_mixture_expectation():
    ens = Ensemble(
        (
            Branch(0.5, StateVector.basis(1, 0), +1),
            Branch(0.5, StateVector.basis(1, 1), -1),
        )
    )
    assert expectation(ens, single_term(1.0, z_on(1, 0))) == pytest.approx(0.0, abs=1e-14)


# --- projective_measure ------------------------------------------------------

def test_measure_eigenstate_single_branch():
    plus = StateVector(2, np.kron([1, 1] / np.sqrt(2), [1, 0]))
    ens = projective_measure(plus, x_on(2, 0))
    assert len(ens.branches) == 1
    assert ens.branches[0].label == +1
    assert ens.branches[0].probability == pytest.approx(1.0, abs=1e-12)


def test_measure_ground_state_half_half():
    # amplitudes of the (h=k) minimal-model ground state on |00>, |11>
    a = np.sqrt((1 - 1 / np.sqrt(2)) / 2)
    b = -np.sqrt((1 + 1 / np.sqrt(2)) / 2)
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = a
    amps[0b11] = b
    ens = projective_measure(StateVector(2, amps), x_on(2, 0))
    probs = sorted(br.probability for br in ens.branches)
    assert probs == pytest.approx([0.5, 0.5], abs=1e-12)


def test_branch_probabilities_sum_to_one():
    for _ in range(10):
        state = random_state(3)
        ens = projective_measure(state, PauliString(3, "XZY"))
        assert sum(b.probability for b in ens.branches) == pytest.approx(1.0, abs=1e-12)


def test_commuting_observable_preserved_by_measurement():
    for _ in range(5):
        state = random_state(3)
        sigma = x_on(3, 0)
        obs = ObservableSum(
            3, ((1.3, z_on(3, 1)), (0.7, PauliString(3, "XXI"))), offset=0.2
        )
        for _, word in obs.terms:
            assert word.commutes_with(sigma)
        ens = projective_measure(state, sigma)
        assert expectation(ens, obs) == pytest.approx(expectation(state, obs), abs=1e-10)


# --- conditional_rotation ----------------------------------------------------

def test_rotation_theta_zero_is_identity():
    state = random_state(2)
    out = conditional_rotation(state, y_on(2, 1), 0.0, +1)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_rotation_half_pi_is_pauli_up_to_phase():
    out = conditional_rotation(StateVector.basis(2, "00"), y_on(2, 1), np.pi / 2, +1)
    want = -1j * apply_pauli(StateVector.basis(2, "00"), y_on(2, 1)).amplitudes
    assert np.allclose(out.amplitudes, want)


def test_rotation_composes_and_preserves_norm():
    state = random_state(2)
    sigma = y_on(2, 0)
    for _ in range(5):
        t1, t2 = RNG.uniform(-2, 2, size=2)
        mu = int(RNG.choice([-1, 1]))
        once = conditional_rotation(conditional_rotation(state, sigma, t1, mu), sigma, t2, mu)
        combined = conditional_rotation(state, sigma, t1 + t2, mu)
        assert np.max(np.abs(once.amplitudes - combined.amplitudes)) < 1e-12
        assert np.linalg.norm(once.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_rotation_bad_mu_rejected():
    with pytest.raises(ValueError):
        conditional_rotation(random_state(1), x_on(1, 0), 0.3, 2)


# --- to_dense ----------------------------------------------------------------

def test_to_dense_diag_examples():
    assert np.allclose(to_dense(single_term(1.0, z_on(1, 0))), np.diag([1, -1]))
    assert np.allclose(
        to_dense(single_term(2.0, z_on(1, 0), offset=0.5)), np.diag([2.5, -1.5])
    )


def test_to_dense_matches_kron_oracle():
    for _ in range(5):
        obs = random_observable(3)
        assert np.allclose(to_dense(obs), dense_observable(obs), atol=1e-12)


def test_to_dense_guard():
    with pytest.raises(ValueError):
        to_dense(ObservableSum(15))


# --- canonicalization --------------------------------------------------------

def test_duplicate_words_merge_and_tiny_terms_drop():
    w = PauliString(2, "XZ")
    obs = ObservableSum(2, ((1.0, w), (2.0, w), (1e-20, PauliString(2, "YY"))), 0.1)
    assert obs.terms == ((3.0, w),)
    assert obs.offset == pytest.approx(0.1)


def test_identity_word_folds_into_offset():
    obs = ObservableSum(2, ((2.5, PauliString.identity(2)),), offset=0.5)
    assert obs.terms == ()
    assert obs.offset == pytest.approx(3.0)


def test_sum_of_locals_equals_total():
    a = single_term(1.0, z_on(2, 0), offset=0.25)
    b = single_term(2.0, z_on(2, 1), offset=0.75)
    total = a + b
    assert total.isclose(ObservableSum(2, a.terms + b.terms, 1.0))


# --- Pauli algebra properties --------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def letters(n):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n)


# dyadic values, so that merging sums exactly in any order
dyadic = st.integers(-12, 12).map(lambda c: c / 4)


@st.composite
def term_lists(draw):
    n = draw(st.integers(1, 4))
    terms = draw(st.lists(st.tuples(dyadic.filter(bool), letters(n)), max_size=8))
    return n, [(c, PauliString(n, w)) for c, w in terms]


@PROPERTY
@given(term_lists(), dyadic, st.data())
def test_canonical_sum_ignores_order_merges_and_folds(n_terms, offset, data):
    n, terms = n_terms
    obs = ObservableSum(n, tuple(terms), offset)
    shuffled = ObservableSum(n, tuple(data.draw(st.permutations(terms))), offset)
    assert [(c, w.letters) for c, w in shuffled.terms] == [(c, w.letters) for c, w in obs.terms]
    assert shuffled.offset == obs.offset
    # one term per distinct non-identity word, carrying the summed coefficient
    want: dict[str, float] = {}
    for c, w in terms:
        if not w.is_identity:
            want[w.letters] = want.get(w.letters, 0.0) + c
    assert {w.letters: c for c, w in obs.terms} == {k: c for k, c in want.items() if c}
    identity_sum = sum(c for c, w in terms if w.is_identity)
    assert obs.offset == offset + identity_sum
    dense = offset * np.eye(2**n, dtype=complex)
    for c, w in terms:
        dense += c * word_matrix(w.letters)
    assert np.allclose(dense_observable(obs), dense, atol=1e-12)


# --- statevector utilities ---------------------------------------------------

def test_tensor_and_gate_and_cnot_roundtrip():
    # H on qubit 0 then CNOT(0 -> 1) builds a Bell state from |00>
    state = StateVector.basis(2, "00")
    state = apply_gate_1q(state, 0, HADAMARD)
    state = apply_cnot(state, 0, 1)
    assert np.allclose(state.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_drop_qubits_checks_support():
    bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
    padded = tensor(bell, StateVector.basis(1, 0))
    out = drop_qubits(padded, {2: 0})
    assert np.allclose(out.amplitudes, bell.amplitudes)
    with pytest.raises(ValueError):
        drop_qubits(padded, {2: 1})
    with pytest.raises(ValueError):
        drop_qubits(padded, {0: 0})


def test_pure_trace_distance_resolves_tiny_differences():
    state = random_state(2)
    assert pure_trace_distance(state, state) < 1e-15
    bumped = StateVector(2, state.amplitudes * np.exp(1j * 0.3))
    # global phase is not a physical difference but the overlap handles it
    assert pure_trace_distance(state, bumped) < 1e-12
