import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import dense_observable, ensemble_density, star_reduced_values

from qetsim.model import (
    FeedbackAngle,
    MinimalModelParams,
    StarModelParams,
    feedback_angle,
    star_model,
)
from qetsim.ops import expectation, fidelity, single_term, z_on
from qetsim.protocol import (
    alice_measure,
    apply_feedback,
    receiver_energy,
    run_minimal_qet,
    run_protocol,
    run_qed,
    sweep_EB,
)
from qetsim.sampler import ShotPlan, sample_protocol


def closed_form_eb(h, k):
    # minimal-model extracted energy at the optimal angle:
    # (sqrt(xi^2 + eta^2) - xi)/2 with xi = 2(h^2+2k^2)/r, eta = 2hk/r
    r = np.hypot(h, k)
    xi = 2 * (h * h + 2 * k * k) / r
    eta = 2 * h * k / r
    return (np.hypot(xi, eta) - xi) / 2


# --- alice_measure -----------------------------------------------------------

def test_e0_minimal_formula():
    for h, k in ((1.0, 1.0), (9.0, 2.0), (3.0, 5.0)):
        bundle, ground = star_model(MinimalModelParams(h, k))
        ensemble, e0 = alice_measure(bundle, ground)
        assert e0 == pytest.approx(h * h / np.hypot(h, k), abs=1e-10)
        assert sum(b.probability for b in ensemble.branches) == pytest.approx(1.0, abs=1e-12)


def test_e0_star_reference_band():
    bundle, ground = star_model(StarModelParams(9.0, 2.0, 6))
    _, e0 = alice_measure(bundle, ground)
    assert e0 == pytest.approx(7.8897, abs=0.036)


def test_e0_identity_across_observables():
    # post-measurement, the total and the sender field term agree, and both
    # equal -h <g|Z0|g>; receiver feedback does not move them
    bundle, ground = star_model(StarModelParams(7.0, 2.0, 6))
    ensemble, e0 = alice_measure(bundle, ground)
    h = bundle.params.h
    minus_h_z0 = -h * expectation(ground.state, single_term(1.0, z_on(bundle.n_qubits, 0)))
    assert e0 == pytest.approx(minus_h_z0, abs=1e-10)
    assert expectation(ensemble, bundle.total) == pytest.approx(e0, abs=1e-10)
    assert expectation(ensemble, bundle.locals["Z0"]) == pytest.approx(e0, abs=1e-10)
    # feedback extracts the receiver energy from the total but cannot move
    # the sender term (the rotation commutes with it)
    fed = apply_feedback(ensemble, 1, feedback_angle(bundle, 1))
    e_1 = receiver_energy(fed, bundle, 1).e_j
    assert expectation(fed, bundle.total) == pytest.approx(e0 + e_1, abs=1e-10)
    assert expectation(fed, bundle.locals["Z0"]) == pytest.approx(e0, abs=1e-10)


# --- apply_feedback ----------------------------------------------------------

def test_zero_angle_feedback_is_identity():
    bundle, ground = star_model(MinimalModelParams(1.0, 1.0))
    ensemble, _ = alice_measure(bundle, ground)
    fed = apply_feedback(ensemble, 1, FeedbackAngle(theta=0.0, xi=1.0, eta=0.0))
    for before, after in zip(ensemble.branches, fed.branches):
        assert fidelity(before.state, after.state) == pytest.approx(1.0, abs=1e-12)
    assert receiver_energy(fed, bundle, 1).e_j == pytest.approx(0.0, abs=1e-10)


def test_feedback_order_commutes_branchwise():
    bundle, ground = star_model(StarModelParams(6.0, 2.0, 6))
    ensemble, _ = alice_measure(bundle, ground)
    a1 = feedback_angle(bundle, 1)
    a2 = feedback_angle(bundle, 2)
    order12 = apply_feedback(apply_feedback(ensemble, 1, a1), 2, a2)
    order21 = apply_feedback(apply_feedback(ensemble, 2, a2), 1, a1)
    for b12, b21 in zip(order12.branches, order21.branches):
        assert np.max(np.abs(b12.state.amplitudes - b21.state.amplitudes)) < 1e-12


def test_unlabeled_branch_rejected():
    bundle, ground = star_model(MinimalModelParams(1.0, 1.0))
    ensemble, _ = alice_measure(bundle, ground)
    bad = type(ensemble)(
        tuple(
            type(b)(b.probability, b.state, "no-mu") for b in ensemble.branches
        )
    )
    with pytest.raises(ValueError):
        apply_feedback(bad, 1, FeedbackAngle(0.1, 1.0, 0.0))


# --- receiver energies and records --------------------------------------------

def test_minimal_record_extracts_positive_energy():
    record = run_minimal_qet(MinimalModelParams(1.0, 1.0))
    r = record.receivers[1]
    assert r.e_b > 0
    assert r.e_b == pytest.approx(closed_form_eb(1.0, 1.0), abs=1e-10)
    assert r.e_b == pytest.approx(0.11474763394014709, abs=1e-10)
    assert r.e_j == pytest.approx(r.hx + r.hz, abs=1e-12)
    assert r.e_b == -r.e_j


def test_minimal_decoupled_limit_no_energy():
    record = run_minimal_qet(MinimalModelParams(1.0, 1e-6))
    assert abs(record.receivers[1].e_b) < 1e-11


def test_bookkeeping_closure_every_stage():
    bundle, ground = star_model(StarModelParams(8.0, 2.0, 6))
    stage_states = []
    ensemble, e0 = alice_measure(bundle, ground)
    stage_states.append(ensemble)
    fed = apply_feedback(ensemble, 1, feedback_angle(bundle, 1))
    stage_states.append(fed)
    for stage in stage_states:
        total = expectation(stage, bundle.total)
        by_parts = sum(expectation(stage, local) for local in bundle.locals.values())
        assert total == pytest.approx(by_parts, abs=1e-10)
    assert expectation(stage_states[0], bundle.total) == pytest.approx(e0, abs=1e-12)


def test_star_receiver_values_match_reduced_oracle():
    oracle = star_reduced_values(6, 9.0, 2.0)
    record = run_qed(StarModelParams(9.0, 2.0, 6), (1,))
    r = record.receivers[1]
    assert record.e0 == pytest.approx(oracle["E0"], abs=1e-9)
    assert r.hx == pytest.approx(oracle["HX"], abs=1e-9)
    assert r.hz == pytest.approx(oracle["HZ"], abs=1e-9)
    assert r.e_j == pytest.approx(oracle["E_j"], abs=1e-9)


def test_receiver_independence_exact():
    params = StarModelParams(7.0, 2.0, 7)
    single = run_qed(params, (1,))
    both = run_qed(params, (1, 2))
    assert both.receivers[1].e_j == pytest.approx(single.receivers[1].e_j, abs=1e-10)
    assert both.receivers[1].hx == pytest.approx(single.receivers[1].hx, abs=1e-10)
    assert both.receivers[1].hz == pytest.approx(single.receivers[1].hz, abs=1e-10)
    # the two receivers are exchangeable, so their numbers coincide too
    assert both.receivers[2].e_j == pytest.approx(both.receivers[1].e_j, abs=1e-10)


def test_run_qed_rejects_duplicates_and_bad_sites():
    params = StarModelParams(6.0, 2.0, 6)
    with pytest.raises(ValueError):
        run_qed(params, (1, 1))
    with pytest.raises(ValueError):
        run_qed(params, (0,))
    with pytest.raises(ValueError):
        run_qed(params, (6,))  # sites run 1..q-1


def test_all_receivers_extract_at_most_e0():
    params = StarModelParams(6.0, 2.0, 6)
    record = run_qed(params, tuple(range(1, 6)))
    total_extracted = sum(r.e_b for r in record.receivers.values())
    assert total_extracted > 0
    assert total_extracted <= record.e0 + 1e-10


def test_untouched_sites_keep_zero_energy():
    bundle, ground = star_model(StarModelParams(7.0, 2.0, 6))
    ensemble, _ = alice_measure(bundle, ground)
    fed = apply_feedback(ensemble, 1, feedback_angle(bundle, 1))
    for name in ("Z3", "X3", "Z4", "X4"):
        assert expectation(fed, bundle.locals[name]) == pytest.approx(0.0, abs=1e-10)


def test_ensemble_matches_dense_density_matrix():
    bundle, ground = star_model(MinimalModelParams(2.0, 1.0))
    ensemble, _ = alice_measure(bundle, ground)
    fed = apply_feedback(ensemble, 1, feedback_angle(bundle, 1))
    rho = ensemble_density(fed)
    receiver_local = bundle.locals["Z1"] + bundle.locals["X1"]
    want = float(np.trace(rho @ dense_observable(receiver_local)).real)
    assert receiver_energy(fed, bundle, 1).e_j == pytest.approx(want, abs=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    h=st.floats(1.0, 10.0),
    k=st.floats(0.1, 2.0),
    q=st.integers(3, 8),
    data=st.data(),
)
def test_receiver_independence_property(h, k, q, data):
    # feedback at distinct receivers commutes: each receiver of a joint run
    # reads what it reads alone
    receivers = tuple(data.draw(
        st.lists(st.integers(1, q - 1), min_size=1, max_size=q - 1, unique=True),
        label="receivers",
    ))
    params = StarModelParams(h, k, q)
    joint = run_qed(params, receivers)
    for j in receivers:
        alone = run_qed(params, (j,))
        assert joint.e0 == pytest.approx(alone.e0, abs=1e-10)
        for field in ("theta", "xi", "eta"):
            assert getattr(joint.theta[j], field) == pytest.approx(
                getattr(alone.theta[j], field), abs=1e-10
            )
        for field in ("hx", "hz", "e_j", "e_b"):
            assert getattr(joint.receivers[j], field) == pytest.approx(
                getattr(alone.receivers[j], field), abs=1e-10
            )


# --- one model family -----------------------------------------------------------

def test_minimal_model_is_the_q2_star():
    for h, k in ((1.0, 1.0), (9.0, 2.0), (0.3, 2.5)):
        mini = run_minimal_qet(MinimalModelParams(h, k))
        star = run_qed(StarModelParams(h, k, 2), (1,))
        assert mini.e0 == pytest.approx(star.e0, abs=1e-12)
        for field in ("theta", "xi", "eta"):
            assert getattr(mini.theta[1], field) == pytest.approx(
                getattr(star.theta[1], field), abs=1e-12
            )
        for field in ("hx", "hz", "e_j", "e_b"):
            assert getattr(mini.receivers[1], field) == pytest.approx(
                getattr(star.receivers[1], field), abs=1e-12
            )
        assert mini.as_dict()["kind"] == "minimal"
        assert mini.as_dict()["params"] == {"h": h, "k": k}
        for basis in ("Z", "X"):
            plan = ShotPlan(basis_run=basis, shots=4000, master_seed=17)
            bundle, ground = star_model(MinimalModelParams(h, k))
            t_mini = sample_protocol(bundle, run_protocol(bundle, ground, (1,))[1], (1,), plan)
            bundle, ground = star_model(StarModelParams(h, k, 2))
            t_star = sample_protocol(bundle, run_protocol(bundle, ground, (1,))[1], (1,), plan)
            assert np.array_equal(t_mini.counts, t_star.counts)
            assert t_mini.mu_counts == t_star.mu_counts


# --- sweep -------------------------------------------------------------------

def test_sweep_shape_and_optimal_feedback_never_injects():
    grid = sweep_EB([0.5, 1.0, 1.5], [0.25, 0.5, 1.0, 2.0], field_term_column=True)
    assert grid.e_b.shape == (3, 4)
    assert grid.e_b_field_term.shape == (3, 4)
    assert (grid.e_b >= -1e-10).all()
    for i, h in enumerate(grid.h_values):
        for j, k in enumerate(grid.k_values):
            assert grid.e_b[i, j] == pytest.approx(closed_form_eb(h, k), abs=1e-10)


def test_sweep_small_k_column_vanishes_and_grows():
    grid = sweep_EB([1.0], [1e-4, 1e-2, 0.05, 0.1])
    row = grid.e_b[0]
    assert row[0] < 1e-7
    assert np.all(np.diff(row) > 0)  # monotone increase in k near 0
