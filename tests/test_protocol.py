import math
import re
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import (
    Term,
    class_cells,
    decimal_star_eb,
    dicke_vectors,
    ensemble_density,
    ensemble_expectation,
    expectation,
    fed_ensemble,
    local_matrix,
    partial_trace,
    pass_density,
    pass_energy_curve,
    readout_law,
    receiver_energy,
    reduced_observable,
    star_ground,
    star_reduced_values,
    star_terms,
)

import qetsim.protocol
from qetsim import refdata
from qetsim.model import (
    _MATH,
    DegenerateGroundError,
    MinimalModelParams,
    StarModelParams,
    _star_solve,
    exact_energies,
    star_model,
    star_models,
)
from qetsim.protocol import dicke_rotation, exact_record, run_protocol, sweep_EB
from qetsim.sampler import ShotPlan, readout_law as pass_law, sample_protocol
from qetsim.teleport import run_longrange_qet


def closed_form_eb(h, k):
    # minimal-model extracted energy at the optimal angle:
    # (sqrt(xi^2 + eta^2) - xi)/2 with xi = 2(h^2+2k^2)/r, eta = 2hk/r
    r = np.hypot(h, k)
    xi = 2 * (h * h + 2 * k * k) / r
    eta = 2 * h * k / r
    return (np.hypot(xi, eta) - xi) / 2


# --- the sender's measurement (dense oracle against the closed forms) -------------

def test_e0_minimal_formula():
    for h, k in ((1.0, 1.0), (9.0, 2.0), (3.0, 5.0)):
        bundle = star_model(MinimalModelParams(h, k))
        measured = fed_ensemble(bundle, ())
        e0 = ensemble_expectation(measured, *star_terms(bundle).values())
        assert e0 == pytest.approx(h * h / np.hypot(h, k), abs=1e-10)
        assert exact_record(bundle, (1,)).e0 == pytest.approx(e0, abs=1e-10)
        assert sum(p for p, _, _ in measured) == pytest.approx(1.0, abs=1e-12)


def test_e0_star_reference_band():
    bundle = star_model(StarModelParams(9.0, 2.0, 6))
    e0 = ensemble_expectation(fed_ensemble(bundle, ()), *star_terms(bundle).values())
    assert e0 == pytest.approx(7.8897, abs=0.036)


def test_e0_identity_across_observables():
    # post-measurement, the total and the sender field term agree, and both
    # equal -h <g|Z0|g>; receiver feedback does not move them
    bundle = star_model(StarModelParams(7.0, 2.0, 6))
    terms = star_terms(bundle)
    measured = fed_ensemble(bundle, ())
    e0 = ensemble_expectation(measured, *terms.values())
    h = bundle.params.h
    minus_h_z0 = -h * expectation(star_ground(bundle), Term(1.0, "Z", (0,), 0.0))
    assert e0 == pytest.approx(minus_h_z0, abs=1e-10)
    assert ensemble_expectation(measured, terms["Z0"]) == pytest.approx(e0, abs=1e-10)
    # feedback extracts the receiver energy from the total but cannot move
    # the sender term (the rotation commutes with it)
    fed = fed_ensemble(bundle, (1,))
    e_1 = receiver_energy(fed, bundle, 1)["e_j"]
    assert ensemble_expectation(fed, *terms.values()) == pytest.approx(e0 + e_1, abs=1e-10)
    assert ensemble_expectation(fed, terms["Z0"]) == pytest.approx(e0, abs=1e-10)


# --- the protocol pass on the sender-plus-receivers marginal -------------------------

def test_zero_angle_feedback_is_identity():
    # the pass turned back by -theta* is the measured state's marginal, which
    # holds no receiver energy
    bundle = star_model(MinimalModelParams(1.0, 1.0))
    terms = star_terms(bundle)
    fed = class_cells(run_protocol(bundle, (1,)))
    theta = bundle.angle.theta
    local = reduced_observable((0, 1), terms["Z1"], terms["X1"])
    assert pass_energy_curve(fed, [-theta], local)[0] == pytest.approx(0.0, abs=1e-10)
    measured = ensemble_density(fed_ensemble(bundle, ()))
    mu = np.array([1.0, -1.0])[:, None, None]
    c, s = np.cos(theta), np.sin(theta)
    back = np.stack([c * fed[..., ::2] + mu * s * fed[..., 1::2],
                     -mu * s * fed[..., ::2] + c * fed[..., 1::2]], axis=-1)
    assert np.abs(pass_density(back.reshape(fed.shape)) - measured).max() <= 1e-12


def test_feedback_order_commutes_branchwise():
    bundle = star_model(StarModelParams(6.0, 2.0, 6))
    order12 = fed_ensemble(bundle, (1, 2))
    order21 = fed_ensemble(bundle, (2, 1))
    for (_, b12, _), (_, b21, _) in zip(order12, order21):
        assert np.max(np.abs(b12 - b21)) < 1e-12
    # the pass takes the receivers in site order, whatever order it is given
    assert np.array_equal(run_protocol(bundle, (1, 2)), run_protocol(bundle, (2, 1)))
    rho = sum(p * partial_trace(psi, 6, (0, 1, 2)) for p, psi, _ in order21)
    assert np.abs(pass_density(class_cells(run_protocol(bundle, (2, 1)))) - rho).max() <= 1e-12


def assert_stack_equals_lone(params, receivers):
    """Each bundle of one stacked solve of models of one q, and its rows of
    one stacked pass, equal those of a solve and a pass of that model alone,
    bit for bit; a lone bundle's g and moments are those of the chain solve."""
    stack, q = star_models(params), params[0].q
    fed = run_protocol(stack, receivers)
    assert fed.shape == (len(stack), 2, q - len(receivers), 2, len(receivers) + 1)
    for bundle, rows in zip(stack, fed):
        lone = star_model(bundle.params)
        assert bundle.params is lone.params
        assert np.array_equal(bundle.g, lone.g)
        assert bundle.moments == lone.moments and bundle.angle == lone.angle
        assert bundle.e0 == lone.e0 and bundle.energy == lone.energy
        assert np.array_equal(rows, run_protocol(lone, receivers))
        moments, g = _star_solve(lone.params.h, lone.params.k, q)
        assert np.array_equal(lone.g, g) and lone.moments == moments


def test_stacked_models_and_passes_equal_lone_ones_on_the_table():
    for q in refdata.TILING_QS:
        assert_stack_equals_lone(
            [StarModelParams(float(h), float(k), q) for h, k in refdata.HK_PAIRS], (1, 2))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(q=st.integers(3, 12), data=st.data())
def test_stacked_models_and_passes_equal_lone_ones_property(q, data):
    cells = data.draw(st.lists(st.tuples(st.floats(1.0, 10.0), st.floats(0.1, 2.0)),
                               min_size=1, max_size=6), label="(h, k) stack")
    receivers = tuple(data.draw(
        st.lists(st.integers(1, q - 1), max_size=q - 1, unique=True), label="receivers"))
    assert_stack_equals_lone([StarModelParams(h, k, q) for h, k in cells], receivers)


@pytest.mark.parametrize("params, bad", [
    # the degenerate cell's gap, 1e-2, is above the other cell's, 8.3e-4; it fails
    # relative to max(h, k), and the message names it as a lone solve does
    ([MinimalModelParams(1e-3, 1e-3), MinimalModelParams(1e3, 1e8)], 1),
    ([StarModelParams(9.0, 2.0, 6), StarModelParams(0.01, 1.0, 6),
      StarModelParams(6.0, 2.0, 6)], 1),
])
def test_a_stack_holding_a_degenerate_cell_raises_as_its_lone_solve(params, bad):
    with pytest.raises(DegenerateGroundError) as lone:
        star_model(params[bad])
    with pytest.raises(DegenerateGroundError) as stacked:
        star_models(params)
    assert str(stacked.value) == str(lone.value)
    assert str(lone.value).endswith(f" at h = {params[bad].h:.12g}, k = {params[bad].k:.12g}")


def test_a_stacked_pass_needs_one_q():
    bundles = [star_model(StarModelParams(9.0, 2.0, 6)), star_model(StarModelParams(9.0, 2.0, 7))]
    with pytest.raises(ValueError, match="a stacked pass needs bundles of one q"):
        run_protocol(bundles, (1, 2))
    # a stacked solve needs one q too, the minimal model's being 2
    for params, qs in (([StarModelParams(9.0, 2.0, 6), StarModelParams(9.0, 2.0, 7)], "[6, 7]"),
                       ([MinimalModelParams(9.0, 2.0), StarModelParams(9.0, 2.0, 3)], "[2, 3]")):
        with pytest.raises(ValueError, match=re.escape(f"one q, got q values {qs}")):
            star_models(params)


def test_a_stacked_pass_needs_a_bundle():
    with pytest.raises(ValueError, match="run_protocol: bundle is an empty stack"):
        run_protocol([], (1,))
    with pytest.raises(ValueError, match=re.escape("one q, got q values []")):
        star_models([])


def test_pass_shapes():
    for q, receivers in ((2, (1,)), (6, (1, 2)), (9, (7, 3, 5)), (7, ()), (7, (1, 2, 3, 4, 5, 6))):
        classes = run_protocol(star_model(StarModelParams(9.0, 2.0, q)), receivers)
        r = len(receivers)
        assert classes.shape == (2, q - r, 2, r + 1)
        fed = class_cells(classes)
        assert fed.shape == (2, q - r, 2 ** (r + 1)) and fed.dtype == np.float64
        assert np.sum(fed**2) == pytest.approx(1.0, abs=1e-12)


def test_dicke_rotation_matches_the_projected_kron_product():
    # <D_v| U^(x r) |D_w> from np.kron of r 2 x 2 rotations and the Dicke
    # vectors, r = 0..8; the Hadamard is R(pi/4) Z
    for r in range(9):
        dicke = dicke_vectors(r)
        for theta in (0.0, 0.3, -1.1, np.pi / 4, 2.5, -np.pi):
            c, s = np.cos(theta), np.sin(theta)
            product = np.eye(1)
            for _ in range(r):
                product = np.kron(product, np.array([[c, -s], [s, c]]))
            want = dicke.T @ product @ dicke
            assert np.abs(dicke_rotation(r, c, s) - want).max() <= 1e-14, (r, theta)
        both = dicke_rotation(r, np.cos(0.3), [np.sin(0.3), -np.sin(0.3)])
        assert both.shape == (2, r + 1, r + 1)
        assert np.array_equal(both[1], dicke_rotation(r, np.cos(0.3), -np.sin(0.3)))


def test_x_run_keeps_the_classes_off_the_measured_x0_exactly_zero():
    # after X0 reads mu, the X-run's sender bit is 0 for mu = +1 and 1 for
    # mu = -1: the other classes hold exactly 0, so no binomial is drawn for them
    for q in (2, 6, 12, 20):
        bundle = star_model(StarModelParams(9.0, 2.0, q))
        for receivers in ((1,), (q - 1,), tuple(range(1, q))):
            law = pass_law(run_protocol(bundle, receivers), "X")
            assert np.all(law[0, 1] == 0.0) and np.all(law[1, 0] == 0.0), (q, receivers)
            assert law.sum() == pytest.approx(1.0, abs=1e-12)


def test_minimal_pass_draws_mu_at_one_half():
    # <X_0> = 0 by the ground state's parity, so p_mu = 1/2: the pass's p_+ on
    # the q = 2 star is within 2.3e-16 of it at every accepted h/k, from the
    # degeneracy edge (k/h ~ 3.2e4) to MAX_FIELD_RATIO, at any field scale.
    # `longrange` draws its mu at 1/2 on this fact
    ratios = np.geomspace(3.2e-5, 1e12, 401)
    for scale in (1e-300, 1.0, 1e200):
        bundles = star_models([MinimalModelParams(r * scale, scale) for r in ratios.tolist()])
        p_plus = np.sum(run_protocol(bundles, (1,))[:, 0] ** 2, axis=(1, 2, 3))
        assert np.abs(p_plus - 0.5).max() <= 2.3e-16, scale


PASS_LAW = settings(max_examples=40, deadline=None, derandomize=True)


def _check_pass_law(params, receivers):
    bundle = star_model(params)
    fed = run_protocol(bundle, receivers)
    branches = fed_ensemble(bundle, receivers)
    sites = (0, *sorted(receivers))
    for basis in "ZX":
        law = class_cells(pass_law(fed, basis), probabilities=True)
        assert law.shape == (2, 2 ** len(sites))
        assert np.abs(law - readout_law(branches, sites, basis)).max() <= 1e-12, basis


@PASS_LAW
@given(
    h=st.floats(0.5, 10.0),
    k=st.floats(0.1, 3.0),
    q=st.integers(2, 8),
    data=st.data(),
)
def test_pass_law_matches_dense_partial_trace_property(h, k, q, data):
    # both basis runs' (mu, outcome) law from the pass equals the dense
    # oracle's partial trace of the fed ensemble, for any receiver set
    receivers = tuple(data.draw(
        st.lists(st.integers(1, q - 1), max_size=q - 1, unique=True), label="receivers",
    ))
    _check_pass_law(StarModelParams(h, k, q), receivers)


def test_pass_law_matches_dense_partial_trace_q12_all_receivers():
    _check_pass_law(StarModelParams(7.5, 2.0, 12), tuple(range(1, 12)))


# --- receiver energies and records --------------------------------------------

def test_minimal_record_extracts_positive_energy():
    record = exact_record(star_model(MinimalModelParams(1.0, 1.0)), (1,))
    r = record.receivers[1]
    assert r.e_b > 0
    assert r.e_b == pytest.approx(closed_form_eb(1.0, 1.0), abs=1e-10)
    assert r.e_b == pytest.approx(0.11474763394014709, abs=1e-10)
    assert r.e_j == pytest.approx(r.hx + r.hz, abs=1e-12)
    assert r.e_b == -r.e_j


def test_minimal_decoupled_limit_no_energy():
    record = exact_record(star_model(MinimalModelParams(1.0, 1e-6)), (1,))
    assert abs(record.receivers[1].e_b) < 1e-11


def test_bookkeeping_closure_every_stage():
    bundle = star_model(StarModelParams(8.0, 2.0, 6))
    terms = star_terms(bundle)
    measured = fed_ensemble(bundle, ())
    for stage in (measured, fed_ensemble(bundle, (1,))):
        total = ensemble_expectation(stage, *terms.values())
        by_parts = sum(ensemble_expectation(stage, local) for local in terms.values())
        assert total == pytest.approx(by_parts, abs=1e-10)
    assert ensemble_expectation(measured, *terms.values()) == pytest.approx(
        exact_record(bundle, ()).e0, abs=1e-12
    )


def test_star_receiver_values_match_reduced_oracle():
    oracle = star_reduced_values(6, 9.0, 2.0)
    record = exact_record(star_model(StarModelParams(9.0, 2.0, 6)), (1,))
    r = record.receivers[1]
    assert record.e0 == pytest.approx(oracle["E0"], abs=1e-9)
    assert r.hx == pytest.approx(oracle["HX"], abs=1e-9)
    assert r.hz == pytest.approx(oracle["HZ"], abs=1e-9)
    assert r.e_j == pytest.approx(oracle["E_j"], abs=1e-9)


def test_receiver_independence_exact():
    params = StarModelParams(7.0, 2.0, 7)
    single = exact_record(star_model(params), (1,))
    both = exact_record(star_model(params), (1, 2))
    assert both.receivers[1].e_j == pytest.approx(single.receivers[1].e_j, abs=1e-10)
    assert both.receivers[1].hx == pytest.approx(single.receivers[1].hx, abs=1e-10)
    assert both.receivers[1].hz == pytest.approx(single.receivers[1].hz, abs=1e-10)
    # the two receivers are exchangeable, so their numbers coincide too
    assert both.receivers[2].e_j == pytest.approx(both.receivers[1].e_j, abs=1e-10)


def test_run_qed_rejects_duplicates_and_bad_sites():
    params = StarModelParams(6.0, 2.0, 6)
    with pytest.raises(ValueError):
        exact_record(star_model(params), (1, 1))
    with pytest.raises(ValueError):
        exact_record(star_model(params), (0,))
    with pytest.raises(ValueError):
        exact_record(star_model(params), (6,))  # sites run 1..q-1


def test_all_receivers_extract_at_most_e0():
    params = StarModelParams(6.0, 2.0, 6)
    record = exact_record(star_model(params), tuple(range(1, 6)))
    total_extracted = sum(r.e_b for r in record.receivers.values())
    assert total_extracted > 0
    assert total_extracted <= record.e0 + 1e-10


def test_untouched_sites_keep_zero_energy():
    bundle = star_model(StarModelParams(7.0, 2.0, 6))
    fed = fed_ensemble(bundle, (1,))
    for name in ("Z3", "X3", "Z4", "X4"):
        assert ensemble_expectation(fed, star_terms(bundle)[name]) == pytest.approx(0.0, abs=1e-10)


def test_ensemble_matches_dense_density_matrix():
    # the receiver energy read off the pass's reduced state equals the dense
    # fed ensemble's, and the closed form
    bundle = star_model(MinimalModelParams(2.0, 1.0))
    terms = star_terms(bundle)
    receiver_locals = (terms["Z1"], terms["X1"])
    rho = ensemble_density(fed_ensemble(bundle, (1,)))
    want = float(np.trace(rho @ local_matrix(2, *receiver_locals)).real)
    reduced = pass_density(class_cells(run_protocol(bundle, (1,))))
    got = float(np.trace(reduced @ reduced_observable((0, 1), *receiver_locals)).real)
    assert got == pytest.approx(want, abs=1e-12)
    assert exact_record(bundle, (1,)).receivers[1].e_j == pytest.approx(want, abs=1e-12)


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
    joint = exact_record(star_model(params), receivers)
    for j in receivers:
        alone = exact_record(star_model(params), (j,))
        assert joint.e0 == pytest.approx(alone.e0, abs=1e-10)
        for field in ("theta", "xi", "eta"):
            assert getattr(joint.angle, field) == pytest.approx(
                getattr(alone.angle, field), abs=1e-10
            )
        for field in ("hx", "hz", "e_j", "e_b"):
            assert getattr(joint.receivers[j], field) == pytest.approx(
                getattr(alone.receivers[j], field), abs=1e-10
            )


# --- one model family -----------------------------------------------------------

def test_minimal_model_is_the_q2_star():
    for h, k in ((1.0, 1.0), (9.0, 2.0), (0.3, 2.5)):
        mini = exact_record(star_model(MinimalModelParams(h, k)), (1,))
        star = exact_record(star_model(StarModelParams(h, k, 2)), (1,))
        assert mini.e0 == pytest.approx(star.e0, abs=1e-12)
        for field in ("theta", "xi", "eta"):
            assert getattr(mini.angle, field) == pytest.approx(
                getattr(star.angle, field), abs=1e-12
            )
        for field in ("hx", "hz", "e_j", "e_b"):
            assert getattr(mini.receivers[1], field) == pytest.approx(
                getattr(star.receivers[1], field), abs=1e-12
            )
        assert mini.as_dict()["kind"] == "minimal"
        assert mini.as_dict()["params"] == {"h": h, "k": k}
        for basis in ("Z", "X"):
            plan = ShotPlan(basis_run=basis, shots=4000, master_seed=17)
            bundle = star_model(MinimalModelParams(h, k))
            t_mini = sample_protocol(bundle, run_protocol(bundle, (1,)), (1,), plan)
            bundle = star_model(StarModelParams(h, k, 2))
            t_star = sample_protocol(bundle, run_protocol(bundle, (1,)), (1,), plan)
            mini, star = (np.array(t.counts).reshape(-1, 2, 4) for t in (t_mini, t_star))
            assert np.array_equal(mini.sum(axis=1), star.sum(axis=1))
            assert np.array_equal(mini.sum(axis=2), star.sum(axis=2))
    # an exact record reads its numbers off the bundle, which formed them by
    # `exact_energies` on its moments: on floats by `math` at q = 2, on numpy
    # at q >= 3, bit for bit
    bundle = star_model(StarModelParams(9.0, 2.0, 3))
    for b, xp in ((star_model(MinimalModelParams(9.0, 2.0)), _MATH), (bundle, np)):
        e0, energy, angle = exact_energies(b.params.h, b.params.k, b.moments, xp)
        assert (b.e0, b.energy, b.angle) == (e0, energy, angle)
        record = exact_record(b, tuple(range(1, b.params.q)))
        assert record.e0 == b.e0 and record.angle == b.angle
        assert record.receivers == dict.fromkeys(range(1, b.params.q), b.energy)
    # params, bundles, records and transcripts are immutable: no field can be
    # set, and no attribute added
    record, transcript, _ = run_longrange_qet(MinimalModelParams(9.0, 2.0), 3, seed=1)
    for obj in (bundle.params, record.model, bundle, exact_record(bundle, (1,)), record,
                transcript):
        for name in (*obj._fields, "kind", "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)


# --- sweep -------------------------------------------------------------------

def sweep_grid(h_values, k_values, field_term=False):
    """`sweep_EB`'s chunks joined into (len(h_values), len(k_values)) arrays:
    E_B, and with field_term the field term; each chunk's h and k are the
    slices of the axes at its place in the grid."""
    h_values, k_values = np.asarray(h_values, float), np.asarray(k_values, float)
    grid = [np.full((h_values.size, k_values.size), np.nan) for _ in range(1 + field_term)]
    i = j = 0
    for h, k, columns in sweep_EB(h_values, k_values, field_term):
        assert np.array_equal(h, h_values[i:i + h.size]) and np.array_equal(k, k_values[j:j + k.size])
        for whole, column in zip(grid, columns, strict=True):
            assert column.shape == (h.size, k.size)
            whole[i:i + h.size, j:j + k.size] = column
        # the next chunk starts after this one's last k, or at the next row
        j += k.size
        if j == k_values.size:
            i, j = i + h.size, 0
    assert (i, j) == (h_values.size, 0)
    return grid


def test_sweep_shape_and_optimal_feedback_never_injects():
    h_values, k_values = [0.5, 1.0, 1.5], [0.25, 0.5, 1.0, 2.0]
    e_b, field_term = sweep_grid(h_values, k_values, field_term=True)
    assert e_b.shape == (3, 4)
    assert field_term.shape == (3, 4)
    assert (e_b >= -1e-10).all()
    for i, h in enumerate(h_values):
        for j, k in enumerate(k_values):
            assert e_b[i, j] == pytest.approx(closed_form_eb(h, k), abs=1e-10)


def test_sweep_small_k_column_vanishes_and_grows():
    (e_b,) = sweep_grid([1.0], [1e-4, 1e-2, 0.05, 0.1])
    row = e_b[0]
    assert row[0] < 1e-7
    assert np.all(np.diff(row) > 0)  # monotone increase in k near 0


def test_sweep_is_the_pointwise_record():
    # the stacked grid solve gives each point's own exact record
    h_values, k_values = [0.3, 1.0, 2.5], [0.2, 0.9, 3.0]
    e_b, field_term = sweep_grid(h_values, k_values, field_term=True)
    for i, h in enumerate(h_values):
        for j, k in enumerate(k_values):
            r = exact_record(star_model(MinimalModelParams(h, k)), (1,)).receivers[1]
            assert e_b[i, j] == pytest.approx(r.e_b, abs=1e-15)
            assert field_term[i, j] == pytest.approx(-r.hz, abs=1e-15)


def test_sweep_in_chunks_equals_the_unchunked_grid(monkeypatch):
    # the corners are solved first, as one call of 4 points, then each chunk:
    # with 5 points a chunk, a 4 x 3 grid takes max(1, 5 // 3) = 1 whole row
    # a chunk, and a 2 x 7 one, whose rows are longer, slices of 5 k values
    grids = [([0.3, 1.0, 2.5, 4.0], [0.2, 0.9, 3.0], [4, 3, 3, 3, 3]),
             ([0.3, 2.5], [0.2, 0.5, 0.9, 1.4, 2.0, 3.0, 4.1], [4, 5, 2, 5, 2])]
    solve = qetsim.protocol._minimal_eb
    for h_values, k_values, sizes in grids:
        whole = sweep_grid(h_values, k_values, field_term=True)
        solves = []

        def counted(h, k, field_term):
            solves.append(np.broadcast(h, k).size)
            return solve(h, k, field_term)

        with monkeypatch.context() as mp:
            mp.setattr(qetsim.protocol, "SWEEP_CHUNK_POINTS", 5)
            mp.setattr(qetsim.protocol, "_minimal_eb", counted)
            chunked = sweep_grid(h_values, k_values, field_term=True)
        assert solves == sizes
        for got, want in zip(chunked, whole, strict=True):
            assert np.array_equal(got, want)


def _raised(solve):
    """The exception type `solve()` raises under main's errstate, or None."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            solve()
    except (FloatingPointError, ValueError) as exc:
        return type(exc)
    return None


def _edge_point(ray, lo, hi):
    """The last point of `ray(t)`, t from lo to hi, before a lone solve of it
    fails, found by bisection to adjacent floats; it fails at hi, not at lo."""
    def fails(t):
        return _raised(lambda: qetsim.protocol._minimal_eb(*map(np.array, ray(t)), True))

    while lo < (mid := lo + (hi - lo) / 2) < hi:
        lo, hi = (lo, mid) if fails(mid) else (mid, hi)
    return ray(lo)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    edge=st.sampled_from(["degenerate", "ill-conditioned", "overflow"]),
    scale=st.floats(1e-290, 1e290),
    ratio=st.floats(2.0 ** -8, 2.0 ** 8),
    spread=st.sampled_from([0.0, 2.0 ** -52, 1e-13, 1e-9, 1e-3, 0.3]),
    offsets=st.tuples(*[st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)] * 2),
    field_term=st.booleans(),
)
def test_sweep_corners_fail_exactly_when_the_grid_fails_property(
        edge, scale, ratio, spread, offsets, field_term):
    # grids around the three edges a q = 2 grid can fail at, found to the last
    # bit: k/h ~ 3.1623e4, where the gap falls below the degeneracy tolerance,
    # h/k ~ 1e12, and fields near the largest float along a ray of k/h =
    # ratio.  The corner solve that `sweep_EB` runs before returning raises,
    # under main's errstate, exactly when a solve of every point does, and the
    # same exception
    big = sys.float_info.max / max(1.0, ratio)
    h, k = {
        "degenerate": lambda: _edge_point(lambda t: (scale, scale * t), 1e4, 1e5),
        "ill-conditioned": lambda: _edge_point(lambda t: (scale * t, scale), 1e11, 1e13),
        "overflow": lambda: _edge_point(lambda t: (t, t * ratio), big / 2 ** 12, big),
    }[edge]()
    h_values, k_values = ([min(c * (1.0 + spread * x), sys.float_info.max) for x in xs]
                          for c, xs in zip((h, k), offsets))
    grid = np.meshgrid(h_values, k_values, indexing="ij")
    whole = _raised(lambda: qetsim.protocol._minimal_eb(*grid, field_term))
    assert _raised(lambda: sweep_EB(h_values, k_values, field_term)) is whole


def test_sweep_validates_and_rejects_degenerate_points():
    # a NaN or a 0 anywhere in either axis invalidates the grid
    for h_values, k_values in (([1.0, float("nan")], [1.0]), ([1.0, 2.0], [0.5, 0.0]),
                               ([2.0], [1.0, float("nan")])):
        with pytest.raises(ValueError, match="h and k must be finite and positive"):
            sweep_EB(h_values, k_values)
    for h_values, k_values, empty in (([], [1.0], "h_values"), ([1.0], [], "k_values")):
        with pytest.raises(ValueError, match=f"{empty} is empty"):
            sweep_EB(h_values, k_values)
    # the q = 2 gap is 2 (sqrt(h^2 + k^2) - k) ~ h^2 / k, 1e-10 at h = 1e-5
    with pytest.raises(DegenerateGroundError):
        exact_record(star_model(MinimalModelParams(1e-5, 1.0)), (1,))
    with pytest.raises(DegenerateGroundError):
        sweep_EB([1.0, 1e-5], [0.5, 1.0])


def test_sweep_names_an_axis_that_is_not_1d():
    # a 2-D or 0-D axis is named, not indexed out of range
    for h_values, k_values, name, shape in ((np.array([[1.0, 2.0]]), [1.0], "h_values", (1, 2)),
                                            ([1.0], 2.0, "k_values", ())):
        message = f"sweep_EB: {name} is not a 1-D axis (shape {shape})"
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep_EB(h_values, k_values)


# --- closed forms against the dense statevector oracle and the pass -----------------

def _check_closed_form(params, receivers):
    # E0 and each receiver's energies of the dense fed ensemble, and each
    # receiver's energies read off the pass's reduced state
    bundle = star_model(params)
    terms = star_terms(bundle)
    fed = fed_ensemble(bundle, receivers)
    record = exact_record(bundle, receivers)
    assert record.e0 == pytest.approx(
        ensemble_expectation(fed_ensemble(bundle, ()), *terms.values()), abs=1e-12
    )
    sites = (0, *sorted(receivers))
    rho = pass_density(class_cells(run_protocol(bundle, receivers)))
    for j in receivers:
        dense = receiver_energy(fed, bundle, j)
        for field in ("hx", "hz", "e_j", "e_b"):
            assert getattr(record.receivers[j], field) == pytest.approx(
                dense[field], abs=1e-12
            ), (j, field)
        for field, local in (("hx", f"X{j}"), ("hz", f"Z{j}")):
            from_pass = np.trace(rho @ reduced_observable(sites, terms[local])).real
            assert from_pass == pytest.approx(dense[field], abs=1e-12), (j, field)


@pytest.mark.parametrize("q, h, k", refdata.CONFIGS)
def test_closed_form_matches_statevector_on_table_configs(q, h, k):
    _check_closed_form(StarModelParams(float(h), float(k), q), (1, 2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    h=st.floats(1.0, 10.0),
    k=st.floats(0.1, 2.0),
    q=st.integers(2, 8),
    data=st.data(),
)
def test_closed_form_matches_statevector_property(h, k, q, data):
    receivers = tuple(data.draw(
        st.lists(st.integers(1, q - 1), min_size=1, max_size=q - 1, unique=True),
        label="receivers",
    ))
    _check_closed_form(StarModelParams(h, k, q), receivers)


def _decimal_eb(h: float, k: float) -> Decimal:
    """Hotta's minimal-model E_B at 50 digits, in the form that does not
    cancel: (hk)^2 / ((sqrt((hk)^2 + a^2) + a) r), a = h^2 + 2k^2,
    r = sqrt(h^2 + k^2)."""
    with localcontext() as ctx:
        ctx.prec = 50
        h, k = Decimal(h), Decimal(k)
        a = h * h + 2 * k * k
        hk2 = (h * k) ** 2
        return hk2 / (((hk2 + a * a).sqrt() + a) * (h * h + k * k).sqrt())


def test_minimal_eb_accuracy_against_decimal_oracle():
    # from k/h = 2e4, just inside the degeneracy guard (~3.2e4), to the
    # conditioning guard at h/k = 1e12; the closed-form moments -h/r and
    # -k/r keep every digit, and the worst error measured is 7.9e-16
    worst = 0.0
    for ratio in np.logspace(-np.log10(2e4), 12, 41):
        for k in (1.0, 3.7):
            h = float(ratio * k)
            got = exact_record(star_model(MinimalModelParams(h, k)), (1,)).receivers[1].e_b
            want = _decimal_eb(h, k)
            worst = max(worst, float(abs((Decimal(got) - want) / want)))
    assert worst <= 1e-12


# k/h from 0.1 to past each q's degeneracy edge, beyond which the solve
# raises; per q, how many of them it accepts
STAR_ORACLE_RATIOS = (0.1, 1, 3, 10, 20, 30, 50, 80, 100, 120, 150, 200, 300, 500)
STAR_ORACLE_ACCEPTED = {3: 14, 4: 10, 5: 6, 6: 4, 7: 4, 8: 3}
# E_B's relative error, worst over each q's accepted ratios and at three
# points near the edge: no bound is looser than the error of the dense
# `eigh` solve of the same chains that this solve replaced (q = 4: 4.2e-10
# at k/h = 50, 3.9e-9 at 100; q = 5: 1.5e-9 at 30)
STAR_ORACLE_WORST = {3: 3.6e-10, 4: 3.8e-9, 5: 1.4e-9, 6: 5.0e-11, 7: 1.0e-10, 8: 3.6e-12}
STAR_ORACLE_POINTS = {(4, 50): 4.2e-10, (4, 100): 3.9e-9, (5, 30): 1.5e-9}


@pytest.mark.parametrize("q", sorted(STAR_ORACLE_WORST))
def test_star_eb_accuracy_against_decimal_oracle(q):
    # near the edge eta = 2h <X_0 X_j> - 4k <Z_j> cancels, so E_B keeps
    # only the digits the ground vector has: three fixed inverse steps from
    # the same bracket fail at q = 5 and 6, and from a bracket of 100 widths
    # read E_B off by 7e-4 at q = 4, k/h = 50
    errors = {}
    for ratio in STAR_ORACLE_RATIOS:
        try:
            got = star_model(StarModelParams(1.0, float(ratio), q)).energy.e_b
        except DegenerateGroundError:
            continue
        want = decimal_star_eb(q, 1.0, float(ratio))
        errors[ratio] = float(abs((Decimal(got) - want) / want))
    assert list(errors) == list(STAR_ORACLE_RATIOS[:STAR_ORACLE_ACCEPTED[q]])
    assert max(errors.values()) <= STAR_ORACLE_WORST[q], errors
    for (point_q, ratio), bound in STAR_ORACLE_POINTS.items():
        if point_q == q:
            assert errors[ratio] <= bound, ratio
