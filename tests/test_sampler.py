import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import fed_ensemble, oracle_pass, parity_estimate, readout_law

from qetsim.model import Local, MinimalModelParams, StarModelParams, star_model
from qetsim.protocol import exact_record, run_protocol
from qetsim.sampler import (
    SampleTallies,
    ShotPlan,
    estimate,
    sample_protocol,
    sampled_record,
)


def minimal_tallies(basis="Z", shots=1000, seed=1, receivers=(1,), hk=(1.0, 1.0)):
    bundle = star_model(MinimalModelParams(*hk))
    fed = run_protocol(bundle, receivers)
    plan = ShotPlan(basis_run=basis, shots=shots, master_seed=seed)
    return bundle, sample_protocol(bundle, fed, receivers, plan)


# --- determinism ---------------------------------------------------------------

def test_identical_plans_identical_tallies():
    _, t1 = minimal_tallies(shots=5000, seed=123)
    _, t2 = minimal_tallies(shots=5000, seed=123)
    assert np.array_equal(t1.joint, t2.joint)


def test_different_seeds_differ():
    _, t1 = minimal_tallies(shots=5000, seed=1)
    _, t2 = minimal_tallies(shots=5000, seed=2)
    assert not np.array_equal(t1.joint.sum(axis=0), t2.joint.sum(axis=0))


def test_basis_runs_do_not_share_shots():
    _, tz = minimal_tallies(basis="Z", shots=5000, seed=7)
    _, tx = minimal_tallies(basis="X", shots=5000, seed=7)
    assert not np.array_equal(tz.joint.sum(axis=0), tx.joint.sum(axis=0))


def test_single_shot_reproducible():
    _, t1 = minimal_tallies(shots=1, seed=99)
    _, t2 = minimal_tallies(shots=1, seed=99)
    assert np.array_equal(t1.joint.sum(axis=0), t2.joint.sum(axis=0))
    assert t1.joint.sum() == 1


# --- tally law -----------------------------------------------------------------

LAW_MODELS = {
    "minimal": (MinimalModelParams(1.0, 1.0), (1,)),
    "star6": (StarModelParams(9.0, 2.0, 6), (1, 2)),
}


def fed_run(model):
    params, receivers = LAW_MODELS[model]
    bundle = star_model(params)
    return bundle, run_protocol(bundle, receivers), receivers


@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("shots", [1, 7, 5000, 2**40])
def test_tallies_add_up_to_the_shots(basis, shots):
    bundle, fed, receivers = fed_run("star6")
    t = sample_protocol(bundle, fed, receivers, ShotPlan(basis, shots, 3))
    assert shots == t.joint.sum(axis=1).sum() == t.joint.sum(axis=0).sum()
    assert t.joint.dtype == np.int64 and t.joint.min() >= 0


def test_tallies_are_a_function_of_the_key():
    def tallies(basis, seed):
        bundle, fed, receivers = fed_run("star6")  # rebuilt on every call
        return sample_protocol(bundle, fed, receivers, ShotPlan(basis, 20000, seed)).joint

    assert np.array_equal(tallies("Z", 4), tallies("Z", 4))
    assert np.array_equal(tallies("X", 4), tallies("X", 4))
    assert not np.array_equal(tallies("Z", 4), tallies("X", 4))
    assert not np.array_equal(tallies("Z", 4), tallies("Z", 5))


@pytest.mark.parametrize("model, weights", [
    ("minimal", None),
    ("star6", None),
    # X0 has zero ground mean in this model family, so p_mu is 1/2; reweigh
    # the branches to check that p_mu enters the law
    ("star6", (0.9, 0.1)),
])
def test_cell_frequencies_follow_the_readout_law(model, weights):
    # every (mu, outcome) cell within 5 sigma of shots * p, 20 seeds, both
    # runs, p the dense oracle's partial trace of the fed ensemble; 1e9
    # shots put N p >= 30 on every cell above 1e-30 (the star's rarest Z-run
    # cells have p ~ 3e-8), where the normal bound holds
    shots = 10**9
    bundle, fed, receivers = fed_run(model)
    sites = (0, *receivers)
    scale = np.ones(2)
    if weights is not None:
        scale = np.array(weights) / np.sum(fed**2, axis=(1, 2))
        fed = fed * np.sqrt(scale)[:, None, None]
    branches = fed_ensemble(bundle, receivers)
    for basis in "ZX":
        p = readout_law(branches, sites, basis) * scale[:, None]
        sigma = np.sqrt(shots * p * (1.0 - p))
        for seed in range(20):
            t = sample_protocol(bundle, fed, receivers, ShotPlan(basis, shots, seed))
            assert t.joint.shape == p.shape == (2, 2 ** len(sites))
            assert np.all(np.abs(t.joint - shots * p) <= 5.0 * sigma), (basis, seed)


def test_pass_of_the_wrong_sites_rejected():
    bundle, fed, _ = fed_run("star6")
    with pytest.raises(ValueError, match="does not read out sites"):
        sample_protocol(bundle, fed, (1,), ShotPlan("Z", 10, 0))


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_single_shot_is_one_hot(basis):
    bundle, fed, receivers = fed_run("star6")
    for seed in range(10):
        t = sample_protocol(bundle, fed, receivers, ShotPlan(basis, 1, seed))
        assert np.count_nonzero(t.joint) == 1 and t.joint.sum() == 1
        assert t.joint.sum() == 1 and tuple(t.joint.sum(axis=1)) in ((1, 0), (0, 1))


# --- estimator ----------------------------------------------------------------

def test_no_feedback_z1_converges_to_ground_value():
    # without feedback the receiver field statistics are untouched by the
    # sender's measurement: <Z1> -> -h/sqrt(h^2+k^2); the unfed marginal is
    # the dense oracle's measured ensemble
    h, k = 1.0, 1.0
    bundle = star_model(MinimalModelParams(h, k))
    unfed = oracle_pass(fed_ensemble(bundle, ()), (0, 1))
    tallies = sample_protocol(bundle, unfed, (1,), ShotPlan("Z", 40000, 5))
    row_mean, row_err = estimate(tallies, Local(1.0, "Z", (1,), 0.0))
    want = -h / np.hypot(h, k)
    assert abs(row_mean - want) < 5 * row_err
    assert row_err > 0


def test_offset_only_observable_has_zero_stderr():
    _, tallies = minimal_tallies(shots=100, seed=3)
    row_mean, row_err = estimate(tallies, Local(0.0, "Z", (), 2.5))
    assert row_mean == pytest.approx(2.5, abs=1e-14)
    assert row_err == 0.0


def test_zero_mean_pauli_stderr_scale():
    # post-measurement <Z0> = 0 exactly, so per-shot values are +-h and the
    # standard error is h/sqrt(N) up to O(1/N)
    h, n = 2.0, 40000
    _, tallies = minimal_tallies(shots=n, seed=17, hk=(h, 1.0))
    _, row_err = estimate(tallies, Local(h, "Z", (0,), 0.0))
    assert row_err == pytest.approx(h / np.sqrt(n), rel=0.02)


def test_estimator_linearity():
    _, tallies = minimal_tallies(shots=3000, seed=21)
    eps = 0.7071
    plain_mean, plain_err = estimate(tallies, Local(1.0, "Z", (1,), 0.0))
    scaled_mean, scaled_err = estimate(tallies, Local(2.0, "Z", (1,), eps))
    assert scaled_mean == pytest.approx(2.0 * plain_mean + eps, abs=1e-12)
    assert scaled_err == pytest.approx(2.0 * plain_err, abs=1e-12)


def test_incompatible_basis_rejected():
    bundle, tallies = minimal_tallies(basis="Z", shots=10, seed=1)
    with pytest.raises(ValueError, match="not measurable from a Z-run"):
        estimate(tallies, bundle.locals["X1"])
    # a star's receiver 3 is not read out in a run of receivers 1 and 2
    bundle, fed, receivers = fed_run("star6")
    tallies = sample_protocol(bundle, fed, receivers, ShotPlan("Z", 10, 1))
    with pytest.raises(ValueError, match=r"sites \(0, 1, 2\)"):
        estimate(tallies, bundle.locals["Z3"])


def random_tallies(basis, n_sites, seed, density):
    """Tallies of a run reading sites 0..n_sites-1, drawn uniformly with a
    fraction `density` of the (mu, outcome) cells occupied."""
    rng = np.random.default_rng(seed)
    joint = rng.integers(0, 1000, size=(2, 2**n_sites)) * (rng.random((2, 2**n_sites)) < density)
    joint[0, rng.integers(2**n_sites)] += 1  # at least 2 shots
    joint[1, rng.integers(2**n_sites)] += 1
    return SampleTallies(basis, int(joint.sum()), tuple(range(n_sites)), joint.astype(np.int64))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    receivers=st.integers(1, 11),
    basis=st.sampled_from("ZX"),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.002, 0.1, 1.0]),
    data=st.data(),
)
def test_estimate_equals_full_cell_parity_oracle(receivers, basis, seed, density, data):
    # the parity count of one reshape-and-sum against the full-cell parity
    # (-1)**popcount(i & mask) and the sample variance over shots
    tallies = random_tallies(basis, receivers + 1, seed, density)
    j = data.draw(st.integers(1, receivers), label="receiver")
    coeff = data.draw(st.floats(-10, 10).filter(bool), label="coeff")
    offset = data.draw(st.floats(-10, 10), label="offset")
    sites = (j,) if basis == "Z" else (0, j)
    if data.draw(st.booleans(), label="sender field") and basis == "Z":
        sites = (0,)
    local = Local(coeff, basis, sites, offset)
    row_mean, row_err = estimate(tallies, local)
    mean, stderr = parity_estimate(tallies.joint.sum(axis=0), tallies.sites, local)
    # relative, with a floor at the per-shot values' scale where they cancel
    floor = 1e-12 * (abs(coeff) + abs(offset))
    assert row_mean == pytest.approx(mean, rel=1e-12, abs=floor)
    assert row_err == pytest.approx(stderr, rel=1e-12, abs=floor)


def test_estimate_reads_sites_above_16_bits():
    # 20 read-out sites: site 0 is bit 19 of the outcome index, site 19 bit 0
    cells = [0, 1 << 19, (1 << 19) | 1, (1 << 16) | (1 << 3), (1 << 20) - 1, 1 << 17]
    for basis in "ZX":
        joint = np.zeros((2, 2**20), dtype=np.int64)
        joint[0, cells] = [1, 2, 3, 4, 5, 6]
        joint[1, cells[::2]] += 7
        tallies = SampleTallies(basis, int(joint.sum()), tuple(range(20)), joint)
        for sites in ((0,), (3,), (2,), (19,)) if basis == "Z" else ((0, 3), (0, 2), (0, 19)):
            local = Local(1.5, basis, sites, 0.25)
            row_mean, row_err = estimate(tallies, local)
            mean, stderr = parity_estimate(tallies.joint.sum(axis=0), tallies.sites, local)
            assert row_mean == pytest.approx(mean, rel=1e-12, abs=1e-15), (basis, sites)
            assert row_err == pytest.approx(stderr, rel=1e-12, abs=1e-15), (basis, sites)


def test_plan_validation():
    with pytest.raises(ValueError):
        ShotPlan(basis_run="Q", shots=10, master_seed=0)
    with pytest.raises(ValueError):
        ShotPlan(basis_run="Z", shots=0, master_seed=0)


def test_plan_rejects_shots_beyond_int64():
    assert ShotPlan(basis_run="Z", shots=2**63 - 1, master_seed=0).shots == 2**63 - 1
    with pytest.raises(ValueError, match=r"shots must be in 1\.\.9223372036854775807"):
        ShotPlan(basis_run="Z", shots=2**63, master_seed=0)


# --- sampled records ------------------------------------------------------------

def test_sampled_record_minimal_within_five_sigma_of_exact():
    params = MinimalModelParams(1.0, 1.0)
    bundle = star_model(params)
    sampled = sampled_record(bundle, (1,), shots=100000, master_seed=4)
    exact = exact_record(star_model(params), (1,))
    assert abs(sampled.e0 - exact.e0) < 5 * sampled.stderr["E0"]
    assert abs(sampled.receivers[1].e_j - exact.receivers[1].e_j) < 5 * sampled.stderr["E1"]
    assert sampled.method == "sampled"


def test_sampled_record_star_hx_within_five_sigma():
    params = StarModelParams(9.0, 2.0, 6)
    bundle = star_model(params)
    sampled = sampled_record(bundle, (1, 2), shots=100000, master_seed=8)
    exact = exact_record(star_model(params), (1, 2))
    for obs, got, want in (
        ("HX1", sampled.receivers[1].hx, exact.receivers[1].hx),
        ("HZ1", sampled.receivers[1].hz, exact.receivers[1].hz),
        ("E0", sampled.e0, exact.e0),
    ):
        assert abs(got - want) < 5 * sampled.stderr[obs], obs


def test_multi_seed_statistical_acceptance():
    # repeated seeded runs stay within 5 stderr of the exact trace
    params = StarModelParams(9.0, 2.0, 6)
    bundle = star_model(params)
    exact = exact_record(star_model(params), (1, 2))
    hits = 0
    total = 0
    for seed in range(10):
        sampled = sampled_record(bundle, (1, 2), shots=20000, master_seed=seed)
        for obs, got, want in (
            ("E0", sampled.e0, exact.e0),
            ("HX1", sampled.receivers[1].hx, exact.receivers[1].hx),
            ("HZ1", sampled.receivers[1].hz, exact.receivers[1].hz),
        ):
            total += 1
            hits += abs(got - want) <= 5 * sampled.stderr[obs]
    assert hits == total, f"{hits}/{total} cells within 5 stderr"

