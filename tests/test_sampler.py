import math
import random
import re
import types

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oracle_utils import (
    Term,
    class_cells,
    fed_ensemble,
    oracle_pass,
    parity_estimate,
    readout_law,
    site_counts,
    star_terms,
)

import qetsim.sampler
from qetsim.model import MinimalModelParams, StarModelParams, star_model
from qetsim.ops import DegenerateGroundError
from qetsim.protocol import exact_record, run_protocol
from qetsim.sampler import (
    SampleTallies,
    ShotPlan,
    _binomial,
    estimate,
    readout_law as pass_law,
    sample_protocol,
    sampled_record,
)


def minimal_tallies(basis="Z", shots=1000, seed=1, receivers=(1,), hk=(1.0, 1.0)):
    bundle = star_model(MinimalModelParams(*hk))
    fed = run_protocol(bundle, receivers)
    plan = ShotPlan(basis_run=basis, shots=shots, master_seed=seed)
    return bundle, sample_protocol(bundle, fed, receivers, plan)


def counts(tallies):
    """The tallies as an int64 array [site, mu, b0, b]."""
    return np.array(tallies.counts, dtype=np.int64).reshape(-1, 2, 2, 2)


class CountingRandom(random.Random):
    """A `random.Random` that counts its uniforms, in every instance."""

    calls = 0

    def random(self):
        CountingRandom.calls += 1
        return super().random()


# --- determinism ---------------------------------------------------------------

def test_identical_plans_identical_tallies():
    _, t1 = minimal_tallies(shots=5000, seed=123)
    _, t2 = minimal_tallies(shots=5000, seed=123)
    assert t1.counts == t2.counts


def test_different_seeds_differ():
    _, t1 = minimal_tallies(shots=5000, seed=1)
    _, t2 = minimal_tallies(shots=5000, seed=2)
    assert not np.array_equal(counts(t1).sum(axis=1), counts(t2).sum(axis=1))


def test_basis_runs_do_not_share_shots():
    _, tz = minimal_tallies(basis="Z", shots=5000, seed=7)
    _, tx = minimal_tallies(basis="X", shots=5000, seed=7)
    assert not np.array_equal(counts(tz).sum(axis=1), counts(tx).sum(axis=1))


def test_single_shot_reproducible():
    _, t1 = minimal_tallies(shots=1, seed=99)
    _, t2 = minimal_tallies(shots=1, seed=99)
    assert np.array_equal(counts(t1).sum(axis=1), counts(t2).sum(axis=1))
    assert np.all(counts(t1).sum(axis=(1, 2, 3)) == 1)


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
    c = counts(t)
    for site in c:  # each site's tallies hold every shot, by mu and by bits
        assert shots == site.sum(axis=(1, 2)).sum() == site.sum(axis=0).sum()
    # the sites share one draw of (mu, b0); Python ints, never negative
    assert all(np.array_equal(site.sum(axis=2), c[0].sum(axis=2)) for site in c)
    assert all(type(n) is int and n >= 0 for row in t.counts for n in row)


def test_tallies_are_a_function_of_the_key():
    def tallies(basis, seed):
        bundle, fed, receivers = fed_run("star6")  # rebuilt on every call
        return sample_protocol(bundle, fed, receivers, ShotPlan(basis, 20000, seed)).counts

    assert tallies("Z", 4) == tallies("Z", 4)
    assert tallies("X", 4) == tallies("X", 4)
    assert tallies("Z", 4) != tallies("X", 4)
    assert tallies("Z", 4) != tallies("Z", 5)


@pytest.mark.parametrize("model, weights", [
    ("minimal", None),
    ("star6", None),
    # X0 has zero ground mean in this model family, so p_mu is 1/2; reweigh
    # the branches to check that p_mu enters the law
    ("star6", (0.9, 0.1)),
])
def test_cell_frequencies_follow_the_readout_law(model, weights):
    # every per-site (mu, b0, b) cell within 5 sigma of shots * p, 20 seeds,
    # both runs, p the per-site marginal of the dense oracle's partial trace
    # of the fed ensemble; 1e9 shots put N p >= 1e7 on every cell above 1e-30
    # (the rarest have p ~ 0.01), where the normal bound holds
    shots = 10**9
    bundle, fed, receivers = fed_run(model)
    sites = (0, *receivers)
    scale = np.ones(2)
    if weights is not None:
        scale = np.array(weights) / np.sum(fed**2, axis=(1, 2, 3))
        fed = fed * np.sqrt(scale).reshape(2, 1, 1, 1)
    branches = fed_ensemble(bundle, receivers)
    for basis in "ZX":
        p = site_counts(readout_law(branches, sites, basis) * scale[:, None])
        sigma = np.sqrt(shots * p * (1.0 - p))
        for seed in range(20):
            plan = ShotPlan(basis, shots, seed)
            t = np.array(sample_protocol(bundle, fed, receivers, plan).counts)
            assert t.shape == p.shape == (len(sites), 8)
            assert np.all(np.abs(t - shots * p) <= 5.0 * sigma), (basis, seed)


def test_pass_of_the_wrong_sites_rejected():
    bundle, fed, _ = fed_run("star6")
    with pytest.raises(ValueError, match="does not read out sites"):
        sample_protocol(bundle, fed, (1,), ShotPlan("Z", 10, 0))


@pytest.mark.parametrize("basis", ["Z", "X"])
def test_single_shot_is_one_hot(basis):
    bundle, fed, receivers = fed_run("star6")
    for seed in range(10):
        c = counts(sample_protocol(bundle, fed, receivers, ShotPlan(basis, 1, seed)))
        for site in c:
            assert np.count_nonzero(site) == 1 and site.sum() == 1
            assert site.sum() == 1 and tuple(site.sum(axis=(1, 2))) in ((1, 0), (0, 1))


@pytest.mark.parametrize("basis", ["Z", "X"])
@pytest.mark.parametrize("receivers", [(1,), (1, 3, 4), (1, 2, 3, 4, 5)])
def test_per_receiver_counts_match_a_joint_multinomial_oracle(receivers, basis):
    # means and covariances of every per-site count over 2000 seeds against
    # numpy's multinomial over all 2 * 2^(|R|+1) cells of the same law, each
    # draw marginalized per site; 200 shots put some classes below n p = 10
    # (the geometric method) and some above (BTRS).  Each bound is 5
    # standard errors of the difference, estimated from both samples.
    runs, shots = 2000, 200
    bundle = star_model(StarModelParams(9.0, 2.0, 6))
    fed = run_protocol(bundle, receivers)
    ours = np.array([
        sample_protocol(bundle, fed, receivers, ShotPlan(basis, shots, seed)).counts
        for seed in range(runs)
    ], dtype=float).reshape(runs, -1)
    law = class_cells(pass_law(fed, basis), probabilities=True)
    joint = np.random.default_rng(11).multinomial(shots, (law / law.sum()).ravel(), size=runs)
    oracle = site_counts(joint.reshape(runs, *law.shape)).reshape(runs, -1).astype(float)

    def moments(x):
        # per-entry covariance and the variance of its per-run terms
        d = x - x.mean(axis=0)
        terms = d[:, :, None] * d[:, None, :]
        return terms.sum(axis=0) / (runs - 1), terms.var(axis=0, ddof=1)

    mean_err = np.sqrt((ours.var(axis=0, ddof=1) + oracle.var(axis=0, ddof=1)) / runs)
    assert np.all(np.abs(ours.mean(axis=0) - oracle.mean(axis=0)) <= 5 * mean_err)
    (cov, cov_var), (want, want_var) = moments(ours), moments(oracle)
    assert np.all(np.abs(cov - want) <= 5 * np.sqrt((cov_var + want_var) / runs))


def test_random_calls_per_run_do_not_grow_with_shots(monkeypatch):
    # every class and receiver split is one binomial draw, whose expected
    # number of uniforms is bounded, so a run's calls stay O(|R|^2) as the
    # shots grow from 10^3 to 10^15
    monkeypatch.setattr(qetsim.sampler, "random", types.SimpleNamespace(Random=CountingRandom))
    receivers = tuple(range(1, 12))
    bundle = star_model(StarModelParams(9.0, 2.0, 12))
    fed = run_protocol(bundle, receivers)
    binomials = 4 * 12 + 2 * 11 * 12  # the classes, then 4 L splits at L = 11, ..., 1
    per_run = {}
    for shots in (10**3, 10**6, 10**9, 10**12, 10**15):
        CountingRandom.calls = 0
        for basis in "ZX":
            for seed in range(20):
                sample_protocol(bundle, fed, receivers, ShotPlan(basis, shots, seed))
        per_run[shots] = CountingRandom.calls / 40
    assert all(calls <= 1.25 * per_run[10**3] for calls in per_run.values()), per_run
    assert max(per_run.values()) <= 3 * binomials, per_run


# --- the binomial draws ---------------------------------------------------------

def binomial_pmf(n, p):
    k = np.arange(n + 1)
    log_comb = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in k]
    return np.exp(np.array(log_comb) + k * math.log(p) + (n - k) * math.log1p(-p))


@pytest.mark.parametrize("n, p", [
    (20, 0.3),  # n p = 6: the geometric method
    (400, 0.2),  # n p = 80: BTRS
    (30, 0.85),  # p > 1/2, n (1 - p) = 4.5: the geometric method on the complement
    (500, 0.7),  # p > 1/2, n (1 - p) = 150: BTRS on the complement
    (2, 0.5),
    (60, 1 / 6),  # n p = 10: BTRS at its boundary
])
def test_binomial_follows_the_exact_pmf(n, p):
    # 40000 draws: a chi-square over the values with at least 5 expected
    # draws (the rest pooled) within 5 sigma of its degrees of freedom, and
    # the mean within 5 sigma
    draws = 40000
    rng = random.Random(f"{n} {p}")
    values = [_binomial(rng, n, p) for _ in range(draws)]
    assert all(type(k) is int and 0 <= k <= n for k in values)
    hist = np.bincount(values, minlength=n + 1)
    want = draws * binomial_pmf(n, p)
    keep = want >= 5
    observed, expected = hist[keep], want[keep]
    if want[~keep].sum() >= 5:
        observed = np.append(observed, hist[~keep].sum())
        expected = np.append(expected, want[~keep].sum())
    chi2, dof = np.sum((observed - expected) ** 2 / expected), len(expected) - 1
    assert chi2 <= dof + 5 * math.sqrt(2 * dof), (chi2, dof)
    assert abs(np.mean(values) - n * p) <= 5 * math.sqrt(n * p * (1 - p) / draws)


def test_binomial_edge_cases():
    rng = CountingRandom(3)
    CountingRandom.calls = 0
    # p in {0, 1} and n = 0 are certain: no uniform is drawn
    assert {_binomial(rng, 50, 0.0) for _ in range(100)} == {0}
    assert {_binomial(rng, 50, 1.0) for _ in range(100)} == {50}
    assert {_binomial(rng, 0, p) for p in (0.0, 0.3, 0.7, 1.0)} == {0}
    assert CountingRandom.calls == 0
    # n = 1 is one Bernoulli draw from one uniform
    ones = [_binomial(rng, 1, 0.3) for _ in range(40000)]
    assert set(ones) == {0, 1} and CountingRandom.calls == 40000
    assert abs(sum(ones) - 12000) <= 5 * math.sqrt(40000 * 0.3 * 0.7)


@pytest.mark.parametrize("p", [0.5, 0.3, 1e-3, 1e-17, 1e-19, 1 - 1e-12])
def test_binomial_at_two_to_the_62_stays_in_range(p):
    # n = 2^62: every draw is an int in [0, n]; standardized, the draws have
    # mean 0 and variance 1 within 5 sigma (the variance's error from the
    # binomial's excess kurtosis).  Draws are compared on the side of the
    # smaller probability, as exact integers.
    n, draws = 2**62, 4000
    rng = random.Random(7)
    values = [_binomial(rng, n, p) for _ in range(draws)]
    assert all(type(k) is int and 0 <= k <= n for k in values)
    small = min(p, 1.0 - p)
    npq = n * small * (1.0 - small)
    z = (np.array([k if p <= 0.5 else n - k for k in values], dtype=float) - n * small)
    z /= math.sqrt(npq)
    excess = (1.0 - 6.0 * small * (1.0 - small)) / npq
    assert abs(z.mean()) <= 5 / math.sqrt(draws)
    assert abs(z.var() - 1.0) <= 5 * math.sqrt((2.0 + excess) / draws)


# --- estimator ----------------------------------------------------------------

def test_no_feedback_z1_converges_to_ground_value():
    # without feedback the receiver field statistics are untouched by the
    # sender's measurement: <Z1> -> -h/sqrt(h^2+k^2); the unfed marginal is
    # the dense oracle's measured ensemble
    h, k = 1.0, 1.0
    bundle = star_model(MinimalModelParams(h, k))
    unfed = oracle_pass(fed_ensemble(bundle, ()), (0, 1))
    tallies = sample_protocol(bundle, unfed, (1,), ShotPlan("Z", 40000, 5))
    row_mean, row_err = estimate(tallies, 1, 1.0, 0.0)
    want = -h / np.hypot(h, k)
    assert abs(row_mean - want) < 5 * row_err
    assert row_err > 0


def test_offset_only_observable_has_zero_stderr():
    _, tallies = minimal_tallies(shots=100, seed=3)
    row_mean, row_err = estimate(tallies, 1, 0.0, 2.5)
    assert row_mean == pytest.approx(2.5, abs=1e-14)
    assert row_err == 0.0


def test_zero_mean_pauli_stderr_scale():
    # post-measurement <Z0> = 0 exactly, so per-shot values are +-h and the
    # standard error is h/sqrt(N) up to O(1/N)
    h, n = 2.0, 40000
    _, tallies = minimal_tallies(shots=n, seed=17, hk=(h, 1.0))
    _, row_err = estimate(tallies, 0, h, 0.0)
    assert row_err == pytest.approx(h / np.sqrt(n), rel=0.02)


def test_estimator_linearity():
    _, tallies = minimal_tallies(shots=3000, seed=21)
    eps = 0.7071
    plain_mean, plain_err = estimate(tallies, 1, 1.0, 0.0)
    scaled_mean, scaled_err = estimate(tallies, 1, 2.0, eps)
    assert scaled_mean == pytest.approx(2.0 * plain_mean + eps, abs=1e-12)
    assert scaled_err == pytest.approx(2.0 * plain_err, abs=1e-12)


def test_incompatible_basis_rejected():
    # a star's receiver 3 is not read out in a run of receivers 1 and 2
    bundle, fed, receivers = fed_run("star6")
    tallies = sample_protocol(bundle, fed, receivers, ShotPlan("Z", 10, 1))
    term = star_terms(bundle)["Z3"]
    with pytest.raises(ValueError, match=r"sites \(0, 1, 2\)"):
        estimate(tallies, 3, term.coeff, term.offset)


def joint_tallies(basis, joint):
    """The per-site tallies of (mu, outcome) counts of a run reading sites
    0..n-1, with the joint counts for the parity oracle."""
    n = joint.shape[-1].bit_length() - 1
    per_site = tuple(row.tolist() for row in site_counts(joint))
    return SampleTallies(basis, int(joint.sum()), tuple(range(n)), per_site), joint


def random_tallies(basis, n_sites, seed, density):
    """Tallies of a run reading sites 0..n_sites-1, drawn uniformly with a
    fraction `density` of the (mu, outcome) cells occupied."""
    rng = np.random.default_rng(seed)
    joint = rng.integers(0, 1000, size=(2, 2**n_sites)) * (rng.random((2, 2**n_sites)) < density)
    joint[0, rng.integers(2**n_sites)] += 1  # at least 2 shots
    joint[1, rng.integers(2**n_sites)] += 1
    return joint_tallies(basis, joint.astype(np.int64))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    receivers=st.integers(1, 11),
    basis=st.sampled_from("ZX"),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.002, 0.1, 1.0]),
    data=st.data(),
)
def test_estimate_equals_full_cell_parity_oracle(receivers, basis, seed, density, data):
    # the parity count of the per-site tallies against the full-cell parity
    # (-1)**popcount(i & mask) and the sample variance over shots
    tallies, joint = random_tallies(basis, receivers + 1, seed, density)
    j = data.draw(st.integers(1, receivers), label="receiver")
    coeff = data.draw(st.floats(-10, 10).filter(bool), label="coeff")
    offset = data.draw(st.floats(-10, 10), label="offset")
    sites = (j,) if basis == "Z" else (0, j)
    if data.draw(st.booleans(), label="sender field") and basis == "Z":
        sites = (0,)
    local = Term(coeff, basis, sites, offset)
    row_mean, row_err = estimate(tallies, sites[-1], coeff, offset)
    mean, stderr = parity_estimate(joint.sum(axis=0), tallies.sites, local)
    # relative, with a floor at the per-shot values' scale where they cancel
    floor = 1e-12 * (abs(coeff) + abs(offset))
    assert row_mean == pytest.approx(mean, rel=1e-12, abs=floor)
    assert row_err == pytest.approx(stderr, rel=1e-12, abs=floor)


def test_estimate_reads_sites_above_16_bits():
    # 20 read-out sites: site 0 is bit 19 of the outcome index, site 19 bit 0;
    # the estimate reads each site's own tallies
    cells = [0, 1 << 19, (1 << 19) | 1, (1 << 16) | (1 << 3), (1 << 20) - 1, 1 << 17]
    for basis in "ZX":
        joint = np.zeros((2, 2**20), dtype=np.int64)
        joint[0, cells] = [1, 2, 3, 4, 5, 6]
        joint[1, cells[::2]] += 7
        tallies, joint = joint_tallies(basis, joint)
        for sites in ((0,), (3,), (2,), (19,)) if basis == "Z" else ((0, 3), (0, 2), (0, 19)):
            local = Term(1.5, basis, sites, 0.25)
            row_mean, row_err = estimate(tallies, sites[-1], 1.5, 0.25)
            mean, stderr = parity_estimate(joint.sum(axis=0), tallies.sites, local)
            assert row_mean == pytest.approx(mean, rel=1e-12, abs=1e-15), (basis, sites)
            assert row_err == pytest.approx(stderr, rel=1e-12, abs=1e-15), (basis, sites)


def test_plan_validation():
    bundle, fed, receivers = fed_run("minimal")
    with pytest.raises(ValueError, match="basis_run must be 'Z' or 'X', got 'Q'"):
        sample_protocol(bundle, fed, receivers, ShotPlan(basis_run="Q", shots=10, master_seed=0))
    with pytest.raises(ValueError, match="shots must be in"):
        sample_protocol(bundle, fed, receivers, ShotPlan(basis_run="Z", shots=0, master_seed=0))


def test_plan_rejects_a_shot_count_that_is_not_an_int():
    # a float would tally fractional counts, and True would draw one shot
    bundle, fed, receivers = fed_run("minimal")
    expected = rf"shots must be in 1\.\.{qetsim.sampler.MAX_SHOTS}, an int, got "
    for shots in (10.5, 10.0, True, "10"):
        with pytest.raises(ValueError, match=expected + re.escape(repr(shots))):
            sample_protocol(bundle, fed, receivers, ShotPlan("Z", shots, 1))


def test_plan_rejects_shots_beyond_int64():
    bundle, fed, receivers = fed_run("minimal")
    t = sample_protocol(bundle, fed, receivers, ShotPlan("Z", shots=2**63 - 1, master_seed=0))
    assert t.shots == 2**63 - 1 == sum(t.counts[1])
    with pytest.raises(ValueError, match=r"shots must be in 1\.\.9223372036854775807"):
        sample_protocol(bundle, fed, receivers, ShotPlan("Z", shots=2**63, master_seed=0))


# --- sampled records ------------------------------------------------------------

def test_sampled_record_minimal_within_five_sigma_of_exact():
    params = MinimalModelParams(1.0, 1.0)
    bundle = star_model(params)
    sampled = sampled_record(bundle, run_protocol(bundle, (1,)), (1,), shots=100000, master_seed=4)
    exact = exact_record(star_model(params), (1,))
    assert abs(sampled.e0 - exact.e0) < 5 * sampled.stderr["E0"]
    assert abs(sampled.receivers[1].e_j - exact.receivers[1].e_j) < 5 * sampled.stderr["E1"]
    assert sampled.method == "sampled"


def test_sampled_record_star_hx_within_five_sigma():
    params = StarModelParams(9.0, 2.0, 6)
    bundle = star_model(params)
    fed = run_protocol(bundle, (1, 2))
    sampled = sampled_record(bundle, fed, (1, 2), shots=100000, master_seed=8)
    exact = exact_record(star_model(params), (1, 2))
    for obs, got, want in (
        ("HX1", sampled.receivers[1].hx, exact.receivers[1].hx),
        ("HZ1", sampled.receivers[1].hz, exact.receivers[1].hz),
        ("E0", sampled.e0, exact.e0),
    ):
        assert abs(got - want) < 5 * sampled.stderr[obs], obs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    h=st.floats(0.5, 5.0),
    k=st.floats(0.5, 5.0),
    q=st.integers(2, 12),
    shots=st.integers(10**4, 10**6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sampled_means_within_five_stderr_of_exact(h, k, q, shots, seed, data):
    # every mean of a sampled record, E0 and each receiver's HX, HZ and E,
    # lies within 5 of its own stderr from the exact record's
    receivers = tuple(sorted(data.draw(
        st.sets(st.integers(1, q - 1), min_size=1, max_size=q - 1), label="receivers")))
    try:
        bundle = star_model(StarModelParams(h, k, q))
    except DegenerateGroundError:
        reject()  # k/h beyond q's degeneracy edge (q >= 8 in this box): no angle to sample
    sampled = sampled_record(bundle, run_protocol(bundle, receivers), receivers, shots, seed)
    exact = exact_record(bundle, receivers)
    for (obs, _, got), (_, _, want) in zip(sampled.observables(), exact.observables(), strict=True):
        assert abs(got - want) <= 5 * sampled.stderr[obs], obs


def test_multi_seed_statistical_acceptance():
    # repeated seeded runs stay within 5 stderr of the exact trace
    params = StarModelParams(9.0, 2.0, 6)
    bundle = star_model(params)
    exact = exact_record(star_model(params), (1, 2))
    fed = run_protocol(bundle, (1, 2))
    hits = 0
    total = 0
    for seed in range(10):
        sampled = sampled_record(bundle, fed, (1, 2), shots=20000, master_seed=seed)
        for obs, got, want in (
            ("E0", sampled.e0, exact.e0),
            ("HX1", sampled.receivers[1].hx, exact.receivers[1].hx),
            ("HZ1", sampled.receivers[1].hz, exact.receivers[1].hz),
        ):
            total += 1
            hits += abs(got - want) <= 5 * sampled.stderr[obs]
    assert hits == total, f"{hits}/{total} cells within 5 stderr"

