import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import (
    analytic_ground_minimal,
    dense_star_angle,
    dicke_embed,
    expectation,
    fed_ensemble,
    feedback_energy_curve,
    fidelity,
    local_matrix,
    local_word,
    op_on,
    pass_energy_curve,
    purification,
    reduced_observable,
    solve_ground,
    star_ground,
    star_reduced_values,
    star_terms,
    word_matrix,
)

import qetsim.model
from qetsim.model import (
    _MATH,
    DEGENERACY_TOL,
    DegenerateGroundError,
    GroundMoments,
    MinimalModelParams,
    StarModelParams,
    _chains,
    _star_levels,
    _star_solve,
    star_model,
)
from qetsim.ops import MAX_STATEVECTOR_QUBITS
from qetsim.protocol import exact_record, run_protocol

HK_GRID = [(h, k) for h in (2.0, 4.0, 6.0, 8.0, 9.0) for k in (1.0, 2.0, 3.0, 4.0, 5.0)]


# --- minimal model -----------------------------------------------------------

def test_minimal_offsets_at_h_k_one():
    # offsets h^2/r for the fields and 2k^2/r for the coupling, r = sqrt(h^2+k^2)
    bundle = star_model(MinimalModelParams(1.0, 1.0))
    terms = star_terms(bundle)
    assert terms["Z0"].offset == pytest.approx(1 / np.sqrt(2), abs=1e-14)
    assert terms["Z1"].offset == pytest.approx(1 / np.sqrt(2), abs=1e-14)
    assert terms["X1"].offset == pytest.approx(2 / np.sqrt(2), abs=1e-14)


def test_minimal_total_is_sum_of_locals():
    bundle = star_model(MinimalModelParams(3.0, 0.5))
    terms = star_terms(bundle)
    assert set(terms) == {"Z0", "Z1", "X1"}
    assert terms["Z0"][:3] == (3.0, "Z", (0,))
    assert terms["Z1"][:3] == (3.0, "Z", (1,))
    assert terms["X1"][:3] == (1.0, "X", (0, 1))
    offset = sum(local.offset for local in terms.values())
    H = 3.0 * (word_matrix("ZI") + word_matrix("IZ")) + 1.0 * word_matrix("XX")
    assert np.abs(local_matrix(2, *terms.values()) - H - offset * np.eye(4)).max() < 1e-12


def test_minimal_small_k_limit():
    bundle = star_model(MinimalModelParams(2.0, 1e-8))
    terms = star_terms(bundle)
    assert terms["Z0"].offset == pytest.approx(2.0, rel=1e-12)
    assert terms["X1"].offset == pytest.approx(0.0, abs=1e-12)
    assert terms["X1"].coeff == pytest.approx(2e-8)


def test_analytic_ground_amplitudes():
    g = analytic_ground_minimal(MinimalModelParams(1.0, 1.0))
    assert g[0b00].real == pytest.approx(0.3826834323650898, abs=1e-12)
    assert g[0b11].real == pytest.approx(-0.9238795325112867, abs=1e-12)
    assert g[0b01] == 0 and g[0b10] == 0


def test_analytic_ground_small_k_limit_and_norm():
    g = analytic_ground_minimal(MinimalModelParams(1.0, 1e-9))
    assert abs(g[0b11] + 1.0) < 1e-9
    for h, k in HK_GRID:
        g = analytic_ground_minimal(MinimalModelParams(h, k))
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-14)


def test_minimal_zero_mean_suite():
    for h, k in HK_GRID:
        bundle = star_model(MinimalModelParams(h, k))
        terms = star_terms(bundle)
        ground = star_ground(bundle)
        assert abs(expectation(ground, *terms.values())) < 1e-10, (h, k)
        for local in terms.values():
            assert abs(expectation(ground, local)) < 1e-10, (h, k)


def test_minimal_ground_energy_zero_for_9_2():
    # the Pauli part's ground level plus the offsets
    bundle = star_model(MinimalModelParams(9.0, 2.0))
    offset = sum(local.offset for local in star_terms(bundle).values())
    assert abs(qetsim.model._minimal_levels(9.0, 2.0, _MATH)[0] + offset) < 1e-10


# --- solve_ground ------------------------------------------------------------

def test_single_qubit_field_ground():
    h = 1.3
    sol = solve_ground(h * op_on("Z", 0, 1))
    assert sol.energy == pytest.approx(-h, abs=1e-12)
    assert sol.gap == pytest.approx(2 * h, abs=1e-12)
    assert abs(sol.state[1]) == pytest.approx(1.0, abs=1e-12)


def test_numeric_matches_analytic_across_grid():
    for h, k in HK_GRID:
        bundle = star_model(MinimalModelParams(h, k))
        assert fidelity(star_ground(bundle), analytic_ground_minimal(MinimalModelParams(h, k))) >= 1 - 1e-10


def test_degenerate_ground_rejected():
    with pytest.raises(DegenerateGroundError):
        solve_ground(word_matrix("ZZ"))


def test_offsets_do_not_change_eigenvectors():
    base = word_matrix("ZI") + 0.5 * word_matrix("IZ") + 0.7 * word_matrix("XX")
    a = solve_ground(base)
    b = solve_ground(base + 5.5 * np.eye(4))
    assert fidelity(a.state, b.state) >= 1 - 1e-12
    assert b.energy == pytest.approx(a.energy + 5.5, abs=1e-10)


# --- star model --------------------------------------------------------------

def test_star_locals_sum_and_zero_mean():
    for q in (3, 6, 7):
        bundle = star_model(StarModelParams(9.0, 2.0, q))
        terms = star_terms(bundle)
        assert bundle.n_qubits == q
        assert set(terms) == {f"Z{i}" for i in range(q)} | {f"X{j}" for j in range(1, q)}
        ground = star_ground(bundle)
        for name, local in terms.items():
            assert abs(expectation(ground, local)) < 1e-10, name
        assert abs(expectation(ground, *terms.values())) < 1e-10
        offset = sum(local.offset for local in terms.values())
        assert abs(_star_levels(9.0, 2.0, q)[0] + offset) < 1e-10


def test_star_q2_is_the_minimal_model():
    params = MinimalModelParams(1.0, 1.0)
    assert params.q == 2
    star = star_model(StarModelParams(1.0, 1.0, 2))
    assert fidelity(star_ground(star), analytic_ground_minimal(params)) >= 1 - 1e-12


def test_star_sender_offset_is_e0_reference_band():
    bundle = star_model(StarModelParams(9.0, 2.0, 6))
    e0 = star_terms(bundle)["Z0"].offset
    assert e0 > 0
    assert e0 == pytest.approx(7.8897, abs=0.036)  # sampled reference +-4 stderr


def test_star_matches_reduced_basis_oracle():
    for q, h, k in ((6, 9.0, 2.0), (7, 7.0, 2.0)):
        oracle = star_reduced_values(q, h, k)
        bundle = star_model(StarModelParams(h, k, q))
        assert star_terms(bundle)["Z0"].offset == pytest.approx(oracle["E0"], abs=1e-9)
        assert _star_levels(h, k, q)[1] == pytest.approx(oracle["gap"], abs=1e-9)
        angle = bundle.angle
        assert angle.theta == pytest.approx(oracle["theta"], abs=1e-9)
        assert angle.xi == pytest.approx(oracle["xi"], abs=1e-9)
        assert angle.eta == pytest.approx(oracle["eta"], abs=1e-9)


def test_star_small_k_limit_all_down():
    bundle = star_model(StarModelParams(2.0, 1e-6, 5))
    terms = star_terms(bundle)
    n = bundle.n_qubits
    assert abs(abs(star_ground(bundle)[2**n - 1]) - 1.0) < 1e-6
    for i in range(n):
        assert terms[f"Z{i}"].offset == pytest.approx(2.0, abs=1e-6)
    for j in range(1, n):
        assert terms[f"X{j}"].offset == pytest.approx(0.0, abs=1e-6)


def test_star_energy_equals_minus_offset_sum():
    params = StarModelParams(8.0, 2.0, 7)
    bundle = star_model(params)
    terms = star_terms(bundle)
    n = bundle.n_qubits
    pauli_only = sum(local.coeff * word_matrix(local_word(local, n)) for local in terms.values())
    raw = solve_ground(pauli_only)
    offset = sum(local.offset for local in terms.values())
    assert raw.energy == pytest.approx(-offset, abs=1e-9)


def test_star_param_validation():
    with pytest.raises(ValueError):
        StarModelParams(1.0, 1.0, 1)
    StarModelParams(1.0, 1.0, MAX_STATEVECTOR_QUBITS)
    with pytest.raises(ValueError, match=f"{MAX_STATEVECTOR_QUBITS}-qubit statevector guard"):
        StarModelParams(1.0, 1.0, MAX_STATEVECTOR_QUBITS + 1)
    with pytest.raises(ValueError):
        StarModelParams(-1.0, 1.0, 6)
    # an int h or k beyond the float range is named, not overflowed
    for h, k in ((10**400, 1), (1, 10**400)):
        with pytest.raises(ValueError, match="h and k must be finite and positive"):
            MinimalModelParams(h, k)
        with pytest.raises(ValueError, match="h and k must be finite and positive"):
            StarModelParams(h, k, 6)
    # q is an integer: a float or a string of one is named, not solved
    for q in (3.5, 6.0, "6"):
        with pytest.raises(ValueError, match=f"q must be an integer, got {q!r}"):
            StarModelParams(9.0, 2.0, q)
    assert StarModelParams(9.0, 2.0, np.int64(6)).q == 6
    # numpy scalars, and an int h or k, are stored as Python floats and ints,
    # so a record's as_dict() is JSON
    for params in (StarModelParams(9.0, 2.0, np.int64(6)),
                   StarModelParams(np.float32(9.0), np.float32(2.0), 6),
                   MinimalModelParams(np.float32(9.0), 2)):
        assert list(map(type, params)) == [float, float, int][:len(params)]
        json.dumps(exact_record(star_model(params), (1,)).as_dict())


# --- star ground solve in the receivers' total-spin blocks -------------------

def _star_pauli_part(h, k, q):
    x0 = op_on("X", 0, q)
    pauli = sum(h * op_on("Z", i, q) for i in range(q))
    return pauli + sum(2 * k * x0 @ op_on("X", j, q) for j in range(1, q))


def _package_ground(h, k, q):
    """The ground level, gap and block vector of the package's solve: at
    q = 2 the closed form on floats that every q = 2 record runs."""
    if q > 2:
        return *_star_levels(h, k, q), _star_solve(h, k, q)[1]
    ground, gap, _ = qetsim.model._minimal_levels(h, k, _MATH)
    return ground, gap, np.ravel(qetsim.model._minimal_solve(h, k)[1])


def _check_against_dense_spectrum(h, k, q):
    pauli = _star_pauli_part(h, k, q)
    levels = np.linalg.eigvalsh(pauli)
    energy, gap, g = _package_ground(h, k, q)
    assert energy == pytest.approx(levels[0], abs=1e-10)
    assert gap == pytest.approx(levels[1] - levels[0], abs=1e-10)
    assert fidelity(dicke_embed(g), solve_ground(pauli).state) >= 1 - 1e-12


@pytest.mark.parametrize("q", range(2, 10))
def test_star_sectors_match_dense_spectrum(q):
    for h, k in ((1.0, 1.0), (9.0, 2.0), (3.0, 0.2), (6.0, 4.0), (2.0, 1.5)):
        _check_against_dense_spectrum(h, k, q)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    h=st.floats(1.0, 10.0),
    k=st.floats(0.1, 2.0),
    q=st.integers(2, 8),
)
def test_star_sectors_match_dense_spectrum_property(h, k, q):
    # on this box the gap stays above 1e-4, far from the degeneracy tolerance
    _check_against_dense_spectrum(h, k, q)


def test_star_sectors_q16_match_reduced_oracle():
    oracle = star_reduced_values(16, 7.0, 2.0)
    bundle = star_model(StarModelParams(7.0, 2.0, 16))
    assert _star_levels(7.0, 2.0, 16)[1] == pytest.approx(oracle["gap"], abs=1e-9)
    assert star_terms(bundle)["Z0"].offset == pytest.approx(oracle["E0"], abs=1e-9)
    angle = bundle.angle
    assert angle.xi == pytest.approx(oracle["xi"], abs=1e-9)
    assert angle.eta == pytest.approx(oracle["eta"], abs=1e-9)


def test_star_sectors_zero_field_is_degenerate():
    # h = 0: X0 = +1 with every receiver X = -1, and its mirror image, tie
    with pytest.raises(DegenerateGroundError):
        _star_solve(0.0, 1.0, 5)


def _dense_chains(h, k, d):
    """The two parity chains of `_chains`, dense, [..., p, n, n'] over the
    broadcast h and k."""
    h, k = np.broadcast_arrays(h, k)
    out = np.zeros(h.shape + (2, d + 1, d + 1))
    for i in np.ndindex(h.shape):
        diags, links = _chains(float(h[i]), float(k[i]), d)
        for p, diag in enumerate(diags):
            out[i + (p,)] = np.diag(diag) + np.diag(links, 1) + np.diag(links, -1)
    return out


def _is_degenerate(h, k, q):
    try:
        _star_solve(h, k, q)
    except DegenerateGroundError:
        return True
    return False


def test_lower_spin_blocks_lie_above_the_j_minus_1_block():
    # the gap reads only the top block's two chains and the J - 1 block
    # (d = q - 3); this checks the Lieb-Mattis ordering that relies on,
    # against every lower block, and that chain q % 2 holds the ground
    # wherever the gap passes the tolerance.  H is linear in (h, k), so h/k
    # alone sets the ordering
    h, k = np.logspace(-3, 3, 7), 1.0
    wide = np.logspace(-4.5, 4.5, 46)
    for q in range(3, 65):
        # a block's lowest level is the lower of its two chains' lowest
        lowest = [np.linalg.eigvalsh(_dense_chains(h, k, d))[..., 0].min(axis=-1)
                  for d in range(q - 3, -1, -2)]
        for d, level in zip(range(q - 5, -1, -2), lowest[1:]):
            assert np.all(level >= lowest[0]), (q, d)
        # so the solve fails exactly where the whole spectrum's gap is below
        # the tolerance
        vals = np.linalg.eigvalsh(_dense_chains(h, k, q - 1))
        spectrum = np.sort(np.hstack([vals.reshape(h.size, -1), np.transpose(lowest)]), axis=-1)
        gap = spectrum[:, 1] - spectrum[:, 0]
        degenerate = [_is_degenerate(float(x), k, q) for x in h]
        assert degenerate == list(gap < DEGENERACY_TOL * np.maximum(h, k)), q
        # chain q % 2 holds the ground at every point the degeneracy check passes
        chains = np.linalg.eigvalsh(_dense_chains(wide, k, q - 1))[..., 0]
        resolved = [not _is_degenerate(float(x), k, q) for x in wide]
        assert np.all(chains[resolved, q % 2] < chains[resolved, 1 - q % 2]), q


# (h, k) with h >> k, k >> h up to the degeneracy guard, and fields near the
# smallest normal float and near the largest the levels can hold
CLOSED_FORM_HK = [
    (1.0, 1.0), (9.0, 2.0), (2.0, 9.0), (1e6, 1.0), (1e12, 1.0), (1.0, 1e3), (1.0, 2e4),
    (3e-308, 3e-308), (3e-308, 6e-304), (3e-296, 3e-308),
    (1e300, 1e300), (1e300, 1e296), (1e296, 1e300), (1e300, 1e290),
]


def test_minimal_closed_form_matches_the_block_eigh():
    # the float path of every q = 2 record, point by point, against the eigh
    # of the d = 1 chains, the even one on {|00>, |11>}, the odd on {|01>, |10>}
    h, k = np.array(CLOSED_FORM_HK).T
    closed = [qetsim.model._minimal_levels(*p, _MATH) for p in CLOSED_FORM_HK]
    ground, gap = np.array([c[:2] for c in closed]).T
    solved = [qetsim.model._minimal_solve(*p) for p in CLOSED_FORM_HK]
    moments = GroundMoments(*np.array([m for m, _ in solved]).T)
    assert all(c[2] == m for c, (m, _) in zip(closed, solved))
    g = np.array([np.ravel(g) for _, g in solved])
    chain_levels, chain_vecs = np.linalg.eigh(_dense_chains(h, k, 1))
    order = np.argsort(chain_levels.reshape(h.size, -1), axis=-1)
    levels = np.take_along_axis(chain_levels.reshape(h.size, -1), order, axis=-1)
    scale = 1e-12 * np.maximum(h, k)
    assert np.all(order[:, 0] == 0)  # the all-down state's chain, q % 2 = 0
    assert np.all(np.abs(ground - levels[:, 0]) <= scale)
    assert np.all(np.abs(gap - (levels[:, 1] - levels[:, 0])) <= scale)
    # the same moments read from the eigenvector, weighted as in the offsets;
    # the even chain's n = 0, 1 are |00> and |11>, g[0][0] and g[1][1]
    v = np.zeros((h.size, 4))
    v[:, [0, 3]] = chain_vecs[:, 0, :, 0]
    z = v[:, 0] ** 2 - v[:, 3] ** 2
    xx = 2.0 * v[:, 0] * v[:, 3]
    for got, want in ((h * moments.z0, h * z), (h * moments.zj, h * z), (k * moments.xx, k * xx)):
        assert np.all(np.abs(got - want) <= scale)
    sign = np.sign(np.sum(g * v, axis=-1))[:, None]
    assert np.abs(g - sign * v).max() <= 1e-12


def test_star_model_never_builds_the_dense_matrix(monkeypatch):
    # the chains are solved on floats, by Sturm counts and inverse
    # iteration: no np.linalg call, and no matrix, q x q or 2^q x 2^q
    def no_linalg(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)):
            monkeypatch.setattr(np.linalg, name, no_linalg)
    bundle = star_model(StarModelParams(8.0, 2.0, 12))
    monkeypatch.undo()
    assert np.shape(bundle.g) == (2, 12)
    assert abs(expectation(star_ground(bundle), *star_terms(bundle).values())) < 1e-10


# --- feedback angle ----------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    h=st.floats(1.0, 10.0),
    k=st.floats(0.1, 2.0),
    q=st.integers(2, 8),
    data=st.data(),
)
def test_moments_match_dense_oracle_property(h, k, q, data):
    # offsets and the angle from the three block moments, against the dense
    # xi = <Y_j H Y_j> and eta = <X_0 i[H, Y_j]>; this pins the sign of eta
    j = data.draw(st.integers(1, q - 1), label="receiver")
    oracle = dense_star_angle(q, h, k, j)
    bundle = star_model(StarModelParams(h, k, q))
    for name, local in star_terms(bundle).items():
        assert local.offset == pytest.approx(oracle[name], abs=1e-10), name
    angle = bundle.angle
    for field in ("xi", "eta", "theta"):
        assert getattr(angle, field) == pytest.approx(oracle[field], abs=1e-10), field


def pass_curve(bundle, site, thetas):
    """Receiver `site`'s energy read off the package's pass for R = {site},
    each angle reached by turning the pass's feedback on by theta - theta*
    (rotations about Y_site compose)."""
    terms = star_terms(bundle)
    local = reduced_observable((0, site), terms[f"Z{site}"], terms[f"X{site}"])
    shifts = np.asarray(thetas) - bundle.angle.theta
    return pass_energy_curve(purification(run_protocol(bundle, (site,))), shifts, local)


@pytest.mark.parametrize("maker", [
    lambda: star_model(MinimalModelParams(1.0, 1.0)),
    lambda: star_model(StarModelParams(6.0, 2.0, 6)),
])
def test_theta_minimizes_receiver_energy_grid_scan(maker):
    bundle = maker()
    terms = star_terms(bundle)
    angle = bundle.angle
    thetas = np.arange(-np.pi / 2 + 1e-4, np.pi / 2 + 1e-9, 1e-4)
    measured = fed_ensemble(bundle, ())
    local = local_matrix(bundle.n_qubits, terms["Z1"], terms["X1"])
    energies = feedback_energy_curve(measured, 1, local, thetas)
    # the stacked dense curve is the protocol's own at 64 spread grid points
    probe = np.linspace(0, len(thetas) - 1, 64).astype(int)
    protocol_path = pass_curve(bundle, 1, thetas[probe])
    assert np.abs(energies[probe] - protocol_path).max() <= 1e-12
    e_closed = pass_curve(bundle, 1, [angle.theta])[0]
    assert e_closed <= energies.min() + 1e-12
    assert abs(angle.theta - thetas[np.argmin(energies)]) <= 1e-4


def test_theta_double_angle_identities():
    for params in (MinimalModelParams(1.0, 1.0), MinimalModelParams(9.0, 2.0)):
        bundle = star_model(params)
        a = bundle.angle
        norm = np.hypot(a.xi, a.eta)
        assert np.cos(2 * a.theta) == pytest.approx(a.xi / norm, abs=1e-10)
        assert np.sin(2 * a.theta) == pytest.approx(a.eta / norm, abs=1e-10)
        assert np.cos(2 * a.theta) ** 2 + np.sin(2 * a.theta) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert -np.pi / 2 < a.theta <= np.pi / 2


def test_theta_vanishes_when_decoupled():
    bundle = star_model(MinimalModelParams(1.0, 1e-7))
    angle = bundle.angle
    assert abs(angle.theta) < 1e-6


def test_theta_known_value_h_k_one():
    bundle = star_model(MinimalModelParams(1.0, 1.0))
    angle = bundle.angle
    assert angle.theta == pytest.approx(0.1608752771983211, abs=1e-12)
    assert angle.xi == pytest.approx(2 * 3 / np.sqrt(2), abs=1e-10)
    assert angle.eta == pytest.approx(2 / np.sqrt(2), abs=1e-10)

