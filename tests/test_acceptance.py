"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion report
lines; tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from oracle_utils import (
    analytic_ground_minimal,
    ensemble_expectation,
    expectation,
    fed_ensemble,
    feedback_energy_curve,
    fidelity,
    local_matrix,
    pass_energy_curve,
    reduced_observable,
    relay_identity_check,
    ring_counts_recurrence,
    star_ground,
    star_terms,
)
from test_protocol import sweep_grid
from test_tiling import bfs_layer_sizes

from qetsim import refdata
from qetsim.model import (
    MinimalModelParams,
    StarModelParams,
    star_model,
)
from qetsim.protocol import exact_record, run_protocol
from qetsim.sampler import sampled_record
from qetsim.teleport import run_longrange_qet
from qetsim.tiling import generate

MINIMAL_GRID = [(h, k) for h in (2.0, 4.0, 6.0, 8.0, 9.0) for k in (1.0, 2.0, 3.0, 4.0, 5.0)]
TABLE_SHOTS = 1_000_000
TABLE_SEED = 20230917

_cache: dict = {}


def table_cells():
    """(q, h, k) -> (exact, sampled) records of the reference table's
    configs, receivers 1 and 2, at TABLE_SHOTS and TABLE_SEED."""
    if "cells" not in _cache:
        t0 = time.perf_counter()
        cells = {}
        for q, h, k in refdata.CONFIGS:
            bundle = star_model(StarModelParams(float(h), float(k), q))
            fed = run_protocol(bundle, (1, 2))
            cells[(q, h, k)] = (
                exact_record(bundle, (1, 2)),
                sampled_record(bundle, fed, (1, 2), TABLE_SHOTS, TABLE_SEED),
            )
        _cache["cells"] = cells
        _cache["elapsed"] = time.perf_counter() - t0
    return _cache["cells"]


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_ground_state_zero_mean_suite():
    t0 = time.perf_counter()
    worst = 0.0
    bundles = [star_model(MinimalModelParams(h, k)) for h, k in MINIMAL_GRID]
    bundles += [star_model(StarModelParams(float(h), float(k), q)) for q, h, k in refdata.CONFIGS]
    for bundle in bundles:
        ground = star_ground(bundle)
        # each local, and the total: their sum
        means = [expectation(ground, local) for local in star_terms(bundle).values()]
        worst = max(worst, abs(sum(means)), *map(abs, means))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _report(1, "ground-state zero-mean suite", ok,
            f"worst |<local>| = {worst:.2e} (< 1e-10), runtime {elapsed:.2f}s (< 5s)")


def test_criterion_02_analytic_ground_oracle():
    worst = 1.0
    for h, k in MINIMAL_GRID:
        params = MinimalModelParams(h, k)
        ground = star_ground(star_model(params))
        worst = min(worst, fidelity(ground, analytic_ground_minimal(params)))
    ok = worst >= 1 - 1e-10
    _report(2, "closed-form ground-state fidelity", ok,
            f"min fidelity = 1 - {1 - worst:.2e} (>= 1 - 1e-10)")


def test_criterion_03_injected_energy_formula():
    worst = 0.0
    for h, k in MINIMAL_GRID:
        params = MinimalModelParams(h, k)
        bundle = star_model(params)
        # the dense oracle's measured ensemble and the closed-form record
        for e0 in (ensemble_expectation(fed_ensemble(bundle, ()), *star_terms(bundle).values()),
                   exact_record(star_model(params), (1,)).e0):
            worst = max(worst, abs(e0 - h * h / np.hypot(h, k)))
    ok = worst < 1e-10
    _report(3, "sender energy h^2/sqrt(h^2+k^2)", ok,
            f"worst |E0 - formula| = {worst:.2e} (< 1e-10)")


def test_criterion_04_reference_table_exact():
    t0 = time.perf_counter()
    failures = []
    worst_ratio = 0.0
    n_cells = 0
    for (q, h, k), row in refdata.REFERENCE_TABLE.items():
        record = exact_record(star_model(StarModelParams(float(h), float(k), q)), (1, 2))
        values = {
            "E0": record.e0,
            "HX1": record.receivers[1].hx, "HZ1": record.receivers[1].hz,
            "E1": record.receivers[1].e_j,
            "HX2": record.receivers[2].hx, "HZ2": record.receivers[2].hz,
            "E2": record.receivers[2].e_j,
        }
        for obs, (ref_mean, ref_err) in row.items():
            n_cells += 1
            tol = refdata.exact_tolerance(ref_err)
            delta = abs(values[obs] - ref_mean)
            worst_ratio = max(worst_ratio, delta / tol)
            if delta > tol:
                failures.append((q, h, k, obs, delta, tol))
    elapsed = time.perf_counter() - t0
    ok = not failures and n_cells == 84 and elapsed < 60.0
    _report(4, "reference-table central values (exact)", ok,
            f"{n_cells - len(failures)}/{n_cells} cells within max(4*stderr, 0.03), "
            f"worst |delta|/tol = {worst_ratio:.2f}, runtime {elapsed:.1f}s (< 60s)"
            + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_05_reference_table_sampled():
    failures = []
    worst = 0.0
    n = 0
    for (q, h, k), (exact, sampled) in table_cells().items():
        for (obs, _, mean), (_, _, want) in zip(sampled.observables(), exact.observables()):
            n += 1
            stderr = sampled.stderr[obs]
            delta = abs(mean - want)
            sigma_ratio = delta / stderr if stderr > 0 else 0.0
            worst = max(worst, sigma_ratio)
            if delta > 5 * stderr:
                failures.append((q, h, k, obs, sigma_ratio))
    elapsed = _cache["elapsed"]
    ok = not failures and n == 84 and elapsed < 600.0
    _report(5, f"reference-table sampled at {TABLE_SHOTS} shots", ok,
            f"{n - len(failures)}/{n} cells within 5 stderr of exact, "
            f"worst = {worst:.2f} stderr, runtime {elapsed:.1f}s (target < 600s)"
            + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_06_receiver_independence():
    worst_exact = 0.0
    for q, h, k in refdata.CONFIGS:
        params = StarModelParams(float(h), float(k), q)
        solo = exact_record(star_model(params), (1,)).receivers[1]
        both = exact_record(star_model(params), (1, 2)).receivers[1]
        for field in ("hx", "hz", "e_j"):
            worst_exact = max(worst_exact, abs(getattr(solo, field) - getattr(both, field)))
    worst_sigma = 0.0
    for _, sampled in table_cells().values():
        mean = {obs: value for obs, _, value in sampled.observables()}
        for a, b in (("HX1", "HX2"), ("HZ1", "HZ2"), ("E1", "E2")):
            sigma = np.hypot(sampled.stderr[a], sampled.stderr[b])
            worst_sigma = max(worst_sigma, abs(mean[a] - mean[b]) / sigma)
    ok = worst_exact < 1e-10 and worst_sigma < 5.0
    _report(6, "receiver independence", ok,
            f"exact site-1 shift with/without site 2: {worst_exact:.2e} (< 1e-10); "
            f"sampled site-1 vs site-2: worst {worst_sigma:.2f} stderr (< 5)")


def test_criterion_07_long_range_equivalence():
    worst_field = 0.0
    for h in (1.0, 2.0, 4.0):
        for k in (0.5, 1.0, 2.0):
            params = MinimalModelParams(h, k)
            local = exact_record(star_model(params), (1,))
            for hops in (1, 2, 3):
                # the record is the closed form; delta is the relay's branch
                # check residual, how far its corrected branches are from c_b I
                record, transcript, delta = run_longrange_qet(params, hops)
                assert record.as_dict() == local.as_dict()
                worst_field = max(worst_field, delta)
                assert transcript.bit_count() == 1 + 2 * hops
    panel_td = max(relay_identity_check(1), relay_identity_check(5, panel_size=100))
    ok = worst_field < 1e-10 and panel_td <= 1e-12
    _report(7, "relay equals local run", ok,
            f"worst branch-check residual = {worst_field:.2e} (< 1e-10); "
            f"identity-panel trace distance = {panel_td:.2e} (<= 1e-12; inf if the bits differ)")


def _pass_energies(bundle, site, thetas):
    """Receiver `site`'s energy read off the package's pass for R = {site},
    turned from theta* to each angle (rotations about Y_site compose)."""
    terms = star_terms(bundle)
    local = reduced_observable((0, site), terms[f"Z{site}"], terms[f"X{site}"])
    shifts = np.asarray(thetas) - bundle.angle.theta
    return pass_energy_curve(run_protocol(bundle, (site,)), shifts, local)


def test_criterion_08_theta_beats_grid_scan():
    spacing = 2e-4
    grid = np.arange(-np.pi / 2 + spacing, np.pi / 2 + 1e-12, spacing)
    details = []
    ok = True
    for label, bundle in (
        ("minimal(1,1)", star_model(MinimalModelParams(1.0, 1.0))),
        ("star(q=6,9,2)", star_model(StarModelParams(9.0, 2.0, 6))),
    ):
        measured = fed_ensemble(bundle, ())
        angle = bundle.angle
        terms = star_terms(bundle)
        local = local_matrix(bundle.n_qubits, terms["Z1"], terms["X1"])
        energies = feedback_energy_curve(measured, 1, local, grid)
        # the stacked dense curve is the protocol's own at 64 spread grid points
        probe = np.linspace(0, len(grid) - 1, 64).astype(int)
        protocol_path = _pass_energies(bundle, 1, grid[probe])
        ok = ok and np.abs(energies[probe] - protocol_path).max() <= 1e-12
        e_closed = _pass_energies(bundle, 1, [angle.theta])[0]
        best = energies.min()
        ok = ok and e_closed <= best + 1e-12 and abs(angle.theta - grid[np.argmin(energies)]) <= spacing
        details.append(
            f"{label}: E(theta*) = {e_closed:.6f} <= grid min {best:.6f} "
            f"({len(grid)} points at 2e-4)"
        )
    _report(8, "closed-form angle is the grid-scan minimizer", ok, "; ".join(details))


def test_criterion_09_energy_splits_consistently():
    worst_exact = 0.0
    for exact, _ in table_cells().values():
        mean = {obs: value for obs, _, value in exact.observables()}
        for site in (1, 2):
            split = mean[f"HX{site}"] + mean[f"HZ{site}"]
            worst_exact = max(worst_exact, abs(mean[f"E{site}"] - split))
    # the reference rows were rounded to 1e-4, so their split holds to ~2e-4
    worst_ref = max(
        abs(row[f"E{site}"][0] - (row[f"HX{site}"][0] + row[f"HZ{site}"][0]))
        for row in refdata.REFERENCE_TABLE.values()
        for site in (1, 2)
    )
    ok = worst_exact < 1e-10 and worst_ref <= 2e-4
    _report(9, "E_j = HX_j + HZ_j", ok,
            f"exact residual {worst_exact:.2e} (< 1e-10); "
            f"reference-table rounding residual {worst_ref:.1e} (<= 2e-4)")


def test_criterion_10_tiling_growth_and_sweep_properties():
    hexagonal = bfs_layer_sizes(generate(6, 6))
    ok = hexagonal == [1] + [6 * d for d in range(1, 7)]
    detail = [f"{{3,6}} rings = 6d exactly: {ok}"]
    for q in (7, 10):
        got = bfs_layer_sizes(generate(q, 6))
        want = ring_counts_recurrence(q, 6)
        match = got == want
        ratios = [got[d + 1] / got[d] for d in range(2, 6)]
        growing = all(r > 1.5 for r in ratios)
        ok = ok and match and growing
        detail.append(
            f"{{3,{q}}} depth-6 counts match brute force: {match}, "
            f"ring ratios beyond d=2 all > 1.5: {growing}"
        )
    (grid1,) = sweep_grid([0.5, 1.0, 2.0], [1e-6, 0.5, 1.0, 2.0])
    (grid2,) = sweep_grid([0.5, 1.0, 2.0], [1e-6, 0.5, 1.0, 2.0])
    nonneg = bool((grid1 >= -1e-10).all())
    vanishing = bool((grid1[:, 0] < 1e-10).all())
    deterministic = bool(np.array_equal(grid1, grid2))
    ok = ok and nonneg and vanishing and deterministic
    detail.append(
        f"sweep: E_B >= 0: {nonneg}, k->0 column -> 0: {vanishing}, "
        f"deterministic: {deterministic}"
    )
    _report(10, "tiling growth dichotomy and sweep properties", ok, "; ".join(detail))
