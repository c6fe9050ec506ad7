"""Shot-based Monte Carlo estimation of the protocol observables.

A run is either a Z-run (terminal computational readout of the sender and
the receivers) or an X-run (a Hadamard on each of those sites first, so the
readout bits are X eigenvalues); the two never share shots because X and Z
do not commute.  The sampler does not measure or feed back itself: it reads
both runs' joint law of (mu, readout) from the pass array of the protocol
pass (`run_protocol`).  The tallies of N shots follow Multinomial(N, p)
over that law, so a run is one multinomial draw.  The exact cells are
`exact_record`'s closed forms.

Randomness is counter-based (numpy Philox keyed by master seed, model
parameters, receiver set and basis), so a run's tallies are a pure function
of that key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import Local, ModelBundle, ReceiverEnergy, StarModelParams, star_model
from .protocol import QetRecord, exact_record, pass_sites, run_protocol

_BASIS_CODES = {"Z": 0, "X": 1}
# The star family's tag in the Philox key; the minimal model keys as the q = 2
# star.
_FAMILY_CODE = 2
# Tallies are int64, so a basis run counts at most this many shots.
MAX_SHOTS = 2**63 - 1


def check_shots(shots: int) -> None:
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in 1..{MAX_SHOTS}")


@dataclass(frozen=True)
class ShotPlan:
    basis_run: str  # "Z" | "X"
    shots: int
    master_seed: int

    def __post_init__(self):
        if self.basis_run not in _BASIS_CODES:
            raise ValueError(f"basis_run must be 'Z' or 'X', got {self.basis_run!r}")
        check_shots(self.shots)


@dataclass(frozen=True, eq=False)
class SampleTallies:
    basis: str
    shots: int
    sites: tuple[int, ...]  # read out, sender first; outcome bits in this order
    joint: np.ndarray  # int64 occurrences of (mu, outcome); row 0 mu = +1, row 1 mu = -1


@dataclass(frozen=True)
class EstimateRow:
    observable: str
    mean: float
    stderr: float
    shots: int


def _float_bits(x: float) -> int:
    return int.from_bytes(np.float64(x).tobytes(), "little")


def _seed_key(bundle: ModelBundle, receivers: tuple[int, ...], plan: ShotPlan) -> list[int]:
    p = bundle.params
    return [
        plan.master_seed,
        _FAMILY_CODE,
        p.q,
        _float_bits(p.h),
        _float_bits(p.k),
        _BASIS_CODES[plan.basis_run],
        *receivers,
    ]


def readout_law(fed: np.ndarray, basis: str) -> np.ndarray:
    """Joint (mu, outcome) probabilities, shape (2, 2^n), of one basis run of
    a pass array fed[mu, m, outcome] over n read-out sites: the sum over the
    spectator m of fed^2, after one Hadamard on each site's axis in an
    X-run."""
    n = fed.shape[-1].bit_length() - 1
    if basis == "X":
        for i in range(n):
            x = fed.reshape(2, -1, 2, 2 ** (n - 1 - i))  # site i's bit on axis 2
            fed = np.stack([x[:, :, 0] + x[:, :, 1], x[:, :, 0] - x[:, :, 1]], axis=2)
        fed = fed.reshape(2, -1, 2**n) * 2.0 ** (-n / 2)
    return np.sum(fed**2, axis=1)


def sample_protocol(
    bundle: ModelBundle,
    fed: np.ndarray,
    receivers: tuple[int, ...],
    plan: ShotPlan,
) -> SampleTallies:
    """Tally `plan.shots` shots of one basis run of the pass array.

    `fed` is `run_protocol`'s array for `receivers`, which also key the
    Philox stream.  The tallies are one multinomial draw over the
    2 * 2^(|R|+1) cells of `readout_law`, so they are a pure function of the
    key, and time and memory do not grow with the shots.
    """
    sites = pass_sites(bundle, receivers)
    if fed.shape[::2] != (2, 2 ** len(sites)):
        raise ValueError(f"pass array of shape {fed.shape} does not read out sites {sites}")
    joint = readout_law(fed, plan.basis_run)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(_seed_key(bundle, receivers, plan)))
    )
    draws = rng.multinomial(plan.shots, joint.ravel() / joint.sum()).reshape(joint.shape)
    return SampleTallies(
        basis=plan.basis_run, shots=plan.shots, sites=sites, joint=draws,
    )


def estimate(tallies: SampleTallies, local: Local, label: str = "") -> EstimateRow:
    """Mean and standard error of a local term from one basis run.

    A shot reads offset + coeff when its bits on `local.sites` have even
    parity and offset - coeff when odd, so the mean is
    offset + coeff (N - 2 odd) / N.  The odd shots are counted on one
    reshape of the run's tallies that puts each site's bit on its own axis,
    summed over the other axes and over mu.  The mean is taken as the
    shot-weighted average of the two per-shot values, which does not cancel
    when the offset nearly balances the coefficient; stderr is their sample
    standard deviation divided by sqrt(N).
    """
    sites = tallies.sites
    if local.basis != tallies.basis or not set(local.sites) <= set(sites):
        raise ValueError(
            f"local {local.basis} on sites {local.sites} is not measurable from a "
            f"{tallies.basis}-run of sites {sites}"
        )
    # (rest, bit, rest, ..., bit, rest), sites in readout order; the joint
    # tallies' mu axis folds into the first rest
    shape, done = [2], 0
    for axis in sorted(sites.index(site) for site in local.sites):
        shape[-1] *= 2 ** (axis - done)
        shape += [2, 1]
        done = axis + 1
    shape[-1] *= 2 ** (len(sites) - done)
    view = tallies.joint.reshape(shape)
    # one slice sum per odd-parity setting of the bits: numpy reduces a slice
    # far faster than several strided axes at once
    odd = 0
    for bits in itertools.product((0, 1), repeat=len(local.sites)):
        if sum(bits) % 2:
            index = [slice(None)] * len(shape)
            index[1::2] = bits
            odd += int(view[tuple(index)].sum())
    n = tallies.shots
    even_value, odd_value = local.offset + local.coeff, local.offset - local.coeff
    mean = ((n - odd) * even_value + odd * odd_value) / n
    if n < 2:
        stderr = 0.0
    else:
        var = ((n - odd) * (even_value - mean) ** 2 + odd * (odd_value - mean) ** 2) / (n - 1)
        stderr = float(np.sqrt(var / n))
    return EstimateRow(observable=label, mean=float(mean), stderr=stderr, shots=n)


def sampled_record(
    bundle: ModelBundle,
    exact: QetRecord,
    fed: np.ndarray,
    shots: int,
    master_seed: int,
) -> QetRecord:
    """Shot-sampled analogue of the exact record, drawn from its pass.

    `exact` and `fed` are `exact_record`'s record and `run_protocol`'s
    array; the receivers and the angles are the exact record's.  E0
    comes from the Z-run estimator of the sender's field term (its
    post-measurement mean equals the injected energy); each receiver energy
    combines its Z-run and X-run terms with quadrature standard errors.
    """
    receivers = tuple(exact.receivers)
    z_tallies = sample_protocol(bundle, fed, receivers, ShotPlan("Z", shots, master_seed))
    x_tallies = sample_protocol(bundle, fed, receivers, ShotPlan("X", shots, master_seed))

    e0_row = estimate(z_tallies, bundle.locals[f"Z{bundle.sender_site}"], "E0")
    stderr = {"E0": e0_row.stderr}
    energies = {}
    for j in receivers:
        hz_row = estimate(z_tallies, bundle.locals[f"Z{j}"], f"HZ{j}")
        hx_row = estimate(x_tallies, bundle.locals[f"X{j}"], f"HX{j}")
        e_j = hx_row.mean + hz_row.mean
        energies[j] = ReceiverEnergy(hx=hx_row.mean, hz=hz_row.mean, e_j=e_j, e_b=-e_j)
        stderr[f"HZ{j}"] = hz_row.stderr
        stderr[f"HX{j}"] = hx_row.stderr
        stderr[f"E{j}"] = float(np.hypot(hx_row.stderr, hz_row.stderr))
    return QetRecord(
        model=bundle.params,
        e0=e0_row.mean,
        theta=exact.theta,
        receivers=energies,
        method="sampled",
        stderr=stderr,
    )


@dataclass(frozen=True)
class TableCell:
    tiling: str
    h: float
    k: float
    observable: str
    site: int
    method: str  # "exact" | "sampled"
    mean: float
    stderr: float | None
    shots: int | None
    seed: int | None


def _record_cells(record: QetRecord, tiling: str, shots, seed) -> list[TableCell]:
    p = record.model
    return [
        TableCell(
            tiling=tiling, h=p.h, k=p.k, observable=obs, site=site,
            method=record.method, mean=mean, stderr=record.stderr.get(obs),
            shots=shots, seed=seed,
        )
        for obs, site, mean in record.observables()
    ]


def estimate_table1(
    configs,
    shots: int,
    master_seed: int,
    methods: tuple[str, ...] = ("exact", "sampled"),
) -> list[TableCell]:
    """Exact and, if "sampled" is in `methods`, sampled values for every
    (tiling q, h, k) config.

    Row layout per config: E0, HX1, HZ1, E1, HX2, HZ2, E2 with receivers 1
    and 2 acting simultaneously.  Exact cells are always returned: the
    sampled cells are checked against them.
    """
    cells = []
    for (q, h, k) in configs:
        bundle = star_model(StarModelParams(h=float(h), k=float(k), q=int(q)))
        exact = exact_record(bundle, (1, 2))
        tiling = f"{{3,{q}}}"
        cells += _record_cells(exact, tiling, None, None)
        if "sampled" in methods:
            fed = run_protocol(bundle, (1, 2))
            sampled = sampled_record(bundle, exact, fed, shots, master_seed)
            cells += _record_cells(sampled, tiling, shots, master_seed)
    return cells


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".12g")
    value = str(x)
    if "," in value:
        value = f'"{value}"'
    return value


def cells_to_csv(cells: list[TableCell], extra_columns: dict[str, list] | None = None) -> str:
    """Long-format CSV: tiling,h,k,observable,site,method,mean,stderr,shots,seed."""
    header = ["tiling", "h", "k", "observable", "site", "method",
              "mean", "stderr", "shots", "seed"]
    extras = extra_columns or {}
    header += list(extras)
    lines = [",".join(header)]
    for i, c in enumerate(cells):
        row = [_fmt(c.tiling), _fmt(c.h), _fmt(c.k), c.observable, str(c.site),
               c.method, _fmt(c.mean), _fmt(c.stderr), _fmt(c.shots), _fmt(c.seed)]
        row += [_fmt(extras[name][i]) for name in extras]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
