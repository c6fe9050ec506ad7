"""The energy-teleportation protocol: exact records and the protocol pass.

Stages: the sender's projective X0 measurement (which injects E0 on
average), the mu-conditional Y-rotation at each receiver, and the receiver
energy bookkeeping.  Receiver energies are generally negative; E_B = -E_j
is the amount a measurement device at the receiver extracts.

Every exact number is a closed form in the ground moments
(`model.exact_energies`), for one model (`exact_record`) or a whole (h, k)
grid (`sweep_EB`).  The protocol pass, `run_protocol`, runs only for the
sampler and the teleport relay.  It acts on the only sites the protocol
touches, the sender and the receivers, through a purification of their
reduced state built from the block vector.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import (
    FeedbackAngle,
    MinimalModelParams,
    ModelBundle,
    ModelParams,
    ReceiverEnergy,
    StarModelParams,
    _check_hk,
    exact_energies,
    feedback_angle,
    star_block_ground,
    star_model,
)


@dataclass(frozen=True, eq=False)
class QetRecord:
    """Exact or sampled expectation values for one protocol run.

    The model's parameters supply the record's kind and params fields.
    """

    model: ModelParams
    e0: float
    theta: dict[int, FeedbackAngle]
    receivers: dict[int, ReceiverEnergy]
    method: str = "exact"
    stderr: dict[str, float] = field(default_factory=dict)

    def observables(self) -> list[tuple[str, int, float]]:
        """(observable, site, mean): E0, then HX, HZ and E of each receiver."""
        out = [("E0", 0, self.e0)]
        for j, r in sorted(self.receivers.items()):
            out += [(f"HX{j}", j, r.hx), (f"HZ{j}", j, r.hz), (f"E{j}", j, r.e_j)]
        return out

    def as_dict(self) -> dict:
        out = {
            "kind": self.model.kind,
            "params": asdict(self.model),
            "method": self.method,
            "E0": self.e0,
            "receivers": {
                str(j): {"HX": r.hx, "HZ": r.hz, "E_j": r.e_j, "E_B": r.e_b}
                for j, r in self.receivers.items()
            },
            "theta": {
                str(j): {"theta": a.theta, "xi": a.xi, "eta": a.eta}
                for j, a in self.theta.items()
            },
        }
        if self.stderr:
            out["stderr"] = dict(self.stderr)
        return out


@dataclass(frozen=True, eq=False)
class SweepGrid:
    h_values: tuple[float, ...]
    k_values: tuple[float, ...]
    e_b: np.ndarray  # shape (len(h_values), len(k_values))
    e_b_field_term: np.ndarray | None = None  # optional Z1-only bookkeeping


def _check_receivers(bundle: ModelBundle, receivers: tuple[int, ...]) -> None:
    if len(set(receivers)) != len(receivers):
        raise ValueError("duplicate receiver sites")
    for j in receivers:
        if j not in bundle.receiver_sites:
            raise ValueError(f"site {j} is not a receiver site of this model")


def exact_record(bundle: ModelBundle, receivers: tuple[int, ...]) -> QetRecord:
    """E0 and each receiver's angle and energies from the ground moments;
    every receiver reads the same numbers (see `run_qed`)."""
    _check_receivers(bundle, receivers)
    p = bundle.params
    e0, r = exact_energies(p.h, p.k, bundle.moments)
    energy = ReceiverEnergy(hx=float(r.hx), hz=float(r.hz), e_j=float(r.e_j), e_b=float(r.e_b))
    return QetRecord(
        model=p,
        e0=float(e0),
        theta={j: feedback_angle(bundle, j) for j in receivers},
        receivers={j: energy for j in receivers},
        method="exact",
    )


def pass_sites(bundle: ModelBundle, receivers: tuple[int, ...]) -> tuple[int, ...]:
    """The sites of `run_protocol`'s cells in bit order, most significant
    first: the sender, then the receivers in ascending order."""
    return (bundle.sender_site, *sorted(receivers))


def run_protocol(bundle: ModelBundle, receivers: tuple[int, ...]) -> np.ndarray:
    """The protocol pass on the sender plus the receivers R: X0 measurement,
    then each receiver's feedback.

    Returns the real array fed[mu, m, c] of shape (2, q - |R|, 2^(|R|+1)),
    a purification of the fed state of those sites: row mu (+1, then -1) is
    the unnormalized post-measurement branch, whose squared norm is p_mu.
    Cell c holds the bits of `pass_sites`; m, the number of ones among the
    other receivers, is a spectator that probabilities sum over.  The ground
    state's Dicke state with n ones splits into receiver bits b of weight
    |b| times the others' Dicke state with m = n - |b| ones, at
    sqrt(C(q - 1 - |R|, m) / C(q - 1, n)); then the projector
    (I + mu X0) / 2 and, at each receiver, the real rotation
    cos(theta) I - i mu sin(theta) Y = [[c, -mu s], [mu s, c]].
    """
    _check_receivers(bundle, receivers)
    q, r = bundle.n_qubits, len(receivers)
    others = q - 1 - r
    dicke = np.array([float(math.comb(q - 1, n)) for n in range(q)])
    rest = np.array([float(math.comb(others, m)) for m in range(others + 1)])
    w, m = np.ogrid[: r + 1, : others + 1]  # |b| and the others' ones
    by_weight = bundle.g[:, w + m] * np.sqrt(rest[m] / dicke[w + m])  # [s, |b|, m]
    ones = np.bitwise_count(np.arange(2**r))
    amp = by_weight[:, ones].transpose(2, 0, 1)  # [m, s, b]
    mu = np.array([1.0, -1.0]).reshape(2, 1, 1, 1)
    fed = 0.5 * (amp + mu * amp[:, ::-1])  # X0 swaps s
    for i, j in enumerate(pass_sites(bundle, receivers)[1:], start=1):
        theta = feedback_angle(bundle, j).theta
        c, s = np.cos(theta), mu[..., 0] * np.sin(theta)
        x = fed.reshape(2, -1, 2, 2 ** (r - i))  # receiver j's bit on axis 2
        fed = np.stack([c * x[:, :, 0] - s * x[:, :, 1], s * x[:, :, 0] + c * x[:, :, 1]], axis=2)
    return fed.reshape(2, others + 1, 2 ** (r + 1))


def run_minimal_qet(params: MinimalModelParams) -> QetRecord:
    return exact_record(star_model(params), (1,))


def run_qed(params: StarModelParams, receivers: tuple[int, ...]) -> QetRecord:
    """Distribute energy to several receivers at once.

    Feedback unitaries at distinct receivers commute, so each receiver's
    numbers equal its single-receiver run.
    """
    return exact_record(star_model(params), tuple(receivers))


def sweep_EB(
    h_values,
    k_values,
    field_term_column: bool = False,
) -> SweepGrid:
    """Exact minimal-model E_B over an (h, k) grid.

    The extracted energy is -(<Z1> + <X1>); with field_term_column=True the
    -<Z1> column is also reported for comparison.  A point is valid as
    MinimalModelParams exactly when its h and its k are each finite and
    positive, so each axis value is checked once; then the grid is one
    stacked q = 2 block solve.
    """
    h_values = tuple(float(h) for h in h_values)
    k_values = tuple(float(k) for k in k_values)
    for v in h_values + k_values:
        _check_hk(v, v)
    h_grid, k_grid = np.meshgrid(h_values, k_values, indexing="ij")
    *_, moments = star_block_ground(h_grid, k_grid, 2)
    _, energy = exact_energies(h_grid, k_grid, moments)
    return SweepGrid(
        h_values=h_values,
        k_values=k_values,
        e_b=energy.e_b,
        e_b_field_term=-energy.hz if field_term_column else None,
    )
