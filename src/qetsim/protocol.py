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
    ModelBundle,
    ModelParams,
    ReceiverEnergy,
    _check_hk,
    exact_energies,
    star_block_ground,
)

# Grid points per stacked block solve in `sweep_EB`
SWEEP_CHUNK_POINTS = 1 << 16


@dataclass(frozen=True, eq=False)
class QetRecord:
    """Exact or sampled expectation values for one protocol run.

    The model's parameters supply the record's kind and params fields; the
    one feedback angle is every receiver's.
    """

    model: ModelParams
    e0: float
    angle: FeedbackAngle
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
            "theta": {str(j): asdict(self.angle) for j in self.receivers},
        }
        if self.stderr:
            out["stderr"] = dict(self.stderr)
        return out


def _check_receivers(bundle: ModelBundle, receivers: tuple[int, ...]) -> None:
    if len(set(receivers)) != len(receivers):
        raise ValueError("duplicate receiver sites")
    for j in receivers:
        if not 1 <= j < bundle.n_qubits:
            raise ValueError(f"site {j} is not a receiver site of this model")


def exact_record(bundle: ModelBundle, receivers: tuple[int, ...]) -> QetRecord:
    """E0 and each receiver's angle and energies from the ground moments.

    Feedback unitaries at distinct receivers commute, so every receiver
    reads the same numbers as its single-receiver run.
    """
    _check_receivers(bundle, receivers)
    p = bundle.params
    e0, r = exact_energies(p.h, p.k, bundle.moments)
    energy = ReceiverEnergy(hx=float(r.hx), hz=float(r.hz), e_j=float(r.e_j), e_b=float(r.e_b))
    return QetRecord(
        model=p,
        e0=float(e0),
        angle=bundle.angle,
        receivers={j: energy for j in receivers},
        method="exact",
    )


def pass_sites(receivers: tuple[int, ...]) -> tuple[int, ...]:
    """The sites of `run_protocol`'s cells in bit order, most significant
    first: the sender, then the receivers in ascending order."""
    return (0, *sorted(receivers))


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
    theta = bundle.angle.theta
    c, s = np.cos(theta), mu[..., 0] * np.sin(theta)
    for i in range(1, r + 1):
        x = fed.reshape(2, -1, 2, 2 ** (r - i))  # the i-th receiver's bit on axis 2
        fed = np.stack([c * x[:, :, 0] - s * x[:, :, 1], s * x[:, :, 0] + c * x[:, :, 1]], axis=2)
    return fed.reshape(2, others + 1, 2 ** (r + 1))


def sweep_EB(h_values, k_values) -> ReceiverEnergy:
    """Exact minimal-model receiver energies over an (h, k) grid, each field
    an array of shape (len(h_values), len(k_values)); E_B = -(<Z1> + <X1>).

    A point is valid as MinimalModelParams exactly when its h and its k are
    each finite and positive, so each axis value is checked once.  The
    flattened grid is then solved as stacked q = 2 block solves of at most
    SWEEP_CHUNK_POINTS points each, so the working memory stays bounded as
    the grid grows; a failing chunk's error names that chunk's points.
    """
    h_values = np.array([float(h) for h in h_values])
    k_values = np.array([float(k) for k in k_values])
    for name, axis in (("h_values", h_values), ("k_values", k_values)):
        if not axis.size:
            raise ValueError(f"sweep_EB: {name} is empty")
    for v in (*h_values, *k_values):
        _check_hk(v, v)
    shape = (h_values.size, k_values.size)
    out = np.empty((4, shape[0] * shape[1]))
    for start in range(0, out.shape[1], SWEEP_CHUNK_POINTS):
        stop = min(start + SWEEP_CHUNK_POINTS, out.shape[1])
        i, j = np.divmod(np.arange(start, stop), shape[1])
        h, k = h_values[i], k_values[j]
        *_, moments = star_block_ground(h, k, 2)
        e = exact_energies(h, k, moments)[1]
        out[:, start:stop] = e.hx, e.hz, e.e_j, e.e_b
    return ReceiverEnergy(*out.reshape(4, *shape))
