"""The energy-teleportation protocol: exact records and the protocol pass.

Stages: the sender's projective X0 measurement (which injects E0 on
average), the mu-conditional Y-rotation at each receiver, and the receiver
energy bookkeeping.  Receiver energies are generally negative; E_B = -E_j
is the amount a measurement device at the receiver extracts.

Every exact number is a closed form in the ground moments
(`model.exact_energies`), formed once per model into its bundle and read off
it by `exact_record`, or over an (h, k) grid, streamed chunk by chunk once
its corners pass (`sweep_EB`).  The protocol pass, `run_protocol`, runs only
for the sampler, both basis runs of a whole stack of models at once.  It
acts on the only sites the protocol touches, the sender and the receivers,
built from the block vector: the receivers as Dicke states, turned by one
composed rotation per run, and the sender factored out.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._kernels import np
from .model import FeedbackAngle, ModelBundle, ModelParams, ReceiverEnergy, _check_hk, _minimal_eb

# Grid points per vectorized ground solve in `sweep_EB`
SWEEP_CHUNK_POINTS = 1 << 16


class QetRecord(NamedTuple):
    """Exact or sampled expectation values for one protocol run.

    The model's parameters supply the record's kind and params fields, and
    the one feedback angle is every receiver's; an exact record's stderr is {}.
    """

    model: ModelParams
    e0: float
    angle: FeedbackAngle
    receivers: dict[int, ReceiverEnergy]
    method: str
    stderr: dict[str, float]

    def observables(self) -> list[tuple[str, int, float]]:
        """(observable, site, mean): E0, then HX, HZ and E of each receiver."""
        out = [("E0", 0, self.e0)]
        for j, r in sorted(self.receivers.items()):
            out += [(f"HX{j}", j, r.hx), (f"HZ{j}", j, r.hz), (f"E{j}", j, r.e_j)]
        return out

    def as_dict(self) -> dict:
        out = {
            "kind": self.model.kind,
            "params": self.model._asdict(),
            "method": self.method,
            "E0": self.e0,
            "receivers": {
                str(j): {"HX": r.hx, "HZ": r.hz, "E_j": r.e_j, "E_B": r.e_b}
                for j, r in self.receivers.items()
            },
            "theta": {str(j): self.angle._asdict() for j in self.receivers},
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
    """E0, the angle and every receiver's energies, as the bundle holds them:
    feedback at distinct receivers commutes, so each reads its lone run's."""
    _check_receivers(bundle, receivers)
    return QetRecord(model=bundle.params, e0=bundle.e0, angle=bundle.angle,
                     receivers={j: bundle.energy for j in receivers}, method="exact", stderr={})


def dicke_rotation(r: int, c, s) -> np.ndarray:
    """<D_v| U^(x r) |D_w>, U = [[c, -s], [s, c]], on the r-qubit Dicke states,
    stacked over the broadcast shape of c and s, built one qubit n at a time
    from |D_w> = a_w |D_w>|0> + b_w |D_{w-1}>|1>, a_w = sqrt((n - w)/n), b_w = sqrt(w/n)."""
    c, s = (np.asarray(x, float)[..., None, None] for x in np.broadcast_arrays(c, s))
    root = np.sqrt(np.arange(r + 1) / np.arange(1, r + 1)[:, None])  # [n - 1, w]: sqrt(w/n)
    m = np.ones(c.shape)
    for n in range(1, r + 1):
        a, b = root[n - 1, n::-1], root[n - 1, : n + 1]
        pad = np.zeros(c.shape[:-2] + (n + 2, n + 2))
        pad[..., 1:-1, 1:-1] = m  # M[v - 1, w - 1] at [v, w]
        m = (a[:, None] * (c * a * pad[..., 1:, 1:] - s * b * pad[..., 1:, :-1])
             + b[:, None] * (c * b * pad[..., :-1, :-1] + s * a * pad[..., :-1, 1:]))
    return m


def run_protocol(bundle: ModelBundle | list[ModelBundle], receivers: tuple[int, ...]) -> np.ndarray:
    """The protocol pass on the sender plus the receivers R, both basis runs
    at once; a list of bundles, of any q, gives their arrays stacked along a
    leading axis, the spectator axis padded with zeros to the longest.

    Returns the real array runs[basis, mu, m, w] of shape
    (2, 2, q - |R|, |R| + 1), basis Z then X, mu +1 then -1: the unnormalized
    post-measurement branch mu as its run reads it out.  w is the receivers'
    Dicke state with w ones (each string of weight w has amplitude
    runs / sqrt(C(|R|, w))), m, the other receivers' ones, a spectator that
    probabilities sum over.  The sender is factored out: after X0 reads mu it
    holds (1, mu), so fed = runs[Z] (x) (1, mu) purifies the fed state, and
    an X-run's Hadamard leaves sqrt(2) on its bit (1 - mu) / 2 alone.  The
    ground state's Dicke state with n ones splits into |D_w> |D_m>, m = n - w,
    at sqrt(C(|R|, w) C(q - 1 - |R|, m) / C(q - 1, n)), a ratio of integers;
    then the projector (I + mu X0) / 2, and at each receiver the Z-run's
    R(mu theta) = cos(theta) I - i mu sin(theta) Y, or the X-run's
    H R(mu theta) = R(pi/4 - mu theta) Z, one Dicke matrix per run.
    """
    stack = [bundle] if isinstance(bundle, ModelBundle) else bundle
    if not stack:
        raise ValueError("run_protocol: bundle is an empty stack")
    # the smallest q bounds every bundle's receiver sites
    _check_receivers(min(stack, key=lambda b: b.n_qubits), receivers)
    r, qs = len(receivers), sorted({b.n_qubits for b in stack})
    size = qs[-1] - r  # the spectator axis
    split = np.sqrt([[[math.comb(r, w) * math.comb(q - 1 - r, m) / math.comb(q - 1, w + m)
                       if m < q - r else 0.0 for w in range(r + 1)] for m in range(size)]
                     for q in qs])
    g = np.array([[gs + (0.0,) * (size + r - len(gs)) for gs in b.g] for b in stack])
    m, w = np.arange(size)[:, None], np.arange(r + 1)
    amp = g[:, :, m + w] * split[[qs.index(b.n_qubits) for b in stack], None]  # [., s, m, w]
    mu = np.array([1.0, -1.0])
    branch = 0.5 * (amp[:, None, 0] + mu[:, None, None] * amp[:, None, 1])  # X0 reads mu
    theta = np.array([[b.angle.theta] for b in stack])
    c, s = np.cos(theta).repeat(2, axis=1), mu * np.sin(theta)  # R(mu theta), [., mu]
    half = math.sqrt(0.5)  # R(pi/4 - mu theta) by the angle-difference formulas
    turn = dicke_rotation(r, np.stack([c, (c + s) * half], 1), np.stack([s, (c - s) * half], 1))
    read = np.stack([branch, branch * (-1.0) ** w], axis=1)  # [., basis, mu, m, w]
    # each amplitude sums its |R| + 1 terms in one order, whatever the stack
    runs = np.sum(read[..., None, :] * turn[:, :, :, None], axis=-1)
    return runs[0] if isinstance(bundle, ModelBundle) else runs


def sweep_EB(h_values, k_values, field_term: bool = False):
    """Exact minimal-model E_B over an (h, k) grid, and with field_term its
    field term -HZ_1, as an iterator of chunks (h, k, columns) in grid order:
    h and k are slices of the axes, and columns holds those energies on
    them, each of shape (len(h), len(k)) (`model._minimal_eb`).  A chunk is
    max(1, SWEEP_CHUNK_POINTS // len(k_values)) whole rows, or, when a row
    is longer than SWEEP_CHUNK_POINTS, that many of one row's k values.

    A point is valid as MinimalModelParams exactly when its h and its k are
    each finite and positive, so the grid is checked at the smallest and the
    largest of its axis values (a NaN anywhere is both).  Its four corners,
    those extremes paired, are then solved at once, and they decide every
    failure of the grid: h/k peaks at (h_max, k_min), the relative gap
    2h^2 / ((r + k) max(h, k)) is smallest at (h_min, k_max), and every step
    that can overflow grows with h and k.  So a grid raises here, before the
    first chunk, or not at all (an overflow under `cli.cmd_sweep`'s errstate);
    each chunk is still checked as it is solved.
    """
    h_values, k_values = np.asarray(h_values, float), np.asarray(k_values, float)
    for name, axis in (("h_values", h_values), ("k_values", k_values)):
        if axis.ndim != 1:
            raise ValueError(f"sweep_EB: {name} is not a 1-D axis (shape {axis.shape})")
        if not axis.size:
            raise ValueError(f"sweep_EB: {name} is empty")
    extremes = np.array([(axis.min(), axis.max()) for axis in (h_values, k_values)])
    _check_hk(extremes.min(), extremes.max())
    _minimal_eb(extremes[0, [0, 0, 1, 1]], extremes[1, [0, 1, 0, 1]], field_term)  # the corners
    rows, step = max(1, SWEEP_CHUNK_POINTS // k_values.size), SWEEP_CHUNK_POINTS
    spans = ((h_values[i:i + rows], k_values[j:j + step])
             for i in range(0, h_values.size, rows) for j in range(0, k_values.size, step))
    return ((h, k, _minimal_eb(h[:, None], k, field_term)) for h, k in spans)
