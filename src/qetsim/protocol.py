"""The energy-teleportation pipeline run exactly on ensembles.

Stages: the sender's projective X0 measurement (which injects E0 on
average), the mu-conditional Y-rotation at each receiver, and the receiver
energy bookkeeping.  Receiver energies are generally negative; E_B = -E_j
is the amount a measurement device at the receiver extracts.

`run_protocol` is the one pass that measures and feeds back; the sampler
and the teleport relay start from the fed ensemble it returns.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .model import (
    FeedbackAngle,
    GroundSolution,
    MinimalModelParams,
    ModelBundle,
    ModelParams,
    StarModelParams,
    feedback_angle,
    star_model,
)
from .ops import (
    Branch,
    Ensemble,
    PauliString,
    expectation,
    conditional_rotation,
    projective_measure,
)


@dataclass(frozen=True)
class ReceiverEnergy:
    hx: float
    hz: float
    e_j: float
    e_b: float


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


def alice_measure(bundle: ModelBundle, ground: GroundSolution) -> tuple[Ensemble, float]:
    """Project the ground state on X0 = +-1; E0 is the mean injected energy."""
    sender = PauliString.from_map(bundle.n_qubits, {bundle.sender_site: "X"})
    ensemble = projective_measure(ground.state, sender)
    e0 = expectation(ensemble, bundle.total)
    return ensemble, e0


def apply_feedback(
    ensemble: Ensemble, receiver_site: int, angle: FeedbackAngle
) -> Ensemble:
    """Rotate each branch by U(mu) = cos(theta) I - i mu sin(theta) Y_j."""
    sigma = PauliString.from_map(ensemble.n_qubits, {receiver_site: "Y"})
    branches = []
    for b in ensemble.branches:
        if b.label not in (-1, +1):
            raise ValueError(f"branch label {b.label!r} is not a mu outcome")
        branches.append(
            Branch(
                b.probability,
                conditional_rotation(b.state, sigma, angle.theta, b.label),
                b.label,
            )
        )
    return Ensemble(tuple(branches))


def receiver_energy(
    ensemble: Ensemble, bundle: ModelBundle, receiver_site: int
) -> ReceiverEnergy:
    hx = expectation(ensemble, bundle.locals[f"X{receiver_site}"])
    hz = expectation(ensemble, bundle.locals[f"Z{receiver_site}"])
    e_j = hx + hz
    return ReceiverEnergy(hx=hx, hz=hz, e_j=e_j, e_b=-e_j)


def run_protocol(
    bundle: ModelBundle, ground: GroundSolution, receivers: tuple[int, ...]
) -> tuple[QetRecord, Ensemble]:
    """The one exact pass: X0 measurement, then each receiver's feedback.

    Returns the exact record and the fed (post-feedback) ensemble, from
    which the sampler reads its readout distributions and the relay starts.
    """
    if len(set(receivers)) != len(receivers):
        raise ValueError("duplicate receiver sites")
    for j in receivers:
        if j not in bundle.receiver_sites:
            raise ValueError(f"site {j} is not a receiver site of this model")
    ensemble, e0 = alice_measure(bundle, ground)
    angles = {j: feedback_angle(bundle, ground, j) for j in receivers}
    for j in receivers:
        ensemble = apply_feedback(ensemble, j, angles[j])
    energies = {j: receiver_energy(ensemble, bundle, j) for j in receivers}
    record = QetRecord(
        model=bundle.params,
        e0=e0,
        theta=angles,
        receivers=energies,
        method="exact",
    )
    return record, ensemble


def run_minimal_qet(params: MinimalModelParams) -> QetRecord:
    return run_protocol(*star_model(params), (1,))[0]


def run_qed(params: StarModelParams, receivers: tuple[int, ...]) -> QetRecord:
    """Distribute energy to several receivers at once.

    Feedback unitaries at distinct receivers commute, so each receiver's
    numbers equal its single-receiver run.
    """
    return run_protocol(*star_model(params), tuple(receivers))[0]


def sweep_EB(
    h_values,
    k_values,
    field_term_column: bool = False,
) -> SweepGrid:
    """Exact minimal-model E_B over an (h, k) grid.

    The extracted energy is -(<Z1> + <X1>); with field_term_column=True the
    -<Z1> column is also reported for comparison.
    """
    h_values = tuple(float(h) for h in h_values)
    k_values = tuple(float(k) for k in k_values)
    eb = np.zeros((len(h_values), len(k_values)))
    eb_field = np.zeros_like(eb) if field_term_column else None
    for i, h in enumerate(h_values):
        for j, k in enumerate(k_values):
            record = run_minimal_qet(MinimalModelParams(h=h, k=k))
            eb[i, j] = record.receivers[1].e_b
            if eb_field is not None:
                eb_field[i, j] = -record.receivers[1].hz
    return SweepGrid(
        h_values=h_values, k_values=k_values, e_b=eb, e_b_field_term=eb_field
    )
