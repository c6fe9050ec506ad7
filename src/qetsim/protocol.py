"""The energy-teleportation protocol: exact records and the statevector pass.

Stages: the sender's projective X0 measurement (which injects E0 on
average), the mu-conditional Y-rotation at each receiver, and the receiver
energy bookkeeping.  Receiver energies are generally negative; E_B = -E_j
is the amount a measurement device at the receiver extracts.

Every exact number is a closed form in the ground moments
(`model.exact_energies`), for one model (`exact_record`) or a whole (h, k)
grid (`sweep_EB`).  The statevector pass, `run_protocol`, runs only for the
sampler and the teleport relay, which start from its fed ensemble.
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
    ReceiverEnergy,
    StarModelParams,
    exact_energies,
    feedback_angle,
    star_block_ground,
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


def run_protocol(
    bundle: ModelBundle, ground: GroundSolution, receivers: tuple[int, ...]
) -> Ensemble:
    """The statevector pass: X0 measurement, then each receiver's feedback.

    Returns the fed (post-feedback) ensemble, from which the sampler reads
    its readout distributions and the relay starts.
    """
    _check_receivers(bundle, receivers)
    ensemble, _ = alice_measure(bundle, ground)
    for j in receivers:
        ensemble = apply_feedback(ensemble, j, feedback_angle(bundle, j))
    return ensemble


def run_minimal_qet(params: MinimalModelParams) -> QetRecord:
    return exact_record(star_model(params)[0], (1,))


def run_qed(params: StarModelParams, receivers: tuple[int, ...]) -> QetRecord:
    """Distribute energy to several receivers at once.

    Feedback unitaries at distinct receivers commute, so each receiver's
    numbers equal its single-receiver run.
    """
    return exact_record(star_model(params)[0], tuple(receivers))


def sweep_EB(
    h_values,
    k_values,
    field_term_column: bool = False,
) -> SweepGrid:
    """Exact minimal-model E_B over an (h, k) grid.

    The extracted energy is -(<Z1> + <X1>); with field_term_column=True the
    -<Z1> column is also reported for comparison.  Each point is validated
    as MinimalModelParams, then the grid is one stacked q = 2 block solve.
    """
    h_values = tuple(float(h) for h in h_values)
    k_values = tuple(float(k) for k in k_values)
    for h in h_values:
        for k in k_values:
            MinimalModelParams(h=h, k=k)
    h_grid, k_grid = np.meshgrid(h_values, k_values, indexing="ij")
    *_, moments = star_block_ground(h_grid, k_grid, 2)
    _, energy = exact_energies(h_grid, k_grid, moments)
    return SweepGrid(
        h_values=h_values,
        k_values=k_values,
        e_b=energy.e_b,
        e_b_field_term=-energy.hz if field_term_column else None,
    )
