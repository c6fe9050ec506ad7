"""qetsim: exact and shot-sampled quantum energy teleportation/distribution
simulations on the 2-qubit minimal model and {3,q} star networks, with a
state-teleportation relay for long-range runs."""

from ._kernels import backend_name
from .model import (
    FeedbackAngle,
    GroundMoments,
    GroundSolution,
    MinimalModelParams,
    ModelBundle,
    StarModelParams,
    analytic_ground_minimal,
    feedback_angle,
    solve_ground,
    solve_star_ground,
    star_model,
)
from .ops import (
    Branch,
    DegenerateGroundError,
    Ensemble,
    ObservableSum,
    PauliString,
    StateVector,
    apply_pauli,
    conditional_rotation,
    expectation,
    projective_measure,
    to_dense,
)
from .protocol import (
    QetRecord,
    ReceiverEnergy,
    SweepGrid,
    alice_measure,
    apply_feedback,
    receiver_energy,
    run_minimal_qet,
    run_protocol,
    run_qed,
    sweep_EB,
)
from .sampler import (
    EstimateRow,
    ShotPlan,
    estimate,
    estimate_table1,
    sample_protocol,
    sampled_record,
)
from .teleport import (
    LoccTranscript,
    extend_with_bell,
    relay_identity_check,
    run_longrange_qet,
    teleport_qubit,
)
from .tiling import TilingGraph, TilingSpec, classify, generate, ring_sizes, unit_star

__version__ = "0.1.0"
