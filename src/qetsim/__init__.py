"""qetsim: exact and shot-sampled quantum energy teleportation/distribution
simulations on the 2-qubit minimal model and {3,q} star networks, with a
state-teleportation relay for long-range runs."""

from ._kernels import backend_name
from .model import (
    FeedbackAngle,
    GroundMoments,
    IllConditionedError,
    Local,
    MinimalModelParams,
    ModelBundle,
    StarModelParams,
    ReceiverEnergy,
    exact_energies,
    feedback_angle,
    star_block_ground,
    star_model,
)
from .ops import DegenerateGroundError
from .protocol import (
    QetRecord,
    SweepGrid,
    exact_record,
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
from .teleport import LoccTranscript, relay_identity_check, run_longrange_qet
from .tiling import TilingGraph, TilingSpec, classify, generate, ring_sizes, unit_star

__version__ = "0.1.0"
