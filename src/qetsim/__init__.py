"""qetsim: exact and shot-sampled quantum energy teleportation/distribution
simulations on the 2-qubit minimal model and {3,q} star networks, with a
state-teleportation relay for long-range runs."""

from ._kernels import backend_name
from .model import (
    FeedbackAngle,
    GroundMoments,
    IllConditionedError,
    MinimalModelParams,
    ModelBundle,
    StarModelParams,
    ReceiverEnergy,
    exact_energies,
    star_model,
    star_models,
)
from .ops import DegenerateGroundError
from .protocol import QetRecord, exact_record, run_protocol, sweep_EB
from .sampler import (
    ShotPlan,
    estimate,
    sample_protocol,
    sampled_record,
)
from .teleport import LoccTranscript, run_longrange_qet
from .tiling import classify, generate, ring_sizes

__version__ = "0.1.0"
