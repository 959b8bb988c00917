"""Exact spin-1 pentagram algebra and a stochastic sequential-readout
experiment simulator for the five-cycle (KCBS) noncontextuality
inequality."""

__version__ = "0.1.0"

from .errors import (
    ClosureFailure,
    ConfigError,
    ConventionMismatch,
    EmptySequence,
    InsufficientData,
    KcbsimError,
    NonFinite,
    NotProjector,
    NotUnit,
    NotUnitary,
    ValidationFailed,
    ZeroVector,
)
from .experiment import (
    ExperimentResult,
    NoiseModel,
    NvParameters,
    RunConfig,
    estimate_stats,
    group_rng,
    initialize,
    misassignment_probabilities,
    nmr_frequencies,
    noisy_apply,
    run_protocol,
    single_shot_readout,
)
from .kcbs import (
    TERM_NAMES,
    TermSet,
    exact_terms,
    kcbs_value,
    modified_kcbs_value,
    nchv_bound,
    nchv_bound_modified,
)
from .pentagram import (
    PentagramAngles,
    Quintuplet,
    angles,
    build_cartesian_quintuplet,
    build_psi0,
    build_pulse_quintuplet,
    gram,
)
from .qutrit import (
    apply,
    born,
    cartesian_embed,
    compose,
    make_state,
    neutral_projector,
    rot_a,
    rot_b,
    spin_operators,
)

__all__ = [name for name in dir() if not name.startswith("_")]
