"""Exact spin-1 pentagram algebra and a stochastic sequential-readout
experiment simulator for the five-cycle (KCBS) noncontextuality
inequality."""

__version__ = "0.1.0"

from .errors import (
    ClosureFailure,
    ConfigError,
    ConventionMismatch,
    InsufficientData,
    KcbsimError,
    NonFinite,
    NotUnit,
    ZeroVector,
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
    cartesian_embed,
    compose,
    make_state,
    rot_a,
    rot_b,
    spin_operators,
)

__all__ = [name for name in dir() if not name.startswith("_")]

# The Monte Carlo stack (model and experiment with numpy, and config with
# PyYAML) loads on first use, so that `kcbsim exact` and `validate` start
# without it.
_LAZY_SUBMODULES = ("config", "experiment", "model")


def __getattr__(name):
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
