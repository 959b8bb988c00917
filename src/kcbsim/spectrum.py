"""Nuclear transition frequencies of the NV centre's spin-1 nucleus, for
`kcbsim spectrum`. It loads on first use, so that the other commands do not
pay for building its dataclass."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, NonFinite


@dataclass(frozen=True)
class NvParameters:
    """Nuclear-spin Hamiltonian constants H = Q Iz^2 + gn Bz Iz."""

    quadrupole_mhz: float = 4.95
    gyromagnetic_khz_per_gauss: float = 0.3077
    field_gauss: float = 5636.0

    def __post_init__(self):
        for name in ("quadrupole_mhz", "gyromagnetic_khz_per_gauss", "field_gauss"):
            if not math.isfinite(getattr(self, name)):
                raise NonFinite(f"{name} must be finite")
        if self.field_gauss < 0:
            raise ConfigError("field_gauss must be >= 0")


def nmr_frequencies(p: NvParameters) -> tuple[float, float]:
    """The two nuclear transition frequencies |E(+-1) - E(0)| in MHz,
    sorted ascending. The Zeeman term gn*Bz is converted from kHz to MHz.
    Raises NonFinite when finite inputs overflow to an infinite frequency."""
    zeeman_mhz = p.gyromagnetic_khz_per_gauss * p.field_gauss * 1e-3
    f1 = abs(p.quadrupole_mhz - zeeman_mhz)
    f2 = abs(p.quadrupole_mhz + zeeman_mhz)
    if not (math.isfinite(f1) and math.isfinite(f2)):
        raise NonFinite(f"transition frequencies overflow (Zeeman term {zeeman_mhz!r} MHz)")
    return (f1, f2) if f1 <= f2 else (f2, f1)
