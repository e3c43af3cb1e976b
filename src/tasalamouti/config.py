"""System configuration shared by all evaluators.

A configuration fixes the antenna counts at the transmitter, the
legitimate receiver and the eavesdropper, together with the average
per-branch SNRs of the two links (linear scale).  Fading is assumed
quasi-static Rayleigh with unit branch variance, so the average SNRs
absorb transmit power, path loss and noise figure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "Scheme",
    "SystemConfig",
    "checked_rate",
    "db_to_linear",
    "linear_to_db",
]


class Scheme(enum.Enum):
    """Transmission scheme at the multi-antenna source.

    ``TAS_ALAMOUTI`` selects the two transmit antennas with the largest
    instantaneous gain toward the legitimate receiver and sends an
    Alamouti block over them at half power per antenna.  ``SINGLE_TAS``
    is the conventional baseline that selects the single best antenna
    and transmits at full power.
    """

    TAS_ALAMOUTI = "tas_alamouti"
    SINGLE_TAS = "single_tas"

    @classmethod
    def from_name(cls, name: str) -> "Scheme":
        """Parse a scheme from its wire name (``value`` string)."""
        for member in cls:
            if member.value == name:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown scheme {name!r}; expected one of: {valid}")


@dataclass(frozen=True)
class SystemConfig:
    """Antenna counts and average link SNRs of the wiretap system.

    Parameters
    ----------
    n_alice : int
        Transmit antennas at the source.  Must be at least 1; the
        Alamouti selection scheme additionally requires at least 2,
        which is enforced by the operations that use two antennas.
    n_bob : int
        Receive antennas at the legitimate receiver (>= 1).
    n_eve : int
        Receive antennas at the eavesdropper (>= 1).
    gamma_bar_b : float
        Average per-branch SNR of the legitimate link, linear scale (> 0).
    gamma_bar_e : float
        Average per-branch SNR of the eavesdropper link, linear scale (> 0).
    """

    n_alice: int
    n_bob: int
    n_eve: int
    gamma_bar_b: float
    gamma_bar_e: float

    def __post_init__(self) -> None:
        for name in ("n_alice", "n_bob", "n_eve"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("gamma_bar_b", "gamma_bar_e"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, value)

    def require_two_transmit_antennas(self) -> None:
        """Raise if the configuration cannot run the two-antenna scheme."""
        if self.n_alice < 2:
            raise ValueError(
                "the Alamouti selection scheme needs n_alice >= 2, "
                f"got n_alice={self.n_alice}"
            )


def checked_rate(rate: float) -> float:
    """A target secrecy rate in bits per channel use, as a float; raises
    ``ValueError`` unless it is finite and >= 0."""
    rate = float(rate)
    if not math.isfinite(rate) or rate < 0.0:
        raise ValueError(f"rate must be finite and >= 0, got {rate!r}")
    return rate


def db_to_linear(value_db: float) -> float:
    """Convert a dB quantity to linear scale; raises ``ValueError`` when
    the linear value overflows a float."""
    try:
        return 10.0 ** (float(value_db) / 10.0)
    except OverflowError:
        raise ValueError(f"{value_db!r} dB overflows on the linear scale") from None


def linear_to_db(value: float) -> float:
    """Convert a positive linear quantity to dB."""
    value = float(value)
    if value <= 0.0:
        raise ValueError(f"dB conversion needs a positive value, got {value!r}")
    return 10.0 * math.log10(value)
