"""Channel model, antenna selection and Alamouti combining.

Single-realization building blocks: draw one quasi-static Rayleigh
channel pair, pick transmit antennas from the legitimate receiver's
column gains, and map the selected gains to post-combining SNRs.  The
Monte Carlo estimators vectorize the same arithmetic over many trials;
this module is the readable reference they are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tasalamouti.config import Scheme, SystemConfig

__all__ = [
    "AlamoutiRoundtrip",
    "AntennaSelection",
    "ChannelRealization",
    "SnrSample",
    "alamouti_combine",
    "alamouti_encode",
    "alamouti_roundtrip",
    "column_norms",
    "draw_channel",
    "secrecy_capacity",
    "select_antennas",
    "snr_sample",
    "snr_single_tas",
    "snr_tas_alamouti",
]


@dataclass(frozen=True)
class ChannelRealization:
    """One quasi-static fading state of both links.

    ``bob`` has shape ``(n_bob, n_alice)`` and ``eve`` has shape
    ``(n_eve, n_alice)``; column ``a`` holds the gains from transmit
    antenna ``a`` to each receive antenna.
    """

    bob: np.ndarray
    eve: np.ndarray


@dataclass(frozen=True)
class AntennaSelection:
    """Indices of the transmit antennas chosen for one realization."""

    indices: tuple[int, ...]

    @property
    def first(self) -> int:
        return self.indices[0]

    @property
    def second(self) -> int:
        if len(self.indices) < 2:
            raise ValueError("selection holds a single antenna")
        return self.indices[1]


@dataclass(frozen=True)
class SnrSample:
    """Instantaneous post-combining SNR pair for one realization."""

    gamma_b: float
    gamma_e: float


def draw_channel(config: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one Rayleigh channel realization for both links.

    Entries are i.i.d. circularly symmetric complex Gaussian with unit
    variance (1/2 per real dimension), so squared magnitudes average 1.

    Parameters
    ----------
    config : SystemConfig
        Antenna counts; the SNR fields are not used here.
    rng : numpy.random.Generator
        Source of randomness.

    Returns
    -------
    ChannelRealization
    """
    if not isinstance(rng, np.random.Generator):
        raise TypeError("rng must be a numpy.random.Generator")

    def cn(rows: int, cols: int) -> np.ndarray:
        re = rng.standard_normal((rows, cols))
        im = rng.standard_normal((rows, cols))
        return (re + 1j * im) / math.sqrt(2.0)

    return ChannelRealization(
        bob=cn(config.n_bob, config.n_alice),
        eve=cn(config.n_eve, config.n_alice),
    )


def column_norms(matrix: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each column of a channel matrix."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D channel matrix, got ndim={matrix.ndim}")
    return np.einsum("ra,ra->a", matrix.conj(), matrix).real


def select_antennas(norms: np.ndarray, count: int) -> AntennaSelection:
    """Pick the ``count`` transmit antennas with the largest gains.

    Ties are broken toward the lowest index, matching the vectorized
    estimators.  ``count`` must be 1 or 2.

    Parameters
    ----------
    norms : array_like
        Squared column norms of the legitimate receiver's channel.
    count : int
        Number of antennas to select.

    Returns
    -------
    AntennaSelection
        Indices ordered by decreasing gain (lowest index first on ties).
    """
    norms = np.asarray(norms, dtype=float)
    if norms.ndim != 1:
        raise ValueError("norms must be one-dimensional")
    if count not in (1, 2):
        raise ValueError(f"count must be 1 or 2, got {count}")
    if norms.size < count:
        raise ValueError(f"need at least {count} antennas, got {norms.size}")
    if np.any(norms < 0):
        raise ValueError("squared norms cannot be negative")

    first = int(np.argmax(norms))
    if count == 1:
        return AntennaSelection(indices=(first,))
    masked = norms.copy()
    masked[first] = -np.inf
    second = int(np.argmax(masked))
    return AntennaSelection(indices=(first, second))


def snr_tas_alamouti(norm_first: float, norm_second: float, gamma_bar: float) -> float:
    """Post-combining SNR of the two-antenna Alamouti scheme.

    Transmit power is split evenly over the two antennas, so the
    combined SNR is ``(norm_first + norm_second) * gamma_bar / 2``.
    """
    if norm_first < 0 or norm_second < 0:
        raise ValueError("squared norms cannot be negative")
    return (norm_first + norm_second) * gamma_bar / 2.0


def snr_single_tas(norm: float, gamma_bar: float) -> float:
    """Post-MRC SNR of single-antenna selection at full power."""
    if norm < 0:
        raise ValueError("squared norm cannot be negative")
    return norm * gamma_bar


def snr_sample(
    config: SystemConfig,
    scheme: Scheme,
    realization: ChannelRealization,
) -> SnrSample:
    """Map one channel realization to the post-combining SNR pair.

    Selection always follows the legitimate receiver's gains; the
    eavesdropper merely listens on whatever antennas were selected, so
    her SNR uses the same column indices.
    """
    bob_norms = column_norms(realization.bob)
    eve_norms = column_norms(realization.eve)
    if scheme is Scheme.TAS_ALAMOUTI:
        config.require_two_transmit_antennas()
        sel = select_antennas(bob_norms, count=2)
        gamma_b = snr_tas_alamouti(
            bob_norms[sel.first], bob_norms[sel.second], config.gamma_bar_b
        )
        gamma_e = snr_tas_alamouti(
            eve_norms[sel.first], eve_norms[sel.second], config.gamma_bar_e
        )
    elif scheme is Scheme.SINGLE_TAS:
        sel = select_antennas(bob_norms, count=1)
        gamma_b = snr_single_tas(bob_norms[sel.first], config.gamma_bar_b)
        gamma_e = snr_single_tas(eve_norms[sel.first], config.gamma_bar_e)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return SnrSample(gamma_b=float(gamma_b), gamma_e=float(gamma_e))


def secrecy_capacity(gamma_b, gamma_e):
    """Secrecy capacity of the Gaussian wiretap channel, in bits.

    ``max(0, log2(1 + gamma_b) - log2(1 + gamma_e))``, elementwise for
    array inputs.
    """
    gamma_b = np.asarray(gamma_b, dtype=float)
    gamma_e = np.asarray(gamma_e, dtype=float)
    cap = np.log2((1.0 + gamma_b) / (1.0 + gamma_e))
    cap = np.maximum(cap, 0.0)
    if cap.ndim == 0:
        return float(cap)
    return cap


def alamouti_encode(symbols: np.ndarray) -> np.ndarray:
    """Space-time block for one two-symbol Alamouti frame.

    Returns a ``(2, 2)`` array whose rows are time slots and columns are
    the two selected antennas: slot 1 sends ``(s1, s2)``, slot 2 sends
    ``(-conj(s2), conj(s1))``.
    """
    symbols = np.asarray(symbols, dtype=complex)
    if symbols.shape != (2,):
        raise ValueError(f"expected two symbols, got shape {symbols.shape}")
    s1, s2 = symbols
    return np.array([[s1, s2], [-np.conj(s2), np.conj(s1)]])


def alamouti_combine(
    f_first: np.ndarray, f_second: np.ndarray, received: np.ndarray
) -> tuple[complex, complex, float]:
    """Maximum-ratio combining of one received Alamouti frame.

    Parameters
    ----------
    f_first, f_second : ndarray, shape (n_bob,)
        Channel columns of the two selected antennas, constant over the
        frame.
    received : ndarray, shape (n_bob, 2)
        Received samples; column 0 is time slot 1, column 1 is slot 2.

    Returns
    -------
    (z1, z2, gain)
        Combined decision statistics ``z_k = gain * s_k + noise`` and
        the combining gain ``norm(f_first)^2 + norm(f_second)^2``.  The
        cross-symbol terms cancel exactly by orthogonality of the block.
    """
    f_first = np.asarray(f_first, dtype=complex)
    f_second = np.asarray(f_second, dtype=complex)
    received = np.asarray(received, dtype=complex)
    if f_first.shape != f_second.shape or f_first.ndim != 1:
        raise ValueError("channel columns must be 1-D and equally sized")
    if received.shape != (f_first.size, 2):
        raise ValueError(
            f"received frame must have shape ({f_first.size}, 2), got {received.shape}"
        )
    y1 = received[:, 0]
    y2 = received[:, 1]
    z1 = np.vdot(f_first, y1) + np.conj(np.vdot(f_second, y2))
    z2 = np.vdot(f_second, y1) - np.conj(np.vdot(f_first, y2))
    gain = float(np.vdot(f_first, f_first).real + np.vdot(f_second, f_second).real)
    return complex(z1), complex(z2), gain


@dataclass(frozen=True)
class AlamoutiRoundtrip:
    """Empirical vs. predicted post-combining SNR over many frames."""

    empirical_snr: float
    predicted_snr: float
    n_frames: int

    @property
    def relative_error(self) -> float:
        return abs(self.empirical_snr - self.predicted_snr) / self.predicted_snr


def alamouti_roundtrip(
    f_first: np.ndarray,
    f_second: np.ndarray,
    gamma_bar: float,
    n_frames: int,
    rng: np.random.Generator,
) -> AlamoutiRoundtrip:
    """Transmit random frames through a fixed channel and measure SNR.

    Unit-modulus symbols are scaled so the total transmit SNR is
    ``gamma_bar`` (half per antenna); receiver noise is unit-variance
    complex Gaussian.  The measured decision-statistic SNR should match
    ``(norm(f_first)^2 + norm(f_second)^2) * gamma_bar / 2``.

    Parameters
    ----------
    f_first, f_second : ndarray, shape (n_bob,)
        Fixed channel columns of the two transmit antennas.
    gamma_bar : float
        Average transmit SNR (linear, > 0).
    n_frames : int
        Number of two-symbol frames to simulate (>= 1).
    rng : numpy.random.Generator
        Source of symbol phases and noise.

    Returns
    -------
    AlamoutiRoundtrip
    """
    if gamma_bar <= 0:
        raise ValueError(f"gamma_bar must be > 0, got {gamma_bar}")
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    f_first = np.asarray(f_first, dtype=complex)
    f_second = np.asarray(f_second, dtype=complex)
    n_rx = f_first.size

    amplitude = math.sqrt(gamma_bar / 2.0)
    gain = float(np.vdot(f_first, f_first).real + np.vdot(f_second, f_second).real)
    predicted = gain * gamma_bar / 2.0

    phases = rng.uniform(0.0, 2.0 * math.pi, size=(n_frames, 2))
    symbols = amplitude * np.exp(1j * phases)
    noise = (
        rng.standard_normal((n_frames, n_rx, 2))
        + 1j * rng.standard_normal((n_frames, n_rx, 2))
    ) / math.sqrt(2.0)

    # Vectorized combining over frames; same algebra as alamouti_combine.
    s1 = symbols[:, 0]
    s2 = symbols[:, 1]
    y1 = np.outer(s1, f_first) + np.outer(s2, f_second) + noise[:, :, 0]
    y2 = -np.outer(np.conj(s2), f_first) + np.outer(np.conj(s1), f_second) + noise[:, :, 1]
    z1 = y1 @ np.conj(f_first) + np.conj(y2 @ np.conj(f_second))
    z2 = y1 @ np.conj(f_second) - np.conj(y2 @ np.conj(f_first))

    residual = np.concatenate([z1 - gain * s1, z2 - gain * s2])
    noise_power = float(np.mean(np.abs(residual) ** 2))
    signal_power = gain * gain * (gamma_bar / 2.0)
    empirical = signal_power / noise_power
    return AlamoutiRoundtrip(
        empirical_snr=empirical, predicted_snr=predicted, n_frames=n_frames
    )
