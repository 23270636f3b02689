"""Physical constants and unit-conversion helpers.

The whole library works in SI units internally: metres, seconds, hertz,
radians, watts.  Anything user-facing that the paper quotes in other units
(dBm, breaths-per-minute, degrees) converts at the boundary through the
helpers in this module.

The helpers broadcast: passing a NumPy array returns an array of the same
shape, while scalar inputs keep returning plain ``float`` through the
exact arithmetic the scalar code has always used (so seeded simulations
are unaffected by the array fast path).
"""

from __future__ import annotations

import math

import numpy as np

#: Speed of light in vacuum [m/s].
SPEED_OF_LIGHT = 299_792_458.0

#: Two pi, used constantly in phase arithmetic.
TWO_PI = 2.0 * math.pi

#: Breaths-per-minute per hertz.
BPM_PER_HZ = 60.0


def db_to_linear(db):
    """Convert a power ratio in decibels to a linear ratio (broadcasts)."""
    if np.ndim(db) == 0:
        return 10.0 ** (db / 10.0)
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def linear_to_db(ratio):
    """Convert a linear power ratio to decibels (broadcasts).

    Raises:
        ValueError: if any ``ratio`` is not strictly positive.
    """
    if np.ndim(ratio) == 0:
        if ratio <= 0.0:
            raise ValueError(f"power ratio must be > 0, got {ratio!r}")
        return 10.0 * math.log10(ratio)
    arr = np.asarray(ratio, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("power ratio must be > 0")
    return 10.0 * np.log10(arr)


def dbm_to_watts(dbm: float) -> float:
    """Convert a power level in dBm to watts."""
    return 1e-3 * db_to_linear(dbm)


def watts_to_dbm(watts: float) -> float:
    """Convert a power level in watts to dBm.

    Raises:
        ValueError: if ``watts`` is not strictly positive.
    """
    if watts <= 0.0:
        raise ValueError(f"power must be > 0 W, got {watts!r}")
    return linear_to_db(watts / 1e-3)


def hz_to_bpm(hz: float) -> float:
    """Convert a frequency in Hz to breaths per minute."""
    return hz * BPM_PER_HZ

def bpm_to_hz(bpm: float) -> float:
    """Convert breaths per minute to Hz."""
    return bpm / BPM_PER_HZ


def deg_to_rad(degrees: float) -> float:
    """Convert degrees to radians."""
    return math.radians(degrees)


def rad_to_deg(radians: float) -> float:
    """Convert radians to degrees."""
    return math.degrees(radians)


def wavelength(frequency_hz):
    """Free-space wavelength [m] of a carrier at ``frequency_hz`` (broadcasts).

    Raises:
        ValueError: if any frequency is not strictly positive.
    """
    if np.ndim(frequency_hz) == 0:
        if frequency_hz <= 0.0:
            raise ValueError(f"frequency must be > 0 Hz, got {frequency_hz!r}")
        return SPEED_OF_LIGHT / frequency_hz
    arr = np.asarray(frequency_hz, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("frequency must be > 0 Hz")
    return SPEED_OF_LIGHT / arr


def wrap_phase(theta):
    """Wrap a phase angle into ``[0, 2*pi)`` as a commodity reader reports it.

    Broadcasts over arrays; scalar inputs return plain ``float``.
    """
    if np.ndim(theta) == 0:
        wrapped = theta % TWO_PI
        # Float rounding of the modulo can land exactly on 2*pi for inputs a
        # hair below zero; keep the contract half-open.
        return 0.0 if wrapped >= TWO_PI else wrapped
    wrapped = np.asarray(theta, dtype=float) % TWO_PI
    return np.where(wrapped >= TWO_PI, 0.0, wrapped)


def wrap_phase_delta(delta):
    """Wrap a phase *difference* into ``[-pi, pi)`` (broadcasts).

    Used when differencing two consecutive phase readings (paper Eq. 3):
    the physical displacement between consecutive reads is far below half a
    wavelength, so the true phase change lies within one half-turn.
    """
    # ``type(...) is float`` first: the per-report ingest path passes
    # plain floats, and np.ndim costs more than the arithmetic.
    if type(delta) is float or np.ndim(delta) == 0:
        return (delta + math.pi) % TWO_PI - math.pi
    return (np.asarray(delta, dtype=float) + math.pi) % TWO_PI - math.pi
