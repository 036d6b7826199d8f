"""Unit conventions and physical constants.

All frequencies (Rabi, detuning, interaction, decay) are stored as angular
frequencies in rad/us, times in us and lengths in um, so that hbar = 1 and
phases come out in radians directly.  User-facing inputs quoted as
"2*pi x MHz" values are plain MHz numbers and get multiplied by 2*pi on
ingestion.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

# SI constants (exact by definition) and the 87Rb atomic mass in kg.
K_B = 1.380649e-23
M_RB87 = 1.4431609e-25


class Frequency(float):
    """Angular frequency in rad/us that remembers its MHz face value.

    Behaves as a plain float in arithmetic; `from_mhz`/`mhz` round-trip
    to a relative accuracy much better than 1e-12.
    """

    __slots__ = ()

    @classmethod
    def from_mhz(cls, value_mhz: float) -> "Frequency":
        return cls(TWO_PI * value_mhz)

    @property
    def mhz(self) -> float:
        return float(self) / TWO_PI


def mhz(value_mhz: float) -> float:
    """Angular frequency in rad/us for a frequency quoted in MHz."""
    return TWO_PI * value_mhz


def to_mhz(omega: float) -> float:
    """Inverse of :func:`mhz`."""
    return omega / TWO_PI


def thermal_velocity(temperature: float, mass: float = M_RB87) -> float:
    """1D thermal velocity scale sqrt(k_B T / m) in um/us.

    ``temperature`` in kelvin, ``mass`` in kg.  1 m/s equals 1 um/us, so no
    numeric conversion factor appears.
    """
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if mass <= 0.0:
        raise ValueError(f"mass must be > 0, got {mass}")
    return math.sqrt(K_B * temperature / mass)
