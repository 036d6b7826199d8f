"""Configuration records and the chirped-pulse waveform.

Everything here is an immutable value object; all other modules consume
these records read-only.  Frequencies are angular (rad/us), times us,
lengths um — see :mod:`afmgate.units`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .errors import ConfigError
from .units import mhz

# Flat-top envelope: hard-coded eighth-power super-Gaussian with the
# documented default width ratio sigma = 0.385 tau.
ENVELOPE_EXPONENT = 8
SIGMA_RATIO_DEFAULT = 0.385
# RK4 steps per pulse of a sampled trajectory (``evolve``) by default, and
# the fewest a config's ``dt_us`` may give there (``evolution.run_protocol``
# refuses a coarser step); the final amplitudes of gates take
# ``evolution.STEPS_PER_PULSE`` split steps whatever ``dt_us`` says
DT_STEPS_DEFAULT = 4000
DT_STEPS_MIN = 1000


class Model(str, Enum):
    """Hamiltonian variant used for spectra and propagation."""

    PXP = "pxp"
    FULL_VDW = "vdw"
    PXP_PLUS_CORRECTIONS = "corrections"


@dataclass(frozen=True)
class ChainConfig:
    """Equidistant chain of ``n_atoms`` atoms with lattice spacing um."""

    n_atoms: int
    spacing: float

    def __post_init__(self) -> None:
        if self.n_atoms < 3:
            raise ConfigError(f"need at least 3 atoms (two qubits + bus), got {self.n_atoms}")
        if not 0.0 < self.spacing < math.inf:
            raise ConfigError(f"lattice spacing must be finite and > 0, got {self.spacing}")


@dataclass(frozen=True)
class InteractionConfig:
    """Pairwise van der Waals interaction B_ij = B / |i-j|^6, B = C6 / a^6.

    ``c6`` is signed (rad/us um^6); ``lambda_ratio`` is the magnitude ratio
    of the second-step interaction, B' = -lambda * B.  ``range_cutoff``
    drops pairs farther apart than the given number of lattice sites.
    """

    c6: float
    spacing: float
    lambda_ratio: float = 1.0
    range_cutoff: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.spacing < math.inf:
            raise ConfigError(f"lattice spacing must be finite and > 0, got {self.spacing}")
        if not 0.0 < self.lambda_ratio < math.inf:
            raise ConfigError(f"lambda must be finite and > 0, got {self.lambda_ratio}")
        if not math.isfinite(self.c6):
            raise ConfigError(f"C6 must be finite, got {self.c6}")
        if self.range_cutoff is not None and self.range_cutoff < 1:
            raise ConfigError(f"range cutoff must be >= 1, got {self.range_cutoff}")

    @classmethod
    def from_nn_strength(
        cls,
        b_nn: float,
        spacing: float,
        lambda_ratio: float = 1.0,
        range_cutoff: Optional[int] = None,
    ) -> "InteractionConfig":
        """Build from the nearest-neighbour strength B instead of C6."""
        return cls(b_nn * spacing**6, spacing, lambda_ratio, range_cutoff)

    @property
    def b_nn(self) -> float:
        """Nearest-neighbour interaction B = C6 / a^6."""
        return self.c6 / self.spacing**6

    @property
    def b_nnn(self) -> float:
        """Next-nearest-neighbour interaction B2 = B / 2^6."""
        return self.b_nn / 64.0

    def pair_strength(self, i: int, j: int) -> float:
        """Interaction of sites ``i`` and ``j``: B / |i-j|^6, 0 beyond cutoff."""
        if i == j:
            raise ValueError(f"self-interaction is undefined (i = j = {i})")
        if i < 0 or j < 0:
            raise ValueError(f"site indices must be non-negative, got ({i}, {j})")
        d = abs(i - j)
        if self.range_cutoff is not None and d > self.range_cutoff:
            return 0.0
        return self.b_nn / d**6


@dataclass(frozen=True)
class PulseProfile:
    """Chirped pulse: flat-top Rabi envelope and linear detuning sweep.

    Omega(t) = omega0 * (exp(-(t - tau/2)^8 / sigma^8) - C) / (1 - C) with
    C = exp(-(tau/2 sigma)^8), so the envelope is exactly zero at both ends
    and exactly omega0 at mid-pulse.  Delta(t) ramps linearly from -delta0
    to +delta0 at the chirp rate beta = 2 delta0 / tau.
    """

    omega0: float
    delta0: float
    tau: float
    sigma: Optional[float] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega0) and math.isfinite(self.delta0)):
            raise ConfigError(f"pulse amplitudes must be finite, got {self.omega0}, {self.delta0}")
        if not 0.0 < self.tau < math.inf:
            raise ConfigError(f"pulse duration must be finite and > 0, got {self.tau}")
        if self.sigma is None:
            object.__setattr__(self, "sigma", SIGMA_RATIO_DEFAULT * self.tau)
        if not 0.0 < self.sigma < math.inf:
            raise ConfigError(f"envelope width must be finite and > 0, got {self.sigma}")

    @property
    def beta(self) -> float:
        """Chirp rate 2 delta0 / tau (rad/us^2)."""
        return 2.0 * self.delta0 / self.tau

    def _check_time(self, t) -> None:
        lo, hi = (t.min(), t.max()) if isinstance(t, np.ndarray) else (t, t)
        if not (0.0 <= lo and hi <= self.tau):
            raise ValueError(f"t = {t} outside the pulse window [0, {self.tau}]")

    def _edge_offset(self) -> float:
        return math.exp(-((self.tau / (2.0 * self.sigma)) ** ENVELOPE_EXPONENT))

    def omega(self, t):
        """Rabi frequency at time t, a float or an array of times (then an
        array of values); tiny negative round-off is clamped to 0."""
        self._check_time(t)
        off = self._edge_offset()
        # numpy's power and exp, so a float and an array of times give
        # bitwise the same values
        u = (t - self.tau / 2.0) / self.sigma
        raw = (np.exp(-np.power(u, ENVELOPE_EXPONENT)) - off) / (1.0 - off)
        value = self.omega0 * np.maximum(raw, 0.0)
        return value if isinstance(value, np.ndarray) else float(value)

    def omega_dot(self, t: float) -> float:
        """Analytic d Omega/dt, used by the non-adiabatic coupling diagnostics."""
        self._check_time(t)
        off = self._edge_offset()
        u = (t - self.tau / 2.0) / self.sigma
        return self.omega0 * math.exp(-(u**ENVELOPE_EXPONENT)) * (
            -ENVELOPE_EXPONENT * u ** (ENVELOPE_EXPONENT - 1) / self.sigma
        ) / (1.0 - off)

    def delta(self, t):
        """Detuning at time t, a float or an array of times (then an array
        of values).

        Evaluated as delta0 * (2 t / tau - 1) so the endpoint and midpoint
        values -delta0, 0, +delta0 are exact in floating point.
        """
        self._check_time(t)
        value = self.delta0 * (2.0 * t / self.tau - 1.0)
        return value if isinstance(value, np.ndarray) else float(value)

    def time_at_delta(self, delta):
        """Inverse of the linear sweep, clipped to the pulse window, at a
        float or an array of detunings (then an array of times)."""
        t = (delta / self.delta0 + 1.0) * self.tau / 2.0
        return np.clip(t, 0.0, self.tau)


def pulse_with_tau(pulse: PulseProfile, tau: float) -> PulseProfile:
    """Same amplitudes and width ratio sigma / tau (a function of t / tau),
    new duration; the default ratio gives sigma = SIGMA_RATIO_DEFAULT * tau."""
    default = pulse.sigma == SIGMA_RATIO_DEFAULT * pulse.tau
    return PulseProfile(pulse.omega0, pulse.delta0, tau, None if default else pulse.sigma / pulse.tau * tau)


@dataclass(frozen=True)
class DecayConfig:
    """Rydberg-state decay rates for the two protocol steps (rad/us)."""

    gamma_r: float = 0.0
    gamma_rp: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.gamma_r < math.inf and 0.0 <= self.gamma_rp < math.inf):
            raise ConfigError(f"decay rates must be finite and >= 0, got {self.gamma_r}, {self.gamma_rp}")

    def mean_rate(self, tau: float, lambda_ratio: float = 1.0) -> float:
        """Duration-weighted mean rate (Gamma_r tau + Gamma_r' tau') / tau_tot
        with tau' = tau / lambda."""
        tau_p = tau / lambda_ratio
        return (self.gamma_r * tau + self.gamma_rp * tau_p) / (tau + tau_p)


@dataclass(frozen=True)
class ProtocolConfig:
    """Complete description of one two-pulse gate protocol run."""

    chain: ChainConfig
    interaction: InteractionConfig
    pulse: PulseProfile
    decay: DecayConfig = field(default_factory=DecayConfig)
    model: Model = Model.FULL_VDW
    dt: Optional[float] = None
    include_decay: bool = False

    def __post_init__(self) -> None:
        if self.dt is None:
            object.__setattr__(self, "dt", self.pulse.tau / DT_STEPS_DEFAULT)
        if not 0.0 < self.dt < math.inf:
            raise ConfigError(f"integrator step must be finite and > 0, got {self.dt}")
        if not math.isclose(self.interaction.spacing, self.chain.spacing, rel_tol=1e-12):
            raise ConfigError(
                f"interaction spacing {self.interaction.spacing} != chain spacing {self.chain.spacing}"
            )

    @property
    def tau_total(self) -> float:
        """Total protocol duration tau + tau'."""
        return self.pulse.tau * (1.0 + 1.0 / self.interaction.lambda_ratio)


def mean_rydberg_number(n_atoms: int) -> float:
    """Mean Rydberg excitation number N/2 - 1/4, averaged over the four
    qubit inputs (active chains of N-2, N-1, N-1 and N atoms); a multiple
    of 1/4, so exact in binary."""
    if n_atoms < 3:
        raise ValueError(f"need at least 3 atoms, got {n_atoms}")
    return n_atoms / 2 - 0.25


def _section(data: dict, name: str) -> dict:
    try:
        value = data[name]
    except KeyError:
        raise ConfigError(f"missing config section '{name}'") from None
    if not isinstance(value, dict):
        raise ConfigError(f"config section '{name}' must be a mapping")
    return value


_REQUIRED = object()


def _get(section: dict, name: str, where: str, default: Any = _REQUIRED) -> Any:
    if name in section:
        return section[name]
    if default is _REQUIRED:
        raise ConfigError(f"missing key '{name}' in config section '{where}'")
    return default


def _field(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_float(value: Any) -> float:
    """A parsed JSON number as a float: NaN for anything else (a bool, a
    string, null), inf for an integer beyond the float range."""
    try:
        return float(value) if _is_number(value) else math.nan
    except OverflowError:
        return math.inf


def _number(section: dict, name: str, where: str, default: Any = _REQUIRED) -> Optional[float]:
    """A finite JSON number; null only where the default is None."""
    value = _get(section, name, where, default)
    if value is None and default is None:
        return None
    number = json_float(value)
    if not math.isfinite(number):
        raise ConfigError(f"config field '{_field(where, name)}' must be a finite number, got {value!r}")
    return number


def _integer(section: dict, name: str, where: str, default: Any = _REQUIRED) -> Optional[int]:
    """An integral JSON number (5 or 5.0, not 5.7 or "5"); null only where
    the default is None."""
    value = _get(section, name, where, default)
    if value is None and default is None:
        return None
    if not (_is_number(value) and (isinstance(value, int) or value.is_integer())):
        raise ConfigError(f"config field '{_field(where, name)}' must be an integer, got {value!r}")
    return int(value)


def protocol_from_dict(data: dict) -> ProtocolConfig:
    """Build a ProtocolConfig from a parsed config mapping.

    Schema (user units): frequencies MHz, times us, lengths um.  See the
    README for the documented layout.  Numbers must be finite JSON
    numbers, counts integral and ``include_decay`` a JSON boolean.
    """
    chain_d = _section(data, "chain")
    chain = ChainConfig(
        n_atoms=_integer(chain_d, "n_atoms", "chain"),
        spacing=_number(chain_d, "spacing_um", "chain"),
    )

    inter_d = _section(data, "interaction")
    lam = _number(inter_d, "lambda", "interaction", 1.0)
    cutoff = _integer(inter_d, "range_cutoff", "interaction", None)
    if "c6_mhz_um6" in inter_d and "b_mhz" in inter_d:
        raise ConfigError("give either interaction.c6_mhz_um6 or interaction.b_mhz, not both")
    if "c6_mhz_um6" in inter_d:
        interaction = InteractionConfig(
            c6=mhz(_number(inter_d, "c6_mhz_um6", "interaction")),
            spacing=chain.spacing,
            lambda_ratio=lam,
            range_cutoff=cutoff,
        )
    elif "b_mhz" in inter_d:
        interaction = InteractionConfig.from_nn_strength(
            b_nn=mhz(_number(inter_d, "b_mhz", "interaction")),
            spacing=chain.spacing,
            lambda_ratio=lam,
            range_cutoff=cutoff,
        )
    else:
        raise ConfigError("config section 'interaction' needs c6_mhz_um6 or b_mhz")

    pulse_d = _section(data, "pulse")
    pulse = PulseProfile(
        omega0=mhz(_number(pulse_d, "omega0_mhz", "pulse")),
        delta0=mhz(_number(pulse_d, "delta0_mhz", "pulse")),
        tau=_number(pulse_d, "tau_us", "pulse"),
        sigma=_number(pulse_d, "sigma_us", "pulse", None),
    )

    decay_d = data.get("decay", {})
    if not isinstance(decay_d, dict):
        raise ConfigError("config section 'decay' must be a mapping")
    decay = DecayConfig(
        gamma_r=mhz(_number(decay_d, "gamma_r_mhz", "decay", 0.0)),
        gamma_rp=mhz(_number(decay_d, "gamma_rp_mhz", "decay", 0.0)),
    )

    model_name = str(data.get("model", "vdw"))
    try:
        model = Model(model_name)
    except ValueError:
        raise ConfigError(
            f"unknown model '{model_name}' (choose from {[m.value for m in Model]})"
        ) from None

    include_decay = data.get("include_decay", False)
    if not isinstance(include_decay, bool):
        raise ConfigError(f"config field 'include_decay' must be true or false, got {include_decay!r}")
    try:
        return ProtocolConfig(
            chain=chain,
            interaction=interaction,
            pulse=pulse,
            decay=decay,
            model=model,
            dt=_number(data, "dt_us", "", None),
            include_decay=include_decay,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ProtocolConfig:
    """Load a JSON protocol config; see README for the schema."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root in {path} must be a JSON object")
    return protocol_from_dict(data)
