"""Rydberg-antiferromagnet-mediated CZ gates between distant atomic qubits.

Desk-scale simulation of a chain of laser-driven atoms whose non-encoding
bulk acts as a quantum bus: chirped pulses adiabatically transfer the
chain to an antiferromagnetic-like state of Rydberg excitations and back,
imprinting a parity-conditional geometric phase on the end qubits.
"""

__version__ = "0.1.0"

from .basis import Basis, build_blockade_basis, build_full_basis
from .config import (
    ChainConfig,
    DecayConfig,
    InteractionConfig,
    Model,
    ProtocolConfig,
    PulseProfile,
    load_config,
    mean_rydberg_number,
)
from .evolution import PhaseRecord, Trajectory, ground_amplitudes, parity_roundtrip_check, run_protocol
from .gate import GateReport, assemble_gate, average_fidelity, fit_c_nu, optimal_tau
from .spectra import GapReport, SpectrumScan, min_gap, scan_spectrum
from .thermal import ThermalConfig, ThermalReport, run_thermal_ensemble

__all__ = [
    "Basis",
    "ChainConfig",
    "DecayConfig",
    "GapReport",
    "GateReport",
    "InteractionConfig",
    "Model",
    "PhaseRecord",
    "ProtocolConfig",
    "PulseProfile",
    "SpectrumScan",
    "ThermalConfig",
    "ThermalReport",
    "Trajectory",
    "assemble_gate",
    "average_fidelity",
    "build_blockade_basis",
    "build_full_basis",
    "fit_c_nu",
    "ground_amplitudes",
    "load_config",
    "mean_rydberg_number",
    "min_gap",
    "optimal_tau",
    "parity_roundtrip_check",
    "run_protocol",
    "run_thermal_ensemble",
    "scan_spectrum",
]
