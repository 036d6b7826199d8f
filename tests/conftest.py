import pytest

from afmgate.config import (
    ChainConfig,
    DecayConfig,
    InteractionConfig,
    Model,
    ProtocolConfig,
    PulseProfile,
)
from afmgate.units import mhz

# Reference drive and interaction used throughout: Omega0 = 2pi x 8 MHz,
# Delta0 = 2pi x 20 MHz, |B| = 2pi x 45 MHz, a = 4 um, tau = 1 us.
OMEGA0 = mhz(8.0)
DELTA0 = mhz(20.0)
B_NN = mhz(45.0)
SPACING = 4.0
TAU = 1.0
GAMMA = mhz(0.0005)  # 2pi x 0.5 kHz


def reference_pulse(tau: float = TAU) -> PulseProfile:
    return PulseProfile(OMEGA0, DELTA0, tau)


def reference_config(
    n_atoms: int = 5,
    model: Model = Model.FULL_VDW,
    tau: float = TAU,
    include_decay: bool = False,
    gamma: float = GAMMA,
    lambda_ratio: float = 1.0,
    dt: float | None = None,
    b_nn: float = B_NN,
) -> ProtocolConfig:
    return ProtocolConfig(
        chain=ChainConfig(n_atoms=n_atoms, spacing=SPACING),
        interaction=InteractionConfig.from_nn_strength(b_nn, SPACING, lambda_ratio=lambda_ratio),
        pulse=reference_pulse(tau),
        decay=DecayConfig(gamma_r=gamma, gamma_rp=gamma),
        model=model,
        dt=dt,
        include_decay=include_decay,
    )


@pytest.fixture
def pulse() -> PulseProfile:
    return reference_pulse()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the worker pool by an in-process stand-in on a 4-CPU machine;
    returns the list of requested pool sizes.  No process is started.
    ``gate.map_tasks`` imports the pool class when it starts one, so the
    stand-in replaces it in ``concurrent.futures``."""
    import concurrent.futures

    from afmgate import gate

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(gate.os, "cpu_count", lambda: 4)
    return sizes
