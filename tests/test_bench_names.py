"""The benchmark tracer wraps afmgate functions by name and reads some of
their arguments by name; every name it lists and every argument it reads
must still exist, or ``bench/run.py --trace 1`` breaks."""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
LAYER_FUNCTIONS = runpy.run_path(str(TRACING))["LAYER_FUNCTIONS"]


@pytest.mark.parametrize(
    "layer,name", [(layer, name) for layer, names in LAYER_FUNCTIONS.items() for name in names]
)
def test_traced_name_resolves_to_a_callable(layer, name):
    assert callable(getattr(importlib.import_module(f"afmgate.{layer}"), name, None))


# the arguments the tracer reads from the wrapped calls, by name, and the
# one it sets when it reruns ``run_protocol`` without phases
TRACED_ARGUMENTS = [
    ("evolution", "run_protocol", "cfg"),
    ("evolution", "run_protocol", "compute_phases"),
    ("spectra", "scan_spectrum", "grid_size"),
    ("thermal", "run_thermal_ensemble", "tcfg"),
]


@pytest.mark.parametrize("layer,name,argument", TRACED_ARGUMENTS)
def test_traced_argument_is_in_the_signature(layer, name, argument):
    assert name in LAYER_FUNCTIONS[layer]
    fn = getattr(importlib.import_module(f"afmgate.{layer}"), name)
    assert argument in inspect.signature(fn).parameters


def test_one_vdw_chain_builds_each_traced_structure_once(monkeypatch):
    """The tracer counts ``hamiltonian.drive_matrix`` and ``pair_incidence``
    calls by wrapping the module attributes, so a vdW ``ChainHamiltonian``
    must build each structure once through the module name."""
    from afmgate import hamiltonian
    from afmgate.config import InteractionConfig, Model

    calls = {}
    for name in ("drive_matrix", "pair_incidence"):
        def counted(*args, _fn=getattr(hamiltonian, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(hamiltonian, name, counted)
    basis = hamiltonian.model_basis(Model.FULL_VDW, 5)
    hamiltonian.ChainHamiltonian(Model.FULL_VDW, basis, InteractionConfig.from_nn_strength(1.0, 4.0))
    assert calls == {"drive_matrix": 1, "pair_incidence": 1}


def test_run_protocol_result_has_what_the_tracer_reads():
    """The tracer reads the full-basis width of a ``run_protocol`` result's
    states, its sample times and its phases' valid flags."""
    from afmgate.evolution import run_protocol
    from afmgate.hamiltonian import model_basis

    from conftest import reference_config

    cfg = reference_config()
    run = run_protocol(3, cfg)
    traj = run.trajectory
    assert traj.states.shape[1] == model_basis(cfg.model, 3).dim == traj.basis.dim
    assert traj.states.shape[0] == len(traj.times) == len(run.phases.valid)
    assert traj.times[0] == 0.0 and traj.times[-1] == cfg.tau_total
