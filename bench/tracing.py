"""In-memory span tracer for the traced benchmark run.

The public layer functions of ``afmgate`` are wrapped from here, by
rebinding the name in every ``afmgate`` module that holds it, so the
package source stays untouched.  Each span records its name, start, end,
parent span and the id of the CLI call it belongs to; layer metrics are
derived from the spans after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

# layer (= afmgate module) -> wrapped public functions
LAYER_FUNCTIONS = {
    "basis": ("build_full_basis", "build_blockade_basis"),
    "hamiltonian": ("drive_matrix", "pair_incidence"),
    "spectra": ("scan_spectrum", "min_gap"),
    "evolution": ("run_protocol",),
    "gate": ("assemble_gate", "sweep_tau", "build_error_model"),
    "thermal": ("run_thermal_ensemble",),
}
LAYERS = tuple(LAYER_FUNCTIONS) + ("cli",)


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: List[dict] = []
        self.call_id: Optional[str] = None
        # run_protocol calls made with phases: (span id, function, bound arguments)
        self.phase_calls: List[tuple] = []
        self._stack: List[int] = []
        self._rebound: List[tuple] = []

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter() - self.t0,
                "end": None, "parent": self._stack[-1] if self._stack else None,
                "call": self.call_id}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.t0
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self.begin(name)
        try:
            yield s
        finally:
            self.end(s)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        name = f"{layer}.{fn.__name__}"
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(s)
            self._annotate(s, fn, sig.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _annotate(self, span: dict, fn: Callable, bound: inspect.BoundArguments, result) -> None:
        bound.apply_defaults()
        a = bound.arguments
        name = span["name"]
        if name == "evolution.run_protocol":
            cfg = a["cfg"]
            span["dim"] = result.trajectory.states.shape[1]
            span["steps"] = 2 * round(cfg.pulse.tau / cfg.dt)
            span["samples"] = len(result.trajectory.times)
            if result.phases is not None:
                span["valid"] = int(result.phases.valid.sum())
                self.phase_calls.append((span["id"], fn, bound))
        elif name == "spectra.scan_spectrum":
            span["grid_points"] = a["grid_size"]
        elif name == "thermal.run_thermal_ensemble":
            span["trials"] = result.trials
            span["requested"] = a["tcfg"].trials

    def install(self) -> None:
        """Rebind every layer function in each afmgate module that holds it."""
        mods = [m for n, m in sorted(sys.modules.items()) if n == "afmgate" or n.startswith("afmgate.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"afmgate.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(layer, original)
                for mod in mods:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapper)
                        self._rebound.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in self._rebound:
            setattr(mod, fname, original)
        self._rebound.clear()

    def probe_phases(self) -> Dict[int, float]:
        """Rerun each run_protocol call made with phases without them, untraced;
        returns the duration of the rerun by span id."""
        durations = {}
        for sid, fn, bound in self.phase_calls:
            args = dict(bound.arguments, compute_phases=False)
            t = time.perf_counter()
            fn(**args)
            durations[sid] = time.perf_counter() - t
        return durations


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: List[dict], nophase_s: Dict[int, float], wall_s: float,
                  thermal_steps: int) -> Dict[str, float]:
    """Per-layer metrics of the spans of one traced pass of ``wall_s`` seconds
    (units in the README)."""
    own = self_times(spans)
    by_name: Dict[str, List[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(*names: str) -> int:
        return sum(len(by_name.get(n, ())) for n in names)

    def self_s(*names: str) -> float:
        return sum(own[s["id"]] for n in names for s in by_name.get(n, ()))

    def total(name: str, attr: str) -> float:
        return sum(s.get(attr, 0) for s in by_name.get(name, ()))

    def child_count(parent_name: str, child_name: str) -> int:
        parents = {s["id"] for s in by_name.get(parent_name, ())}
        return sum(1 for s in by_name.get(child_name, ()) if s["parent"] in parents)

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s["id"]] for s in spans if s["name"].startswith(layer + "."))

    m["basis.build.calls"] = calls("basis.build_full_basis", "basis.build_blockade_basis")
    m["basis.build.self_s"] = self_s("basis.build_full_basis", "basis.build_blockade_basis")
    for fname in ("drive_matrix", "pair_incidence"):
        m[f"hamiltonian.{fname}.calls"] = calls(f"hamiltonian.{fname}")
        m[f"hamiltonian.{fname}.self_s"] = self_s(f"hamiltonian.{fname}")

    m["spectra.scan_spectrum.self_s"] = self_s("spectra.scan_spectrum")
    m["spectra.scan_spectrum.grid_points"] = total("spectra.scan_spectrum", "grid_points")
    m["spectra.min_gap.calls"] = calls("spectra.min_gap")
    m["spectra.min_gap.self_s"] = self_s("spectra.min_gap")

    runs = by_name.get("evolution.run_protocol", [])
    phases_s = sum(s["end"] - s["start"] - nophase_s[s["id"]] for s in runs if s["id"] in nophase_s)
    propagate_s = self_s("evolution.run_protocol") - phases_s
    phase_samples = sum(s["samples"] for s in runs if "valid" in s)
    m["evolution.run_protocol.calls"] = len(runs)
    m["evolution.propagate_s"] = propagate_s
    m["evolution.phases_s"] = phases_s
    m["evolution.rk4_steps"] = total("evolution.run_protocol", "steps")
    amp_steps = sum(s["steps"] * s["dim"] for s in runs)
    m["evolution.amp_steps_per_s"] = amp_steps / propagate_s if propagate_s > 0 else 0.0
    m["evolution.samples_stored"] = total("evolution.run_protocol", "samples")
    m["evolution.phase_valid_ratio"] = (total("evolution.run_protocol", "valid") / phase_samples
                                        if phase_samples else 0.0)

    n_gates = calls("gate.assemble_gate")
    m["gate.assemble_gate.calls"] = n_gates
    m["gate.assemble_gate.self_s"] = self_s("gate.assemble_gate")
    m["gate.protocols_per_gate"] = (child_count("gate.assemble_gate", "evolution.run_protocol") / n_gates
                                    if n_gates else 0.0)
    m["gate.sweep_tau.self_s"] = self_s("gate.sweep_tau")
    m["gate.build_error_model.self_s"] = self_s("gate.build_error_model")

    thermal_s = self_s("thermal.run_thermal_ensemble")
    trials = total("thermal.run_thermal_ensemble", "trials")
    requested = total("thermal.run_thermal_ensemble", "requested")
    m["thermal.run_thermal_ensemble.self_s"] = thermal_s
    m["thermal.trials"] = trials
    m["thermal.accepted_ratio"] = trials / requested if requested else 0.0
    # trials x 4 inputs x 2 pulses x steps per pulse, from the config
    m["thermal.trial_steps_per_s"] = trials * 4 * 2 * thermal_steps / thermal_s if thermal_s > 0 else 0.0

    m["cli.main.calls"] = calls("cli.main")
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - sum(s["end"] - s["start"] for s in by_name.get("cli.main", ()))
    return m


# counts that must repeat exactly between passes and runs of the same code
EXACT_COUNTS = (
    "basis.build.calls", "hamiltonian.drive_matrix.calls", "hamiltonian.pair_incidence.calls",
    "spectra.min_gap.calls", "evolution.run_protocol.calls", "gate.assemble_gate.calls",
    "cli.main.calls", "evolution.rk4_steps", "evolution.samples_stored",
    "spectra.scan_spectrum.grid_points", "thermal.trials", "cli.bytes_written",
)
