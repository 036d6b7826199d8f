"""Numerical fingerprints of CLI artifacts and their check against stored values.

``extract`` reads the artifacts one CLI call wrote and returns flat
``{name: (value, kind)}`` entries; ``kind`` tells ``make_reference.py`` how
to set the entry's tolerance.  The evolve phase entries are invariants whose
reference is 0 by physics (parity phase pi*n_r, cancelled dynamical phase);
the rest are compared against the values the reference sources produced.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

Entries = Dict[str, Tuple[float, str]]

# fractions of the spectrum scan at whose grid points the full eigenvalue
# lists are checked
SPECTRUM_GRID_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _read_csv(path: Path) -> Tuple[Dict[str, str], List[Dict[str, str]]]:
    header: Dict[str, str] = {}
    body = []
    with path.open() as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                header[key.strip()] = val.strip()
            else:
                body.append(line)
    return header, list(csv.DictReader(body))


def _wrap(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _gate(out: Path) -> Entries:
    data = json.loads((out / "gate.json").read_text())
    entries: Entries = {"fidelity": (data["fidelity"], "fidelity")}
    for i, (re, im) in enumerate(data["u_diag"]):
        entries[f"u_diag.{i}.re"] = (re, "amplitude")
        entries[f"u_diag.{i}.im"] = (im, "amplitude")
    return entries


def _sweep(out: Path) -> Entries:
    _, rows = _read_csv(out / "sweep.csv")
    return {f"e_numeric.n{r['n_atoms']}.tau{float(r['tau_us']):.4f}": (float(r["e_numeric"]), "fidelity")
            for r in rows}


def _evolve(out: Path) -> Entries:
    header, rows = _read_csv(out / "evolve.csv")
    nu = int(header["nu"])
    n_r = (nu + 1) // 2  # excitations of the ordered AFM configuration
    last = rows[-1]
    return {
        "p_ground": (float(last["p_ground"]), "fidelity"),
        "phi_total_minus_parity": (_wrap(float(last["phi_total"]) - math.pi * n_r), "phase_invariant"),
        "phi_dynamical": (float(last["phi_dynamical"]), "phase_invariant"),
        "samples": (float(len(rows)), "exact"),
    }


def _spectrum(out: Path) -> Entries:
    _, rows = _read_csv(out / "spectrum.csv")
    values: List[List[float]] = []
    for r in rows:
        if r["k"] == "1":
            values.append([])
        values[-1].append(float(r["energy_rad_us"]))
    entries: Entries = {"grid_points": (float(len(values)), "exact")}
    for g in sorted({round(f * (len(values) - 1)) for f in SPECTRUM_GRID_FRACTIONS}):
        for k, e in enumerate(values[g]):
            entries[f"energy.g{g}.k{k}"] = (e, "eigenvalue")
    return entries


def _thermal(out: Path) -> Entries:
    data = json.loads((out / "thermal_summary.json").read_text())
    return {
        "trials": (float(data["trials"]), "exact"),
        "delta_phi_rms_rad": (data["delta_phi_rms_rad"], "thermal"),
        "fidelity_loss": (data["fidelity_loss"], "thermal"),
    }


_EXTRACTORS = {
    "gate": _gate,
    "sweep": _sweep,
    "evolve": _evolve,
    "spectrum": _spectrum,
    "thermal": _thermal,
}


def extract(argv: List[str], out: Path) -> Entries:
    """Fingerprint entries of the artifacts a CLI call with ``argv`` wrote to ``out``."""
    return _EXTRACTORS[next(a for a in argv if a in _EXTRACTORS)](out)


def compare(entries: Entries, reference: Dict[str, List[float]]) -> List[str]:
    """Mismatch descriptions (empty when every entry is within its tolerance).

    ``reference`` maps each entry name to ``[value, absolute tolerance]``.
    """
    problems = []
    if set(entries) != set(reference):
        missing = sorted(set(reference) - set(entries))
        extra = sorted(set(entries) - set(reference))
        problems.append(f"entries differ: missing {missing[:5]}, unexpected {extra[:5]}")
    for name in sorted(set(entries) & set(reference)):
        value = entries[name][0]
        ref, tol = reference[name]
        if not abs(value - ref) <= tol:
            problems.append(f"{name} = {value!r}, reference {ref!r} (|diff| {abs(value - ref):.3g} > {tol:.3g})")
    return problems
