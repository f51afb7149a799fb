"""Output checks that do not trust the program's own numbers.

:meth:`Checker.check_unit` tests one unit's result netlist against its input
circuit: equivalence on seeded random patterns through the scalar
reference interpreter (:mod:`repro.verify.refsim`), path counts
recounted from scratch (:func:`repro.analysis.paths.count_paths`, not
the incremental session) and gate counts recounted with
:func:`repro.netlist.two_input_gate_count`.

:func:`guard` is the exactness guard: it compares each unit's
``REPORT_NUMBER_FIELDS`` with the reviewed values in ``expected.json``.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, Optional

from repro.analysis.paths import count_paths
from repro.netlist import two_input_gate_count
from repro.verify.refsim import ref_simulate_pattern

#: Random patterns per input circuit for the equivalence check.
CHECK_PATTERNS = 64

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


class Checker:
    """Checks units of one round; caches the input circuits' responses."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._reference: Dict[str, tuple] = {}

    def _patterns(self, circuit):
        got = self._reference.get(circuit.name)
        if got is None:
            rng = random.Random(f"perfbench/{self.seed}/{circuit.name}")
            patterns = [{net: rng.getrandbits(1) for net in circuit.inputs}
                        for _ in range(CHECK_PATTERNS)]
            responses = []
            for pattern in patterns:
                values = ref_simulate_pattern(circuit, pattern)
                responses.append([values[o] for o in circuit.outputs])
            got = self._reference[circuit.name] = (
                patterns, responses, count_paths(circuit),
                two_input_gate_count(circuit))
        return got

    def check_unit(self, unit) -> Optional[str]:
        """None when the unit's result is right, else what is wrong."""
        if unit.error is not None:
            return unit.error
        src, out, numbers = unit.circuit, unit.result, unit.numbers
        if sorted(out.inputs) != sorted(src.inputs) or \
                out.outputs != src.outputs:
            return "result netlist has a different interface"
        patterns, responses, paths_before, gates_before = \
            self._patterns(src)
        for pattern, want in zip(patterns, responses):
            values = ref_simulate_pattern(out, pattern)
            if [values[o] for o in out.outputs] != want:
                return f"result differs from input on pattern {pattern}"
        recount = {
            "paths_before": paths_before,
            "paths_after": count_paths(out),
            "gates_before": gates_before,
            "gates_after": two_input_gate_count(out),
        }
        for name, value in recount.items():
            if numbers[name] != value:
                return (f"reported {name}={numbers[name]} but the result "
                        f"recounts to {value}")
        return None


def load_expected(workload: str, seed: int) -> Optional[Dict[str, Dict]]:
    """Expected numbers by unit label, or None when none apply."""
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    entry = doc["workloads"].get(workload)
    if entry is None:
        return None
    if entry["seed_independent"] or seed == doc["default_seed"]:
        return entry["units"]
    return None


def guard(workload: str, seed: int, label: str,
          numbers: Dict[str, object]) -> Optional[str]:
    """None when *numbers* match the expected file (or none apply)."""
    expected = load_expected(workload, seed)
    if expected is None:
        return None
    want = expected.get(label)
    if want is None:
        return f"no expected numbers for unit {label}"
    if want != numbers:
        diff = {k: (numbers.get(k), v) for k, v in want.items()
                if numbers.get(k) != v}
        return f"numbers drifted from expected.json (got, want): {diff}"
    return None
