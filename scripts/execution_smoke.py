"""Execution smoke check (the CI gate for the determinism contract).

Runs the ``execution`` differential oracle (:mod:`repro.verify.execution`)
once on a real suite circuit at paper-scale knobs: Procedures 2 and 3 at
K=5 through every leg of its table (fabric serial, process and remote at
two shard counts; resume; memo cold, warm, round-tripped, with a process
fabric and resumed; and a sweep over K = 4 and 5 run serially, on a
process pool, remotely and resumed), each compared bit for bit with the
inline serial run, plus the checks that every leg did its work::

    PYTHONPATH=src python scripts/execution_smoke.py

Prints PASS and exits 0 on success; any violation is printed and is a
nonzero exit.  Budget: well under a minute.
"""

import sys
import time

from repro.benchcircuits.suite import suite_circuit
from repro.verify import ExecutionOracle
from repro.verify.execution import LEGS

CIRCUIT = "syn1423"
K = 5
SEED = 1


def main():
    t0 = time.perf_counter()
    circuit = suite_circuit(CIRCUIT)
    oracle = ExecutionOracle(k=K, perm_budget=200, max_passes=10,
                             max_inputs=len(circuit.inputs))
    print(f"execution oracle on {CIRCUIT} (K={K}, sweep K={K - 1},{K}, "
          f"seed {SEED}): {len(LEGS)} legs", flush=True)
    violations = oracle.check_circuit(circuit, SEED)
    total = time.perf_counter() - t0
    if violations:
        print(f"FAIL ({len(violations)} violation(s), {total:.1f}s):")
        for violation in violations:
            print(f"  - {violation.describe()}")
        return 1
    print(f"PASS: {CIRCUIT} every leg == serial run "
          f"({', '.join(leg.name for leg in LEGS)}) in {total:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
