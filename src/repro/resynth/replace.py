"""Cone evaluation: can a candidate subcircuit be replaced, and at what cost?

For each candidate cone the evaluator extracts the subfunction (exhaustive
truth table over the cone inputs), identifies comparison-function
realizations (ON-set or OFF-set, per Section 5), picks the cheapest unit,
and prices the replacement:

* ``gate_gain`` — removable gates (cone members that do not fan out to
  logic outside the cone; shared members are excluded exactly as Section
  4.1 prescribes) minus the unit's equivalent-2-input gate count;
* ``paths_on_output`` — ``sum N_p(i) * K_p(i)`` over the cone inputs,
  where ``N_p`` are the Procedure 1 labels of the host circuit and ``K_p``
  the unit's internal path counts.

Constant subfunctions are priced as a constant-gate substitution (the unit
degenerates; local constant folding is always sound here because the truth
table is exact over the cone's inputs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis import Cone, removable_members
from ..comparison import (
    ComparisonSpec,
    cheapest_position,
    emit_comparison_unit,
    exact_identify,
    lookup_positions,
    unit_cost,
)
from ..netlist import (
    Circuit,
    Gate,
    GateType,
    gate_two_input_equivalents,
)
from ..sim import TruthTableCache, cone_signature, signature_truth_table

#: Realizations collected per cone before picking the cheapest.  Shared
#: with the parallel evaluation layer so worker-computed identifications
#: carry the exact knobs the serial sweep would have used.
DEFAULT_MAX_SPECS = 6


@dataclass(frozen=True)
class ReplacementOption:
    """A priced replacement of a cone by a comparison unit (or constant)."""

    cone: Cone
    spec: Optional[ComparisonSpec]  # None for a constant substitution
    constant_value: Optional[int]
    removable_gates: int  # the paper's N
    unit_gates: int  # the paper's N'
    paths_on_output: int

    @property
    def gate_gain(self) -> int:
        """The paper's ``N - N'`` (positive = circuit shrinks)."""
        return self.removable_gates - self.unit_gates

    @property
    def is_constant(self) -> bool:
        """True when the cone's function is constant over its inputs."""
        return self.spec is None


def evaluate_cone(
    circuit: Circuit,
    cone: Cone,
    labels: Dict[str, int],
    perm_budget: int = 200,
    seed: int = 0,
    max_specs: int = DEFAULT_MAX_SPECS,
    exact: bool = False,
    tt_cache: Optional[TruthTableCache] = None,
    memo=None,
) -> Optional[ReplacementOption]:
    """Price the best comparison-unit replacement for *cone* (None if none).

    *labels* are the host circuit's Procedure 1 path labels.  The cone's
    truth table is identified at the position level
    (:func:`~repro.comparison.identify.lookup_positions`), the hits are
    ranked once per distinct hit tuple
    (:func:`~repro.comparison.unit.cheapest_position`) and only the
    winner becomes a :class:`~repro.comparison.ComparisonSpec`: the spec
    :func:`~repro.comparison.best_spec` would pick among
    :func:`~repro.comparison.identify_comparison`'s specs.  Removable
    gates are counted only for cones that return an option.  With
    ``exact=True``, a cone whose sample finds no realization falls back
    to the exact decision procedure of :mod:`repro.comparison.exact`,
    which never misses one (the sampler's 200-permutation budget does,
    for 6+ inputs).  *tt_cache* memoizes cone truth tables by structural
    signature, so re-enumerated cones skip resimulation.  Both the truth
    table and the identification are obtained through pure-function caches
    (:class:`~repro.sim.TruthTableCache` and the global
    :class:`~repro.comparison.IdentificationCache`), which is what lets
    :mod:`repro.parallel` precompute them in worker processes without any
    observable difference in the result.  *memo* is the optional
    persistent identification store (:class:`repro.memo.MemoStore`)
    consulted behind the in-process cache — same purity argument, same
    bit-identical results.
    """
    if not cone.inputs:
        key = cone_signature(circuit, cone.output, cone.members, ())
        value = signature_truth_table(key, 0) & 1
        return ReplacementOption(
            cone, None, value, _removable_gates(circuit, cone), 0, 0
        )
    key = cone_signature(circuit, cone.output, cone.members, cone.inputs)
    tt = tt_cache.get(key) if tt_cache is not None else None
    if tt is None:
        tt = signature_truth_table(key, len(cone.inputs))
        if tt_cache is not None:
            tt_cache.put(key, tt)
    size = 1 << len(cone.inputs)
    if tt == 0 or tt == (1 << size) - 1:
        value = 1 if tt else 0
        return ReplacementOption(
            cone, None, value, _removable_gates(circuit, cone), 0, 0
        )
    hits, _ = lookup_positions(
        tt, len(cone.inputs), perm_budget=perm_budget, try_offset=True,
        seed=seed, max_specs=max_specs, memo=memo,
    )
    best = cheapest_position(hits, cone.inputs)
    if best is not None:
        index, unit_gates, per = best
        perm, lower, upper, complement = hits[index]
        spec = ComparisonSpec(
            tuple(cone.inputs[j] for j in perm), lower, upper, complement
        )
    else:
        spec = exact_identify(tt, cone.inputs) if exact else None
        if spec is None:
            return None
        cost = unit_cost(spec)
        unit_gates = cost.two_input_gates
        per = tuple(cost.paths_per_input[x] for x in spec.inputs)
    paths = sum(labels[x] * p for x, p in zip(spec.inputs, per))
    return ReplacementOption(
        cone, spec, None, _removable_gates(circuit, cone), unit_gates, paths
    )


def _removable_gates(circuit: Circuit, cone: Cone) -> int:
    """The paper's ``N``: two-input equivalents of the removable members."""
    return sum(
        gate_two_input_equivalents(circuit.gate(m))
        for m in removable_members(circuit, cone)
    )


def current_paths_on(circuit: Circuit, net: str, labels: Dict[str, int]) -> int:
    """``N_p(net)`` under the current structure (sum of fanin labels)."""
    gate = circuit.gate(net)
    if gate.gtype is GateType.INPUT:
        return labels[net]
    return sum(labels[f] for f in gate.fanins)


def apply_replacement(
    circuit: Circuit, option: ReplacementOption, prefix: str = "cu_"
) -> List[str]:
    """Emit the chosen replacement into *circuit*; returns created nets.

    The cone output keeps its net name; orphaned members are swept.
    Shared members survive automatically (they still have readers).
    """
    out = option.cone.output
    if option.is_constant:
        gtype = GateType.CONST1 if option.constant_value else GateType.CONST0
        circuit.replace_gate(Gate(out, gtype))
        created: List[str] = []
    else:
        created = emit_comparison_unit(
            circuit, option.spec, out, prefix=prefix
        )
    circuit.sweep()
    return [n for n in created if circuit.has_net(n)]
