"""Comparison unit construction (Section 3.1, 3.2; Figures 1-5).

A comparison unit realizes a :class:`~repro.comparison.spec.ComparisonSpec`
with:

* a ``>= L_F`` block — a chain of 2-input gates over the non-free inputs,
  gate ``G_i`` being AND when ``l_i = 1`` and OR when ``l_i = 0``, with
  trailing zero bits of ``L_F`` collapsing the right end of the chain
  (Figure 3b); omitted entirely when ``L_F = 0``;
* a ``<= U_F`` block — the same chain shape over *complemented* inputs,
  gate ``G_i`` being AND when ``u_i = 0`` and OR when ``u_i = 1``, with
  trailing one bits collapsing the right end (Figure 3d); omitted when
  ``U_F`` is all ones;
* an output AND gate fed by the block outputs and by the free variables
  directly (positive literal) or through an inverter (negative literal),
  per Figure 5.

Runs of equal-type consecutive chain gates are merged into one wider gate
(Figure 4) by default; merging never changes the equivalent-2-input-gate
count or the number of paths.  A complemented spec flips the output gate's
polarity (AND becomes NAND, etc.) instead of adding an inverter when it can.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist import (
    Circuit,
    DUAL_POLARITY,
    Gate,
    GateType,
    two_input_gate_count,
)
from .identify import PositionHit
from .spec import ComparisonSpec, describe_comparison


class _Namer:
    """Produces fresh, prefixed net names inside a host circuit."""

    def __init__(self, circuit: Circuit, prefix: str) -> None:
        self._circuit = circuit
        self._prefix = prefix
        self._i = 0
        self.created: List[str] = []

    def fresh(self, tag: str) -> str:
        while True:
            cand = f"{self._prefix}{tag}{self._i}"
            self._i += 1
            if not self._circuit.has_net(cand):
                return cand

    def add(self, circuit: Circuit, tag: str, gtype: GateType,
            fanins: Sequence[str]) -> str:
        net = self.fresh(tag)
        circuit.add_gate(net, gtype, fanins)
        self.created.append(net)
        return net


def _emit_chain(
    circuit: Circuit,
    namer: _Namer,
    operands: Sequence[str],
    gate_types: Sequence[GateType],
    tail: str,
    merge: bool,
    tag: str,
) -> str:
    """Emit the comparison-block chain.

    The chain computes ``op_0(operands[0], op_1(operands[1], ..., tail))``
    where ``op_i = gate_types[i]``.  With *merge*, maximal runs of
    equal-type gates become single wider gates.
    """
    cur = tail
    cur_type: Optional[GateType] = None
    cur_net_created = False
    for x, gtype in zip(reversed(operands), reversed(gate_types)):
        if merge and cur_net_created and gtype is cur_type:
            prev = circuit.gate(cur)
            circuit.replace_gate(prev.with_fanins((x,) + prev.fanins))
        else:
            cur = namer.add(circuit, tag, gtype, (x, cur))
            cur_type = gtype
            cur_net_created = True
    return cur


def _emit_geq_block(
    circuit: Circuit, namer: _Namer, spec: ComparisonSpec, merge: bool
) -> Optional[str]:
    """Emit the ``>= L_F`` block; returns its output net (None if omitted)."""
    if not spec.has_geq_block:
        return None
    xs = spec.bound_inputs
    k = len(xs)
    bits = [(spec.suffix_lower >> (k - i - 1)) & 1 for i in range(k)]
    t = max(i for i in range(k) if bits[i] == 1)  # last set bit
    # geq_t = x_t (direct connection, Figure 2a); chain upward from there.
    types = [GateType.AND if bits[i] else GateType.OR for i in range(t)]
    return _emit_chain(circuit, namer, xs[:t], types, xs[t], merge, "geq")


def _emit_leq_block(
    circuit: Circuit, namer: _Namer, spec: ComparisonSpec, merge: bool
) -> Optional[str]:
    """Emit the ``<= U_F`` block; returns its output net (None if omitted)."""
    if not spec.has_leq_block:
        return None
    xs = spec.bound_inputs
    k = len(xs)
    bits = [(spec.suffix_upper >> (k - i - 1)) & 1 for i in range(k)]
    t = max(i for i in range(k) if bits[i] == 0)  # last zero bit
    inverted = {}

    def inv(x: str) -> str:
        if x not in inverted:
            inverted[x] = namer.add(circuit, "inv", GateType.NOT, (x,))
        return inverted[x]

    types = [GateType.AND if bits[i] == 0 else GateType.OR for i in range(t)]
    operands = [inv(xs[i]) for i in range(t)]
    return _emit_chain(circuit, namer, operands, types, inv(xs[t]), merge, "leq")


def emit_comparison_unit(
    circuit: Circuit,
    spec: ComparisonSpec,
    output_net: str,
    prefix: str = "cu_",
    merge: bool = True,
) -> List[str]:
    """Emit a comparison unit into *circuit*, driving *output_net*.

    ``output_net`` must already exist (its previous driver is replaced);
    the spec's input nets must exist as well.  Returns the list of freshly
    created internal nets.  The caller is responsible for sweeping any
    logic orphaned by the replacement.
    """
    for pi in spec.inputs:
        if not circuit.has_net(pi):
            raise ValueError(f"spec input {pi!r} is not a net of the circuit")
    namer = _Namer(circuit, prefix)

    fanins: List[str] = []
    for name, bit in zip(spec.free_inputs, spec.free_values):
        if bit:
            fanins.append(name)
        else:
            fanins.append(namer.add(circuit, "nf", GateType.NOT, (name,)))
    geq = _emit_geq_block(circuit, namer, spec, merge)
    if geq is not None:
        fanins.append(geq)
    leq = _emit_leq_block(circuit, namer, spec, merge)
    if leq is not None:
        fanins.append(leq)

    if not fanins:
        raise AssertionError(
            "comparison spec reduced to a constant; specs exclude constants"
        )

    if len(fanins) == 1:
        src = fanins[0]
        if spec.complement:
            src_gate = circuit.gate(src) if circuit.has_net(src) else None
            if src in namer.created and src_gate.gtype in DUAL_POLARITY:
                # Flip the polarity of the gate we just created.
                circuit.replace_gate(src_gate.with_type(
                    DUAL_POLARITY[src_gate.gtype]))
                final = Gate(output_net, GateType.BUF, (src,))
            else:
                final = Gate(output_net, GateType.NOT, (src,))
        else:
            final = Gate(output_net, GateType.BUF, (src,))
    else:
        gtype = GateType.NAND if spec.complement else GateType.AND
        final = Gate(output_net, gtype, tuple(fanins))
    circuit.replace_gate(final)
    return namer.created


def build_unit(spec: ComparisonSpec, merge: bool = True) -> Circuit:
    """Build a standalone circuit realizing *spec* (output net ``"f"``).

    Inputs appear in spec order (``x_1`` first).  Used for costing,
    verification and the worked figures.
    """
    c = Circuit(f"unit[{spec.describe()}]")
    for pi in spec.inputs:
        c.add_input(pi)
    out = "f"
    while c.has_net(out):
        out += "_"
    c.add_gate(out, GateType.CONST0, ())  # placeholder driver, replaced below
    emit_comparison_unit(c, spec, out, prefix="u_", merge=merge)
    c.set_outputs([out])
    c.validate()
    return c


@dataclass(frozen=True)
class UnitCost:
    """Size and path figures of a comparison unit realization."""

    two_input_gates: int
    total_internal_paths: int
    paths_per_input: Dict[str, int]
    depth: int


@lru_cache(maxsize=1 << 16)
def _positional_unit_cost(
    n: int, lower: int, upper: int, complement: bool, merge: bool
) -> Tuple[int, int, Tuple[int, ...], int]:
    """Measure a unit for the spec shape ``(n, L, U, complement)``.

    A unit's structure — and therefore its cost — depends only on the
    input count, the bounds and the polarity, never on the input *names*;
    building and measuring one representative per shape lets the
    thousands of candidate realizations a resynthesis run prices, most
    of them sharing a few shapes, hit a memo.
    """
    from ..analysis import internal_path_counts  # local import: avoid cycle

    spec = ComparisonSpec(
        tuple(f"x{i + 1}" for i in range(n)), lower, upper, complement
    )
    unit = build_unit(spec, merge=merge)
    per_input = internal_path_counts(unit)
    per = tuple(per_input.get(pi, 0) for pi in spec.inputs)
    return (two_input_gate_count(unit), sum(per), per, unit.depth())


def unit_cost(spec: ComparisonSpec, merge: bool = True) -> UnitCost:
    """Cost a spec by building its unit and measuring it (memoized).

    ``paths_per_input`` maps each spec input to the number of paths from it
    to the unit output (0, 1 or 2 — Section 3.1's headline property, which
    tests assert).
    """
    gates, total, per, depth = _positional_unit_cost(
        spec.n, spec.lower, spec.upper, spec.complement, merge
    )
    return UnitCost(
        two_input_gates=gates,
        total_internal_paths=total,
        paths_per_input={pi: per[i] for i, pi in enumerate(spec.inputs)},
        depth=depth,
    )


@lru_cache(maxsize=1 << 16)
def _rank_positions(
    hits: Tuple[PositionHit, ...], merge: bool
) -> Tuple[int, Tuple[Tuple[int, Tuple[int, ...]], ...]]:
    """Cost every hit; keep the group at minimum (gates, internal paths).

    Returns the group's two-input gate count and, for each hit in the
    group (in hit order), its index and per-position path counts.  A
    hit's cost depends only on its shape ``(n, L, U, complement)``, so
    the ranking is a pure function of the hit tuple; resynthesis meets
    the same tuple for every cone with the same truth table.
    """
    best: Optional[Tuple[int, int]] = None
    group: List[Tuple[int, Tuple[int, ...]]] = []
    for index, (perm, lower, upper, complement) in enumerate(hits):
        gates, total, per, _ = _positional_unit_cost(
            len(perm), lower, upper, complement, merge
        )
        if best is None or (gates, total) < best:
            best = (gates, total)
            group = [(index, per)]
        elif (gates, total) == best:
            group.append((index, per))
    return best[0], tuple(group)


def cheapest_position(
    hits: Sequence[PositionHit],
    variables: Sequence[str],
    merge: bool = True,
) -> Optional[Tuple[int, int, Tuple[int, ...]]]:
    """Pick the cheapest position-level hit over *variables* (None if none).

    *hits* are ``(perm, L, U, complement)`` tuples as returned by
    :func:`repro.comparison.identify.lookup_positions`.  The ranking rule:
    fewest two-input gates, then fewest internal paths, then the smallest
    :meth:`ComparisonSpec.describe` string, keeping the first hit when two
    strings are equal.  Returns the winner's index into *hits*, its
    unit's two-input gate count and its per-position internal path
    counts (entry ``i`` belongs to ``variables[perm[i]]``), without
    building a spec per hit.
    """
    hits = tuple(hits)
    if not hits:
        return None
    gates, group = _rank_positions(hits, merge)
    if len(group) == 1:
        index, per = group[0]
    else:
        def describe(entry: Tuple[int, Tuple[int, ...]]) -> str:
            perm, lower, upper, complement = hits[entry[0]]
            return describe_comparison(
                map(variables.__getitem__, perm), lower, upper, complement
            )

        index, per = min(group, key=describe)
    return index, gates, per


def best_spec(
    specs: Sequence[ComparisonSpec], merge: bool = True
) -> Optional[Tuple[ComparisonSpec, UnitCost]]:
    """Pick the realization with fewest gates, then fewest internal paths.

    Ties beyond that break deterministically on the spec's description so
    results are reproducible across runs: the rule of
    :func:`cheapest_position`, applied to the specs as hits over the
    names they use.
    """
    specs = tuple(specs)
    if not specs:
        return None
    variables = tuple(dict.fromkeys(x for s in specs for x in s.inputs))
    hits = tuple(
        (tuple(map(variables.index, s.inputs)), s.lower, s.upper,
         s.complement)
        for s in specs
    )
    index, _, _ = cheapest_position(hits, variables, merge)
    return specs[index], unit_cost(specs[index], merge=merge)
