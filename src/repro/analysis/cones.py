"""Subcircuit (cone) extraction and legality checks.

The resynthesis procedures of Section 4 work on *candidate subcircuits*: a
connected set of gates with a single output line ``g`` and a bounded number
of input lines.  This module turns such a member set into a standalone
single-output :class:`~repro.netlist.Circuit` (so it can be simulated
exhaustively for its truth table) and answers the structural questions the
procedures need: which member gates also feed logic outside the subcircuit
(shared gates, excluded from the removable-gate count ``N``), and which
inputs the cone reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..netlist import Circuit, CircuitError, Gate, GateType


@dataclass(frozen=True)
class Cone:
    """A candidate subcircuit: member gates, ordered inputs, one output.

    Attributes
    ----------
    output:
        The subcircuit's output net (a gate output of the host circuit).
    members:
        Gate-output nets of the gates inside the subcircuit (includes
        ``output``; never includes primary inputs).
    inputs:
        Ordered input nets: nets read by member gates but not driven by
        them.  Order is deterministic (host-circuit topological order) so
        truth tables over the cone are reproducible.
    """

    output: str
    members: FrozenSet[str]
    inputs: Tuple[str, ...]

    @property
    def n_inputs(self) -> int:
        """Number of distinct input nets."""
        return len(self.inputs)

    @property
    def n_gates(self) -> int:
        """Number of member gates."""
        return len(self.members)


def cone_inputs(circuit: Circuit, members: Set[str]) -> List[str]:
    """Ordered distinct nets read by *members* but not inside *members*."""
    seen: Set[str] = set()
    inputs: List[str] = []
    for m in members:
        for f in circuit.gate(m).fanins:
            if f not in members and f not in seen:
                seen.add(f)
                inputs.append(f)
    inputs.sort(key=circuit.topo_rank)
    return inputs


def make_cone(circuit: Circuit, output: str, members: Set[str]) -> Cone:
    """Build a :class:`Cone` record, checking connectivity and membership."""
    if output not in members:
        raise CircuitError("cone output must be a member gate")
    for m in members:
        g = circuit.gate(m)
        if g.gtype is GateType.INPUT:
            raise CircuitError(f"primary input {m!r} cannot be a cone member")
    # Every member must reach the output within the member set.
    reach: Set[str] = {output}
    frontier = [output]
    while frontier:
        n = frontier.pop()
        for f in circuit.gate(n).fanins:
            if f in members and f not in reach:
                reach.add(f)
                frontier.append(f)
    if reach != members:
        unreachable = sorted(members - reach)
        raise CircuitError(
            f"cone members {unreachable[:3]} do not feed output {output!r}"
        )
    return Cone(output, frozenset(members), tuple(cone_inputs(circuit, members)))


def shared_members(circuit: Circuit, cone: Cone) -> Set[str]:
    """Members (other than the output) that also feed logic outside the cone.

    These are the gates Section 4.1 calls *common*: they fan out to other
    subfunctions, so replacing the cone cannot remove them, and they must
    stay in the circuit after replacement.
    """
    shared: Set[str] = set()
    outputs = circuit.output_set
    for m in cone.members:
        if m == cone.output:
            continue
        if m in outputs:
            shared.add(m)
            continue
        for reader in circuit.fanouts(m):
            if reader not in cone.members:
                shared.add(m)
                break
    return shared


def removable_members(circuit: Circuit, cone: Cone) -> Set[str]:
    """Members that disappear if the cone is replaced.

    A member survives replacement when it is *shared* (feeds logic outside
    the cone, or is itself observable) or when it transitively feeds a
    shared member — shared gates keep their in-cone support alive.  These
    are the gates Section 4.1 excludes from the removable count ``N``.
    The cone output itself is always replaceable: the replacement drives
    the same net.
    """
    shared = shared_members(circuit, cone)
    live: Set[str] = set()
    stack = list(shared)
    while stack:
        m = stack.pop()
        if m in live:
            continue
        live.add(m)
        for f in circuit.gate(m).fanins:
            if f in cone.members and f not in live:
                stack.append(f)
    return set(cone.members) - live


def extract_subcircuit(circuit: Circuit, cone: Cone) -> Circuit:
    """Materialize *cone* as a standalone single-output circuit.

    The result has the cone's inputs as primary inputs (same net names,
    same order) and the cone's output as its only primary output, so its
    truth table under :func:`repro.sim.truth_table` is the subfunction
    ``f'(I')`` of Section 4.1.
    """
    sub = Circuit(f"{circuit.name}.{cone.output}")
    for pi in cone.inputs:
        sub.add_input(pi)
    order = sorted(cone.members, key=circuit.topo_rank)
    for net in order:
        g = circuit.gate(net)
        sub.add_gate(net, g.gtype, g.fanins)
    sub.set_outputs([cone.output])
    sub.validate()
    return sub


def single_gate_cone(circuit: Circuit, output: str) -> Cone:
    """The trivial cone: just the gate driving *output*.

    Section 4.1 keeps this cone in every candidate set so that a comparison
    function always exists and the gate count can never increase.
    """
    return make_cone(circuit, output, {output})
