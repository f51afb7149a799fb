"""The :class:`ComparisonSpec`: a comparison function in canonical form.

Definition 1 of the paper: ``f(y_1..y_n)`` is a *comparison function* when
there is a permutation ``(x_1..x_n)`` of its variables and bounds ``L <= U``
such that ``f = 1`` exactly on the minterms whose decimal value (``x_1`` the
most significant bit) lies in ``[L, U]``.  Section 5 additionally uses
*complemented* comparison functions — the OFF-set is the interval — realized
by complementing a comparison unit's output; the ``complement`` flag records
that case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class ComparisonSpec:
    """A comparison function: permuted inputs, interval bounds, polarity.

    Attributes
    ----------
    inputs:
        Original variable names in permuted order: ``inputs[0]`` plays the
        role of ``x_1`` (the most significant bit).
    lower, upper:
        The interval bounds ``L`` and ``U`` (inclusive), ``0 <= L <= U < 2**n``.
    complement:
        When True the represented function is 1 *outside* ``[L, U]`` (the
        unit output is inverted).
    """

    inputs: Tuple[str, ...]
    lower: int
    upper: int
    complement: bool = False

    def __post_init__(self) -> None:
        n = len(self.inputs)
        if n == 0:
            raise ValueError("comparison function needs at least one input")
        if not 0 <= self.lower <= self.upper < (1 << n):
            raise ValueError(
                f"bounds L={self.lower}, U={self.upper} invalid for n={n}"
            )
        if self.lower == 0 and self.upper == (1 << n) - 1:
            raise ValueError("interval covers all minterms: constant function")

    @property
    def n(self) -> int:
        """Number of inputs."""
        return len(self.inputs)

    # -- bit views ---------------------------------------------------------

    def lower_bits(self) -> Tuple[int, ...]:
        """``L`` as an MSB-first bit tuple ``(l_1, ..., l_n)``."""
        return tuple((self.lower >> (self.n - i - 1)) & 1 for i in range(self.n))

    def upper_bits(self) -> Tuple[int, ...]:
        """``U`` as an MSB-first bit tuple ``(u_1, ..., u_n)``."""
        return tuple((self.upper >> (self.n - i - 1)) & 1 for i in range(self.n))

    # -- free variables (Definition 2) --------------------------------------

    @property
    def n_free(self) -> int:
        """Length ``F`` of the free-variable prefix (where ``l_i == u_i``)."""
        lb, ub = self.lower_bits(), self.upper_bits()
        f = 0
        while f < self.n and lb[f] == ub[f]:
            f += 1
        return f

    @property
    def free_inputs(self) -> Tuple[str, ...]:
        """The free variables ``X_F`` (a prefix of :attr:`inputs`)."""
        return self.inputs[: self.n_free]

    @property
    def bound_inputs(self) -> Tuple[str, ...]:
        """The non-free variables (drive the comparison blocks)."""
        return self.inputs[self.n_free:]

    @property
    def free_values(self) -> Tuple[int, ...]:
        """Fixed values of the free variables on every ON minterm."""
        return self.lower_bits()[: self.n_free]

    @property
    def suffix_lower(self) -> int:
        """``L_F``: the lower bound restricted to the non-free variables."""
        f = self.n_free
        return self.lower & ((1 << (self.n - f)) - 1)

    @property
    def suffix_upper(self) -> int:
        """``U_F``: the upper bound restricted to the non-free variables."""
        f = self.n_free
        return self.upper & ((1 << (self.n - f)) - 1)

    @property
    def has_geq_block(self) -> bool:
        """True when the ``>= L_F`` block is present (``L_F != 0``)."""
        return self.suffix_lower != 0

    @property
    def has_leq_block(self) -> bool:
        """True when the ``<= U_F`` block is present (``U_F`` not all ones)."""
        return self.suffix_upper != (1 << (self.n - self.n_free)) - 1

    # -- semantics -----------------------------------------------------------

    def value_of_minterm(self, m: int) -> int:
        """Function value on the permuted minterm of decimal value *m*."""
        inside = self.lower <= m <= self.upper
        return int(inside != self.complement)

    def evaluate(self, assignment: Dict[str, int]) -> int:
        """Function value on an assignment to the original variable names."""
        m = 0
        for i, name in enumerate(self.inputs):
            if assignment[name] & 1:
                m |= 1 << (self.n - i - 1)
        return self.value_of_minterm(m)

    def truth_table(self, variable_order: Sequence[str]) -> int:
        """Truth table over *variable_order* (MSB first), polarity included."""
        if sorted(variable_order) != sorted(self.inputs):
            raise ValueError("variable_order must use exactly the spec inputs")
        n = self.n
        pos = {name: i for i, name in enumerate(variable_order)}
        table = 0
        for m_ext in range(1 << n):
            assignment = {
                name: (m_ext >> (n - pos[name] - 1)) & 1 for name in self.inputs
            }
            if self.evaluate(assignment):
                table |= 1 << m_ext
        return table

    def describe(self) -> str:
        """One-line human-readable summary."""
        return describe_comparison(
            self.inputs, self.lower, self.upper, self.complement
        )


def describe_comparison(
    inputs: Iterable[str], lower: int, upper: int, complement: bool
) -> str:
    """The :meth:`ComparisonSpec.describe` string of a spec's fields.

    Spelled once so that the resynthesis tie-break can rank a spec's
    description without building the spec.  Two different specs can
    share a description (an input name may itself contain ``", "``).
    """
    perm = ", ".join(inputs)
    pol = "NOT " if complement else ""
    return f"{pol}[{lower} <= ({perm}) <= {upper}]"
