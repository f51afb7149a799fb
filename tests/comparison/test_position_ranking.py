"""Position-level pricing must pick exactly the spec ``best_spec`` picks.

:func:`repro.comparison.cheapest_position` ranks identification hits
without building a spec per hit.  The reference here is the spec-level
rule spelled out in full (cost every spec, stable-sort on gates, internal
paths and ``describe()``), applied to ``identify_comparison``'s specs for
the same knobs.  The input names include adversarial ones: names whose
``describe()`` order differs from their tuple order, and names containing
``", "`` so that two different specs share one description.
"""

import itertools
import random

import pytest

from repro.comparison import (
    ComparisonSpec,
    best_spec,
    cheapest_position,
    identify_comparison,
    lookup_positions,
    unit_cost,
)
from repro.comparison.spec import describe_comparison
from repro.sim.truthtable import tt_permute

NAME_SETS = {
    "plain": ("v0", "v1", "v2", "v3", "v4", "v5", "v6"),
    # "a!" sorts after "a" as a name but "(a!, ..." sorts before "(a, ...".
    "bang": ("a!", "a", "b!", "b", "c!", "c", "d"),
    "numeric": ("10", "9", "100", "11", "1", "2", "20"),
    # ("a, b", "c") and ("a", "b, c") describe alike.
    "comma": ("a, b", "c", "a", "b, c", "b", "c, a", "a, b, c"),
    # Every ordering of these describes alike.
    "commas": tuple(", ".join("a" * (i + 1)) for i in range(7)),
}


def reference_best(specs):
    """Spec-level ranking: fewest gates, fewest paths, then describe()."""
    scored = [(unit_cost(s), s) for s in specs]
    if not scored:
        return None
    scored.sort(key=lambda cs: (cs[0].two_input_gates,
                                cs[0].total_internal_paths,
                                cs[1].describe()))
    cost, spec = scored[0]
    return spec, cost


def random_tables(rng, n, count):
    """Comparison functions, symmetric functions and arbitrary tables."""
    size = 1 << n
    full = (1 << size) - 1
    names = tuple(f"x{i}" for i in range(n))
    out = []
    while len(out) < count:
        kind = rng.randrange(3)
        if kind == 0:
            lower = rng.randrange(size)
            upper = rng.randrange(lower, size)
            if lower == 0 and upper == size - 1:
                continue
            spec = ComparisonSpec(names, lower, upper, rng.random() < 0.5)
            perm = list(range(n))
            rng.shuffle(perm)
            table = tt_permute(spec.truth_table(names), n, perm)
        elif kind == 1:
            # Symmetric: value depends only on the number of ones, so
            # every permutation realizes it with the same bounds.
            weights = [rng.randrange(2) for _ in range(n + 1)]
            table = sum(1 << m for m in range(size)
                        if weights[bin(m).count("1")])
        else:
            table = rng.randrange(1, full)
        if 0 < table < full:
            out.append(table)
    return out


def check_case(table, names, **knobs):
    """Assert position-level == spec-level; return True on a name tie."""
    n = len(names)
    found = identify_comparison(table, names, **knobs)
    ref = reference_best(found.specs)
    assert best_spec(found.specs) == ref
    hits, tried = lookup_positions(table, n, **knobs)
    assert tried == found.permutations_tried
    got = cheapest_position(hits, names)
    if ref is None:
        assert got is None and not hits
        return False
    index, gates, per = got
    perm, lower, upper, complement = hits[index]
    spec = ComparisonSpec(tuple(names[j] for j in perm), lower, upper,
                          complement)
    ref_spec, ref_cost = ref
    assert spec == ref_spec
    assert found.specs.index(ref_spec) == index
    assert gates == ref_cost.two_input_gates
    assert dict(zip(spec.inputs, per)) == ref_cost.paths_per_input
    text = spec.describe()
    return sum(s.describe() == text for s in found.specs) > 1


class TestCheapestPositionMatchesBestSpec:
    @pytest.mark.parametrize("name_set", sorted(NAME_SETS))
    def test_random_tables(self, name_set):
        rng = random.Random(f"rank-{name_set}")
        ties = 0
        for n in range(1, 8):
            names = NAME_SETS[name_set][:n]
            for table in random_tables(rng, n, 4):
                for try_offset, max_specs, seed in itertools.product(
                    (True, False), (1, 6, 16), (0, 1, 7)
                ):
                    ties += check_case(table, names, perm_budget=200,
                                       try_offset=try_offset, seed=seed,
                                       max_specs=max_specs)
        if name_set == "commas":
            assert ties  # equal descriptions did decide some winners


    def test_equal_descriptions_keep_the_first_hit(self):
        # AND of four inputs: every permutation hits [15, 15], and every
        # ordering of these names describes alike.
        names = NAME_SETS["commas"][:4]
        table = 1 << 15
        assert check_case(table, names, perm_budget=200, try_offset=False,
                          seed=0, max_specs=24)
        hits, _ = lookup_positions(table, 4, try_offset=False, max_specs=24)
        assert len(hits) == 24
        texts = {describe_comparison(tuple(names[j] for j in p), lo, hi, c)
                 for p, lo, hi, c in hits}
        assert len(texts) == 1
        assert cheapest_position(hits, names)[0] == 0

    def test_no_hits(self):
        assert cheapest_position((), ("a", "b")) is None
        assert best_spec([]) is None


def test_describe_comparison_is_describe():
    spec = ComparisonSpec(("a, b", "c"), 1, 2, True)
    assert spec.describe() == describe_comparison(("a, b", "c"), 1, 2, True)
    assert spec.describe() == ComparisonSpec(("a", "b, c"), 1, 2,
                                             True).describe()
