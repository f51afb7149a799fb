"""Key canonicalization properties of :mod:`repro.memo.keys`.

The persistent class key must be invariant under input permutation (so
permuted variants of a function share one entry file) and must separate
any two tables that differ in a single minterm (their ON-counts differ,
so they can never be confused at the file level — and inside a file the
exact-table sub-entries separate everything else).
"""

import random

import pytest

from repro.memo import memo_key_doc, memo_key_id, table_column_counts
from repro.sim.truthtable import tt_permute

KNOBS = dict(perm_budget=40, try_offset=True, seed=3, max_specs=4)


def random_table(rng, n):
    return rng.getrandbits(1 << n)


def naive_column_counts(table, n):
    """ON-column counts by walking every minterm bit by bit."""
    counts = [0] * n
    for minterm in range(1 << n):
        if not (table >> minterm) & 1:
            continue
        for pos in range(n):
            if (minterm >> (n - pos - 1)) & 1:
                counts[pos] += 1
    return counts


class TestColumnCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_naive_reference(self, n):
        rng = random.Random(100 + n)
        for _ in range(20):
            table = random_table(rng, n)
            assert table_column_counts(table, n) == \
                naive_column_counts(table, n)

    def test_empty_and_full_tables(self):
        assert table_column_counts(0, 4) == [0, 0, 0, 0]
        assert table_column_counts((1 << 16) - 1, 4) == [8, 8, 8, 8]


class TestPermutationInvariance:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_permuted_variants_share_the_class_key(self, n):
        rng = random.Random(200 + n)
        for _ in range(30):
            table = random_table(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            variant = tt_permute(table, n, tuple(perm))
            doc = memo_key_doc(table, n, **KNOBS)
            doc_variant = memo_key_doc(variant, n, **KNOBS)
            assert doc == doc_variant
            assert memo_key_id(doc) == memo_key_id(doc_variant)

    def test_all_permutations_of_one_table(self):
        import itertools

        n, table = 4, 0b0110_1001_1100_0011
        base = memo_key_id(memo_key_doc(table, n, **KNOBS))
        for perm in itertools.permutations(range(n)):
            variant = tt_permute(table, n, perm)
            assert memo_key_id(memo_key_doc(variant, n, **KNOBS)) == base


class TestSeparation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_one_minterm_flip_never_shares_a_key(self, n):
        rng = random.Random(300 + n)
        for _ in range(30):
            table = random_table(rng, n)
            minterm = rng.randrange(1 << n)
            flipped = table ^ (1 << minterm)
            doc = memo_key_doc(table, n, **KNOBS)
            doc_flipped = memo_key_doc(flipped, n, **KNOBS)
            assert doc != doc_flipped, (
                f"n={n} table={table:#x} minterm={minterm}")
            assert memo_key_id(doc) != memo_key_id(doc_flipped)

    def test_search_knobs_separate_keys(self):
        table, n = 0b1010_0101_1111_0000, 4
        base = memo_key_doc(table, n, **KNOBS)
        for field, changed in [
            ("perm_budget", dict(KNOBS, perm_budget=41)),
            ("try_offset", dict(KNOBS, try_offset=False)),
            ("max_specs", dict(KNOBS, max_specs=5)),
        ]:
            assert memo_key_doc(table, n, **changed) != base, field

    def test_seed_separates_only_sampled_searches(self):
        # 6! = 720 > 200: the seed picks the sample, so it is in the key.
        rng = random.Random(6)
        table = random_table(rng, 6)
        sampled = dict(KNOBS, perm_budget=200)
        assert memo_key_doc(table, 6, **sampled) != \
            memo_key_doc(table, 6, **dict(sampled, seed=4))
        # 4! = 24 <= 40: the search is exhaustive and never reads the seed.
        table = 0b1010_0101_1111_0000
        exhaustive = memo_key_doc(table, 4, **KNOBS)
        assert exhaustive["seed"] == 0
        assert memo_key_doc(table, 4, **dict(KNOBS, seed=4)) == exhaustive

    def test_different_n_same_bits_separate(self):
        # The same integer read as a 2-input vs padded 3-input table.
        assert memo_key_doc(0b1010, 2, **KNOBS) != \
            memo_key_doc(0b1010, 3, **KNOBS)


class TestKeyIdFormat:
    def test_id_shape_is_stable(self):
        kid = memo_key_id(memo_key_doc(0b0110, 2, **KNOBS))
        assert kid.startswith("m")
        assert len(kid) == 17
        int(kid[1:], 16)  # hex tail

    def test_id_is_deterministic_across_dict_order(self):
        doc = memo_key_doc(0b0110, 2, **KNOBS)
        shuffled = dict(reversed(list(doc.items())))
        assert memo_key_id(doc) == memo_key_id(shuffled)
