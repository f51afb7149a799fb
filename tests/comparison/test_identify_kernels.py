"""NumPy and pure-Python identification kernels must be bit-identical.

`repro.comparison.identify_positions` has three implementations of the
same permutation scan: for n <= 7 a replay of one whole-space scan per
table (its verdict, cached), for larger n a vectorized scan of the
sample, and the portable Python loop used without NumPy.  The parallel
layer's determinism contract (and CI, which runs one leg without NumPy)
requires them to agree hit-for-hit — same hit order, same hit
multiplicity, same tried-count.
"""

import math
import random

import pytest

import repro.comparison.identify as idf
from repro.comparison import (
    candidate_permutations,
    identification_cache,
    identification_key,
    identify_positions,
)
from repro.sim.truthtable import tt_permute

needs_numpy = pytest.mark.skipif(
    idf._np is None, reason="NumPy not installed; only one kernel exists"
)


def python_kernel(*args):
    """Run identify_positions with the NumPy path disabled."""
    saved = idf._np
    idf._np = None
    try:
        return identify_positions(*args)
    finally:
        idf._np = saved


@needs_numpy
class TestKernelIdentity:
    def test_randomized_cases(self):
        rng = random.Random(20250806)
        for _ in range(300):
            n = rng.randint(1, 6)
            table = rng.randrange(1 << (1 << n))
            args = (
                table, n, rng.choice([24, 120, 200]),
                rng.random() < 0.8, rng.randint(0, 5),
                rng.choice([1, 6, 16]),
            )
            assert identify_positions(*args) == python_kernel(*args), args

    def test_verdict_replay_across_seeds(self):
        # Cold, replayed from a verdict another seed warmed, and the
        # Python loop.  Half the tables are permuted (complemented)
        # intervals, so many searches hit and stop early at max_specs.
        rng = random.Random(20261017)
        for _ in range(120):
            n = rng.choice([6, 7])
            if rng.random() < 0.5:
                lo = rng.randrange(1 << n)
                hi = rng.randrange(lo, 1 << n)
                table = sum(1 << m for m in range(lo, hi + 1))
                if rng.random() < 0.5:
                    table ^= (1 << (1 << n)) - 1
                perm = list(range(n))
                rng.shuffle(perm)
                table = tt_permute(table, n, tuple(perm))
            else:
                table = rng.getrandbits(1 << n)
            budget = rng.choice([24, 120, 200, 720])
            try_offset = rng.random() < 0.8
            seed = rng.randint(0, 5)
            max_specs = rng.choice([1, 6, 16])
            args = (table, n, budget, try_offset, seed, max_specs)
            identification_cache().clear()
            cold = identify_positions(*args)
            identification_cache().clear()
            identify_positions(table, n, budget, try_offset, seed + 1,
                               max_specs)
            replayed = identify_positions(*args)
            assert cold == replayed == python_kernel(*args), args

    def test_sampled_scan_above_whole_scan_limit(self):
        # n = 8 keeps the per-sample matrix product.
        n = idf.WHOLE_SCAN_MAX_N + 1
        rng = random.Random(8)
        tables = [sum(1 << m for m in range(40, 200)),
                  tt_permute(sum(1 << m for m in range(7, 100)), n,
                             (3, 1, 7, 0, 2, 6, 4, 5)),
                  rng.getrandbits(1 << n)]
        for table in tables:
            args = (table, n, 200, True, 2, 6)
            assert identify_positions(*args) == python_kernel(*args)

    def test_interval_function_hits(self):
        # [2, 5] over 3 inputs: a genuine comparison function.
        table = sum(1 << m for m in range(2, 6))
        np_hits, np_tried = identify_positions(table, 3, 24, True, 0, 16)
        assert np_hits, "interval function must be identified"
        assert (np_hits, np_tried) == python_kernel(table, 3, 24, True, 0, 16)

    def test_parity_scans_full_sample(self):
        # Odd parity is permutation-invariant and never an interval, so
        # the scan exhausts the sample with zero hits on both kernels.
        n = 3
        table = sum(1 << m for m in range(1 << n) if bin(m).count("1") % 2)
        hits, tried = identify_positions(table, n, 24, True, 0, 16)
        assert hits == ()
        assert tried == len(list(candidate_permutations(n, 24, 0)))
        assert (hits, tried) == python_kernel(table, n, 24, True, 0, 16)


class TestSeedFreeKeys:
    CASES = [(3, 5), (3, 6), (4, 23), (4, 24), (4, 40), (6, 200), (6, 720)]

    def test_key_ignores_seed_exactly_when_exhaustive(self):
        for n, budget in self.CASES:
            same = identification_key(0b0110, n, budget, True, 1, 4) == \
                identification_key(0b0110, n, budget, True, 2, 4)
            assert same == (math.factorial(n) <= budget), (n, budget)

    def test_result_ignores_seed_exactly_when_exhaustive(self):
        for n, budget in self.CASES:
            # AND is an interval under every permutation, so its hits
            # list the permutations tried, in the order tried.
            table = 1 << ((1 << n) - 1)
            results = {identify_positions(table, n, budget, True, seed, 16)
                       for seed in range(4)}
            exhaustive = math.factorial(n) <= budget
            assert (len(results) == 1) == exhaustive, (n, budget)


@needs_numpy
class TestVerdicts:
    def test_clear_drops_verdicts(self):
        cache = identification_cache()
        cache.clear()
        table = sum(1 << m for m in range(5, 40))
        verdict = cache.verdict(table, 6, True)
        assert cache.verdict(table, 6, True) is verdict
        cache.clear()
        assert cache.verdict(table, 6, True) is not verdict


class TestPermutationSample:
    def test_matches_generator(self):
        for n, budget, seed in [(3, 24, 0), (5, 200, 1), (7, 50, 3)]:
            assert list(idf._permutation_sample(n, budget, seed)) == \
                list(candidate_permutations(n, budget, seed))

    def test_memoized(self):
        a = idf._permutation_sample(4, 200, 9)
        b = idf._permutation_sample(4, 200, 9)
        assert a is b  # same materialized object, not a regeneration


@needs_numpy
class TestNumpyHelpers:
    def test_minterm_matrix_msb_first(self):
        mat = idf._minterm_matrix([5, 2], 3)  # 0b101, 0b010
        assert mat.tolist() == [[1, 0, 1], [0, 1, 0]]

    def test_lsb_condition_matches_python(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 6)
            minterms = sorted(rng.sample(range(1 << n),
                                         rng.randint(1, 1 << n)))
            bits = idf._minterm_bits(minterms, n)
            assert idf._lsb_condition_mat(idf._minterm_matrix(minterms, n)) \
                == idf._lsb_condition_holds(bits, n)
