import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairflip.errors import ResourceCapError, UsageError
from pairflip.walks import (
    INT64_MAX,
    Charge,
    SectorId,
    SpinString,
    all_states,
    charge,
    charge_value,
    enumerate_sectors,
    in_cone,
    is_frozen,
    reduce,
    reduce_states,
    reduce_symbols,
    sector_charge,
    sector_count_closed,
    sector_index,
    sector_words,
    state_dtype,
)


def symbols(n_max=4, max_len=14):
    return st.integers(2, n_max).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(1, n), max_size=max_len).map(tuple)
        )
    )


def reduce_random_order(syms, rng):
    """Reference reducer: delete a randomly chosen adjacent equal pair until none."""
    out = list(syms)
    while True:
        pairs = [i for i in range(len(out) - 1) if out[i] == out[i + 1]]
        if not pairs:
            return tuple(out)
        i = rng.choice(pairs)
        del out[i : i + 2]


class TestReduce:
    def test_examples(self):
        assert reduce_symbols(()) == ()
        assert reduce_symbols((1, 2, 2, 1)) == ()
        assert reduce_symbols((2, 1, 1, 2)) == ()
        assert reduce_symbols((1, 2, 3, 1, 2, 3)) == (1, 2, 3, 1, 2, 3)
        assert reduce_symbols((1, 1, 2, 3, 3, 2, 1)) == (1,)
        assert reduce_symbols((3, 1, 1, 2)) == (3, 2)

    @given(symbols())
    def test_fixed_point_is_irreducible(self, case):
        _, syms = case
        irr = reduce_symbols(syms)
        assert all(x != y for x, y in zip(irr, irr[1:]))
        assert reduce_symbols(irr) == irr

    @given(symbols(), st.integers(0, 2**32))
    @settings(max_examples=300)
    def test_confluence_any_deletion_order(self, case, seed):
        _, syms = case
        assert reduce_random_order(syms, random.Random(seed)) == reduce_symbols(syms)

    @given(symbols())
    def test_depth_parity_and_bound(self, case):
        _, syms = case
        irr = reduce_symbols(syms)
        assert len(irr) <= len(syms)
        assert (len(syms) - len(irr)) % 2 == 0


class TestCharge:
    def test_site_one_is_negative(self):
        assert charge_value((2,), 2) == -1
        assert charge_value((2, 2), 2) == 0

    def test_staggered_example(self):
        # symbol 2 sits at sites 2 and 5: +1 - 1 = 0
        s = SpinString.parse("123123", 3)
        assert charge(s, 2).value == 0
        assert charge(s, 1).value == 0
        assert charge(s, 3).value == 0

    def test_alternating_string_maximises_charge(self):
        for half in (2, 3, 5):
            s = SpinString.parse("21" * half, 3)
            q = charge(s, 1)
            assert q.value == half
            assert q.normalized == 1

    def test_normalized_range_and_zero_length(self):
        assert Charge(symbol=1, value=0, length=0).normalized == 0
        assert charge(SpinString.parse("22", 2), 2).normalized == Fraction(0)

    @given(symbols(), st.integers(0, 30), st.integers(1, 4))
    def test_pair_insertion_invariance(self, case, pos, a):
        """Inserting an adjacent equal pair changes neither sector nor any charge."""
        n, syms = case
        a = (a - 1) % n + 1
        i = pos % (len(syms) + 1)
        grown = syms[:i] + (a, a) + syms[i:]
        assert reduce_symbols(grown) == reduce_symbols(syms)
        for b in range(1, n + 1):
            assert charge_value(grown, b) == charge_value(syms, b)

    @given(symbols())
    def test_sector_charge_matches_members(self, case):
        n, syms = case
        s = SpinString.from_ints(syms, n)
        k = reduce(s)
        for a in range(1, n + 1):
            assert sector_charge(k, a, length=len(s)).value == charge(s, a).value

    def test_sector_charge_length_validation(self):
        k = SectorId.parse("12", 3)
        assert sector_charge(k, 1).length == 2
        assert sector_charge(k, 1, length=6).normalized == Fraction(-1, 3)
        with pytest.raises(UsageError):
            sector_charge(k, 1, length=5)
        with pytest.raises(UsageError):
            sector_charge(k, 1, length=0)


class TestSectorId:
    def test_rejects_reducible(self):
        with pytest.raises(UsageError):
            SectorId((1, 1), 3)
        with pytest.raises(UsageError):
            SectorId((2, 3, 3), 3)

    def test_rejects_bad_symbols(self):
        with pytest.raises(UsageError):
            SectorId((0, 1), 3)
        with pytest.raises(UsageError):
            SectorId((1, 4), 3)
        with pytest.raises(UsageError):
            SpinString((1, 2), 1)

    def test_parent_child_round_trip(self):
        k = SectorId.parse("121", 3)
        assert k.parent() == SectorId.parse("12", 3)
        kids = k.children()
        assert len(kids) == 2
        assert all(c.parent() == k for c in kids)
        root = SectorId((), 3)
        assert len(root.children()) == 3
        with pytest.raises(UsageError):
            root.parent()

    def test_text_round_trip(self):
        for text in ("", "1", "212", "1231"):
            k = SectorId.parse(text, 3)
            assert SectorId.parse(k.to_text(), 3) == k
        assert str(SectorId((), 3)) == "∅"
        assert SectorId.parse("∅", 3) == SectorId((), 3)

    def test_wide_alphabet_uses_commas(self):
        s = SpinString.from_ints((1, 10, 3), 12)
        assert s.to_text() == "1,10,3"
        assert SpinString.parse("1,10,3", 12) == s


class TestEnumerateSectors:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5, 6])
    def test_count_matches_closed_form(self, n, length):
        secs = enumerate_sectors(n, length)
        assert len(secs) == sector_count_closed(n, length)
        assert len(set(secs)) == len(secs)
        for k in secs:
            assert k.depth <= length
            assert (length - k.depth) % 2 == 0

    def test_ordering_depth_then_lex(self):
        secs = enumerate_sectors(3, 4)
        keys = [(k.depth, k.irr) for k in secs]
        assert keys == sorted(keys)
        assert secs[0] == SectorId((), 3)

    def test_small_counts(self):
        assert len(enumerate_sectors(3, 2)) == 7
        assert len(enumerate_sectors(2, 10)) == 11

    def test_resource_cap(self):
        with pytest.raises(ResourceCapError):
            enumerate_sectors(5, 30, max_count=1000)


class TestFrozen:
    @given(symbols())
    def test_frozen_iff_full_depth(self, case):
        n, syms = case
        s = SpinString.from_ints(syms, n)
        assert is_frozen(s) == (reduce(s).depth == len(s))

    @pytest.mark.parametrize("n,length", [(2, 5), (3, 4), (4, 3)])
    def test_frozen_count(self, n, length):
        from itertools import product

        count = sum(
            1
            for syms in product(range(1, n + 1), repeat=length)
            if is_frozen(SpinString.from_ints(syms, n))
        )
        assert count == n * (n - 1) ** (length - 1)


@st.composite
def string_batches(draw):
    """A batch of equal-length strings. Symbols 1..3 are favoured so that
    pairs cancel even in wide alphabets."""
    n = draw(st.sampled_from([2, 3, 4, 5, 6, 127, 128, 200]))
    length = draw(st.integers(0, 70))
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    small = rng.integers(1, min(n, 3) + 1, size=(rows, length))
    wide = rng.integers(1, n + 1, size=(rows, length))
    pick = rng.random((rows, length)) < draw(st.sampled_from([0.0, 0.5, 0.9]))
    return n, np.where(pick, small, wide).astype(state_dtype(n))


@lru_cache(maxsize=None)
def sector_positions(n, length):
    return {s.irr: k for k, s in enumerate(enumerate_sectors(n, length))}


class TestReductionKernel:
    @given(string_batches())
    @settings(max_examples=300, deadline=None)
    def test_kernel_and_index_match_scalar_reduction(self, case):
        n, states = case
        rows, length = states.shape
        irrs = [reduce_symbols(r) for r in states.tolist()]
        stack, depth = reduce_states(states)
        assert stack.dtype == states.dtype and stack.shape == states.shape
        assert [tuple(stack[k, : depth[k]].tolist()) for k in range(rows)] == irrs
        count = sector_count_closed(n, length)
        if count > INT64_MAX:
            with pytest.raises(ResourceCapError):
                sector_index(stack, depth, n, length)
            return
        index = sector_index(stack, depth, n, length).tolist()
        if count <= 20_000:
            position = sector_positions(n, length)
            assert index == [position[irr] for irr in irrs]
        assert all(0 <= i < count for i in index)
        for a, b in combinations(range(rows), 2):
            key_a, key_b = (len(irrs[a]), irrs[a]), (len(irrs[b]), irrs[b])
            assert (index[a] < index[b]) == (key_a < key_b)
            assert (index[a] == index[b]) == (key_a == key_b)

    def test_batch_shape_and_dtype_are_free(self):
        states = all_states(3, 5)
        stack, depth = reduce_states(states)
        for dtype in (np.uint8, np.int64):
            s3, d3 = reduce_states(states.astype(dtype).reshape(9, 27, 5))
            assert s3.shape == (9, 27, 5) and d3.shape == (9, 27)
            assert np.array_equal(d3.reshape(-1), depth)
            assert np.array_equal(
                sector_index(s3, d3, 3, 5).reshape(-1),
                sector_index(stack, depth, 3, 5),
            )

    @pytest.mark.parametrize("n,length", [(2, 5), (3, 6), (4, 5), (128, 2)])
    def test_sector_words_invert_sector_index(self, n, length):
        stack, depth = sector_words(n, length)
        assert stack.dtype == state_dtype(n)
        assert sector_index(stack, depth, n, length).tolist() == list(
            range(sector_count_closed(n, length))
        )

    def test_all_states_order_and_dtype(self):
        assert all_states(2, 2).tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]
        assert all_states(3, 0).shape == (1, 0)
        assert all_states(127, 1).dtype == np.int8
        assert all_states(128, 1).dtype == np.int16
        assert all_states(128, 1)[-1, 0] == 128

    def test_empty_strings(self):
        stack, depth = reduce_states(np.zeros((4, 0), dtype=np.int8))
        assert stack.shape == (4, 0) and depth.tolist() == [0, 0, 0, 0]
        assert sector_index(stack, depth, 3, 0).tolist() == [0, 0, 0, 0]

    def test_in_cone(self):
        states = np.array([[1, 2, 1, 2], [1, 2, 2, 1], [2, 1, 2, 1], [1, 3, 3, 3]])
        stack, depth = reduce_states(states)
        assert in_cone(stack, depth, (1,)).tolist() == [True, False, False, True]
        assert in_cone(stack, depth, (1, 2, 1)).tolist() == [True, False, False, False]
