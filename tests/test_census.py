import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairflip import census
from pairflip.errors import ResourceCapError, UsageError
from pairflip.spectra import charge_expansion, cut_expansions
from pairflip.walks import SpinString, charge, enumerate_sectors


class TestSectorDims:
    def test_frozen_triangles(self):
        assert census.sector_dims(3, 2).dims == {0: 3, 2: 1}
        assert census.sector_dims(3, 4).dims == {0: 15, 2: 7, 4: 1}
        assert census.sector_dims(3, 8).dims == {0: 543, 2: 319, 4: 95, 6: 15, 8: 1}

    def test_multiplicities(self):
        sc = census.sector_dims(3, 4)
        assert sc.multiplicity == {0: 1, 2: 6, 4: 24}
        assert census.multiplicity(4, 3) == 4 * 9

    @given(st.integers(2, 6), st.integers(0, 25))
    def test_partition_of_state_space(self, n, length):
        assert census.sector_dims(n, length).total_states() == n**length

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_partition_long(self, n):
        for length in range(0, 61):
            assert census.sector_dims(n, length).total_states() == n**length

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_frozen_state_count(self, n):
        for length in range(1, 20):
            sc = census.sector_dims(n, length)
            assert sc.dims[length] == 1
            assert sc.dims[length] * sc.multiplicity[length] == n * (n - 1) ** (length - 1)

    def test_n2_dims_are_binomials_and_match_recurrence(self):
        for length in range(0, 16):
            sc = census.sector_dims(2, length)
            for d in sc.dims:
                assert sc.dims[d] == math.comb(length, (length + d) // 2)
                assert census.sector_dim(2, length, d) == sc.dims[d]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_strictly_decreasing_in_depth(self, n):
        for length in range(2, 41):
            row = [census.sector_dim(n, length, d) for d in range(length % 2, length + 1, 2)]
            assert all(a > b for a, b in zip(row, row[1:]))

    def test_only_the_last_alphabets_pair_is_kept(self):
        census.sector_dim(3, 20, 0)
        census.sector_dim(4, 10, 2)
        n, prev, row = census._PAIR
        assert n == 4
        assert (prev, row) == tuple(census.sector_dim_rows(4, 10)[9:])

    def test_length_past_the_cap_raises(self):
        with pytest.raises(ResourceCapError, match="above the cap of 1 GiB"):
            census.sector_dim(3, 100_000, 0)
        with pytest.raises(ResourceCapError, match="above the cap of 1 GiB"):
            census.sector_dim_rows(3, 100_000)

    def test_rows_read_in_any_order_match_one_walk(self):
        walks = {n: census.sector_dim_rows(n, 40) for n in (2, 3, 5)}
        # one alphabet: descending, a row below the kept pair, row 0, steps up
        reads = [(3, length) for length in (40, 39, 38, 30, 0, 1, 25, 27, 40, 12)]
        # alphabets alternating at every read
        reads += [(n, length) for length in (40, 20, 21, 0) for n in (2, 3, 5)]
        for n, length in reads:
            got = [census.sector_dim(n, length, d) for d in range(length + 1)]
            assert got == list(walks[n][length]), (n, length)

    def test_rows_list_is_new_each_call(self):
        rows = census.sector_dim_rows(3, 5)
        rows.append(None)
        assert len(census.sector_dim_rows(3, 5)) == 6

    def test_sector_dim_out_of_range(self):
        assert census.sector_dim(3, 4, 3) == 0
        assert census.sector_dim(3, 4, 6) == 0
        assert census.sector_dim(3, -1, 0) == 0


class TestSectorCount:
    def test_examples(self):
        assert census.sector_count(3, 2) == 7
        assert census.sector_count(2, 10) == 11
        assert census.sector_count(4, 3) == 40

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_matches_enumeration(self, n, length):
        assert census.sector_count(n, length) == len(enumerate_sectors(n, length))

    def test_matches_multiplicity_sum(self):
        for n in (2, 3, 4, 5):
            for length in range(0, 30):
                total = sum(
                    census.multiplicity(n, d) for d in range(length % 2, length + 1, 2)
                )
                assert total == census.sector_count(n, length)


class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_k0_closed_equals_recurrence(self, n):
        for length in range(0, 31):
            expect = census.sector_dim(n, length, 0) if length % 2 == 0 else 0
            assert census.k0_exact_closed(n, length) == expect

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_kd_closed_equals_recurrence(self, n):
        for length in range(0, 31):
            for depth in range(length % 2, length + 1, 2):
                assert census.kd_exact_closed(n, length, depth) == census.sector_dim(
                    n, length, depth
                ), (n, length, depth)

    def test_kd_closed_out_of_range(self):
        assert census.kd_exact_closed(3, 4, 3) == 0
        assert census.kd_exact_closed(3, 2, 6) == 0


class TestAsymptotics:
    def test_spectral_radius_values(self):
        assert census.tree_walk_spectral_radius(3) == pytest.approx(0.94281, abs=1e-5)
        assert census.tree_walk_spectral_radius(2) == 1.0
        assert census.drift_velocity(3) == Fraction(1, 3)
        assert census.drift_velocity(2) == 0

    def test_k0_shape_constant_converges_slowly(self):
        # the shape ratio |K_0| L^1.5 / (N rho)^L still drifts ~19% from L=40
        # to L=80 (the constant approaches ~9.6 like 1/L); freeze the measured
        # drift and check it keeps shrinking as L doubles
        def shape_const(length):
            return math.exp(
                math.log(census.sector_dim(3, length, 0))
                + 1.5 * math.log(length)
                - length * math.log(2.0 * math.sqrt(2.0))
            )

        drift_40_80 = shape_const(80) / shape_const(40) - 1.0
        assert 0.10 < drift_40_80 < 0.25
        drift_160_320 = shape_const(320) / shape_const(160) - 1.0
        assert 0 < drift_160_320 < drift_40_80 / 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_k0_closed_constant(self, n):
        # the tree's return generating function gives |K_0| ~ c_N L^(-3/2)
        # (2 sqrt(N-1))^L with c_N = 2 sqrt(2/pi) N(N-1)/(N-2)^2; the
        # table's ratio to it climbs towards 1 from below
        log_c = math.log(2 * math.sqrt(2 / math.pi) * n * (n - 1) / (n - 2) ** 2)

        def ratio(length):
            return math.exp(
                math.log(census.sector_dim(n, length, 0))
                + 1.5 * math.log(length)
                - length * math.log(2 * math.sqrt(n - 1))
                - log_c
            )

        ratios = [ratio(length) for length in (200, 400, 800, 1200)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert 0.97 <= ratios[-1] < 1

    def test_k0_asymptotic_accurate_in_fit_window(self):
        assert census.k0_fit_constant(3) > 0
        for length in range(40, 81, 2):
            ratio = census.k0_asymptotic(3, length) / census.sector_dim(3, length, 0)
            assert 0.8 < ratio < 1.25

    def test_kd_asymptotic_at_drift_depth(self):
        exact = census.sector_dim(3, 60, 20)
        assert abs(census.kd_asymptotic(3, 60, 20) / exact - 1.0) < 0.10

    def test_kd_asymptotic_monotone_in_depth(self):
        for n in (3, 4, 5):
            vals = [census.kd_asymptotic(n, 40, d) for d in range(0, 41, 2)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_asymptotics_reject_n2(self):
        with pytest.raises(UsageError):
            census.k0_asymptotic(2, 10)
        with pytest.raises(UsageError):
            census.kd_asymptotic(2, 10, 2)
        with pytest.raises(UsageError):
            census.kd_asymptotic(3, 10, 3)


class TestConeStats:
    def test_worked_example(self):
        cs = census.cone_stats(3, 4, 2)
        assert cs.volume == 22
        assert cs.boundary_flow == Fraction(5, 33)

    @pytest.mark.parametrize("n", [3, 4])
    def test_depth_two_identities(self, n):
        for length in range(2, 13, 2):
            cs = census.cone_stats(n, length, 2)
            k0 = census.sector_dim(n, length, 0)
            assert cs.volume == (n**length - k0) // n
            expect = Fraction(
                (n - 1) * census.sector_dim(n, length - 1, 1), n**length - k0
            )
            assert cs.boundary_flow == expect

    def test_flow_in_unit_interval(self):
        for length in range(2, 13):
            for depth in range(2 if length % 2 == 0 else 3, length + 1, 2):
                cs = census.cone_stats(3, length, depth)
                assert 0 < cs.boundary_flow <= 1
                assert cs.volume > 0

    def test_volume_counts_descendant_sectors(self):
        cs = census.cone_stats(3, 6, 4)
        expect = census.sector_dim(3, 6, 4) * 2 + census.sector_dim(3, 6, 6) * 8
        assert cs.volume == expect

    @pytest.mark.parametrize("n", [3, 4])
    def test_masses_sum_to_volume(self, n):
        for length in range(2, 41):
            for depth in range(2 if length % 2 == 0 else 3, length + 1, 2):
                masses = census._cone_masses(n, length, depth)
                assert len(masses) == (length - depth) // 2 + 1
                assert sum(masses) == census.cone_stats(n, length, depth).volume

    def test_masses_match_enumeration(self):
        tally = census.enumerate_census(3, 8)
        for depth in (2, 4, 6, 8):
            prefix = (1, 2, 1, 2, 1, 2, 1)[: depth - 1]
            expect = [
                sum(
                    k
                    for irr, k in tally.items()
                    if len(irr) == dd and irr[: depth - 1] == prefix
                )
                for dd in range(depth, 9, 2)
            ]
            assert census._cone_masses(3, 8, depth) == expect

    def test_crossover_is_exponential(self):
        length = 60
        ratio = (
            census.cone_stats(3, length, 12).boundary_flow
            / census.cone_stats(3, length, 36).boundary_flow
        )
        assert ratio < Fraction(math.exp(-length / 100))

    def test_asymptotic_branches_track_exact(self):
        # ballistic branch (d above the drift depth) is tight; the diffusive
        # branch is an order-one envelope in its regime
        ball = census.cone_stats(3, 30, 20)
        assert 0.7 < ball.asymptotic_volume / ball.volume < 1.4
        assert 0.7 < ball.asymptotic_expansion / float(ball.boundary_flow) < 1.4
        diff = census.cone_stats(3, 30, 2)
        assert 0.9 < diff.asymptotic_volume / diff.volume < 1.1
        assert 0.3 < diff.asymptotic_expansion / float(diff.boundary_flow) < 3.0

    def test_rejects_bad_depth(self):
        for bad in (0, 1, 3, 6):
            with pytest.raises(UsageError):
                census.cone_stats(3, 4, bad)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_suffix_pass_gives_every_flow(self, n):
        for length in range(1, 201):
            cones = census._cone_exact(n, length)
            depths = range(2 + length % 2, length + 1, 2)
            assert sorted(cones) == list(depths)
            for d in depths:
                cs = census.cone_stats(n, length, d)
                assert cones[d] == (cs.volume, cs.boundary_flow)


class TestN2Expansion:
    def test_odd_closed_form(self):
        e = census.n2_min_expansion(3)
        assert e.exact == Fraction(1, 2)
        assert census.n2_charge_cut(3, 1) == (2, 4)

    def test_even_scan(self):
        # L=4: cut at charge 2 has boundary 3 and size 5, beating the cut at 4
        assert census.n2_min_expansion(4).exact == Fraction(3, 5)

    def test_asymptotic_accuracy(self):
        e = census.n2_min_expansion(11)
        assert abs(float(e.exact) / e.asymptotic - 1.0) < 0.10

    @pytest.mark.parametrize("length", [1, 3, 5, 7, 9])
    def test_boundary_alternating_sum_vs_brute_force(self, length):
        for q in range(1, length + 1, 2):
            boundary, size = census.n2_charge_cut(length, q)
            got_boundary = 0
            got_size = 0
            for idx in range(2**length):
                syms = tuple((idx >> i) % 2 + 1 for i in range(length))
                s = SpinString.from_ints(syms, 2)
                val = charge(s, 1).value - charge(s, 2).value
                if val < q:
                    continue
                got_size += 1
                flipped = syms[:-1] + (3 - syms[-1],)
                f = SpinString.from_ints(flipped, 2)
                if charge(f, 1).value - charge(f, 2).value < q:
                    got_boundary += 1
            assert (boundary, size) == (got_boundary, got_size), (length, q)

    def test_charge_cut_matches_binomial_sum(self):
        # oracle: the charge-q' states counted as C(L, (L+q')/2)
        for length in range(1, 121):
            for q in range(2 - length % 2, length + 1, 2):
                boundary = size = 0
                for i, qp in enumerate(range(q, length + 1, 2)):
                    states = math.comb(length, (length + qp) // 2)
                    size += states
                    boundary += (-1) ** i * states
                assert census.n2_charge_cut(length, q) == (boundary, size)

    def test_charge_cut_is_the_cone_of_its_depth(self):
        # at N=2 the charge->=q cut is the depth-q cone: its boundary is
        # the charge-(q-1) count one site shorter and its size the cone's
        # volume, so its expansion is the cone's flow
        for length in range(2, 61):
            cuts = cut_expansions(2, length)
            for q in range(2 + length % 2, length + 1, 2):
                volume = census.cone_stats(2, length, q).volume
                boundary = census.sector_dim(2, length - 1, q - 1)
                assert census.n2_charge_cut(length, q) == (boundary, volume)
                assert charge_expansion(2, length, q) == cuts[f"cone d={q}"]

    def test_charge_cut_is_capped(self):
        with pytest.raises(ResourceCapError):
            census.n2_charge_cut(100_000, 2)

    def test_odd_closed_form_is_minimum_over_cuts(self):
        for length in (3, 5, 7, 9, 11):
            scan = min(
                Fraction(*census.n2_charge_cut(length, q))
                for q in range(1, length + 1, 2)
            )
            assert census.n2_min_expansion(length).exact == scan


class TestEnumerateCensus:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_matches_recurrence(self, n, length):
        tally = census.enumerate_census(n, length)
        sc = census.sector_dims(n, length)
        for d in sc.dims:
            sizes = {k for irr, k in tally.items() if len(irr) == d}
            assert sizes == {sc.dims[d]}
            assert sum(1 for irr in tally if len(irr) == d) == sc.multiplicity[d]
        assert sum(tally.values()) == n**length

    def test_keys_are_irreducible(self):
        for irr in census.enumerate_census(3, 5):
            assert all(x != y for x, y in zip(irr, irr[1:]))

    def test_chunking_does_not_change_result(self):
        whole = census.enumerate_census(3, 6)
        chunked = census.enumerate_census(3, 6, chunk_size=17)
        assert whole == chunked

    def test_resource_caps(self):
        with pytest.raises(ResourceCapError):
            census.enumerate_census(3, 10, max_states=1000)
        with pytest.raises(ResourceCapError):
            census.enumerate_census(5, 30)


class TestTemperleyLieb:
    def test_zero_mode_sequence(self):
        assert [census.tl_zero_modes(3, L) for L in range(6)] == [1, 3, 8, 21, 55, 144]

    def test_n2_defrosts_to_linear(self):
        for length in range(0, 12):
            assert census.tl_zero_modes(2, length) == length + 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_closed_form_correctly_rounded(self, n):
        for length in range(0, 31):
            exact = float(census.tl_zero_modes(n, length))
            closed = census.tl_zero_modes_closed(n, length)
            assert abs(closed - exact) <= 0.5 * math.ulp(exact)
            assert closed == exact

    def test_closed_form_rejects_n2(self):
        with pytest.raises(UsageError):
            census.tl_zero_modes_closed(2, 5)

    def test_impurity_examples(self):
        assert census.tl_impurity_degeneracy(3, 4, 1) == 13
        assert census.tl_impurity_degeneracy(3, 4, 2) == 5
        with pytest.raises(UsageError):
            census.tl_impurity_degeneracy(3, 4, 3)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_impurity_positivity(self, n):
        for length in range(3, 101):
            assert census.tl_impurity_degeneracy(n, length, 1) > 0
            assert census.tl_impurity_degeneracy(n, length, 2) > 0

    def test_memory_bound(self):
        assert census.tl_memory_bound(3) == pytest.approx(0.1672, abs=1e-4)
        for n in range(3, 51):
            m = census.tl_memory_bound(n)
            assert 0 < m < 1 / n
        assert census.tl_memory_bound(10**6) * 10**6 == pytest.approx(1.0, abs=1e-5)
