"""Gap, expansion, Cheeger, and escape-profile tests."""

import dataclasses
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from pairflip import spectra
from pairflip.census import (
    cone_stats,
    n2_min_expansion,
    sector_dim,
    tree_walk_spectral_radius,
)
from pairflip.chains import (
    GateKind,
    StochasticChain,
    _lumped_rates,
    build_full_local,
    build_full_nonlocal,
    build_lumped,
    local_operator,
    state_index,
)
from pairflip.errors import NumericError, UsageError
from pairflip.spectra import (
    candidate_cuts,
    GapResult,
    charge_expansion,
    cheeger_check,
    cone_subset,
    cut_expansions,
    evolve_exact,
    exact_escape_profile,
    lumped_blocks,
    lumped_gap,
    n2_charge_subset,
    spectral_gap,
    subset_expansion,
)
from pairflip.walks import SectorId, SpinString


class TestGapResult:
    def test_relaxation_time(self):
        r = GapResult(gap=0.25, method="dense", residual=0.0, iterations=0)
        assert r.relaxation_time == 4.0
        z = GapResult(gap=0.0, method="dense", residual=0.0, iterations=0)
        assert z.relaxation_time == math.inf


class TestPrecision:
    def test_dense_precision_is_small_and_relative(self):
        res = spectral_gap(build_lumped(3, 6), dense_cutoff=127)
        assert res.method == "dense"
        assert 0 < res.precision < 1e-12
        assert res.precision == pytest.approx((res.residual + 127 * 2.0**-52) / res.gap)

    def test_iterative_precision(self):
        res = spectral_gap(build_full_local(3, 5), dense_cutoff=10)
        assert res.method == "iterative"
        assert 0 < res.precision < 1e-8

    def test_lumped_precision(self):
        assert lumped_gap(3, 14).precision < 1e-12

    def test_periodic_chain_is_clamped_loudly(self):
        # eigenvalues 1 and -1: 1 - |lambda_2| is 0, and nothing of the
        # gap's size is known
        ch = StochasticChain.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        res = spectral_gap(ch)
        assert res.gap == 0.0
        assert res.precision == math.inf


class TestDenseGap:
    def test_two_state_closed_form(self):
        # ((1-p, p), (q, 1-q)) has lambda_2 = 1 - p - q; with
        # p + q = 1.1 the gap by modulus is 1 - |1 - 1.1| = 0.9
        ch = StochasticChain.from_matrix(np.array([[0.7, 0.3], [0.8, 0.2]]))
        assert abs(spectral_gap(ch).gap - 0.9) < 1e-12

    def test_two_state_small(self):
        ch = StochasticChain.from_matrix(np.array([[0.7, 0.3], [0.2, 0.8]]))
        res = spectral_gap(ch)
        assert abs(res.gap - 0.5) < 1e-12
        assert res.method == "dense"
        assert res.residual < 1e-12

    def test_local_two_sites(self):
        # hand spectrum of the 4-state chain
        res = spectral_gap(build_full_local(2, 2))
        assert abs(res.gap - 0.5) < 1e-12

    def test_nonlocal_three_sites(self):
        res = spectral_gap(build_full_nonlocal(2, 3))
        assert abs(res.gap - 1 / 3) < 1e-12

    def test_reducible_raises(self):
        ch = StochasticChain.from_matrix(np.eye(3))
        with pytest.raises(UsageError):
            spectral_gap(ch)

    def test_one_state_raises(self):
        ch = StochasticChain.from_matrix(np.eye(1))
        with pytest.raises(UsageError):
            spectral_gap(ch)

    def test_gap_bounds(self):
        for builder in (build_full_local, build_full_nonlocal):
            res = spectral_gap(builder(3, 4))
            assert 0 <= res.gap <= 1

    def test_reducible_lumped_raises(self):
        ch = StochasticChain(
            kind="lumped", matrix=sp.csr_matrix(np.eye(2)), stationary=np.full(2, 0.5)
        )
        with pytest.raises(UsageError):
            spectral_gap(ch)


def _eigvals_gap(mat: np.ndarray) -> float:
    """1 - (second-largest eigenvalue modulus) of the raw matrix."""
    mods = np.sort(np.abs(np.linalg.eigvals(mat)))
    return float(1.0 - mods[-2])


class TestDenseGapMatchesEigvals:
    # each test names a cutoff that keeps its chains on the dense path

    @pytest.mark.parametrize("n,max_length", [(2, 12), (3, 7), (4, 5), (5, 4)])
    def test_lumped_matches_eigvals(self, n, max_length):
        for length in range(1, max_length + 1):
            ch = build_lumped(n, length)
            res = spectral_gap(ch, dense_cutoff=ch.dimension)
            assert res.method == "dense" and res.iterations == 0
            assert abs(res.gap - _eigvals_gap(ch.matrix.toarray())) < 1e-12
            assert res.residual < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_nonlocal_matches_eigvals_of_full_matrix(self, n):
        for length in range(1, 7):
            ch = build_full_nonlocal(n, length)
            res = spectral_gap(ch, dense_cutoff=ch.dimension)
            assert res.method == "dense"
            assert abs(res.gap - _eigvals_gap(ch.matrix.toarray())) < 1e-12
            assert res.residual < 1e-12


class TestIterativeGap:
    def test_lumped_matches_dense(self):
        # the lumped matrix is not symmetric, and eig on all 2047 sectors
        # of L=10 takes seconds; L=8 has 511
        ch = build_lumped(3, 8)
        dense = spectral_gap(ch, dense_cutoff=ch.dimension)
        it = spectral_gap(ch, dense_cutoff=64)
        assert dense.method == "dense" and it.method == "iterative"
        assert abs(dense.gap - it.gap) < 1e-9
        assert it.residual <= spectra.DEFAULT_TOL
        assert it.iterations > 0

    def test_nonlocal_matches_dense(self):
        # the full nonsymmetric matrix through eig and iteratively
        ch = build_full_nonlocal(3, 5)
        assert ch.dimension == 243
        dense = spectral_gap(ch, dense_cutoff=243)
        it = spectral_gap(ch, dense_cutoff=10)
        assert dense.method == "dense" and it.method == "iterative"
        assert abs(dense.gap - it.gap) < 1e-9

    def test_local_matches_dense(self):
        # the nonsymmetric chain goes through the iterative solver on the
        # deflated matrix; L=4 (81 states) is the first length above the
        # default cutoff
        for length in (4, 5, 6):
            for gate in GateKind:
                for reverse in (False, True):
                    ch = build_full_local(3, length, gate, reverse_layers=reverse)
                    dense = spectral_gap(ch, dense_cutoff=ch.dimension)
                    it = spectral_gap(ch, dense_cutoff=10)
                    assert dense.method == "dense" and it.method == "iterative"
                    assert abs(dense.gap - it.gap) < 1e-12
                    assert it.residual <= spectra.DEFAULT_TOL

    def test_too_small_for_a_restart_is_exact(self):
        # 4 states: the basis spans them all before any restart, and its
        # Ritz values are the spectrum
        res = spectral_gap(build_full_local(2, 2), dense_cutoff=1)
        assert res.method == "iterative" and res.iterations <= 4
        assert abs(res.gap - 0.5) < 1e-12

    def test_chain_that_mixes_in_one_step_exhausts_the_krylov_space(self):
        # every row is the uniform law, so the deflated operator is zero to
        # rounding: the first residual is at rounding level, the Krylov
        # space is exhausted after one matvec, and the gap is 1
        ch = StochasticChain.from_matrix(np.full((50, 50), 1 / 50))
        res = spectral_gap(ch, dense_cutoff=1)
        assert res.method == "iterative" and res.iterations == 1
        assert res.gap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("build", [build_lumped, build_full_local])
    def test_too_few_matvecs_is_numeric(self, build):
        ch = build(3, 4)
        assert spectral_gap(ch, dense_cutoff=10).iterations > 3
        with pytest.raises(NumericError, match="did not converge in 3 matvecs"):
            spectral_gap(ch, dense_cutoff=10, max_iterations=3)

    def test_custom_iterative_needs_structure(self):
        ch = StochasticChain.from_matrix(np.array([[0.7, 0.3], [0.2, 0.8]]))
        with pytest.raises(UsageError):
            spectral_gap(ch, dense_cutoff=1)

    def test_raw_chain_above_the_default_cutoff_names_the_cutoff(self):
        # no law is given and the uniform one is not stationary: the
        # iterative solve cannot deflate it, and the error says how to
        # solve it densely
        mat = np.random.default_rng(5).random((100, 100))
        ch = StochasticChain.from_matrix(mat / mat.sum(axis=1, keepdims=True))
        with pytest.raises(UsageError, match="dense_cutoff >= 100"):
            spectral_gap(ch)
        res = spectral_gap(ch, dense_cutoff=100)
        assert res.method == "dense"
        assert res.gap == pytest.approx(_eigvals_gap(ch.matrix.toarray()), abs=1e-12)

    def test_raw_chain_given_its_law_is_iterative(self):
        # a birth-death chain, up 0.4 and down 0.3, is stationary for the
        # detailed-balance law (4/3)^i, far from uniform
        up, down, dim = 0.4, 0.3, 100
        mat = np.diag(np.full(dim - 1, up), 1) + np.diag(np.full(dim - 1, down), -1)
        mat += np.diag(1.0 - mat.sum(axis=1))
        law = (up / down) ** np.arange(dim)
        ch = StochasticChain.from_matrix(mat, stationary=law / law.sum())
        it = spectral_gap(ch)
        dense = spectral_gap(ch, dense_cutoff=dim)
        assert it.method == "iterative" and dense.method == "dense"
        assert abs(it.gap - dense.gap) < 1e-12
        assert it.residual <= spectra.DEFAULT_TOL
        uniform = StochasticChain.from_matrix(mat, stationary=np.full(dim, 1 / dim))
        with pytest.raises(UsageError, match="dense_cutoff >= 100"):
            spectral_gap(uniform)


class TestDefaultCutoff:
    @pytest.mark.parametrize("n,length,method", [(2, 6, "dense"), (3, 4, "iterative")])
    def test_the_floor_is_64_states(self, n, length, method):
        # 64 states solve densely at the default cutoff, 81 iteratively
        ch = build_full_local(n, length)
        res = spectral_gap(ch)
        assert res.method == method
        assert abs(res.gap - _eigvals_gap(ch.matrix.toarray())) < 1e-12

    @pytest.mark.parametrize(
        "tol,max_iterations", [(0.0, 10), (-1.0, 10), (math.nan, 10),
                               (math.inf, 10), (1e-10, 0)]
    )
    def test_bad_solver_arguments(self, tol, max_iterations):
        # a NaN tol would run the iterative solver to its last matvec
        with pytest.raises(UsageError):
            spectral_gap(build_lumped(2, 3), tol=tol, max_iterations=max_iterations)

    def test_no_convergence_is_loud(self):
        ch = build_lumped(3, 12)
        with pytest.raises(NumericError):
            spectral_gap(ch, dense_cutoff=64, max_iterations=1, tol=1e-15)

    def test_deterministic(self):
        ch = build_lumped(3, 11)
        a = spectral_gap(ch, dense_cutoff=64)
        b = spectral_gap(ch, dense_cutoff=64)
        assert a.gap == b.gap and a.iterations == b.iterations


class TestTwoSymbolWindow:
    @pytest.mark.parametrize("length", [5, 7, 9, 11, 13])
    def test_window_odd_lengths(self, length):
        gap = spectral_gap(build_lumped(2, length)).gap
        assert 1 / (math.pi * length) <= gap <= math.sqrt(8 / (math.pi * length))

    @pytest.mark.parametrize("length", range(3, 9))
    def test_measured_gap_is_one_over_length(self, length):
        # frozen observation from the dense solve: the two-symbol
        # nonlocal gap equals 1/L on every length computed here
        gap = spectral_gap(build_lumped(2, length)).gap
        assert abs(gap - 1 / length) < 1e-12


class TestLocalOperatorGap:
    @pytest.mark.parametrize("cutoff", [1, 64, 729])
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_equals_the_built_chain(self, kind, cutoff):
        for length in (3, 4, 5, 6):
            for reverse in (False, True):
                built = spectral_gap(
                    build_full_local(3, length, kind, reverse_layers=reverse),
                    dense_cutoff=cutoff,
                )
                free = spectral_gap(
                    local_operator(3, length, kind, reverse_layers=reverse),
                    dense_cutoff=cutoff,
                )
                assert free.method == built.method
                assert free.gap == pytest.approx(built.gap, rel=1e-12)
                assert free.residual <= spectra.DEFAULT_TOL

    def test_operator_skips_the_connectivity_check(self, monkeypatch):
        # built chains are checked with connected_components; the operator
        # is irreducible by construction (TestLocalOperator in test_chains)
        def refuse(chain):
            raise AssertionError("checked the connectivity")

        monkeypatch.setattr(spectra, "_require_irreducible", refuse)
        assert spectral_gap(local_operator(3, 5)).method == "iterative"
        with pytest.raises(AssertionError):
            spectral_gap(build_full_local(3, 5))


class TestGapOrdering:
    @pytest.mark.parametrize("n,lengths", [(2, range(3, 8)), (3, range(3, 11))])
    def test_local_below_nonlocal_and_ratio_decreases(self, n, lengths):
        ratios = []
        for length in lengths:
            gl = spectral_gap(local_operator(n, length)).gap
            gn = spectral_gap(build_lumped(n, length)).gap
            assert gl <= gn + 1e-12
            ratios.append(gl / gn)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestSubsetExpansion:
    def test_two_symbol_halfline_flow(self):
        # the outflow convention gives 1/4 at L=3: two boundary states
        # out of four leave with probability 1/2 each
        for ch in (
            build_full_local(2, 3, exact=True),
            build_full_nonlocal(2, 3, exact=True),
            build_lumped(2, 3),
        ):
            phi = subset_expansion(ch, n2_charge_subset(ch, 1))
            assert phi == Fraction(1, 4)

    def test_edge_convention_is_n_times_flow(self):
        ch = build_lumped(2, 3)
        phi = subset_expansion(ch, n2_charge_subset(ch, 1))
        assert n2_min_expansion(3).exact == 2 * phi

    def test_cone_expansion_matches_census(self):
        for ch in (
            build_full_local(3, 4, exact=True),
            build_full_nonlocal(3, 4, exact=True),
            build_lumped(3, 4),
        ):
            assert subset_expansion(ch, cone_subset(ch, 2)) == Fraction(5, 33)

    @pytest.mark.parametrize("n,length", [(3, 6), (3, 7), (4, 4), (2, 8)])
    def test_all_cones_match_census_exactly(self, n, length):
        ch = build_lumped(n, length)
        for depth in range(2 if length % 2 == 0 else 3, length + 1, 2):
            stats = cone_stats(n, length, depth)
            assert subset_expansion(ch, cone_subset(ch, depth)) == stats.boundary_flow

    def test_float_agrees_with_exact(self):
        exact = build_full_nonlocal(3, 4, exact=True)
        fl = build_full_nonlocal(3, 4)
        sub = cone_subset(exact, 2)
        a = subset_expansion(exact, sub)
        b = subset_expansion(fl, sub)
        assert abs(float(a) - b) < 1e-12

    def test_bad_subsets(self):
        ch = build_lumped(3, 4)
        with pytest.raises(UsageError):
            subset_expansion(ch, [])
        with pytest.raises(UsageError):
            subset_expansion(ch, list(range(ch.dimension)))
        with pytest.raises(UsageError):
            subset_expansion(ch, [ch.dimension])


class TestConeSubset:
    @pytest.mark.parametrize("n,length,depth", [(3, 4, 2), (3, 6, 4), (2, 4, 2)])
    def test_cone_size_matches_volume(self, n, length, depth):
        full = build_full_nonlocal(n, length)
        lump = build_lumped(n, length)
        vol = cone_stats(n, length, depth).volume
        assert len(cone_subset(full, depth)) == vol
        sizes = sum(
            sector_dim(n, length, len(lump.basis[k].irr))
            for k in cone_subset(lump, depth)
        )
        assert sizes == vol

    def test_anchor_symmetry(self):
        ch = build_lumped(3, 6)
        a = subset_expansion(ch, cone_subset(ch, 2, SectorId((1,), 3)))
        b = subset_expansion(ch, cone_subset(ch, 2, SectorId((3,), 3)))
        assert a == b

    def test_bad_depth(self):
        ch = build_lumped(3, 4)
        for depth in (0, 1, 3, 6):
            with pytest.raises(UsageError):
                cone_subset(ch, depth)

    def test_anchor_length_mismatch(self):
        ch = build_lumped(3, 4)
        with pytest.raises(UsageError):
            cone_subset(ch, 2, SectorId((1, 2), 3))

    def test_custom_chain_rejected(self):
        ch = StochasticChain.from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(UsageError):
            cone_subset(ch, 2)


class TestChargeSubset:
    def test_halfline_membership(self):
        ch = build_full_nonlocal(2, 3)
        got = set(n2_charge_subset(ch, 1))
        expect = {
            state_index(SpinString(s, 2))
            for s in [(1, 1, 2), (2, 1, 1), (2, 1, 2), (2, 2, 2)]
        }
        assert got == expect

    @pytest.mark.parametrize("length,q", [(3, 1), (3, 3), (4, 2), (5, 1), (6, 4)])
    def test_sizes_are_binomial_tails(self, length, q):
        ch = build_full_nonlocal(2, length)
        size = sum(
            math.comb(length, (length + qq) // 2)
            for qq in range(q, length + 1, 2)
        )
        assert len(n2_charge_subset(ch, q)) == size

    def test_lumped_matches_full(self):
        full = build_full_nonlocal(2, 5, exact=True)
        lump = build_lumped(2, 5)
        a = subset_expansion(full, n2_charge_subset(full, 1))
        b = subset_expansion(lump, n2_charge_subset(lump, 1))
        assert a == b

    def test_bad_args(self):
        with pytest.raises(UsageError):
            n2_charge_subset(build_full_nonlocal(2, 4), 1)  # parity
        with pytest.raises(UsageError):
            n2_charge_subset(build_full_nonlocal(2, 4), 6)  # range
        with pytest.raises(UsageError):
            n2_charge_subset(build_full_nonlocal(3, 4), 2)  # alphabet


class TestCheeger:
    def test_two_symbol_sandwich_both_conventions(self):
        # the minimizing cut is the half line; the sandwich holds for
        # the flow values in the report and for the edge-convention
        # value from the closed form
        rep = cheeger_check(2, 7, spectral_gap(build_lumped(2, 7)))
        assert rep.witness == "charge q=1"
        assert rep.lower_certified
        assert rep.phi_min == pytest.approx(5 / 32)
        assert rep.lower_witness <= rep.gap.gap <= rep.upper
        star = float(n2_min_expansion(7).exact)
        assert star**2 / 2 <= rep.gap.gap <= 2 * star

    @pytest.mark.parametrize("length", [4, 6, 8])
    def test_three_symbol_upper_bound(self, length):
        rep = cheeger_check(3, length, lumped_gap(3, length))
        assert rep.witness.startswith("cone")
        assert not rep.lower_certified
        assert rep.gap.gap <= rep.upper
        depths = range(2, length + 1, 2)
        assert set(rep.candidates) == {f"cone d={d}" for d in depths}

    def test_candidates_match_census(self):
        rep = cheeger_check(3, 6, lumped_gap(3, 6))
        for d in (2, 4, 6):
            stats = cone_stats(3, 6, d)
            assert rep.candidates[f"cone d={d}"] == pytest.approx(
                float(stats.boundary_flow)
            )

    @pytest.mark.parametrize("n,length", [(2, 7), (3, 6), (10, 1000)])
    def test_lower_log_is_the_exact_log(self, n, length):
        # at N=10, L=1000 phi^2/2 is below the smallest double: the float
        # is 0 and the log, taken from the exact expansion, stays finite
        rep = cheeger_check(n, length, lumped_gap(n, length))
        phi = cut_expansions(n, length)[rep.witness]
        log_phi = math.log(phi.numerator) - math.log(phi.denominator)
        assert rep.lower_log == pytest.approx(2 * log_phi - math.log(2), rel=1e-14)
        if rep.lower_witness > 0:
            assert rep.lower_log == pytest.approx(math.log(rep.lower_witness), rel=1e-14)
        else:
            assert n == 10 and rep.lower_log < math.log(sys.float_info.min)

    def test_violation_is_loud(self):
        fake = GapResult(gap=0.99, method="dense", residual=0.0, iterations=0)
        with pytest.raises(NumericError):
            cheeger_check(3, 6, fake)

    def test_tolerance_is_relative(self):
        # the gap at L=400 is near 3e-14: an absolute tolerance of 1e-9
        # let a gap 1 % above 2 phi through
        res = lumped_gap(3, 400)
        upper = cheeger_check(3, 400, res).upper
        cheeger_check(3, 400, dataclasses.replace(res, gap=0.99 * upper))
        with pytest.raises(NumericError, match="upper bound"):
            cheeger_check(3, 400, dataclasses.replace(res, gap=1.01 * upper))
        # and the certified two-symbol lower bound, 1 % below phi^2 / 2
        res = lumped_gap(2, 401)
        lower = cheeger_check(2, 401, res).lower_witness
        cheeger_check(2, 401, dataclasses.replace(res, gap=1.01 * lower))
        with pytest.raises(NumericError, match="lower bound"):
            cheeger_check(2, 401, dataclasses.replace(res, gap=0.99 * lower))

    def test_candidate_cuts(self):
        cuts = candidate_cuts(build_lumped(2, 5))
        assert list(cuts) == [
            "cone d=3", "cone d=5", "charge q=1", "charge q=3", "charge q=5"
        ]
        assert np.array_equal(cuts["cone d=3"], cone_subset(build_lumped(2, 5), 3))

    def test_too_short_for_any_cut(self):
        assert candidate_cuts(build_lumped(3, 1)) == {}
        assert cut_expansions(3, 1) == {}
        assert cheeger_check(3, 1, lumped_gap(3, 1)) is None

    def test_custom_chain_rejected(self):
        # the cuts of a built chain need its alphabet and length
        ch = StochasticChain.from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(UsageError):
            candidate_cuts(ch)


class TestEscapeProfile:
    def test_starts_at_zero_and_first_step_is_the_flow(self):
        ch = build_lumped(3, 4)
        prof = exact_escape_profile(ch, 2, 5)
        assert prof[0] == 0
        assert prof[1] == Fraction(5, 33)

    def test_lumped_equals_full_nonlocal(self):
        # a uniform-in-cone start is constant on sectors, so the
        # lumped evolution reproduces the full one exactly
        lump = exact_escape_profile(build_lumped(3, 4), 2, 8)
        full = exact_escape_profile(build_full_nonlocal(3, 4, exact=True), 2, 8)
        assert lump == full

    @pytest.mark.parametrize("n,length,depth", [(3, 6, 2), (3, 5, 3), (2, 4, 2)])
    def test_bounded_by_t_times_flow(self, n, length, depth):
        ch = build_lumped(n, length)
        phi = cone_stats(n, length, depth).boundary_flow
        prof = exact_escape_profile(ch, depth, 20)
        assert all(p <= t * phi for t, p in enumerate(prof))

    def test_two_symbol_cone_flow(self):
        # N=2, L=4 cone below anchor (1): volume 5, flow 3/10
        ch = build_lumped(2, 4)
        stats = cone_stats(2, 4, 2)
        assert stats.volume == 5
        assert stats.boundary_flow == Fraction(3, 10)
        assert exact_escape_profile(ch, 2, 1)[1] == Fraction(3, 10)

    def test_needs_exact_chain(self):
        with pytest.raises(UsageError):
            exact_escape_profile(build_full_nonlocal(3, 4), 2, 5)
        with pytest.raises(UsageError):
            exact_escape_profile(build_lumped(3, 4), 2, -1)


class TestEvolveExact:
    def test_hand_two_state(self):
        rows = (
            {0: Fraction(1, 2), 1: Fraction(1, 2)},
            {0: Fraction(1, 4), 1: Fraction(3, 4)},
        )
        dist = [Fraction(1), Fraction(0)]
        out = evolve_exact(rows, dist, 2)
        # step 1: (1/2, 1/2); step 2: (1/4+1/8, 1/4+3/8)
        assert out == [Fraction(3, 8), Fraction(5, 8)]
        assert sum(out) == 1


# ---------------------------------------------------------------------------
# lumped chain from its tridiagonal blocks


def _block_spectrum(block):
    return sla.eigh_tridiagonal(
        block.diagonal, block.offdiagonal, eigvals_only=True
    )


_EPS = float(np.finfo(float).eps)


def _generator_spectrum(block):
    """Eigenvalues of a block's generator ``I - B``, ascending."""
    return sla.eigh_tridiagonal(
        block.up + block.down + block.leak, block.offdiagonal, eigvals_only=True
    )


def _swept_gap(n, length):
    """``(gap, residual, precision)`` of the lumped gap from every block:
    each block's smallest float eigenvalue ranks it, the radial block
    entering through its difference form (which drops the stationary
    zero), and every block whose float extreme lies within its rounding
    of the best bracket so far is bracketed in turn. The sweep's ceiling,
    which cut short brackets that could no longer win, is left out: it
    changed only the solve count."""
    generators = []
    for block in lumped_blocks(n, length):
        if block.leak.any():
            generators.append((block.up, block.down, block.leak))
        elif block.up.size > 1:
            # differences f_{i+1} - f_i: a leaky generator with the radial
            # spectrum less its zero, leaking down[0] and up[-1] at its ends
            a, b, m = block.up, block.down, block.up.size - 1
            leak = np.zeros(m)
            leak[0] += b[0]
            leak[-1] += a[m]
            generators.append(
                (np.concatenate(([0.0], b[1:m])), np.append(a[1:m], 0.0), leak)
            )
    bottoms = [
        sla.eigh_tridiagonal(
            up + down + leak, np.sqrt(down[:-1] * up[1:]), eigvals_only=True,
            select="i", select_range=(0, 0),
        )[0]
        for up, down, leak in generators
    ]
    best = None
    for k in sorted(range(len(bottoms)), key=bottoms.__getitem__):
        size = generators[k][0].size
        if best is not None and bottoms[k] - 4 * size * _EPS > best[1]:
            break
        lo, hi, _ = spectra._leaky_bracket(*generators[k])
        if best is None or lo + hi < best[0] + best[1]:
            best = (lo, hi, size)
    lo, hi, size = best
    return 0.5 * (lo + hi), hi - lo, (hi - lo) / (hi + lo) + 10 * size * _EPS


def _exact_blocks(n, length):
    """Generator ``I - B`` of every block as (diagonal, squared
    off-diagonals, radial flag), written out from the lumped rows in
    exact rationals and then rounded to the working precision."""

    def mp(x):
        return mpmath.mpf(x.numerator) / x.denominator

    def p(d):  # to the grandparent and to each sibling
        return Fraction(sector_dim(n, length - 1, d - 1), n * sector_dim(n, length, d))

    def grand(d):  # to all grandchildren together
        fan = (n - 1) ** 2 if d else n * (n - 1)
        return Fraction(fan * sector_dim(n, length - 1, d + 1), n * sector_dim(n, length, d))

    def siblings(d):
        return (n - 2 if d >= 2 else n - 1) * p(d) if d else Fraction(0)

    depths = range(length % 2, length + 1, 2)
    diag = {d: mp(1 - Fraction(1, n) - siblings(d)) for d in depths}
    off2 = {d: mp(grand(d) * p(d + 2)) for d in depths[:-1]}

    def block(top, top_siblings, radial):
        rows = range(top, length + 1, 2)
        head = mp(1 - Fraction(1, n) - top_siblings)
        return [head] + [diag[d] for d in rows[1:]], [off2[d] for d in rows[:-1]], radial

    out = [block(length % 2, siblings(length % 2), True)]
    for j in range(length):
        top = j + 1 if (length - j - 1) % 2 == 0 else j + 2
        if n == 2 and j >= 1:
            continue
        out.append(block(top, -p(top) if top == j + 1 else siblings(top), False))
    return out


def _sturm_count(diag, off2, x):
    """Number of eigenvalues below ``x`` of a symmetric tridiagonal."""
    count, q = 0, None
    for i, d in enumerate(diag):
        q = d - x if i == 0 else d - x - off2[i - 1] / q
        if q == 0:
            q = mpmath.mpf(10) ** (-2 * mpmath.mp.dps)
        count += q < 0
    return count


def _oracle_gap(n, length, guess):
    """Smallest ``min(mu, 2 - mu)`` over the nonzero generator eigenvalues
    of every block, by Sturm-count bisection at 60 digits. ``guess`` only
    places the bracket: Sturm counts confirm that no eigenvalue lies
    below ``guess / 1000``, and Gershgorin discs that none lies above
    ``2 - 2 guess``."""
    with mpmath.workdps(60):
        top = 2 * mpmath.mpf(guess)
        floor = top / 2000
        best = None
        for diag, off2, radial in _exact_blocks(n, length):
            root = [0.0] + [math.sqrt(float(c)) for c in off2] + [0.0]
            disc = max(float(d) + root[i] + root[i + 1] for i, d in enumerate(diag))
            assert disc < 2 - 2 * guess - 1e-9
            zero = 1 if radial else 0  # the radial block's stationary mode
            if _sturm_count(diag, off2, top) == zero:
                continue
            assert _sturm_count(diag, off2, floor) == zero
            lo, hi = floor, top
            for _ in range(80):  # bisect in log scale
                mid = mpmath.sqrt(lo * hi)
                if _sturm_count(diag, off2, mid) > zero:
                    hi = mid
                else:
                    lo = mid
            best = hi if best is None else min(best, hi)
        assert best is not None, "no eigenvalue below twice the guess"
        return float(best)


class TestLumpedSpectrumSign:
    """The lumped spectrum lies in [0, 1], so the gap is the smallest
    nonzero generator eigenvalue and no negative chain eigenvalue can
    set it."""

    @pytest.mark.parametrize(
        "n,length",
        [(2, L) for L in range(1, 11)]
        + [(3, L) for L in range(1, 11)]
        + [(4, L) for L in range(1, 7)]
        + [(5, L) for L in range(1, 6)],
    )
    def test_no_negative_eigenvalue(self, n, length):
        chain = build_lumped(n, length)
        root = np.sqrt(chain.stationary)
        sym = root[:, None] * chain.matrix.toarray() / root[None, :]
        assert np.linalg.eigvalsh(0.5 * (sym + sym.T)).min() > -1e-12

    # (n, L, gap, residual, iterations, precision) as returned before the
    # negative-eigenvalue branch was removed from lumped_gap; iterations
    # count block 0's solves only, which moves (3, 401) from the 7 solves
    # of the all-block sweep to 3
    PINNED = [
        (2, 1, 1.0, 0.0, 1, 2.220446049250313e-15),
        (2, 2, 0.5, 0.0, 1, 2.220446049250313e-15),
        (2, 5, 0.2, 1.1102230246251565e-16, 33, 6.938893903907228e-15),
        (2, 8, 0.12499999999999999, 8.326672684688674e-17, 33, 9.2148511043888e-15),
        (2, 13, 0.0769230769230769, 6.938893903907228e-17, 33, 1.599415044850616e-14),
        (3, 1, 1.0, 0.0, 1, 2.220446049250313e-15),
        (3, 2, 0.3333333333333333, 0.0, 1, 2.220446049250313e-15),
        (3, 3, 0.20000000000000007, 8.326672684688674e-17, 23, 4.649058915617843e-15),
        (3, 6, 0.06625546618132758, 1.3877787807814457e-17, 21, 6.7660675278886765e-15),
        (3, 9, 0.03393025677167076, 2.0816681711721685e-17, 19, 1.1408987160173626e-14),
        (3, 14, 0.014199988478427536, 3.469446951953614e-18, 17, 1.5665286068941982e-14),
        (3, 40, 0.0008686512891619498, 2.6020852139652106e-18, 10, 4.5906694168809183e-14),
        (3, 401, 2.6633927929453844e-14, 4.1020767071492614e-29, 3, 4.470797407170714e-13),
        (4, 5, 0.05367636834732327, 2.0816681711721685e-17, 18, 6.85524733304663e-15),
        (4, 10, 0.01016727332059034, 0.0, 14, 1.1102230246251565e-14),
        (5, 7, 0.014846616777770234, 6.938893903907228e-18, 14, 9.115470228228811e-15),
    ]

    @pytest.mark.parametrize("n,length,gap,residual,iterations,precision", PINNED)
    def test_gap_is_bit_identical(self, n, length, gap, residual, iterations, precision):
        res = lumped_gap(n, length)
        assert (res.gap, res.residual, res.iterations, res.precision) == (
            gap, residual, iterations, precision
        )


class TestLumpedBlocks:
    @pytest.mark.parametrize(
        "n,length",
        [(2, 5), (2, 8), (3, 6), (3, 7), (3, 8), (4, 6), (5, 5)],
    )
    def test_spectrum_with_multiplicities_is_the_chain_spectrum(self, n, length):
        blocks = lumped_blocks(n, length)
        vals = np.sort(np.concatenate(
            [np.repeat(_block_spectrum(b), b.multiplicity) for b in blocks]
        ))
        full = np.linalg.eigvals(build_lumped(n, length).matrix.toarray())
        assert np.abs(full.imag).max() < 1e-12
        assert vals.size == full.size
        assert np.abs(vals - np.sort(full.real)).max() < 1e-12

    def test_block_shapes(self):
        blocks = lumped_blocks(3, 7)
        assert [b.top for b in blocks] == [1, 1, 3, 3, 5, 5, 7, 7]
        assert [b.multiplicity for b in blocks] == [1, 2, 3, 6, 12, 24, 48, 96]
        assert [b.up.size for b in blocks] == [4, 4, 3, 3, 2, 2, 1, 1]
        # only the top row of a non-radial block leaks
        assert not blocks[0].leak.any()
        for b in blocks[1:]:
            assert b.leak[0] > 0 and not b.leak[1:].any()
        # at N=2 only the radial block and block 0 remain
        assert len(lumped_blocks(2, 9)) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("length", [1, 2, 7, 8, 301])
    def test_radial_rates_round_the_exact_rates(self, n, length):
        radial = lumped_blocks(n, length)[0]
        ups, downs = _lumped_rates(n, length)
        depths = range(length % 2, length + 1, 2)
        fans = [(n - 1) * (n - 1 if d else n) for d in depths]
        assert radial.up[0] == 0.0
        assert radial.up[1:].tolist() == [float(u) for u in ups[1:]]
        assert radial.down.tolist() == [float(f * w) for f, w in zip(fans, downs)]
        # the same floats as int / int quotients of the sector sizes
        assert radial.up[1:].tolist() == [
            sector_dim(n, length - 1, d - 1) / (n * sector_dim(n, length, d))
            for d in depths[1:]
        ]

    def test_radial_block_holds_the_stationary_mode(self):
        top = _block_spectrum(lumped_blocks(3, 10)[0])[-1]
        assert top == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_block_zero_is_the_lowest(self, n):
        # no block's smallest eigenvalue (the radial block's smallest
        # nonzero one) lies below block 0's, up to the float solve's error
        for length in range(1, 41):
            radial, zero, *rest = lumped_blocks(n, length)
            bottom = _generator_spectrum(zero)[0]
            for block in rest:
                size = block.up.size
                assert _generator_spectrum(block)[0] >= bottom - 4 * size * _EPS
            if radial.up.size > 1:
                size = radial.up.size
                assert _generator_spectrum(radial)[1] >= bottom - 4 * size * _EPS

    @pytest.mark.parametrize(
        "n,length",
        [(n, L) for n in range(2, 7) for L in range(1, 61)]
        + [(3, 401), (3, 600), (5, 200)],
    )
    def test_equals_the_all_block_sweep(self, n, length):
        res = lumped_gap(n, length)
        assert (res.gap, res.residual, res.precision) == _swept_gap(n, length)

    @pytest.mark.parametrize("length", range(6, 15))
    def test_gap_matches_the_chain(self, length):
        # a dense cutoff of 1024 solves L <= 9 (up to 1023 sectors) with
        # eig and the longer chains iteratively
        res = lumped_gap(3, length)
        assert res.method == "tridiagonal"
        assert res.gap == pytest.approx(
            spectral_gap(build_lumped(3, length), dense_cutoff=1024).gap, abs=1e-12
        )

    @pytest.mark.parametrize(
        "n,length", [(2, 1), (2, 6), (3, 1), (3, 5), (3, 8), (4, 2), (4, 5)]
    )
    def test_full_nonlocal_matrix_has_the_block_gap(self, n, length):
        # the nonlocal chain B R S shares its nonzero spectrum with the
        # lumped chain S B R, so the gap CLI serves it from the blocks;
        # the reference solves the full matrix, up to 6561 states
        ref = spectral_gap(build_full_nonlocal(n, length)).gap
        assert lumped_gap(n, length).gap == pytest.approx(ref, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("length", range(1, 16, 2))
    def test_two_symbol_gap_is_one_over_length(self, length):
        assert lumped_gap(2, length).gap == pytest.approx(1 / length, abs=1e-12)

    @pytest.mark.parametrize("n,length", [(3, 1), (4, 1), (16, 1), (3, 2)])
    def test_short_chains(self, n, length):
        ref = spectral_gap(build_lumped(n, length)).gap
        assert lumped_gap(n, length).gap == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("length", [200, 400, 600])
    def test_matches_high_precision_oracle(self, length):
        res = lumped_gap(3, length)
        exact = _oracle_gap(3, length, res.gap)
        assert abs(res.gap - exact) <= 1e-10 * exact
        assert abs(res.gap - exact) <= res.precision * exact
        assert res.precision < 1e-11

    def test_far_below_double_precision(self):
        # the values a float 1 - lambda cannot resolve
        assert lumped_gap(3, 400).gap == pytest.approx(2.80843405897813e-14, rel=1e-10)
        assert lumped_gap(3, 600).gap == pytest.approx(1.20244028734082e-19, rel=1e-10)

    def test_shape_at_large_length(self):
        # gap ~ rho^L L^-3/2 with a prefactor still climbing at L=100-400:
        # the constant rises, the local exponent of L falls toward -3/2
        rho = tree_walk_spectral_radius(3)
        lengths = range(100, 401, 20)
        gaps = [lumped_gap(3, length).gap for length in lengths]
        consts = [g / (rho**L * L**-1.5) for g, L in zip(gaps, lengths)]
        assert all(b > a for a, b in zip(consts, consts[1:]))
        assert max(consts) / min(consts) < 2.0
        logs = [math.log(g) - L * math.log(rho) for g, L in zip(gaps, lengths)]
        slopes = [
            (logs[k + 1] - logs[k]) / math.log(lengths[k + 1] / lengths[k])
            for k in range(len(logs) - 1)
        ]
        assert all(b < a for a, b in zip(slopes, slopes[1:]))
        assert all(-1.5 < s < -1.2 for s in slopes)

    def test_bad_size(self):
        with pytest.raises(UsageError):
            lumped_gap(1, 4)
        with pytest.raises(UsageError):
            lumped_blocks(3, 0)


def _walked_expansions(chain: StochasticChain) -> dict:
    """:func:`subset_expansion` of every candidate cut of a built chain."""
    return {
        label: subset_expansion(chain, cut)
        for label, cut in candidate_cuts(chain).items()
    }


class TestLumpedCutExpansions:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("length", [7, 8, 9])
    def test_closed_forms_equal_subset_expansion(self, n, length):
        closed = cut_expansions(n, length)
        built = _walked_expansions(build_lumped(n, length))
        assert list(closed) == list(built)
        for label, phi in closed.items():
            assert isinstance(phi, Fraction)
            assert phi == built[label], label

    @pytest.mark.parametrize(
        "n,length",
        [(2, L) for L in range(1, 8)]
        + [(3, L) for L in range(1, 6)]
        + [(4, L) for L in range(1, 5)],
    )
    def test_closed_forms_equal_full_chains(self, n, length):
        # every cut is a union of sectors and only the boundary update
        # crosses it: the local builds (both gates, both layer orders) and
        # the nonlocal build have the lumped chain's exact expansions
        closed = cut_expansions(n, length)
        builds = [
            build_full_local(n, length, gate, exact=True, reverse_layers=rev)
            for gate in GateKind
            for rev in (False, True)
        ] + [build_full_nonlocal(n, length, exact=True)]
        for chain in builds:
            assert _walked_expansions(chain) == closed, chain.kind

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 8])
    def test_every_charge_cut(self, length):
        chain = build_lumped(2, length)
        for q in range(2 - length, length + 1, 2):
            assert charge_expansion(2, length, q) == subset_expansion(
                chain, n2_charge_subset(chain, q)
            )

    def test_charge_cut_errors(self):
        with pytest.raises(UsageError, match="two-symbol"):
            charge_expansion(3, 4, 2)
        with pytest.raises(UsageError, match="parity or range"):
            charge_expansion(2, 4, 1)
        with pytest.raises(UsageError, match="nonempty and proper"):
            charge_expansion(2, 4, -4)

    def test_sandwich_is_shared(self):
        # the report from the closed forms is the one the walked cuts of a
        # built chain give
        gap = lumped_gap(2, 7)
        rep = cheeger_check(2, 7, gap)
        walked = {
            label: float(phi)
            for label, phi in _walked_expansions(build_lumped(2, 7)).items()
        }
        assert rep.candidates == walked
        assert rep.witness == min(walked, key=walked.get)
        assert rep.phi_min == min(walked.values())
        assert rep.upper == 2 * rep.phi_min
