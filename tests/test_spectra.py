"""Gap, expansion, Cheeger, and escape-profile tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from pairflip import spectra
from pairflip.census import cone_stats, n2_min_expansion, sector_dim
from pairflip.chains import (
    GateKind,
    StochasticChain,
    build_full_local,
    build_full_nonlocal,
    build_lumped,
    state_index,
)
from pairflip.errors import NumericError, UsageError
from pairflip.spectra import (
    candidate_cuts,
    GapResult,
    cheeger_check,
    cone_subset,
    evolve_exact,
    exact_escape_profile,
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


class TestSymmetricDenseGap:
    @pytest.mark.parametrize("n,max_length", [(2, 12), (3, 7), (4, 5), (5, 4)])
    def test_lumped_matches_eigvals(self, n, max_length):
        for length in range(1, max_length + 1):
            ch = build_lumped(n, length)
            res = spectral_gap(ch)
            assert res.method == "dense" and res.iterations == 0
            assert abs(res.gap - _eigvals_gap(ch.matrix.toarray())) < 1e-12
            assert res.residual < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_nonlocal_matches_eigvals_of_full_matrix(self, n):
        for length in range(1, 7):
            ch = build_full_nonlocal(n, length)
            res = spectral_gap(ch)
            assert res.method == "dense"
            assert abs(res.gap - _eigvals_gap(ch.matrix.toarray())) < 1e-12
            assert res.residual < 1e-12

    def test_nonlocal_cutoff_applies_to_the_compression(self):
        # 729 states but 127 sectors: the compression is solved densely
        res = spectral_gap(build_full_nonlocal(3, 6), dense_cutoff=200)
        assert res.method == "dense"

    def test_largest_dense_lumped_matches_iterative(self):
        ch = build_lumped(3, 11)
        assert ch.dimension == 4095 <= spectra.DENSE_CUTOFF
        dense = spectral_gap(ch)
        it = spectral_gap(ch, dense_cutoff=64)
        assert dense.method == "dense" and it.method == "iterative"
        assert abs(dense.gap - it.gap) < 1e-9


class TestIterativeGap:
    def test_lumped_matches_dense(self):
        ch = build_lumped(3, 10)
        dense = spectral_gap(ch)
        it = spectral_gap(ch, dense_cutoff=64)
        assert dense.method == "dense" and it.method == "iterative"
        assert abs(dense.gap - it.gap) < 1e-9
        assert it.residual <= spectra.DEFAULT_TOL
        assert it.iterations > 0

    def test_nonlocal_compression_matches_dense(self):
        ch = build_full_nonlocal(3, 6)
        dense = spectral_gap(ch)
        comp = spectral_gap(ch, dense_cutoff=10)
        assert abs(dense.gap - comp.gap) < 1e-9

    def test_local_matches_dense(self):
        # the nonsymmetric chain goes through eigs on the deflated matrix
        for length in (5, 6):
            for gate in GateKind:
                for reverse in (False, True):
                    ch = build_full_local(3, length, gate, reverse_layers=reverse)
                    dense = spectral_gap(ch)
                    it = spectral_gap(ch, dense_cutoff=10)
                    assert dense.method == "dense" and it.method == "iterative"
                    assert abs(dense.gap - it.gap) < 1e-12
                    assert it.residual <= spectra.DEFAULT_TOL

    def test_too_small_for_eigs_is_dense(self):
        # eigs asks for k = 2N = 4 values and needs k < dim - 1
        res = spectral_gap(build_full_local(2, 2), dense_cutoff=1)
        assert res.method == "dense"
        assert abs(res.gap - 0.5) < 1e-12

    @pytest.mark.parametrize("solver", ["eigsh", "eigs"])
    def test_arpack_error_is_numeric(self, monkeypatch, solver):
        def fail(*args, **kwargs):
            raise spectra.spla.ArpackError(-8)

        monkeypatch.setattr(spectra.spla, solver, fail)
        ch = build_lumped(3, 8) if solver == "eigsh" else build_full_local(3, 4)
        with pytest.raises(NumericError, match="ARPACK error -8"):
            spectral_gap(ch, dense_cutoff=10)

    def test_custom_iterative_needs_structure(self):
        ch = StochasticChain.from_matrix(np.array([[0.7, 0.3], [0.2, 0.8]]))
        with pytest.raises(UsageError):
            spectral_gap(ch, dense_cutoff=1)

    @pytest.mark.parametrize(
        "tol,max_iterations", [(0.0, 10), (-1.0, 10), (math.nan, 10),
                               (math.inf, 10), (1e-10, 0)]
    )
    def test_bad_solver_arguments(self, tol, max_iterations):
        # a NaN tol would run ARPACK to its last iteration
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


class TestGapOrdering:
    @pytest.mark.parametrize("n,lengths", [(2, (3, 4, 5, 6, 7)), (3, (3, 4, 5, 6, 7))])
    def test_local_below_nonlocal_and_ratio_decreases(self, n, lengths):
        ratios = []
        for length in lengths:
            gl = spectral_gap(build_full_local(n, length)).gap
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
        ch = build_lumped(2, 7)
        rep = cheeger_check(ch)
        assert rep.witness == "charge q=1"
        assert rep.lower_certified
        assert rep.phi_min == pytest.approx(5 / 32)
        assert rep.lower_witness <= rep.gap.gap <= rep.upper
        star = float(n2_min_expansion(7).exact)
        assert star**2 / 2 <= rep.gap.gap <= 2 * star

    @pytest.mark.parametrize("length", [4, 6, 8])
    def test_three_symbol_upper_bound(self, length):
        rep = cheeger_check(build_lumped(3, length))
        assert rep.witness.startswith("cone")
        assert not rep.lower_certified
        assert rep.gap.gap <= rep.upper
        depths = range(2, length + 1, 2)
        assert set(rep.candidates) == {f"cone d={d}" for d in depths}

    def test_candidates_match_census(self):
        rep = cheeger_check(build_lumped(3, 6))
        for d in (2, 4, 6):
            stats = cone_stats(3, 6, d)
            assert rep.candidates[f"cone d={d}"] == pytest.approx(
                float(stats.boundary_flow)
            )

    def test_violation_is_loud(self):
        ch = build_lumped(3, 6)
        fake = GapResult(gap=0.99, method="dense", residual=0.0, iterations=0)
        with pytest.raises(NumericError):
            cheeger_check(ch, gap=fake)

    def test_candidate_cuts(self):
        cuts = candidate_cuts(build_lumped(2, 5))
        assert list(cuts) == [
            "cone d=3", "cone d=5", "charge q=1", "charge q=3", "charge q=5"
        ]
        assert np.array_equal(cuts["cone d=3"], cone_subset(build_lumped(2, 5), 3))

    def test_too_short_for_any_cut(self):
        chain = build_lumped(3, 1)
        assert candidate_cuts(chain) == {}
        assert cheeger_check(chain) is None

    def test_custom_chain_rejected(self):
        ch = StochasticChain.from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(UsageError):
            cheeger_check(ch)


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
