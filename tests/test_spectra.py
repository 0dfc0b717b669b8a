"""Gap, expansion, Cheeger, and escape-profile tests."""

import math
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
    build_full_local,
    build_full_nonlocal,
    build_lumped,
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
        res = spectral_gap(build_lumped(3, 6))
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

    def test_violation_is_loud(self):
        fake = GapResult(gap=0.99, method="dense", residual=0.0, iterations=0)
        with pytest.raises(NumericError):
            cheeger_check(3, 6, fake)

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

    def test_radial_block_holds_the_stationary_mode(self):
        top = _block_spectrum(lumped_blocks(3, 10)[0])[-1]
        assert top == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n,length", [(2, 9), (3, 8), (3, 9), (5, 6), (3, 300)])
    def test_radial_difference_form(self, n, length):
        # the radial block never holds the gap at these sizes, so its
        # difference form is checked against the radial block directly
        radial = lumped_blocks(n, length)[0]
        mu = np.sort(1.0 - _block_spectrum(radial))[1:]  # drop the zero
        up, down, leak = spectra._radial_dual(radial)
        dual = sla.eigh_tridiagonal(
            up + down + leak, np.sqrt(down[:-1] * up[1:]), eigvals_only=True
        )
        assert np.abs(dual - mu).max() < 1e-12
        lo, hi, _ = spectra._leaky_bracket(up, down, leak)
        assert lo <= hi and abs(0.5 * (lo + hi) - mu[0]) < 1e-12

    @pytest.mark.parametrize("length", range(6, 15))
    def test_gap_matches_the_chain(self, length):
        # a dense cutoff below 2^11 keeps L=11 off a 4095-state eigh
        res = lumped_gap(3, length)
        assert res.method == "tridiagonal"
        assert res.gap == pytest.approx(
            spectral_gap(build_lumped(3, length), dense_cutoff=1024).gap, abs=1e-12
        )

    @pytest.mark.parametrize(
        "n,length", [(2, 1), (2, 6), (3, 1), (3, 5), (3, 8), (4, 2), (4, 5)]
    )
    def test_nonlocal_compression_has_the_block_gap(self, n, length):
        # the nonlocal chain B R S shares its nonzero spectrum with the
        # lumped chain S B R, so the gap CLI serves it from the blocks
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
