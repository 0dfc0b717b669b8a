"""Transition-operator tests: gates, layer structure, lumping, exact kernels."""

import io
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from pairflip.census import sector_dim
from pairflip.chains import (
    GateKind,
    StochasticChain,
    _lumped_rates,
    boundary_resample_matrix,
    build_full_local,
    build_full_nonlocal,
    build_lumped,
    compressed_boundary_kernel,
    export_coo,
    gate_matrix,
    gate_probabilities,
    index_symbols,
    layer_matrix,
    layer_pairs,
    local_operator,
    sector_projectors,
    state_index,
    state_sector_codes,
)
from pairflip.errors import ResourceCapError, UsageError
from pairflip.walks import SpinString, enumerate_sectors, reduce_symbols


def exact_dense(chain: StochasticChain) -> list[list[Fraction]]:
    dim = chain.dimension
    return [
        [chain.exact_rows[i].get(j, Fraction(0)) for j in range(dim)]
        for i in range(dim)
    ]


class TestGates:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_gate_matrix_doubly_stochastic_symmetric(self, n, kind):
        g = gate_matrix(n, kind)
        assert g.shape == (n * n, n * n)
        assert np.allclose(g.sum(axis=0), 1.0)
        assert np.allclose(g.sum(axis=1), 1.0)
        assert np.array_equal(g, g.T)
        assert (g >= 0).all()

    def test_pair_flip_action(self):
        act = gate_probabilities(3, GateKind.PAIR_FLIP)
        assert set(act) == {(1, 1), (2, 2), (3, 3)}
        for targets in act.values():
            assert sorted(t for t, _ in targets) == [(1, 1), (2, 2), (3, 3)]
            assert all(w == Fraction(1, 3) for _, w in targets)

    def test_temperley_lieb_action(self):
        act = gate_probabilities(3, GateKind.TEMPERLEY_LIEB)
        row = dict(act[(2, 2)])
        assert row[(2, 2)] == Fraction(5, 9)  # 1 - 2*2/9
        assert row[(1, 1)] == row[(3, 3)] == Fraction(2, 9)
        assert sum(row.values()) == 1

    def test_gates_coincide_for_two_symbols(self):
        assert np.array_equal(
            gate_matrix(2, GateKind.PAIR_FLIP),
            gate_matrix(2, GateKind.TEMPERLEY_LIEB),
        )

    def test_unequal_pairs_frozen(self):
        g = gate_matrix(4, GateKind.PAIR_FLIP)
        for a in range(4):
            for b in range(4):
                if a != b:
                    row = a * 4 + b
                    assert g[row, row] == 1.0
                    assert g[row].sum() == 1.0

    def test_parse(self):
        assert GateKind.parse("pf") is GateKind.PAIR_FLIP
        assert GateKind.parse("TL") is GateKind.TEMPERLEY_LIEB
        assert GateKind.parse("pair_flip") is GateKind.PAIR_FLIP
        with pytest.raises(UsageError):
            GateKind.parse("heisenberg")


class TestIndexing:
    def test_site_one_most_significant(self):
        s = SpinString((2, 1, 1), 3)
        # digits (1,0,0) base 3 -> 9
        assert state_index(s) == 9
        assert index_symbols(9, 3, 3) == (2, 1, 1)

    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.integers(1, n), min_size=1, max_size=8)
            )
        )
    )
    def test_round_trip(self, case):
        n, syms = case
        idx = state_index(SpinString(tuple(syms), n))
        assert index_symbols(idx, n, len(syms)) == tuple(syms)

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            index_symbols(9, 3, 2)
        with pytest.raises(UsageError):
            index_symbols(-1, 3, 2)


class TestLayers:
    def test_layer_pairs(self):
        assert layer_pairs(4, "even") == [(1, 2)]
        assert layer_pairs(4, "odd") == [(0, 1), (2, 3)]
        # odd length drops the incomplete trailing pair
        assert layer_pairs(5, "even") == [(1, 2), (3, 4)]
        assert layer_pairs(5, "odd") == [(0, 1), (2, 3)]
        assert layer_pairs(2, "even") == []
        assert layer_pairs(2, "odd") == [(0, 1)]
        with pytest.raises(UsageError):
            layer_pairs(4, "both")

    @pytest.mark.parametrize("length", range(2, 9))
    def test_layers_preserve_sectors(self, length):
        # supp of a gate layer acting on any state stays in its sector
        codes, _ = state_sector_codes(3, length)
        for parity in ("even", "odd"):
            coo = layer_matrix(3, length, GateKind.PAIR_FLIP, parity).tocoo()
            assert (codes[coo.row] == codes[coo.col]).all()

    @pytest.mark.parametrize("length", range(1, 9))
    def test_boundary_resample_moves_depth_by_0_or_2(self, length):
        _, depths = state_sector_codes(3, length)
        coo = boundary_resample_matrix(3, length).tocoo()
        jump = np.abs(depths[coo.row] - depths[coo.col])
        assert set(np.unique(jump)) <= {0, 2}

    def test_layer_is_doubly_stochastic(self):
        for parity in ("even", "odd"):
            m = layer_matrix(3, 5, GateKind.TEMPERLEY_LIEB, parity)
            assert np.allclose(np.asarray(m.sum(axis=0)).ravel(), 1.0)
            assert np.allclose(np.asarray(m.sum(axis=1)).ravel(), 1.0)


class TestFullLocal:
    def test_two_site_hand_rows(self):
        # state 11: resample last site (11 or 12 each 1/2), odd layer
        # flips the equal pair; even layer is empty at L=2
        ch = build_full_local(2, 2, GateKind.PAIR_FLIP, exact=True)
        rows = exact_dense(ch)
        q = Fraction(1, 4)
        h = Fraction(1, 2)
        z = Fraction(0)
        assert rows[0] == [q, h, z, q]  # 11
        assert rows[1] == [q, h, z, q]  # 12
        assert rows[2] == [q, z, h, q]  # 21
        assert rows[3] == [q, z, h, q]  # 22

    @pytest.mark.parametrize("kind", list(GateKind))
    @pytest.mark.parametrize("n,length", [(2, 4), (3, 3), (3, 4)])
    def test_exact_matches_float(self, kind, n, length):
        ex = build_full_local(n, length, kind, exact=True)
        fl = build_full_local(n, length, kind)
        diff = np.abs(ex.matrix.toarray() - fl.matrix.toarray()).max()
        assert diff < 1e-14

    @pytest.mark.parametrize("n,length", [(2, 6), (3, 5), (4, 4)])
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_doubly_stochastic(self, n, length, kind):
        ch = build_full_local(n, length, kind)
        mat = ch.matrix
        assert np.abs(np.asarray(mat.sum(axis=0)).ravel() - 1).max() < 1e-12
        assert np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1).max() < 1e-12

    def test_exact_rows_sum_to_one(self):
        ch = build_full_local(3, 4, GateKind.TEMPERLEY_LIEB, exact=True)
        assert all(sum(r.values()) == 1 for r in ch.exact_rows)

    def test_two_symbol_gates_equal_chains(self):
        pf = build_full_local(2, 5, GateKind.PAIR_FLIP, exact=True)
        tl = build_full_local(2, 5, GateKind.TEMPERLEY_LIEB, exact=True)
        assert pf.exact_rows == tl.exact_rows

    def test_reverse_layers_differs_but_stays_stochastic(self):
        a = build_full_local(3, 4, exact=True)
        b = build_full_local(3, 4, exact=True, reverse_layers=True)
        assert a.exact_rows != b.exact_rows
        cols = np.asarray(b.matrix.sum(axis=0)).ravel()
        assert np.abs(cols - 1).max() < 1e-12

    def test_strongly_connected(self):
        for n, length in [(2, 5), (3, 4)]:
            ch = build_full_local(n, length)
            ncomp, _ = connected_components(ch.matrix, connection="strong")
            assert ncomp == 1

    def test_state_cap(self):
        with pytest.raises(ResourceCapError):
            build_full_local(3, 14, cap=1 << 20)

    def test_bad_args(self):
        with pytest.raises(UsageError):
            build_full_local(1, 4)
        with pytest.raises(UsageError):
            build_full_local(3, 0)


class TestLocalOperator:
    """The matrix-free local chain is the built one, and irreducible."""

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("kind", list(GateKind))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matvec_is_the_built_matrix(self, n, kind, reverse):
        rng = np.random.default_rng(n)
        for length in range(1, 7):
            mat = build_full_local(n, length, kind, reverse_layers=reverse).matrix
            op = local_operator(n, length, kind, reverse_layers=reverse)
            assert op.dimension == mat.shape[0]
            x = rng.standard_normal(op.dimension)
            batch = rng.standard_normal((op.dimension, 3))
            assert np.abs(op.matvec(x) - mat @ x).max() < 1e-14
            assert np.abs(op.matvec(batch) - mat @ batch).max() < 1e-14
            # a strided batch is read, not written through
            view = batch[:, ::2]
            before = view.copy()
            assert np.abs(op.matvec(view) - mat @ before).max() < 1e-14
            assert (view == before).all()
            # the local gap skips the connectivity check on the operator,
            # because the chain it applies is irreducible
            assert connected_components(mat, connection="strong")[0] == 1

    def test_dense_matrix_is_the_chain(self):
        op = local_operator(3, 3, GateKind.TEMPERLEY_LIEB)
        mat = build_full_local(3, 3, GateKind.TEMPERLEY_LIEB).matrix.toarray()
        assert np.abs(op.matvec(np.eye(27)) - mat).max() < 1e-15

    def test_state_cap_matches_the_build(self):
        with pytest.raises(ResourceCapError) as built:
            build_full_local(3, 13)
        with pytest.raises(ResourceCapError) as free:
            local_operator(3, 13)
        assert str(free.value) == str(built.value)
        assert local_operator(3, 12).dimension == 3**12

    def test_bad_args(self):
        with pytest.raises(UsageError):
            local_operator(1, 4)
        with pytest.raises(UsageError):
            local_operator(3, 0)
        with pytest.raises(UsageError, match="81 states"):
            local_operator(3, 4).matvec(np.ones(27))


class TestFullNonlocal:
    def test_exact_matches_float(self):
        ex = build_full_nonlocal(3, 4, exact=True)
        fl = build_full_nonlocal(3, 4)
        assert np.abs(ex.matrix.toarray() - fl.matrix.toarray()).max() < 1e-14

    def test_uniformization_projector(self):
        r_mat, s_mat, basis = sector_projectors(3, 4)
        # averaging after lifting is the sector identity (float build,
        # so up to rounding in 1/|K_s|)
        ident = (s_mat @ r_mat).toarray()
        assert np.abs(ident - np.eye(len(basis))).max() < 1e-14
        proj = (r_mat @ s_mat).toarray()
        assert np.abs(proj @ proj - proj).max() < 1e-14

    def test_doubly_stochastic(self):
        ch = build_full_nonlocal(3, 5)
        assert np.abs(np.asarray(ch.matrix.sum(axis=0)).ravel() - 1).max() < 1e-12

    @pytest.mark.parametrize("n,length", [(2, 4), (2, 5), (3, 3), (3, 4), (3, 5)])
    def test_nonzero_spectrum_matches_lumped(self, n, length):
        full = build_full_nonlocal(n, length)
        lump = build_lumped(n, length)
        ev_full = np.linalg.eigvals(full.matrix.toarray())
        ev_lump = np.linalg.eigvals(lump.matrix.toarray())
        assert np.abs(ev_full.imag).max() < 1e-10
        assert np.abs(ev_lump.imag).max() < 1e-10
        k = lump.dimension
        top_full = np.sort(ev_full.real)[::-1][:k]
        top_lump = np.sort(ev_lump.real)[::-1]
        assert np.abs(top_full - top_lump).max() < 1e-10
        # everything below the lumped rank is numerically zero
        rest = np.sort(np.abs(ev_full))[: full.dimension - k]
        assert rest.max() < 1e-10 if rest.size else True

    def test_stationary_uniform(self):
        ch = build_full_nonlocal(2, 4)
        pi = ch.stationary
        assert np.allclose(pi, 1 / 16)
        assert np.allclose(pi @ ch.matrix.toarray(), pi)


class TestLumped:
    def test_worked_row(self):
        # depth-2 sector 12 at N=3, L=4: |K_s|=7, parent weight 5,
        # child weight 1
        ch = build_lumped(3, 4)
        idx = {s.irr: k for k, s in enumerate(ch.basis)}
        row = ch.exact_rows[idx[(1, 2)]]
        assert row[idx[(1, 2)]] == Fraction(1, 3)
        assert row[idx[()]] == Fraction(5, 21)
        assert row[idx[(1, 3)]] == Fraction(5, 21)
        for tail in [(1, 2), (1, 3), (3, 1), (3, 2)]:
            assert row[idx[(1, 2) + tail]] == Fraction(1, 21)
        assert len(row) == 7

    def test_rates_worked_example(self):
        # from the frozen rows |K^(4)| = 15, 7, 1 and |K^(3)| = 5, 1
        up, down = _lumped_rates(3, 4)
        assert up == (0, Fraction(5, 21), Fraction(1, 3))
        assert down == (Fraction(1, 9), Fraction(1, 21), 0)

    def test_root_row(self):
        # from the root every depth-2 sector gets exactly 1/N^2
        ch = build_lumped(3, 6)
        idx = {s.irr: k for k, s in enumerate(ch.basis)}
        row = ch.exact_rows[idx[()]]
        targets = {k: w for k, w in row.items() if k != idx[()]}
        assert len(targets) == 6  # N(N-1)
        assert all(w == Fraction(1, 9) for w in targets.values())
        assert row[idx[()]] == Fraction(1, 3)

    @pytest.mark.parametrize("n,length", [(2, 6), (3, 5), (4, 4), (5, 3)])
    def test_stay_probability_is_uniform(self, n, length):
        # exactly one of the N resampled symbols keeps the sector
        ch = build_lumped(n, length)
        for k in range(ch.dimension):
            assert ch.exact_rows[k][k] == Fraction(1, n)

    @pytest.mark.parametrize("length", range(1, 11))
    def test_detailed_balance(self, length):
        ch = build_lumped(3, length)
        dims = [sector_dim(3, length, len(s.irr)) for s in ch.basis]
        for i in range(ch.dimension):
            for j, w in ch.exact_rows[i].items():
                back = ch.exact_rows[j].get(i, Fraction(0))
                assert dims[i] * w == dims[j] * back

    def test_stationary_proportional_to_dimension(self):
        ch = build_lumped(3, 6)
        dims = np.array([sector_dim(3, 6, len(s.irr)) for s in ch.basis], float)
        assert np.allclose(ch.stationary, dims / 3**6)
        assert np.allclose(ch.stationary @ ch.matrix.toarray(), ch.stationary)

    @pytest.mark.parametrize("n,length", [(2, 7), (3, 6), (4, 5)])
    def test_strongly_connected(self, n, length):
        ch = build_lumped(n, length)
        ncomp, _ = connected_components(ch.matrix, connection="strong")
        assert ncomp == 1

    def test_basis_matches_enumeration(self):
        ch = build_lumped(3, 5)
        assert list(ch.basis) == enumerate_sectors(3, 5)

    def test_two_symbol_line_spectrum(self):
        # N=2, L=3 lumped chain has eigenvalues 1, 2/3, 1/3, 0
        ch = build_lumped(2, 3)
        ev = np.sort(np.linalg.eigvals(ch.matrix.toarray()).real)
        assert np.allclose(ev, [0, 1 / 3, 2 / 3, 1], atol=1e-12)

    def test_sector_cap(self):
        with pytest.raises(ResourceCapError):
            build_lumped(3, 12, cap=100)

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, 6))
        )
    )
    def test_kernel_invariants(self, case):
        n, length = case
        ch = build_lumped(n, length)
        dims = [sector_dim(n, length, len(s.irr)) for s in ch.basis]
        for i, row in enumerate(ch.exact_rows):
            assert sum(row.values()) == 1
            assert row[i] == Fraction(1, n)
            for j, w in row.items():
                assert w > 0
                assert dims[i] * w == dims[j] * ch.exact_rows[j].get(i, Fraction(0))


class TestLumpingIdentity:
    @pytest.mark.parametrize("length", range(2, 9))
    def test_sweep_matches_kernel_rows(self, length):
        # S M_L R computed by brute state sweep equals the closed-form
        # lumped rows, entrywise over the rationals
        swept, basis = compressed_boundary_kernel(3, length)
        lump = build_lumped(3, length)
        assert tuple(basis) == tuple(lump.basis)
        assert swept == lump.exact_rows

    @pytest.mark.parametrize("n,length", [(2, 6), (4, 4), (5, 3)])
    def test_other_alphabets(self, n, length):
        swept, _ = compressed_boundary_kernel(n, length)
        assert swept == build_lumped(n, length).exact_rows

    @pytest.mark.parametrize("length", [3, 4, 5])
    def test_full_nonlocal_factorizes(self, length):
        # M_nonloc = (M_L R) S entrywise against the exact build
        r_mat, s_mat, _ = sector_projectors(3, length)
        t_ml = boundary_resample_matrix(3, length)
        prod = ((t_ml @ r_mat) @ s_mat).toarray()
        ex = build_full_nonlocal(3, length, exact=True).matrix.toarray()
        assert np.abs(prod - ex).max() < 1e-14


class TestStateSectorCodes:
    def test_codes_agree_with_reduction(self):
        n, length = 3, 5
        index, depths = state_sector_codes(n, length)
        basis = enumerate_sectors(n, length)
        for idx in range(n**length):
            syms = index_symbols(idx, n, length)
            irr = reduce_symbols(syms)
            assert depths[idx] == len(irr)
            assert basis[index[idx]].irr == irr

    def test_code_width_cap(self):
        with pytest.raises(ResourceCapError):
            state_sector_codes(3, 40, cap=1 << 70)


class TestChainType:
    def test_row_sum_validation(self):
        bad = np.array([[0.6, 0.3], [0.5, 0.5]])
        with pytest.raises(Exception):
            StochasticChain.from_matrix(bad)

    def test_from_matrix_custom(self):
        ch = StochasticChain.from_matrix(np.array([[0.7, 0.3], [0.2, 0.8]]))
        assert ch.kind == "custom"
        assert ch.dimension == 2

    def test_exact_entry(self):
        ch = build_lumped(3, 4)
        idx = {s.irr: k for k, s in enumerate(ch.basis)}
        assert ch.exact_entry(idx[(1, 2)], idx[()]) == Fraction(5, 21)
        assert ch.exact_entry(idx[()], idx[(1, 2, 1, 2)]) == 0
        with pytest.raises(UsageError):
            build_full_local(2, 3).exact_entry(0, 0)


class TestExport:
    def test_export_exact_round_trip(self):
        ch = build_lumped(3, 4)
        buf = io.StringIO()
        count = export_coo(ch, buf)
        rebuilt: dict[tuple[int, int], Fraction] = {}
        for line in buf.getvalue().splitlines():
            i, j, val = line.split()
            rebuilt[(int(i), int(j))] = Fraction(val)
        assert len(rebuilt) == count
        for i, row in enumerate(ch.exact_rows):
            for j, w in row.items():
                assert rebuilt[(i, j)] == w
        assert count == sum(len(r) for r in ch.exact_rows)

    def test_export_float_round_trip(self):
        ch = build_full_local(2, 3)
        buf = io.StringIO()
        export_coo(ch, buf)
        dense = np.zeros((8, 8))
        for line in buf.getvalue().splitlines():
            i, j, val = line.split()
            dense[int(i), int(j)] = float(val)
        assert np.array_equal(dense, ch.matrix.toarray())
