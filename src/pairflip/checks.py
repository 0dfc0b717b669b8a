"""Self-contained verification suites behind the ``verify`` command.

Each suite re-derives a handful of exact identities from independent
code paths and compares them. They are meant to be cheap enough to run
on every install, and loud on any mismatch.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import bounds, census
from .chains import (
    GateKind,
    build_full_local,
    build_full_nonlocal,
    build_lumped,
    compressed_boundary_kernel,
)
from .errors import UsageError
from .spectra import (
    candidate_cuts,
    cut_expansions,
    exact_escape_profile,
    lumped_blocks,
    lumped_gap,
    n2_charge_subset,
    spectral_gap,
    subset_expansion,
)
from .walks import (
    all_states,
    enumerate_sectors,
    reduce_states,
    reduce_symbols,
    sector_index,
    staggered_charge,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=passed, detail=detail or "ok")


def check_census() -> list[CheckResult]:
    out = []
    frozen4 = {0: 15, 2: 7, 4: 1}
    got4 = {d: census.sector_dim(3, 4, d) for d in (0, 2, 4)}
    out.append(_result("census.frozen_row_L4", got4 == frozen4, f"{got4}"))
    frozen8 = {0: 543, 2: 319, 4: 95, 6: 15, 8: 1}
    got8 = {d: census.sector_dim(3, 8, d) for d in frozen8}
    out.append(_result("census.frozen_row_L8", got8 == frozen8, f"{got8}"))

    recurrence_ok = True
    for n in (2, 3, 4):
        for length in range(2, 13):
            for d in range(length + 1):
                lhs = census.sector_dim(n, length, d)
                if d == 0:
                    rhs = n * census.sector_dim(n, length - 1, 1)
                else:
                    rhs = census.sector_dim(n, length - 1, d - 1) + (
                        n - 1
                    ) * census.sector_dim(n, length - 1, d + 1)
                if lhs != rhs:
                    recurrence_ok = False
    out.append(_result("census.recurrence", recurrence_ok))

    total_ok = all(
        sum(
            census.multiplicity(n, d) * census.sector_dim(n, length, d)
            for d in range(length + 1)
        )
        == n**length
        for n in (2, 3, 4)
        for length in range(1, 11)
    )
    out.append(_result("census.partition_of_unity", total_ok))

    cone_ok = all(
        census.cone_stats(n, length, 2).volume
        == (n**length - census.sector_dim(n, length, 0)) // n
        for n in (2, 3, 4)
        for length in (4, 6, 8)
    )
    out.append(_result("census.cone_volume_identity", cone_ok))

    # rows read in any order, alphabets interleaved, against ascending walks
    rows = {n: census.sector_dim_rows(n, 12) for n in (3, 4)}
    any_order_ok = all(
        census.sector_dim(n, length, d) == rows[n][length][d]
        for length in range(12, 1, -1) for n in (3, 4) for d in range(length + 1)
    )
    out.append(_result("census.rows_any_order", any_order_ok))
    return out


def check_enumeration() -> list[CheckResult]:
    out = []
    ok = True
    for n, length in [(2, 8), (3, 6)]:
        sectors = enumerate_sectors(n, length)
        by_depth: dict[int, int] = {}
        for sec in sectors:
            by_depth[sec.depth] = by_depth.get(sec.depth, 0) + 1
        expected = {
            d: census.multiplicity(n, d)
            for d in range(length % 2, length + 1, 2)
            if census.sector_dim(n, length, d)
        }
        if by_depth != expected:
            ok = False
    out.append(_result("walks.sector_enumeration_counts", ok))

    strings = list(itertools.product((1, 2, 3), repeat=6))
    irrs = [reduce_symbols(s) for s in strings]
    dims_ok = all(
        count == census.sector_dim(3, 6, len(irr))
        for irr, count in Counter(irrs).items()
    )
    out.append(_result("walks.brute_force_dims_L6", dims_ok))

    states = all_states(3, 6)
    stack, depth = reduce_states(states)
    index = sector_index(stack, depth, 3, 6)
    basis = enumerate_sectors(3, 6)
    kernel_ok = states.tolist() == [list(s) for s in strings] and all(
        tuple(stack[k, : depth[k]].tolist()) == irr and basis[index[k]].irr == irr
        for k, irr in enumerate(irrs)
    )
    out.append(_result("walks.kernel_matches_reduction_L6", kernel_ok))
    return out


def check_lumping() -> list[CheckResult]:
    out = []
    for n, length in [(3, 6), (2, 8)]:
        kernel = build_lumped(n, length)
        rows, basis = compressed_boundary_kernel(n, length)
        same = kernel.basis == basis and all(
            kernel.exact_rows[i] == rows[i] for i in range(kernel.dimension)
        )
        out.append(_result(f"chains.lumping_identity_n{n}_L{length}", same))

    lumped = build_lumped(3, 8)
    pi = [census.sector_dim(3, 8, len(s.irr)) for s in lumped.basis]
    balanced = True
    for i in range(lumped.dimension):
        for j, p in lumped.exact_rows[i].items():
            q = lumped.exact_rows[j].get(i, Fraction(0))
            if Fraction(pi[i]) * p != Fraction(pi[j]) * q:
                balanced = False
    out.append(_result("chains.lumped_detailed_balance", balanced))

    stay_ok = all(
        row.get(k) == Fraction(1, n)
        for n, length in [(2, 6), (3, 5), (4, 4)]
        for k, row in enumerate(build_lumped(n, length).exact_rows)
    )
    out.append(_result("chains.lumped_stay_is_one_over_n", stay_ok))
    return out


def check_gaps() -> list[CheckResult]:
    import scipy.linalg

    out = []
    g = spectral_gap(build_full_nonlocal(2, 5))
    out.append(
        _result(
            "spectra.two_symbol_gap_is_one_over_L",
            abs(g.gap - 0.2) < 1e-12,
            f"gap={g.gap!r}",
        )
    )
    # each pair names both cutoffs, so that the dense side stays dense
    # whatever the default
    chain = build_lumped(3, 6)
    dense = spectral_gap(chain, dense_cutoff=chain.dimension)
    sparse = spectral_gap(chain, dense_cutoff=4)
    out.append(
        _result(
            "spectra.iterative_matches_dense",
            (dense.method, sparse.method) == ("dense", "iterative")
            and abs(dense.gap - sparse.gap) < 1e-9,
            f"dense={dense.gap:.12f} iterative={sparse.gap:.12f}",
        )
    )
    agree, details = True, []
    for gate in GateKind:
        chain = build_full_local(3, 5, gate)
        dense = spectral_gap(chain, dense_cutoff=chain.dimension)
        sparse = spectral_gap(chain, dense_cutoff=10)
        agree &= (dense.method, sparse.method) == ("dense", "iterative")
        agree &= abs(dense.gap - sparse.gap) < 1e-9
        details.append(
            f"{gate.value}: dense={dense.gap:.12f} iterative={sparse.gap:.12f}"
        )
    out.append(
        _result("spectra.local_iterative_matches_dense", agree, " ".join(details))
    )
    local = spectral_gap(build_full_local(2, 2))
    out.append(
        _result(
            "spectra.smallest_local_gap",
            abs(local.gap - 0.5) < 1e-12,
            f"gap={local.gap!r}",
        )
    )
    chain = build_lumped(3, 6)
    root = np.sqrt(chain.stationary)
    sym = root[:, None] * chain.matrix.toarray() / root[None, :]
    blocks = np.concatenate([
        np.repeat(
            scipy.linalg.eigh_tridiagonal(
                b.diagonal, b.offdiagonal, eigvals_only=True
            ),
            b.multiplicity,
        )
        for b in lumped_blocks(3, 6)
    ])
    spectrum = np.linalg.eigvalsh(sym)
    drift = float(np.abs(np.sort(blocks) - spectrum).max())
    out.append(
        _result(
            "spectra.lumped_blocks_match_chain",
            drift < 1e-12,
            f"{blocks.size} eigenvalues, largest difference {drift:.1e}",
        )
    )
    gap, chain_gap = lumped_gap(3, 6).gap, 1.0 - float(spectrum[-2])
    out.append(
        _result(
            "spectra.block_zero_holds_the_gap",
            abs(gap - chain_gap) < 1e-12,
            f"block 0 {gap:.15f}, chain {chain_gap:.15f}",
        )
    )
    return out


def check_expansion() -> list[CheckResult]:
    out = []
    expected = Fraction(5, 33)
    # every cut is a union of sectors: each build walks to the closed forms
    wrong = [
        f"{chain.kind} N={n} L={length} {label}"
        for n, length in ((2, 5), (3, 4))
        for chain in (
            build_full_local(n, length, exact=True),
            build_full_local(n, length, GateKind.TEMPERLEY_LIEB, exact=True),
            build_full_nonlocal(n, length, exact=True),
            build_lumped(n, length),
        )
        for label, cut in candidate_cuts(chain).items()
        if subset_expansion(chain, cut) != cut_expansions(n, length)[label]
    ]
    out.append(
        _result(
            "spectra.cone_flow_invariant_across_builds",
            not wrong and cut_expansions(3, 4)["cone d=2"] == expected,
            ", ".join(wrong),
        )
    )

    chain = build_full_nonlocal(2, 3, exact=True)
    phi = subset_expansion(chain, n2_charge_subset(chain, 1))
    out.append(
        _result(
            "spectra.two_symbol_charge_cut",
            phi == Fraction(1, 4),
            f"phi={phi}",
        )
    )

    profile = exact_escape_profile(build_lumped(3, 4), 2, 3)
    out.append(
        _result(
            "spectra.first_escape_equals_flow",
            profile[0] == 0 and profile[1] == expected,
            f"profile={[str(p) for p in profile]}",
        )
    )
    return out


def check_bounds() -> list[CheckResult]:
    out = []
    b = bounds.thm3_charge_time_lower(3, 4, 0.0)
    out.append(
        _result(
            "bounds.inverse_flow_at_gamma_zero",
            b.meta["exact"] == Fraction(33, 5),
            f"{b.meta['exact']}",
        )
    )
    t1 = bounds.thm1_gap_upper(3, 4)
    out.append(
        _result(
            "bounds.gap_upper_exact",
            t1.meta["exact"] == Fraction(15, 81),
            f"{t1.meta['exact']}",
        )
    )
    lo, hi = bounds.n2_gap_window(7)
    out.append(
        _result(
            "bounds.two_symbol_window",
            abs(lo - 1 / (7 * math.pi)) < 1e-15 and abs(hi - math.sqrt(8 / (7 * math.pi))) < 1e-15,
            f"({lo:.6f}, {hi:.6f})",
        )
    )
    curve = bounds.entropy_bound_curve(3, 10, 0, 0.0)
    anchor = 10 * math.log(3) + bounds.entropy_offset(3)
    out.append(
        _result(
            "bounds.entropy_anchor",
            abs(curve.value - anchor) < 1e-12,
            f"{curve.value:.12f}",
        )
    )
    return out


def check_montecarlo() -> list[CheckResult]:
    # imports deferred: the sampler pulls in the heavier kernels
    from .montecarlo import SimConfig, run_ensemble, sample_cone_states
    from .montecarlo import _StripedSymbols, _dynamics_source, _symbol_range
    from .montecarlo import _INIT_KEY_OFFSET, _philox, cone_escape_mask
    from .montecarlo import _Slab, _block_sizes, _run_blocks, _shared_starts

    out = []
    cfg = SimConfig(n=2, length=6, t_max=5, n_trajectories=600, seed=12, blocks=6)
    a = run_ensemble(cfg)
    b = run_ensemble(cfg)
    out.append(
        _result(
            "montecarlo.bitwise_deterministic",
            all(
                np.array_equal(a.means[k], b.means[k]) for k in a.means
            ),
        )
    )
    out.append(
        _result(
            "montecarlo.initial_charge_is_one",
            a.means["charge:1"][0] == 1.0,
            f"{a.means['charge:1'][0]}",
        )
    )
    # TL gate, unequal blocks and two 64-step segments: two slabs must
    # reproduce one slab bit for bit (this ensemble is far below the slab
    # size at which a second thread is used, so the floor is lifted)
    base = dict(n=3, length=8, t_max=80, n_trajectories=203, seed=13, blocks=7,
                gate=GateKind.TEMPERLEY_LIEB, observables=("charge:1", "depth"))
    one, two = (
        _run_blocks(SimConfig(threads=threads, **base),
                    _shared_starts(SimConfig(**base)), min_slab_sites=1).block_sums
        for threads in (1, 2)
    )
    out.append(
        _result(
            "montecarlo.thread_count_invariant",
            all(np.array_equal(one[k], two[k]) for k in one),
        )
    )
    # one block's symbols, drawn a step at a time and ahead in chunks as
    # a slab draws them (three chunks here), must be the same bits
    steps, length, m = 150, 9, 37
    same = True
    for n, gate in [(3, GateKind.PAIR_FLIP), (3, GateKind.TEMPERLEY_LIEB),
                    (17, GateKind.TEMPERLEY_LIEB)]:  # k = 3, 9 and 289
        k = _symbol_range(n, gate)
        alone = _dynamics_source(14, 5, k)
        ahead = _StripedSymbols([_dynamics_source(14, 5, k)], [m], length, steps)
        for _ in range(steps):
            same &= np.array_equal(alone.draw(length, m), ahead.draw(length, m))
    out.append(_result("montecarlo.symbol_stream_chunk_invariant", bool(same)))
    # one block's first values, recomputed from its raw words by the draw
    # contract: d base-k digits of each accepted word, least significant
    # first, in planes of 256 words; at k = 289, d = 1 and the values are
    # the accepted 16-bit halves mod k
    same = True
    for k in (3, 9, 289):
        got = _dynamics_source(18, 2, k).draw(3000, 1).ravel()
        dtype = np.dtype(np.uint8 if k <= 256 else np.uint16)
        span = 1 << (8 * dtype.itemsize)
        d = max(e for e in range(1, 9) if k**e <= span)
        raw = _philox(18, 2).bit_generator.random_raw(2000).astype("<u8")
        raw = raw.view(dtype).astype(np.int64)
        words = raw[raw < span - span % k**d] % k**d
        groups = words[: words.size // 256 * 256].reshape(-1, 1, 256)
        want = (groups // k ** np.arange(d).reshape(-1, 1) % k).ravel()
        same &= np.array_equal(got, want[: got.size])
        if k > 256:
            old = raw[raw < span - span % k][: got.size] % k
            same &= d == 1 and np.array_equal(got, old)
    out.append(_result("montecarlo.symbols_follow_contract", bool(same)))
    # the staggered charges a slab carries through the steps must equal
    # a recount of its states after every step, for both gates
    same = True
    for gate in (GateKind.TEMPERLEY_LIEB, GateKind.PAIR_FLIP):
        cfg = SimConfig(n=3, length=7, t_max=40, gate=gate, n_trajectories=60,
                        seed=17, blocks=3, observables=("charge:1", "charge:3"))
        slab = _Slab(cfg, range(cfg.blocks), _shared_starts(cfg), None)
        for _ in range(cfg.t_max):
            slab.advance(1)
            same &= all(
                np.array_equal(q, staggered_charge(slab.states, a))
                for a, q in slab._charges.items()
            )
    out.append(_result("montecarlo.carried_charge_matches_recount", bool(same)))
    states = sample_cone_states(3, 6, 2, [500], [np.random.default_rng(0)])
    out.append(
        _result(
            "montecarlo.cone_sampler_stays_inside",
            not cone_escape_mask(states, 2).any(),
        )
    )
    # the batched walk: block b's starts are the same alone or in the batch
    sizes = [9, 0, 14]
    starts = [_philox(15, _INIT_KEY_OFFSET + b) for b in range(3)]
    batch = sample_cone_states(3, 8, 4, sizes, starts)
    alone = [
        sample_cone_states(3, 8, 4, [m], [_philox(15, _INIT_KEY_OFFSET + b)])
        for b, m in enumerate(sizes)
    ]
    out.append(
        _result(
            "montecarlo.cone_sampler_block_invariant",
            np.array_equal(batch, np.concatenate(alone)),
        )
    )
    # the words a slab carries through the boundary update must be the
    # reduction of its states after every step: from the full-depth
    # shared start and from cone starts, for both gates
    same = True
    for n, gate, cone in [(3, GateKind.PAIR_FLIP, False), (2, GateKind.PAIR_FLIP, True),
                          (3, GateKind.TEMPERLEY_LIEB, True)]:
        cfg = SimConfig(n=n, length=9, t_max=40, gate=gate, n_trajectories=60,
                        seed=16, blocks=3, observables=("depth",))
        starts = _shared_starts(cfg)
        if cone:
            sizes = _block_sizes(cfg.n_trajectories, cfg.blocks)
            rngs = [_philox(16, _INIT_KEY_OFFSET + b) for b in range(cfg.blocks)]
            states = sample_cone_states(n, 9, 3, sizes, rngs)
            starts = np.split(states, np.cumsum(sizes)[:-1])
        slab = _Slab(cfg, range(cfg.blocks), starts, None)
        for _ in range(cfg.t_max):
            slab.advance(1)
            (stack, depth), (ref, ref_depth) = slab.word(), reduce_states(slab.states)
            inside = np.arange(9) < depth[:, None]
            same &= np.array_equal(depth, ref_depth) and np.array_equal(
                stack[inside], ref[inside]
            )
    out.append(_result("montecarlo.carried_word_matches_reduction", bool(same)))
    return out


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "census": check_census,
    "enumeration": check_enumeration,
    "lumping": check_lumping,
    "gaps": check_gaps,
    "expansion": check_expansion,
    "bounds": check_bounds,
    "montecarlo": check_montecarlo,
}


def run_checks(suites: list[str] | None = None) -> list[CheckResult]:
    """Run the named suites (all by default) and collect results."""
    names = suites if suites is not None else list(SUITES)
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise UsageError(
                f"unknown suite {name!r}; choose from {sorted(SUITES)}"
            )
        results.extend(SUITES[name]())
    return results
