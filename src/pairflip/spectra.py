"""Spectral gaps, subset expansion, and escape profiles.

The gap is ``1 - |lambda_2|`` with ``lambda_2`` the second-largest
eigenvalue modulus of the transition matrix. The relaxation time is
``1/gap``; the usual mixing-time relation ``t_mix >= t_rel ln 4`` is left
to the caller, it is not computed here.

The lumped chain needs no matrix: its rates depend only on depth, so it
is a radial walk on the N-regular tree and its spectrum splits into at
most L+1 tridiagonal blocks of known multiplicity (:func:`lumped_blocks`).
:func:`lumped_gap` ranks the float spectra of the blocks by modulus and
recomputes the slowest modes with relative accuracy (method
``"tridiagonal"``): each block generator ``I - B`` is a diagonally
dominant M-matrix, whose smallest eigenvalue inverse iteration finds
through a subtraction-free elimination (Alfa, Xue & Ye, Math. Comp. 71,
2002), so a gap far below double precision comes out right. The
blocks also give the gap of the nonlocal chain ``B R S``, which has the
nonzero spectrum of the lumped chain ``S B R``.

A chain given as a matrix, a built lumped chain included, is reduced to
one matrix ``A`` and a unit vector ``r`` that is a left and right
eigenvector of ``A`` for the eigenvalue 1.
Reversible chains (the lumped chain, and the nonlocal chain through its
sector compression) give the symmetric ``A = D^{1/2} T D^{-1/2}``, ``D``
the diagonal of the stationary law, with ``r`` proportional to its
square root; the full local chain and chains made from raw matrices give
the nonsymmetric ``A = T``, with ``r`` the constant vector when ``T`` is
doubly stochastic. There are two solves. Up to ``DENSE_CUTOFF`` states
``eigh`` or ``eig`` ranks the whole spectrum by modulus; above it ARPACK
(``eigsh`` or ``eigs``) finds the largest modulus of ``x -> A x - r (r.x)``,
in which the eigenvalue 1 is deflated to 0 and every other eigenvalue
is kept. Their ``1 - |lambda|`` carries an absolute error near ``dim``
roundings, which ``GapResult.precision`` reports relative to the gap.

Expansion of a subset R uses the probability-flow convention

    Phi(R) = sum_{i in R} pi_i sum_{j not in R} T[i, j] / pi(R),

which for the doubly stochastic full chains reduces to the plain
average outflow (1/|R|) sum_{i in R, j notin R} T[i, j]. The Cheeger
cuts (cones and, at N=2, charge tails) are unions of sectors, which
only the boundary update crosses, so each has one expansion in all
three chains: :func:`cut_expansions` gives it from closed forms, and
:func:`subset_expansion` over :func:`candidate_cuts` of a built chain
is the oracle it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .census import cone_stats, multiplicity, n2_charge_cut, sector_dim
from .chains import StochasticChain, sector_projectors
from .errors import NumericError, UsageError
from .walks import (
    SectorId,
    _canonical_anchor,
    all_states,
    check_cone_depth,
    check_size,
    in_cone,
    reduce_states,
    sector_words,
)

DENSE_CUTOFF = 4096
DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 10**6
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_MAX_SOLVES = 500  # inverse-iteration solves per lumped block


@dataclass(frozen=True)
class GapResult:
    """Spectral gap with provenance of the solve.

    ``precision`` estimates the relative error of ``gap``; it is
    ``inf`` when ``1 - |lambda_2|`` rounded to zero or below and the gap
    was clamped to 0, and NaN (unknown) on a result built by hand.
    """

    gap: float
    method: str  # "dense" | "iterative" | "tridiagonal" (lumped blocks)
    residual: float
    iterations: int
    precision: float = math.nan

    @property
    def relaxation_time(self) -> float:
        return 1.0 / self.gap if self.gap > 0 else float("inf")


def _require_irreducible(chain: StochasticChain) -> None:
    if chain.dimension < 2:
        raise UsageError("a one-state chain has no spectral gap")
    ncomp, _ = connected_components(chain.matrix, connection="strong")
    if ncomp != 1:
        raise UsageError(
            f"chain is not irreducible ({ncomp} strongly connected components)"
        )


def _compress_nonlocal(chain: StochasticChain) -> tuple[sp.csr_matrix, np.ndarray]:
    """Sector compression S M R of the nonlocal chain.

    Shares every nonzero eigenvalue with the full matrix (AB and BA
    have the same nonzero spectrum), independent of any lumping
    assumption, and is reversible with respect to the sector masses.
    """
    r_mat, s_mat, basis = sector_projectors(chain.n, chain.length)
    comp = sp.csr_matrix((s_mat @ chain.matrix) @ r_mat)
    dims = np.array(
        [sector_dim(chain.n, chain.length, len(s.irr)) for s in basis],
        dtype=float,
    )
    return comp, dims / dims.sum()


def _gap_operator(
    chain: StochasticChain,
) -> tuple[sp.csr_matrix, bool, np.ndarray]:
    """The matrix ``A`` whose spectrum gives the gap, whether it is
    symmetric, and the unit deflation vector ``r``."""
    if chain.kind == "nonlocal":
        mat, pi = _compress_nonlocal(chain)
    else:
        mat, pi = chain.matrix, chain.stationary
    if pi is None:  # a raw-matrix chain
        pi = np.full(chain.dimension, 1.0 / chain.dimension)
    root = np.sqrt(pi)
    symmetric = chain.kind in ("lumped", "nonlocal")
    if symmetric:
        # D^{1/2} T D^{-1/2} is symmetric because T is reversible with
        # respect to pi; its top eigenvector is sqrt(pi)
        mat = sp.csr_matrix(sp.diags(root) @ mat @ sp.diags(1.0 / root))
    return mat, symmetric, root / np.linalg.norm(root)


def _gap_result(
    lam: complex | float, method: str, residual: float, iterations: int, dim: int
) -> GapResult:
    mod = float(abs(lam))
    if mod > 1 + 1e-9:
        raise NumericError(f"subdominant eigenvalue modulus {mod} exceeds 1")
    gap = max(1.0 - mod, 0.0)
    return GapResult(
        gap=gap,
        method=method,
        residual=residual,
        iterations=iterations,
        precision=(residual + dim * _EPS) / gap if gap > 0 else math.inf,
    )


def _dense_gap(mat: sp.csr_matrix, symmetric: bool) -> GapResult:
    """Second-largest eigenvalue modulus of the whole spectrum."""
    solve = np.linalg.eigh if symmetric else np.linalg.eig
    vals, vecs = solve(mat.toarray())
    k = np.argsort(-np.abs(vals))[1]
    lam, x = vals[k], vecs[:, k]
    # eigh reads one triangle; the residual against the whole of ``mat``
    # also picks up the rounding asymmetry of the similarity transform
    residual = float(np.linalg.norm(mat @ x - lam * x) / np.linalg.norm(x))
    return _gap_result(lam, "dense", residual, 0, mat.shape[0])


class _CountedOperator(spla.LinearOperator):
    def __init__(self, dim: int, apply):
        super().__init__(dtype=np.float64, shape=(dim, dim))
        self._apply = apply
        self.count = 0

    def _matvec(self, x):
        self.count += 1
        return self._apply(np.asarray(x).ravel())


def _arpack_gap(
    mat: sp.csr_matrix,
    symmetric: bool,
    top: np.ndarray,
    n: int | None,
    tol: float,
    max_iterations: int,
) -> GapResult:
    """Gap from the largest eigenvalue modulus of ``mat`` with ``top``
    deflated, by ARPACK; ``iterations`` counts the matvecs."""
    dim = mat.shape[0]
    if not symmetric:
        drift = max(
            np.abs(mat @ top - top).max(), np.abs(mat.T @ top - top).max()
        )
        if drift > 1e-9 * top.max():
            raise UsageError(
                "iterative gap needs a doubly stochastic or reversible chain"
            )
    # At N=3 the subdominant eigenvalues of the local chain come in
    # S_N-degenerate pairs, of which eigs may return one copy only; 2N
    # values keep the largest modulus among them (a raw-matrix chain has
    # no alphabet and gets the N=3 count)
    k = 1 if symmetric else 2 * (n or 3)
    if dim <= k + 1:  # eigs needs k < dim - 1
        return _dense_gap(mat, symmetric)

    def apply(x: np.ndarray) -> np.ndarray:
        return mat @ x - top * (top @ x)

    op = _CountedOperator(dim, apply)
    v0 = np.random.default_rng(0).standard_normal(dim)
    solve = spla.eigsh if symmetric else spla.eigs
    try:
        vals, vecs = solve(
            op, k=k, which="LM", tol=tol / 10, maxiter=max_iterations, v0=v0
        )
    except spla.ArpackNoConvergence as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc
    except spla.ArpackError as exc:
        # a chain that mixes in one step (L=1) deflates to the zero
        # operator, and ARPACK cannot start from a vector it annihilates
        if not apply(v0).any():
            return _dense_gap(mat, symmetric)
        raise NumericError(f"eigensolver failed: {exc}") from exc
    i = np.argmax(np.abs(vals))
    lam, x = vals[i], vecs[:, i]
    residual = float(np.linalg.norm(apply(x) - lam * x) / np.linalg.norm(x))
    if residual > tol:
        raise NumericError(f"eigenpair residual {residual:.3e} above tol {tol:.3e}")
    return _gap_result(lam, "iterative", residual, op.count, dim)


def spectral_gap(
    chain: StochasticChain,
    *,
    tol: float = DEFAULT_TOL,
    dense_cutoff: int = DENSE_CUTOFF,
    max_iterations: int = MAX_ITERATIONS,
) -> GapResult:
    """Gap of a chain: dense up to the cutoff, ARPACK above.

    Lumped and nonlocal chains are reversible and are solved symmetrized
    through their stationary law, the nonlocal chain in its sector
    compression (so the dimension compared with the cutoff, and the
    eigenpair behind ``residual``, are the compression's): ``eigh`` up to
    the cutoff, ``eigsh`` on the deflated operator above it. The local
    chain and raw-matrix chains use ``eig`` up to the cutoff and ``eigs``
    on the deflated operator above it, which needs a doubly stochastic
    matrix. Both solves rank eigenvalues by modulus. A dimension too
    small for ARPACK's ``k`` is solved densely whatever the cutoff.
    Non-convergence raises instead of returning.
    """
    if not (0 < tol < np.inf and max_iterations >= 1):
        raise UsageError(
            f"need 0 < tol < inf and max_iterations >= 1, "
            f"got tol={tol}, max_iterations={max_iterations}"
        )
    _require_irreducible(chain)
    mat, symmetric, top = _gap_operator(chain)
    if mat.shape[0] <= dense_cutoff:
        return _dense_gap(mat, symmetric)
    return _arpack_gap(mat, symmetric, top, chain.n, tol, max_iterations)


@dataclass(frozen=True, eq=False)
class LumpedBlock:
    """One invariant block of the lumped chain, with its multiplicity.

    The block is a birth-death chain on the depths ``top, top+2, ..., L``.
    Row ``i`` of its generator ``I - B`` has ``-up[i]`` toward depth
    ``d-2``, ``-down[i]`` toward depth ``d+2`` and the diagonal
    ``up[i] + down[i] + leak[i]``; ``leak`` is the row-sum excess, nonzero
    only in the top row of a non-radial block. :attr:`diagonal` and
    :attr:`offdiagonal` give the symmetrized block of the chain itself.
    """

    top: int
    multiplicity: int
    up: np.ndarray
    down: np.ndarray
    leak: np.ndarray

    @property
    def diagonal(self) -> np.ndarray:
        return 1.0 - (self.up + self.down + self.leak)

    @property
    def offdiagonal(self) -> np.ndarray:
        return np.sqrt(self.down[:-1] * self.up[1:])


def lumped_blocks(n: int, length: int) -> list[LumpedBlock]:
    """The radial block, then one block per depth ``j = 0 .. L-1``.

    The lumped chain moves a sector by two levels or to a sibling with
    rates that depend on depth only (those of
    :func:`~pairflip.chains.build_lumped`): ``p_d = |K_{d-1}^{(L-1)}| /
    (N |K_d|)`` to the grandparent and to each sibling, and
    ``|K_{d+1}^{(L-1)}| / (N |K_d|)`` to each grandchild. Radial functions
    of depth give the radial block. Below a depth-``j`` vertex, functions
    that are radial inside each child's subtree with weights summing to
    zero over the children give block ``j``; it starts at the top depth
    ``t = j+1`` or ``j+2`` (the one of L's parity), where the grandparent
    term drops out and, at ``t = j+1``, the siblings add ``-p_t`` instead
    of ``(N-2) p_t``. Its multiplicity is the number of depth-``j``
    vertices times one less than their number of children, so at N=2
    only block 0 remains. Rates are correctly rounded quotients of the
    exact sector sizes.
    """
    check_size(n, length)
    first = length % 2
    p, q = [], []  # p_d, and the total rate to the grandchildren
    for d in range(first, length + 1, 2):
        size = n * sector_dim(n, length, d)
        p.append(sector_dim(n, length - 1, d - 1) / size if d else 0.0)
        fan = (n - 1) ** 2 if d else n * (n - 1)
        q.append(fan * sector_dim(n, length - 1, d + 1) / size)

    def block(top: int, mult: int, leak_top: float) -> LumpedBlock:
        i = (top - first) // 2
        up = np.array(p[i:])
        up[0] = 0.0  # no grandparent inside the block
        leak = np.zeros(up.size)
        leak[0] = leak_top
        return LumpedBlock(top, mult, up, np.array(q[i:]), leak)

    blocks = [block(first, 1, 0.0)]
    for j in range(length):
        top = j + 1 if (length - j - 1) % 2 == 0 else j + 2
        mult = multiplicity(n, j) * (n - 1 if j == 0 else n - 2)
        if mult:
            p_top = p[(top - first) // 2]
            blocks.append(block(top, mult, n * p_top if top == j + 1 else p_top))
    return blocks


def _radial_dual(block: LumpedBlock) -> tuple[np.ndarray, ...] | None:
    """Generator rates ``(up, down, leak)`` whose spectrum is the radial
    generator's without its zero, or None when that leaves nothing.

    Differences ``g_i = f_{i+1} - f_i`` turn the radial generator into a
    tridiagonal matrix whose transpose is again a diagonally dominant
    M-matrix, with leaks ``down[0]`` and ``up[-1]`` at its two ends.
    """
    a, b = block.up, block.down
    m = a.size - 1
    if m == 0:
        return None
    leak = np.zeros(m)
    leak[0] += b[0]
    leak[-1] += a[m]
    return np.concatenate(([0.0], b[1:m])), np.append(a[1:m], 0.0), leak


def _leaky_bracket(
    up: np.ndarray, down: np.ndarray, leak: np.ndarray, ceiling: float = math.inf
) -> tuple[float, float, int]:
    """Bracket ``(lo, hi)`` around the smallest eigenvalue of a leaky
    tridiagonal generator, and the number of inverse-iteration solves.

    Gaussian elimination keeps each row's excess ``e_i = leak_i +
    up_i e_{i-1} / u_{i-1}`` and pivot ``u_i = e_i + down_i``, and the
    triangular solves of a positive vector only add positive terms, so
    every quantity is accurate to a few roundings however small the
    eigenvalue. The inverse ``M`` of the generator is positive, and for
    a positive ``x`` the ratios ``x_i / (M x)_i`` bracket the eigenvalue
    (Collatz-Wielandt). Iteration stops once the bracket is as narrow as
    the rounding allows, stops shrinking or lies above ``ceiling``. An
    excess below the normal float range raises NumericError: the
    eigenvalue is then out of double precision's reach.
    """
    a, b, s = up.tolist(), down.tolist(), leak.tolist()
    m = len(a)
    piv, low = [0.0] * m, [0.0] * m
    excess = s[0]
    piv[0] = excess + b[0]
    for i in range(m):
        if i:
            low[i] = a[i] / piv[i - 1]
            excess = s[i] + low[i] * excess
            piv[i] = excess + b[i]
        if excess < _TINY:
            raise NumericError(
                "block elimination underflows double precision: the gap "
                "is below its range"
            )
    x = [1.0] * m
    lo, hi, width = 0.0, math.inf, math.inf
    for solves in range(1, _MAX_SOLVES + 1):
        z = [0.0] * m
        acc = 0.0
        for i in range(m):
            acc = z[i] = x[i] + low[i] * acc
        y = [0.0] * m
        acc = 0.0
        for i in range(m - 1, -1, -1):
            acc = y[i] = (z[i] + b[i] * acc) / piv[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.asarray(x) / np.asarray(y)
        if np.isnan(ratio).any():  # the iterate left the float range
            break
        lo, hi = max(lo, float(ratio.min())), min(hi, float(ratio.max()))
        if hi - lo >= width or hi - lo <= m * _EPS * lo or lo > ceiling:
            break
        width = hi - lo
        top = max(y)
        x = [v / top for v in y]
    return lo, hi, solves


def _block_extremes(
    up: np.ndarray, down: np.ndarray, leak: np.ndarray
) -> tuple[float, float]:
    """Smallest and largest float eigenvalue of a block generator."""
    diag, off = up + down + leak, np.sqrt(down[:-1] * up[1:])
    ends = [
        sla.eigh_tridiagonal(
            diag, off, eigvals_only=True, select="i", select_range=(i, i)
        )[0]
        for i in (0, diag.size - 1)
    ]
    return float(ends[0]), float(ends[1])


def lumped_gap(n: int, length: int) -> GapResult:
    """Gap of the lumped chain from its blocks, without building it.

    A generator eigenvalue ``mu`` is the chain eigenvalue ``1 - mu``, of
    modulus gap ``min(mu, 2 - mu)``. The float spectra of all blocks
    (``eigh_tridiagonal``, absolute error near ``size`` roundings) rank
    the candidates; every block whose smallest float ``mu`` lies within
    that error of the best bracket so far is then bracketed with
    relative accuracy by :func:`_leaky_bracket`, and the radial block
    through its difference form, which drops the stationary eigenvalue.
    ``residual`` is the width of the winning bracket, ``iterations``
    counts the inverse-iteration solves and ``precision`` is the
    bracket's half-width relative to the gap plus ``10 size`` roundings
    for the elimination and the solves.
    """
    generators = []
    for block in lumped_blocks(n, length):
        if block.leak.any():
            generators.append((block.up, block.down, block.leak))
        elif (dual := _radial_dual(block)) is not None:
            generators.append(dual)
    ends = [_block_extremes(*g) for g in generators]
    # negative chain eigenvalues: mu near 2, never near a small gap
    neg_k = max(range(len(ends)), key=lambda k: ends[k][1])
    neg_gap = 2.0 - ends[neg_k][1]
    best: tuple[float, float, int] | None = None
    solves = 0
    for k in sorted(range(len(ends)), key=lambda k: ends[k][0]):
        size = generators[k][0].size
        if best is not None and ends[k][0] - 4 * size * _EPS > best[1]:
            break
        lo, hi, used = _leaky_bracket(
            *generators[k], ceiling=math.inf if best is None else best[1]
        )
        solves += used
        if best is None or lo + hi < best[0] + best[1]:
            best = (lo, hi, size)
    assert best is not None  # block 0 exists for every L >= 1
    lo, hi, size = best
    if not 0 < lo <= hi < math.inf:
        raise NumericError(f"no bracket around the lumped gap: [{lo}, {hi}]")
    gap = 0.5 * (lo + hi)
    if neg_gap < gap:
        slack = 4 * generators[neg_k][0].size * _EPS
        return GapResult(
            gap=neg_gap,
            method="tridiagonal",
            residual=slack,
            iterations=solves,
            precision=slack / neg_gap,
        )
    return GapResult(
        gap=gap,
        method="tridiagonal",
        residual=hi - lo,
        iterations=solves,
        precision=(hi - lo) / (hi + lo) + 10 * size * _EPS,
    )


def _stationary_weights_exact(chain: StochasticChain) -> list[Fraction]:
    if chain.kind == "lumped":
        return [
            Fraction(sector_dim(chain.n, chain.length, len(s.irr)))
            for s in chain.basis
        ]
    return [Fraction(1)] * chain.dimension


def subset_expansion(
    chain: StochasticChain, subset: Sequence[int]
) -> Fraction | float:
    """Probability flow out of a subset per unit stationary mass.

    Exact rational when the chain carries exact rows, float otherwise.
    The subset must be a nonempty proper set of basis indices.
    """
    idx = np.unique(np.asarray(list(subset), dtype=np.int64))
    dim = chain.dimension
    if idx.size == 0 or idx.size >= dim:
        raise UsageError("subset must be nonempty and proper")
    if idx.min() < 0 or idx.max() >= dim:
        raise UsageError("subset indices out of range")
    inside = np.zeros(dim, dtype=bool)
    inside[idx] = True
    if chain.exact_rows is not None:
        weights = _stationary_weights_exact(chain)
        flow = Fraction(0)
        mass = Fraction(0)
        for i in idx:
            w = weights[i]
            mass += w
            for j, p in chain.exact_rows[i].items():
                if not inside[j]:
                    flow += w * p
        return flow / mass
    pi = (
        chain.stationary
        if chain.stationary is not None
        else np.full(dim, 1.0 / dim)
    )
    sub = chain.matrix[idx]
    outflow = np.asarray(sub[:, ~inside].sum(axis=1)).ravel()
    return float(pi[idx] @ outflow / pi[idx].sum())


def _basis_words(chain: StochasticChain) -> tuple[np.ndarray, np.ndarray]:
    """Irreducible string of every basis element, as ``(stack, depth)``."""
    if chain.kind == "lumped":  # its basis is enumerate_sectors(n, L)
        return sector_words(chain.n, chain.length)
    return reduce_states(all_states(chain.n, chain.length))


def cone_subset(
    chain: StochasticChain, depth: int, anchor: SectorId | None = None
) -> np.ndarray:
    """Basis indices of the cone below a depth ``depth-1`` anchor.

    The cone holds every state whose irreducible prefix extends the
    anchor to depth at least ``depth``. Works on full chains (state
    indices) and lumped chains (sector indices). The default anchor
    alternates 1,2,... which is valid for every alphabet.
    """
    n, length = chain.n, chain.length
    if n is None or length is None:
        raise UsageError("cone subsets need a built chain with n and length")
    check_cone_depth(depth, length)
    if anchor is None:
        anchor = SectorId(_canonical_anchor(depth), n)
    if len(anchor.irr) != depth - 1:
        raise UsageError(
            f"anchor depth {len(anchor.irr)} does not match cone depth {depth}"
        )
    return np.flatnonzero(in_cone(*_basis_words(chain), anchor.irr))


def _check_charge_cut(n: int | None, length: int, q: int) -> None:
    if n != 2:
        raise UsageError("charge cuts are a two-symbol construction")
    if (length - q) % 2 or not -length <= q <= length:
        raise UsageError(f"charge {q} has wrong parity or range for L={length}")


def n2_charge_subset(chain: StochasticChain, q: int) -> np.ndarray:
    """Indices with signed two-symbol charge at least ``q``.

    The charge is the difference of the two staggered symbol charges;
    it takes every value of the right parity in ``[-L, L]`` and is
    constant on sectors.
    """
    n, length = chain.n, chain.length
    _check_charge_cut(n, length, q)
    # pair deletions keep the charge, so it is read off the irreducible
    # string: symbol 1 counts +1 and symbol 2 counts -1, with weight -1 on
    # odd sites
    stack, depth = _basis_words(chain)
    sites = np.arange(length)
    weight = np.where(sites % 2, 1, -1) * (sites < depth[:, None])
    charge = ((3 - 2 * stack.astype(np.int64)) * weight).sum(axis=1)
    return np.flatnonzero(charge >= q)


@dataclass(frozen=True)
class CheegerReport:
    """Candidate-cut sandwich around a measured gap."""

    gap: GapResult
    candidates: Mapping[str, float]
    phi_min: float
    witness: str
    upper: float
    lower_witness: float
    lower_certified: bool


def _cuts(n: int, length: int, cone, charge) -> dict:
    """The candidate family under its labels: a cone at every depth that
    fits, then, at N=2, every charge tail from the smallest positive
    charge; ``cone`` and ``charge`` give the entry of a depth and a charge."""
    out = {f"cone d={d}": cone(d) for d in range(2 + length % 2, length + 1, 2)}
    if n == 2:
        for q in range(2 - length % 2, length + 1, 2):
            out[f"charge q={q}"] = charge(q)
    return out


def candidate_cuts(chain: StochasticChain) -> dict[str, np.ndarray]:
    """Labelled candidate cuts: a cone at every valid depth, plus every
    charge cut when N=2. Empty when the chain is too short for any cut."""
    n, length = chain.n, chain.length
    if n is None or length is None:
        raise UsageError("candidate cuts need a built chain with n and length")
    return _cuts(n, length, lambda depth: cone_subset(chain, depth),
                 lambda q: n2_charge_subset(chain, q))


def charge_expansion(n: int, length: int, q: int) -> Fraction:
    """Expansion of the two-symbol cut of signed charge at least ``q``.

    For ``q >= 1`` a fraction ``(N-1)/N`` of the cut's boundary states
    leave in one step. For ``q <= 0`` the flow out of the cut equals the
    flow into it, which charge reversal maps to the flow out of the cut
    at ``2 - q``.
    """
    _check_charge_cut(n, length, q)
    if q == -length:
        raise UsageError("subset must be nonempty and proper")
    if q >= 1:
        boundary, size = n2_charge_cut(length, q)
        return Fraction(boundary, 2 * size)
    boundary, size = n2_charge_cut(length, 2 - q)
    return Fraction(boundary, 2 * (2**length - size))


def cut_expansions(n: int, length: int) -> dict[str, Fraction]:
    """Exact expansions of the :func:`candidate_cuts` of the local,
    nonlocal and lumped chains alike, under the same labels, from closed
    forms (a cone's is its census boundary flow)."""
    check_size(n, length)
    return _cuts(n, length, lambda depth: cone_stats(n, length, depth).boundary_flow,
                 lambda q: charge_expansion(n, length, q))


def cheeger_check(
    n: int, length: int, gap: GapResult, *, tol: float = 1e-9
) -> CheegerReport | None:
    """Sandwich the gap of a length-``length`` chain over ``n`` symbols
    between the expansions of its candidate cuts.

    With no candidates (a chain too short for any cut) there is nothing
    to compare and the result is None. The upper bound ``gap <= 2
    phi_min`` is asserted for all chains; the Cheeger lower bound
    ``phi_min^2 / 2`` is certified only in the two-symbol case, where the
    candidate family contains the minimizing cut, and is otherwise
    reported as a witness value only.
    """
    floats = {
        label: float(phi) for label, phi in cut_expansions(n, length).items()
    }
    if not floats:
        return None
    witness, phi_min = min(floats.items(), key=lambda kv: kv[1])
    upper = 2.0 * phi_min
    lower = 0.5 * phi_min**2
    if gap.gap > upper + tol:
        raise NumericError(
            f"gap {gap.gap} violates the upper bound 2*phi = {upper} "
            f"(witness {witness})"
        )
    certified = n == 2
    if certified and gap.gap < lower - tol:
        raise NumericError(
            f"gap {gap.gap} below the certified lower bound {lower}"
        )
    return CheegerReport(
        gap=gap,
        candidates=floats,
        phi_min=phi_min,
        witness=witness,
        upper=upper,
        lower_witness=lower,
        lower_certified=certified,
    )


def evolve_exact(
    rows: Sequence[Mapping[int, Fraction]],
    dist: Sequence[Fraction],
    steps: int,
) -> list[Fraction]:
    """Push an exact distribution through exact rows ``steps`` times."""
    cur = list(dist)
    for _ in range(steps):
        nxt = [Fraction(0)] * len(cur)
        for i, w in enumerate(cur):
            if w:
                for j, p in rows[i].items():
                    nxt[j] += w * p
        cur = nxt
    return cur


def exact_escape_profile(
    chain: StochasticChain,
    depth: int,
    t_max: int,
    anchor: SectorId | None = None,
) -> tuple[Fraction, ...]:
    """Exact out-of-cone mass at each time for a uniform in-cone start.

    Needs a chain with exact rows (the lumped chain is the intended
    engine: a uniform-in-cone start is constant on sectors, so lumping
    is lossless for this observable). Entry ``t`` is the probability of
    being outside the cone after ``t`` steps; entry 0 is exactly 0.
    """
    if chain.exact_rows is None:
        raise UsageError("escape profiles need an exact chain")
    if t_max < 0:
        raise UsageError("t_max must be nonnegative")
    idx = cone_subset(chain, depth, anchor)
    inside = np.zeros(chain.dimension, dtype=bool)
    inside[idx] = True
    weights = _stationary_weights_exact(chain)
    volume = sum(weights[i] for i in idx)
    dist = [
        weights[i] / volume if inside[i] else Fraction(0)
        for i in range(chain.dimension)
    ]
    out = [Fraction(0)]
    for _ in range(t_max):
        dist = evolve_exact(chain.exact_rows, dist, 1)
        out.append(1 - sum(d for i, d in enumerate(dist) if inside[i]))
    return tuple(out)
