"""Spectral gaps, subset expansion, and escape profiles.

The gap is ``1 - |lambda_2|`` with ``lambda_2`` the second-largest
eigenvalue modulus of the transition matrix. The relaxation time is
``1/gap``; the usual mixing-time relation ``t_mix >= t_rel ln 4`` is left
to the caller, it is not computed here.

The lumped chain needs no matrix: its rates depend only on depth, so it
is a radial walk on the N-regular tree and its spectrum splits into at
most L+1 tridiagonal blocks of known multiplicity (:func:`lumped_blocks`).
The spectrum lies in [0, 1] and, by interlacing, block 0 holds its
smallest nonzero generator eigenvalue, so :func:`lumped_gap` solves
that one block with relative accuracy (method ``"tridiagonal"``): its
generator ``I - B`` is a diagonally dominant M-matrix, whose smallest
eigenvalue inverse iteration finds through a subtraction-free
elimination (Alfa, Xue & Ye, Math. Comp. 71, 2002), so a gap far below
double precision comes out right. The block also gives the gap of the
nonlocal chain ``B R S``, which has the nonzero spectrum of the lumped
chain ``S B R``.

A built chain, the lumped chain included, is solved on its own matrix
``T``, and the local chain on :func:`~pairflip.chains.local_operator`,
which applies ``T`` without building it. Up to ``DENSE_CUTOFF`` = 64
states ``eig`` ranks the whole spectrum by modulus; above it a
thick-restart Arnoldi solver in numpy (:func:`_arnoldi_top`) finds the
largest modulus of ``x -> T x - u (w.x)``. There ``u`` is the constant
vector and ``w`` the stationary law, scaled to ``w.u = 1`` (both the
unit constant vector where the law is uniform, as for the local and
nonlocal chains), so the eigenvalue 1 goes to 0 and every other
eigenvalue stays (Wielandt deflation). 64 is the measured crossover:
the dense solve is the faster one up to 64 states and the iterative
one from 81 to 128 states on (local and lumped chains, both gates,
one BLAS thread), and both find the same gap. Their ``1 - |lambda|`` carries an
absolute error near ``dim`` roundings, which ``GapResult.precision``
reports relative to the gap. The local gap needs no scipy.

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

from .census import _cone_exact, multiplicity, n2_charge_cut, sector_dim
from .chains import LocalOperator, StochasticChain, _lumped_rates
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
    staggered_charge,
)

DENSE_CUTOFF = 64  # states; the measured dense/iterative crossover
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
    from scipy.sparse.csgraph import connected_components

    if chain.dimension < 2:
        raise UsageError("a one-state chain has no spectral gap")
    ncomp, _ = connected_components(chain.matrix, connection="strong")
    if ncomp != 1:
        raise UsageError(
            f"chain is not irreducible ({ncomp} strongly connected components)"
        )


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


def _dense_gap(mat: np.ndarray) -> GapResult:
    """Second-largest eigenvalue modulus of the whole spectrum."""
    vals, vecs = np.linalg.eig(mat)
    k = np.argsort(-np.abs(vals))[1]
    lam, x = vals[k], vecs[:, k]
    residual = float(np.linalg.norm(mat @ x - lam * x) / np.linalg.norm(x))
    return _gap_result(lam, "dense", residual, 0, mat.shape[0])


def _law(chain: StochasticChain) -> np.ndarray:
    """The stationary law of a chain, uniform where it gives none."""
    if chain.stationary is None:  # a raw-matrix chain
        return np.full(chain.dimension, 1.0 / chain.dimension)
    return chain.stationary


def _iterative_gap(
    chain: StochasticChain | LocalOperator, tol: float, max_iterations: int
) -> GapResult:
    """Gap from the largest eigenvalue modulus of ``x -> T x - u (w.x)``
    by :func:`_arnoldi_top`; ``iterations`` counts the matvecs."""
    dim = chain.dimension
    if isinstance(chain, LocalOperator):  # doubly stochastic by construction
        product = chain.matvec
        u = w = np.full(dim, dim**-0.5)
    else:
        mat, pi = chain.matrix, _law(chain)
        product = mat.__matmul__
        if (pi != pi[0]).any():
            u, w = np.ones(dim), pi / pi.sum()
        else:
            root = np.sqrt(pi)
            u = w = root / np.linalg.norm(root)
        drift = max(np.abs(mat @ u - u).max() / u.max(),
                    np.abs(mat.T @ w - w).max() / w.max())
        if drift > 1e-9:
            raise UsageError(
                f"iterative gap needs the stationary law of the chain; the law "
                f"of this {dim}-state chain, uniform unless given, is not "
                f"stationary, so solve it densely with dense_cutoff >= {dim}"
            )

    def apply(x: np.ndarray) -> np.ndarray:
        return product(x) - np.multiply.outer(u, w @ x)

    # At N=3 the subdominant eigenvalues of the local and nonlocal
    # chains come in S_N-degenerate pairs and the lumped gap has
    # multiplicity N-1; restarts keep 2N Ritz values, so that the
    # largest modulus among them is not lost (a raw-matrix chain has no
    # alphabet and gets the N=3 count)
    k = 2 * (chain.n or 3)
    lam, residual, matvecs = _arnoldi_top(apply, dim, k, tol, max_iterations)
    return _gap_result(lam, "iterative", residual, matvecs, dim)


def _arnoldi_top(
    apply, dim: int, k: int, tol: float, max_iterations: int
) -> tuple[complex, float, int]:
    """Largest-modulus eigenpair of a real operator of unit scale, by
    thick-restart Arnoldi; returns the eigenvalue, the explicit residual
    of its unit eigenvector and the number of matvecs.

    The orthonormal basis ``V`` (rows of ``basis``) is kept with its
    image ``W = A V``, and ``H = V^T W`` is updated a row and a column
    per matvec. Each step ranks the eigenvalues of ``H`` by modulus and
    stops once the top Ritz pair's residual ``W y - theta V y`` is at
    most ``1e-4 tol |theta|`` or at rounding level, ``64 eps`` times the
    larger of ``max |H|`` and 1 (the deflated eigenvalue sets the
    scale); otherwise that residual, orthogonalized against ``V`` (a
    second time where the first pass cancels most of it), is the next
    basis vector. A residual that orthogonalization reduces
    to rounding level, or a basis of ``dim`` vectors, is an exhausted
    Krylov space, on which the Ritz pair is exact. A basis of ``m =
    max(2k+1, 20)`` vectors restarts on a real orthonormal basis of the
    ``k`` leading Ritz vectors (both parts of a complex one), and ``W``
    takes the same rotation, so no matvec is repeated (Morgan, Math.
    Comp. 65, 1996; Stewart, SIAM J. Matrix Anal. Appl. 23, 2001).
    Running out of ``max_iterations`` matvecs, or an explicit residual
    above ``tol``, raises NumericError.
    """
    m = min(max(2 * k + 1, 20), dim)
    basis, image, proj = np.empty((m, dim)), np.empty((m, dim)), np.empty((m, m))
    v = np.random.default_rng(0).standard_normal(dim)
    v /= np.linalg.norm(v)
    j = matvecs = 0
    while True:
        if matvecs == max_iterations:
            raise NumericError(
                f"eigensolver did not converge in {max_iterations} matvecs"
            )
        basis[j], image[j] = v, apply(v)
        matvecs += 1
        proj[: j + 1, j] = basis[: j + 1] @ image[j]
        proj[j, :j] = image[:j] @ basis[j]
        j += 1
        h = proj[:j, :j]
        vals, vecs = np.linalg.eig(h)
        order = np.argsort(-np.abs(vals), kind="stable")
        theta, y = vals[order[0]], vecs[:, order[0]]
        # the residual W y - theta V y, by real and imaginary part
        ty = theta * y
        parts = [y.real @ image[:j] - ty.real @ basis[:j]]
        if theta.imag:
            parts.append(y.imag @ image[:j] - ty.imag @ basis[:j])
        norms = [float(np.linalg.norm(p)) for p in parts]
        floor = 64 * _EPS * max(float(np.abs(h).max()), 1.0)
        if math.hypot(*norms) <= max(1e-4 * tol * abs(theta), floor) or j == dim:
            break
        v = parts[int(np.argmax(norms))]
        for _ in range(2):  # again only if the pass cancelled most of v
            before = float(np.linalg.norm(v))
            v -= (basis[:j] @ v) @ basis[:j]
            beta = float(np.linalg.norm(v))
            if beta > before / math.sqrt(2):
                break
        if beta <= floor:
            break
        v /= beta
        if j == m:
            cols = []
            for i in order[:k]:
                if vals[i].imag >= 0:  # a conjugate's partner comes first
                    cols.append(vecs[:, i].real)
                if vals[i].imag > 0:
                    cols.append(vecs[:, i].imag)
            q = np.linalg.qr(np.column_stack(cols))[0]
            j = q.shape[1]
            basis[:j], image[:j] = q.T @ basis, q.T @ image
            proj[:j, :j] = basis[:j] @ image[:j].T
    x = (np.stack([y.real, y.imag]) @ basis[:j]).T  # the Ritz vector's parts
    rot = np.array([[theta.real, theta.imag], [-theta.imag, theta.real]])
    residual = float(np.linalg.norm(apply(x) - x @ rot) / np.linalg.norm(x))
    if residual > tol:
        raise NumericError(f"eigenpair residual {residual:.3e} above tol {tol:.3e}")
    return complex(theta), residual, matvecs


def spectral_gap(
    chain: StochasticChain | LocalOperator,
    *,
    tol: float = DEFAULT_TOL,
    dense_cutoff: int = DENSE_CUTOFF,
    max_iterations: int = MAX_ITERATIONS,
) -> GapResult:
    """Gap of a built chain or of the matrix-free local chain, solved on
    its own operator: ``eig`` up to the cutoff, :func:`_arnoldi_top` on
    the deflated operator above it.

    The default cutoff, ``DENSE_CUTOFF`` = 64 states, is where the
    iterative solve overtakes the dense one. Both solves rank
    eigenvalues by modulus. The deflation needs the stationary law,
    taken as uniform where a built chain gives none: a chain that does
    not keep it to 1e-9 (``T u = u`` and ``w T = w``) raises UsageError
    above the cutoff, and solves with a ``dense_cutoff`` of at least its
    dimension. A built chain must be irreducible; a
    :class:`~pairflip.chains.LocalOperator` is by construction and is
    not checked. ``max_iterations`` caps the matvecs; non-convergence
    raises instead of returning.
    """
    if not (0 < tol < np.inf and max_iterations >= 1):
        raise UsageError(
            f"need 0 < tol < inf and max_iterations >= 1, "
            f"got tol={tol}, max_iterations={max_iterations}"
        )
    local = isinstance(chain, LocalOperator)
    if not local:
        _require_irreducible(chain)
    if chain.dimension > dense_cutoff:
        return _iterative_gap(chain, tol, max_iterations)
    if local:
        return _dense_gap(chain.matvec(np.eye(chain.dimension)))
    return _dense_gap(chain.matrix.toarray())


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
    rates that depend on depth only (those of ``chains._lumped_rates``):
    ``p_d = |K_{d-1}^{(L-1)}| / (N |K_d|)`` to the grandparent and to each
    sibling, and ``|K_{d+1}^{(L-1)}| / (N |K_d|)`` to each grandchild.
    Radial functions of depth give the radial block. Below a depth-``j``
    vertex, functions that are radial inside each child's subtree with
    weights summing to zero over the children give block ``j``; it starts
    at the top depth ``t = j+1`` or ``j+2`` (the one of L's parity), where
    the grandparent term drops out and, at ``t = j+1``, the siblings add
    ``-p_t`` instead of ``(N-2) p_t``. Its multiplicity is the number of
    depth-``j`` vertices times one less than their number of children, so
    at N=2 only block 0 remains. Rates are the correctly rounded floats
    of those exact quotients, and every block slices the same lists, so
    block 0, at index 1, holds the gap (:func:`lumped_gap`).
    """
    rates = _block_rates(n, length)
    blocks = [_slice_block(rates, rates[0], 1, 0.0)]
    for j in range(length):
        block = _depth_block(n, length, rates, j)
        if block is not None:
            blocks.append(block)
    return blocks


_Rates = tuple[int, list[float], list[float]]


def _block_rates(n: int, length: int) -> _Rates:
    """The first depth, then the grandparent rates ``p`` and the total
    grandchild rates ``q`` of the depths ``first, first+2, ..., L``."""
    check_size(n, length)
    first = length % 2
    ups, downs = _lumped_rates(n, length)
    p = [float(up) for up in ups]
    # the total rate to the grandchildren, N(N-1) of them at the root
    q = [
        float((n - 1) * (n - 1 if d else n) * down)
        for d, down in zip(range(first, length + 1, 2), downs)
    ]
    return first, p, q


def _slice_block(rates: _Rates, top: int, mult: int, leak_top: float) -> LumpedBlock:
    """The block on the depths ``top, top+2, ..., L``, sliced from ``rates``."""
    first, p, q = rates
    i = (top - first) // 2
    up = np.array(p[i:])
    up[0] = 0.0  # no grandparent inside the block
    leak = np.zeros(up.size)
    leak[0] = leak_top
    return LumpedBlock(top, mult, up, np.array(q[i:]), leak)


def _depth_block(n: int, length: int, rates: _Rates, j: int) -> LumpedBlock | None:
    """Block ``j`` of :func:`lumped_blocks`, or None where its multiplicity is 0."""
    top = j + 1 if (length - j - 1) % 2 == 0 else j + 2
    mult = multiplicity(n, j) * (n - 1 if j == 0 else n - 2)
    if not mult:
        return None
    p_top = rates[1][(top - rates[0]) // 2]
    return _slice_block(rates, top, mult, n * p_top if top == j + 1 else p_top)


def _leaky_bracket(
    up: np.ndarray, down: np.ndarray, leak: np.ndarray
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
    the rounding allows or stops shrinking. An excess below the normal
    float range raises NumericError: the eigenvalue is then out of
    double precision's reach.
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
        if hi - lo >= width or hi - lo <= m * _EPS * lo:
            break
        width = hi - lo
        top = max(y)
        x = [v / top for v in y]
    return lo, hi, solves


def lumped_gap(n: int, length: int) -> GapResult:
    """Gap of the lumped chain from block 0, without building the chain.

    A generator eigenvalue ``mu`` is the chain eigenvalue ``1 - mu``. The
    lumped chain shares its nonzero spectrum with the nonlocal chain
    ``B P`` (bath and in-sector average, both symmetric projections), so
    with ``P B P``, which is positive semidefinite: every ``mu`` lies in
    [0, 1] and the gap is the smallest nonzero ``mu``. Block 0,
    ``lumped_blocks(n, L)[1]``, always holds it, and it is built alone,
    from the same rate lists. Write ``G`` for a
    block's symmetrized generator ``diag(up + down + leak)`` with
    off-diagonal ``sqrt(down[:-1] * up[1:])``, ``G_R`` for the radial
    block's and ``mu_k`` for the k-th smallest eigenvalue. Every block
    slices the same float rates, and rounding is monotone, so for the
    float matrices too:

    - at even L, ``G_0`` is ``G_R`` less its depth-0 row and column, and
      Cauchy interlacing gives ``mu_1(G_0) <= mu_2(G_R)``;
    - at odd L, ``G_0 = G_R + N p_1 e_0 e_0^T``, and rank-one interlacing
      gives the same;
    - for j >= 1, ``G_j`` is a trailing principal submatrix of ``G_0``
      plus ``leak - p_top >= 0`` on its top diagonal entry, and Cauchy
      interlacing and Weyl's inequality give ``mu_1(G_j) >= mu_1(G_0)``.

    ``mu_2(G_R)`` is the radial block's smallest nonzero eigenvalue.
    :func:`_leaky_bracket` brackets ``mu_1(G_0)`` with relative accuracy:
    ``residual`` is the bracket's width, ``iterations`` counts its
    inverse-iteration solves and ``precision`` is its half-width relative
    to the gap plus ``10 size`` roundings for the elimination and the
    solves.
    """
    block = _depth_block(n, length, _block_rates(n, length), 0)
    lo, hi, solves = _leaky_bracket(block.up, block.down, block.leak)
    if not 0 < lo <= hi < math.inf:
        raise NumericError(f"no bracket around the lumped gap: [{lo}, {hi}]")
    return GapResult(
        gap=0.5 * (lo + hi),
        method="tridiagonal",
        residual=hi - lo,
        iterations=solves,
        precision=(hi - lo) / (hi + lo) + 10 * block.up.size * _EPS,
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
    pi = _law(chain)
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
    # a lumped basis element is its sector's irreducible string, whose
    # zero padding matches no symbol; pair deletions keep the charge
    if chain.kind == "lumped":
        words = sector_words(n, length)[0]
    else:
        words = all_states(n, length)
    charge = staggered_charge(words, 1) - staggered_charge(words, 2)
    return np.flatnonzero(charge >= q)


@dataclass(frozen=True)
class CheegerReport:
    """Candidate-cut sandwich around a measured gap.

    ``lower_witness`` is the float of ``phi_min^2 / 2``, 0 once that
    falls below double precision's range; ``lower_log``, its natural log
    from the exact expansion, stays finite.
    """

    gap: GapResult
    candidates: Mapping[str, float]
    phi_min: float
    witness: str
    upper: float
    lower_witness: float
    lower_certified: bool
    lower_log: float


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
    cones = _cone_exact(n, length)
    return _cuts(n, length, lambda d: cones[d][1],
                 lambda q: charge_expansion(n, length, q))


def cheeger_check(n: int, length: int, gap: GapResult) -> CheegerReport | None:
    """Sandwich the gap of a length-``length`` chain over ``n`` symbols
    between the expansions of its candidate cuts.

    With no candidates (a chain too short for any cut) there is nothing
    to compare and the result is None. The upper bound ``gap <= 2
    phi_min`` is asserted for all chains; the Cheeger lower bound
    ``phi_min^2 / 2`` is certified only in the two-symbol case, where the
    candidate family contains the minimizing cut, and is otherwise
    reported as a witness value only. A bound is violated when the gap
    passes it by more than the gap's ``precision`` plus a few roundings,
    relative to the bound; a gap of unknown (NaN) or no (inf) precision
    gets the roundings only.
    """
    exact = cut_expansions(n, length)
    floats = {label: float(phi) for label, phi in exact.items()}
    if not floats:
        return None
    witness, phi_min = min(floats.items(), key=lambda kv: kv[1])
    phi = exact[witness]
    lower_log = 2 * (math.log(phi.numerator) - math.log(phi.denominator)) - math.log(2)
    upper = 2.0 * phi_min
    lower = 0.5 * phi_min**2
    slack = 4 * _EPS + (gap.precision if math.isfinite(gap.precision) else 0.0)
    if gap.gap > upper * (1 + slack):
        raise NumericError(
            f"gap {gap.gap} violates the upper bound 2*phi = {upper} "
            f"(witness {witness})"
        )
    certified = n == 2
    if certified and gap.gap < lower * (1 - slack):
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
        lower_log=lower_log,
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
