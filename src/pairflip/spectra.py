"""Spectral gaps, subset expansion, and escape profiles.

The gap is ``1 - |lambda_2|`` with ``lambda_2`` the second-largest
eigenvalue modulus of the transition matrix. The relaxation time is
``1/gap``; the usual mixing-time relation ``t_mix >= t_rel ln 4`` is left
to the caller, it is not computed here.

Every chain is reduced to one matrix ``A`` and a unit vector ``r`` that is
a left and right eigenvector of ``A`` for the eigenvalue 1. Reversible
chains (the lumped chain, and the nonlocal chain through its sector
compression) give the symmetric ``A = D^{1/2} T D^{-1/2}``, ``D`` the
diagonal of the stationary law, with ``r`` proportional to its square
root; the full local chain and chains made from raw matrices give the
nonsymmetric ``A = T``, with ``r`` the constant vector when ``T`` is
doubly stochastic. There are two solves. Up to ``DENSE_CUTOFF`` states
``eigh`` or ``eig`` ranks the whole spectrum by modulus; above it ARPACK
(``eigsh`` or ``eigs``) finds the largest modulus of ``x -> A x - r (r.x)``,
in which the eigenvalue 1 is deflated to 0 and every other eigenvalue
is kept.

Expansion of a subset R uses the probability-flow convention

    Phi(R) = sum_{i in R} pi_i sum_{j not in R} T[i, j] / pi(R),

which for the doubly stochastic full chains reduces to the plain
average outflow (1/|R|) sum_{i in R, j notin R} T[i, j].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .census import cone_stats, sector_dim
from .chains import StochasticChain, sector_projectors
from .errors import NumericError, UsageError
from .walks import (
    SectorId,
    _canonical_anchor,
    all_states,
    check_cone_depth,
    in_cone,
    reduce_states,
    sector_words,
)

DENSE_CUTOFF = 4096
DEFAULT_TOL = 1e-10
MAX_ITERATIONS = 10**6


@dataclass(frozen=True)
class GapResult:
    """Spectral gap with provenance of the solve."""

    gap: float
    method: str  # "dense" | "iterative"
    residual: float
    iterations: int

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
    lam: complex | float, method: str, residual: float, iterations: int
) -> GapResult:
    mod = float(abs(lam))
    if mod > 1 + 1e-9:
        raise NumericError(f"subdominant eigenvalue modulus {mod} exceeds 1")
    return GapResult(
        gap=max(1.0 - mod, 0.0),
        method=method,
        residual=residual,
        iterations=iterations,
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
    return _gap_result(lam, "dense", residual, 0)


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
    return _gap_result(lam, "iterative", residual, op.count)


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


def n2_charge_subset(chain: StochasticChain, q: int) -> np.ndarray:
    """Indices with signed two-symbol charge at least ``q``.

    The charge is the difference of the two staggered symbol charges;
    it takes every value of the right parity in ``[-L, L]`` and is
    constant on sectors.
    """
    n, length = chain.n, chain.length
    if n != 2:
        raise UsageError("charge cuts are a two-symbol construction")
    if (length - q) % 2 or not -length <= q <= length:
        raise UsageError(f"charge {q} has wrong parity or range for L={length}")
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


def candidate_cuts(chain: StochasticChain) -> dict[str, np.ndarray]:
    """Labelled candidate cuts: a cone at every valid depth, plus every
    charge cut when N=2. Empty when the chain is too short for any cut."""
    n, length = chain.n, chain.length
    if n is None or length is None:
        raise UsageError("candidate cuts need a built chain with n and length")
    cuts = {
        f"cone d={depth}": cone_subset(chain, depth)
        for depth in range(2 if length % 2 == 0 else 3, length + 1, 2)
    }
    if n == 2:
        for q in range(1 if length % 2 else 2, length + 1, 2):
            cuts[f"charge q={q}"] = n2_charge_subset(chain, q)
    return cuts


def cheeger_check(
    chain: StochasticChain,
    *,
    tol: float = 1e-9,
    gap: GapResult | None = None,
) -> CheegerReport | None:
    """Sandwich the gap between candidate-cut expansions.

    Candidates come from :func:`candidate_cuts`; with none (a chain too
    short for any cut) there is nothing to compare and the result is
    None. The upper bound ``gap <= 2 phi_min`` is asserted for all
    chains; the Cheeger lower bound ``phi_min^2 / 2`` is certified only
    in the two-symbol case, where the candidate family contains the
    minimizing cut, and is otherwise reported as a witness value only.
    """
    candidates = {
        label: float(subset_expansion(chain, cut))
        for label, cut in candidate_cuts(chain).items()
    }
    if not candidates:
        return None
    witness, phi_min = min(candidates.items(), key=lambda kv: kv[1])
    result = gap if gap is not None else spectral_gap(chain)
    upper = 2.0 * phi_min
    lower = 0.5 * phi_min**2
    if result.gap > upper + tol:
        raise NumericError(
            f"gap {result.gap} violates the upper bound 2*phi = {upper} "
            f"(witness {witness})"
        )
    certified = chain.n == 2
    if certified and result.gap < lower - tol:
        raise NumericError(
            f"gap {result.gap} below the certified lower bound {lower}"
        )
    return CheegerReport(
        gap=result,
        candidates=candidates,
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
