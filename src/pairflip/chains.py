"""Transition operators for the boundary-resampled pair-flip chain.

Three Markov chains over the same physics, in row convention
(``T[i, j]`` is the probability of moving from basis state ``i`` to
``j``):

* the full local chain: one boundary resample followed by an even and
  an odd brickwork layer of two-site gates,
* the full nonlocal chain: boundary resample followed by uniform
  randomization inside the current sector,
* the lumped chain: the nonlocal chain projected onto sectors, exact
  over the rationals.

States of length ``L`` over ``{1..N}`` are indexed base ``N`` with
site 1 as the most significant digit, so the boundary site ``L`` is
the least significant one.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from .census import sector_dim
from .errors import NumericError, ResourceCapError, UsageError
from .walks import (
    SectorId,
    SpinString,
    all_states,
    check_alphabet,
    check_size,
    enumerate_sectors,
    reduce_states,
    reduce_symbols,
    sector_index,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_STATE_CAP = 1 << 20

# Row sums of float builds must stay this close to 1.
ROW_SUM_TOL = 1e-12


class GateKind(enum.Enum):
    """Two-site gate flavor applied on adjacent equal pairs."""

    PAIR_FLIP = "pf"
    TEMPERLEY_LIEB = "tl"

    @classmethod
    def parse(cls, text: str) -> "GateKind":
        key = text.strip().lower()
        for kind in cls:
            if key in (kind.value, kind.name.lower()):
                return kind
        raise UsageError(f"unknown gate kind {text!r}; expected 'pf' or 'tl'")


def _check_cap(n: int, length: int, cap: int) -> None:
    if n**length > cap:
        raise ResourceCapError(
            f"state space {n}^{length} exceeds cap {cap}; "
            "use the lumped chain or raise cap"
        )


def state_index(s: SpinString) -> int:
    """Basis index of a string, site 1 most significant."""
    idx = 0
    for sym in s.symbols:
        idx = idx * s.alphabet_size + (sym - 1)
    return idx


def index_symbols(index: int, n: int, length: int) -> tuple[int, ...]:
    """Inverse of :func:`state_index`, as a symbol tuple."""
    if not 0 <= index < n**length:
        raise UsageError(f"index {index} out of range for {n}^{length} states")
    out = []
    for _ in range(length):
        out.append(index % n + 1)
        index //= n
    return tuple(reversed(out))


def gate_probabilities(
    n: int, kind: GateKind
) -> dict[tuple[int, int], list[tuple[tuple[int, int], Fraction]]]:
    """Exact action of the gate on one pair of symbols.

    Only equal pairs move; the returned map lists, per input pair,
    the output pairs with their probabilities. Unequal pairs are
    absent (identity).
    """
    check_alphabet(n)
    act: dict[tuple[int, int], list[tuple[tuple[int, int], Fraction]]] = {}
    if kind is GateKind.PAIR_FLIP:
        flip = Fraction(1, n)
        for a in range(1, n + 1):
            act[(a, a)] = [((b, b), flip) for b in range(1, n + 1)]
    else:
        stay = Fraction(n * n - 2 * (n - 1), n * n)
        cross = Fraction(2, n * n)
        for a in range(1, n + 1):
            row = [((a, a), stay)]
            row += [((b, b), cross) for b in range(1, n + 1) if b != a]
            act[(a, a)] = row
    return act


def gate_matrix(n: int, kind: GateKind) -> np.ndarray:
    """Dense gate on the pair space, (n^2, n^2), row-stochastic."""
    dim = n * n
    mat = np.eye(dim)
    for (a, b), targets in gate_probabilities(n, kind).items():
        row = (a - 1) * n + (b - 1)
        mat[row, row] = 0.0
        for (c, d), w in targets:
            mat[row, (c - 1) * n + (d - 1)] = float(w)
    return mat


def layer_pairs(length: int, parity: str) -> list[tuple[int, int]]:
    """0-based site index pairs of one brickwork layer.

    ``parity='even'`` couples sites (2,3), (4,5), ... and ``'odd'``
    couples (1,2), (3,4), ...; with odd ``length`` the trailing
    incomplete pair is dropped.
    """
    if parity == "even":
        start = 1
    elif parity == "odd":
        start = 0
    else:
        raise UsageError(f"parity must be 'even' or 'odd', got {parity!r}")
    return [(i, i + 1) for i in range(start, length - 1, 2)]


@dataclass(frozen=True, eq=False)
class StochasticChain:
    """A row-stochastic transition matrix plus its bookkeeping.

    ``exact_rows`` carries the same matrix over the rationals when the
    build was exact; ``basis`` is the sector list for lumped chains
    (full chains use the base-N state indexing).
    """

    kind: str
    matrix: sp.csr_matrix
    n: int | None = None
    length: int | None = None
    gate: GateKind | None = None
    exact_rows: tuple[Mapping[int, Fraction], ...] | None = None
    basis: tuple[SectorId, ...] | None = None
    stationary: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def __post_init__(self) -> None:
        mat = self.matrix
        if mat.shape[0] != mat.shape[1]:
            raise UsageError(f"transition matrix must be square, got {mat.shape}")
        drift = np.abs(np.asarray(mat.sum(axis=1)).ravel() - 1.0).max()
        if drift > ROW_SUM_TOL:
            raise NumericError(f"row sums off by {drift:.3e} (tol {ROW_SUM_TOL})")
        if self.exact_rows is not None:
            if len(self.exact_rows) != mat.shape[0]:
                raise UsageError("exact_rows length does not match dimension")
            for i, row in enumerate(self.exact_rows):
                if sum(row.values()) != 1:
                    raise NumericError(f"exact row {i} does not sum to 1")

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray | sp.spmatrix,
        *,
        kind: str = "custom",
        stationary: np.ndarray | None = None,
    ) -> "StochasticChain":
        """A chain on a raw row-stochastic matrix, with its stationary law,
        uniform if not given; a chain that is not doubly stochastic needs
        its law to solve iteratively in ``spectra.spectral_gap``."""
        import scipy.sparse as sp

        return cls(kind=kind, matrix=sp.csr_matrix(matrix), stationary=stationary)

    def exact_entry(self, i: int, j: int) -> Fraction:
        if self.exact_rows is None:
            raise UsageError("chain was not built with exact rows")
        return self.exact_rows[i].get(j, Fraction(0))


def layer_matrix(n: int, length: int, kind: GateKind, parity: str) -> sp.csr_matrix:
    """One brickwork layer as a float CSR matrix on the full state space."""
    import scipy.sparse as sp

    pairs = layer_pairs(length, parity)
    paired = {i for p in pairs for i in p}
    gate = sp.csr_matrix(gate_matrix(n, kind))
    eye = sp.identity(n, format="csr")
    out: sp.spmatrix | None = None
    i = 0
    while i < length:
        if i in paired:
            factor, step = gate, 2
        else:
            factor, step = eye, 1
        out = factor if out is None else sp.kron(out, factor, format="csr")
        i += step
    assert out is not None
    return sp.csr_matrix(out)


def boundary_resample_matrix(n: int, length: int) -> sp.csr_matrix:
    """Uniform resampling of the last site, float CSR."""
    import scipy.sparse as sp

    ones = sp.csr_matrix(np.full((n, n), 1.0 / n))
    if length == 1:
        return ones
    return sp.csr_matrix(sp.kron(sp.identity(n**(length - 1), format="csr"), ones))


def _iter_states(n: int, length: int) -> Iterator[tuple[int, ...]]:
    return itertools.product(range(1, n + 1), repeat=length)


def _gate_layer_action_exact(
    symbols: tuple[int, ...],
    pairs: Sequence[tuple[int, int]],
    act: Mapping[tuple[int, int], list[tuple[tuple[int, int], Fraction]]],
) -> list[tuple[tuple[int, ...], Fraction]]:
    # branch over the equal pairs only; disjoint pairs act independently
    hot = [(i, j) for i, j in pairs if (symbols[i], symbols[j]) in act]
    if not hot:
        return [(symbols, Fraction(1))]
    out: list[tuple[tuple[int, ...], Fraction]] = [(symbols, Fraction(1))]
    for i, j in hot:
        nxt = []
        for state, w in out:
            for (c, d), p in act[(state[i], state[j])]:
                t = list(state)
                t[i], t[j] = c, d
                nxt.append((tuple(t), w * p))
        out = nxt
    return out


def _compose_exact(
    rows: dict[tuple[int, ...], Fraction],
    action,
) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for state, w in rows.items():
        for target, p in action(state):
            out[target] = out.get(target, Fraction(0)) + w * p
    return out


def _exact_local_rows(
    n: int, length: int, kind: GateKind, layer_order: Sequence[str]
) -> tuple[dict[int, Fraction], ...]:
    act = gate_probabilities(n, kind)
    layers = {p: layer_pairs(length, p) for p in ("even", "odd")}
    resample = Fraction(1, n)

    def bath(state: tuple[int, ...]) -> list[tuple[tuple[int, ...], Fraction]]:
        return [(state[:-1] + (b,), resample) for b in range(1, n + 1)]

    rows = []
    for state in _iter_states(n, length):
        acc = _compose_exact({state: Fraction(1)}, bath)
        for parity in layer_order:
            pairs = layers[parity]
            acc = _compose_exact(
                acc, lambda s, _p=pairs: _gate_layer_action_exact(s, _p, act)
            )
        rows.append(
            {state_index(SpinString(t, n)): w for t, w in acc.items()}
        )
    return tuple(rows)


def _csr_from_exact(rows: Sequence[Mapping[int, Fraction]]) -> sp.csr_matrix:
    import scipy.sparse as sp

    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for row in rows:
        for j in sorted(row):
            indices.append(j)
            data.append(float(row[j]))
        indptr.append(len(indices))
    dim = len(rows)
    return sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)),
        shape=(dim, dim),
    )


def build_full_local(
    n: int,
    length: int,
    kind: GateKind = GateKind.PAIR_FLIP,
    *,
    exact: bool = False,
    reverse_layers: bool = False,
    cap: int = DEFAULT_STATE_CAP,
) -> StochasticChain:
    """One full local update cycle: bath, then even layer, then odd layer.

    ``reverse_layers`` swaps the brickwork order (bath, odd, even); gap
    scalings agree between the two orders. With ``exact=True`` the
    rational rows are kept alongside the float matrix; intended for
    small systems.
    """
    import scipy.sparse as sp

    check_size(n, length)
    _check_cap(n, length, cap)
    order = ("odd", "even") if reverse_layers else ("even", "odd")
    uniform = np.full(n**length, 1.0 / n**length)
    if exact:
        rows = _exact_local_rows(n, length, kind, order)
        return StochasticChain(
            kind="local",
            matrix=_csr_from_exact(rows),
            n=n,
            length=length,
            gate=kind,
            exact_rows=rows,
            stationary=uniform,
        )
    mat = boundary_resample_matrix(n, length)
    for parity in order:
        mat = sp.csr_matrix(mat @ layer_matrix(n, length, kind, parity))
    return StochasticChain(
        kind="local", matrix=mat, n=n, length=length, gate=kind, stationary=uniform
    )


@dataclass(frozen=True)
class LocalOperator:
    """The full local chain of :func:`build_full_local`, matrix free.

    :meth:`matvec` applies ``T = B E O`` (bath, then the two brickwork
    layers, in the chain's order) to a vector over the ``n**length``
    states, or to each column of a ``(states, k)`` batch, without
    building ``T``. Every factor is symmetric and doubly stochastic, so
    the uniform law is stationary.
    """

    n: int
    length: int
    gate: GateKind = GateKind.PAIR_FLIP
    reverse_layers: bool = False

    @property
    def dimension(self) -> int:
        return self.n**self.length

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``T @ x`` for a vector or a batch of columns."""
        n, length = self.n, self.length
        y = np.array(x, dtype=float, order="C")
        if y.shape[0] != self.dimension:
            raise UsageError(
                f"operand has {y.shape[0]} rows, the chain {self.dimension} states"
            )
        if self.gate is GateKind.PAIR_FLIP:
            stay = cross = 1.0 / n
        else:
            stay, cross = (n * n - 2 * (n - 1)) / (n * n), 2.0 / (n * n)
        order = ("even", "odd") if self.reverse_layers else ("odd", "even")
        for parity in order:  # T x = B (E (O x)): the last factor acts first
            for i, _ in layer_pairs(length, parity):
                # the n equal pairs (a, a) of sites i, i+1, row-major
                _mix(y.reshape(n**i, n * n, -1)[:, :: n + 1], stay, cross)
        _mix(y.reshape(n ** (length - 1), n, -1), 1.0 / n, 1.0 / n)
        return y


def _mix(block: np.ndarray, stay: float, cross: float) -> None:
    """Map each slice ``x_a = block[:, a]``, in place, to ``stay x_a +
    cross (sum - x_a)``; with ``stay == cross`` that is ``cross sum``.
    Slice by slice is faster than a reduction over the short axis."""
    slices = [block[:, a] for a in range(block.shape[1])]
    total = cross * sum(slices[1:], slices[0])
    for part in slices:
        if stay == cross:
            part[...] = total
        else:
            part *= stay - cross
            part += total


def local_operator(
    n: int,
    length: int,
    kind: GateKind = GateKind.PAIR_FLIP,
    *,
    reverse_layers: bool = False,
    cap: int = DEFAULT_STATE_CAP,
) -> LocalOperator:
    """The chain of :func:`build_full_local` as a :class:`LocalOperator`,
    under the same size checks and state cap."""
    check_size(n, length)
    _check_cap(n, length, cap)
    return LocalOperator(n, length, kind, reverse_layers)


def state_sector_codes(n: int, length: int, *, cap: int = DEFAULT_STATE_CAP):
    """Sector index and depth of every state.

    Returns ``(index, depth)`` over all ``n**length`` states in index
    order; ``index`` is the state's position in the sector order of
    :func:`enumerate_sectors`, which is also the :func:`build_lumped`
    basis.
    """
    check_size(n, length)
    _check_cap(n, length, cap)
    stack, depth = reduce_states(all_states(n, length))
    return sector_index(stack, depth, n, length), depth


def sector_projectors(
    n: int, length: int, *, cap: int = DEFAULT_STATE_CAP
) -> tuple[sp.csr_matrix, sp.csr_matrix, tuple[SectorId, ...]]:
    """Lift and average maps between states and sectors.

    Returns ``(R, S, basis)`` with ``R`` the (states x sectors) 0/1
    membership indicator, ``S`` the (sectors x states) row-averaging
    matrix, and ``basis`` the sector order shared with
    :func:`build_lumped`. ``S @ R`` is the sector identity and
    ``R @ S`` the in-sector uniformization projector.
    """
    import scipy.sparse as sp

    col, _ = state_sector_codes(n, length, cap=cap)
    basis = tuple(enumerate_sectors(n, length, max_count=cap))
    total = n**length
    rows = np.arange(total, dtype=np.int64)
    r_mat = sp.csr_matrix(
        (np.ones(total), (rows, col)), shape=(total, len(basis))
    )
    sizes = np.bincount(col, minlength=len(basis))
    s_mat = sp.csr_matrix(
        (1.0 / sizes[col], (col, rows)), shape=(len(basis), total)
    )
    return r_mat, s_mat, basis


def build_full_nonlocal(
    n: int,
    length: int,
    *,
    exact: bool = False,
    cap: int = DEFAULT_STATE_CAP,
) -> StochasticChain:
    """Bath kick followed by uniform mixing inside the new sector.

    The gate flavor drops out here: both gates relax to the uniform
    distribution on the sector, so the nonlocal chain is gate free.
    Exact rows enumerate sector members and are meant for small
    systems only.
    """
    import scipy.sparse as sp

    check_size(n, length)
    _check_cap(n, length, cap)
    uniform = np.full(n**length, 1.0 / n**length)
    if exact:
        members: dict[tuple[int, ...], list[int]] = {}
        states = list(_iter_states(n, length))
        for i, state in enumerate(states):
            members.setdefault(reduce_symbols(state), []).append(i)
        resample = Fraction(1, n)
        rows = []
        for state in states:
            row: dict[int, Fraction] = {}
            for b in range(1, n + 1):
                mem = members[reduce_symbols(state[:-1] + (b,))]
                w = resample / len(mem)
                for j in mem:
                    row[j] = row.get(j, Fraction(0)) + w
            rows.append(row)
        return StochasticChain(
            kind="nonlocal",
            matrix=_csr_from_exact(rows),
            n=n,
            length=length,
            exact_rows=tuple(rows),
            stationary=uniform,
        )
    r_mat, s_mat, _ = sector_projectors(n, length, cap=cap)
    mat = sp.csr_matrix((boundary_resample_matrix(n, length) @ r_mat) @ s_mat)
    return StochasticChain(
        kind="nonlocal", matrix=mat, n=n, length=length, stationary=uniform
    )


def _lumped_rates(
    n: int, length: int
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact lumped-walk rates ``(up, down)`` at the depths ``d = L mod 2,
    ..., L``: ``up = |K_{d-1}^{(L-1)}|/(N |K_d|)`` to the grandparent and
    to each sibling (0 at the root), ``down = |K_{d+1}^{(L-1)}|/(N |K_d|)``
    to each grandchild."""
    up, down = [], []
    for d in range(length % 2, length + 1, 2):
        size = n * sector_dim(n, length, d)
        up.append(Fraction(sector_dim(n, length - 1, d - 1), size))
        down.append(Fraction(sector_dim(n, length - 1, d + 1), size))
    return tuple(up), tuple(down)


def _lumped_rows(
    n: int, length: int, basis: Sequence[SectorId]
) -> tuple[dict[int, Fraction], ...]:
    index = {sec.irr: k for k, sec in enumerate(basis)}
    ups, downs = _lumped_rates(n, length)
    rows = []
    for sec in basis:
        irr = sec.irr
        d = len(irr)
        up, down = ups[d // 2], downs[d // 2]
        row: dict[int, Fraction] = {}
        if up:
            # a new last symbol b: a sibling, or the grandparent at irr[-2]
            for b in range(1, n + 1):
                if b not in irr[-1:]:
                    row[index[reduce_symbols(irr[:-1] + (b,))]] = up
        if down:
            for c in range(1, n + 1):
                for b in range(1, n + 1):
                    if c not in irr[-1:] and b != c:
                        row[index[irr + (c, b)]] = down
        k = index[irr]
        row[k] = 1 - sum(row.values()) + row.get(k, Fraction(0))
        if row[k] < 0:
            raise NumericError(f"negative stay probability at sector {sec}")
        rows.append(row)
    return tuple(rows)


def build_lumped(
    n: int, length: int, *, cap: int = DEFAULT_STATE_CAP
) -> StochasticChain:
    """Sector-level chain of the nonlocal dynamics, exact rationals.

    Rows follow the boundary-resample kernel: weight
    ``|K_{d-1}^{(L-1)}|/(N |K_s|)`` to the grandparent and to each
    same-depth sector reachable by replacing the last irreducible
    symbol, ``|K_{d+1}^{(L-1)}|/(N |K_s|)`` to each of the
    ``(N-1)^2`` grandchildren, remainder (always ``1/N``) on the
    diagonal. Stationary law is proportional to sector dimension and
    the chain is reversible with respect to it.
    """
    check_size(n, length)
    basis = tuple(enumerate_sectors(n, length, max_count=cap))
    rows = _lumped_rows(n, length, basis)
    dims = np.array(
        [sector_dim(n, length, len(sec.irr)) for sec in basis], dtype=float
    )
    return StochasticChain(
        kind="lumped",
        matrix=_csr_from_exact(rows),
        n=n,
        length=length,
        exact_rows=rows,
        basis=basis,
        stationary=dims / dims.sum(),
    )


def compressed_boundary_kernel(
    n: int, length: int, *, cap: int = DEFAULT_STATE_CAP
) -> tuple[tuple[dict[int, Fraction], ...], tuple[SectorId, ...]]:
    """Exact sector kernel obtained by sweeping every state once.

    Computes ``S @ M_L @ R`` over the rationals directly from the
    state space, with no reference to the lumped-row formula; agreeing
    with :func:`build_lumped` is the exact lumping identity (the two
    sides differ by right-multiplication with the full-rank averaging
    map, so entrywise equality here is equivalent to it).
    """
    index, _ = state_sector_codes(n, length, cap=cap)
    basis = tuple(enumerate_sectors(n, length, max_count=cap))
    # resampling the last site sends a state to each of the n states that
    # share its first L-1 sites, which are n consecutive indices
    group = index.reshape(-1, n)
    src = np.repeat(group, n, axis=1)
    dst = np.tile(group, (1, n))
    pairs, counts = np.unique(src * len(basis) + dst, return_counts=True)
    rows: list[dict[int, Fraction]] = [{} for _ in basis]
    for pair, count in zip(pairs.tolist(), counts.tolist()):
        i, j = divmod(pair, len(basis))
        rows[i][j] = Fraction(count, n * sector_dim(n, length, basis[i].depth))
    return tuple(rows), basis


def export_coo(chain: StochasticChain, stream: IO[str]) -> int:
    """Write the chain as coordinate-format text lines ``row col value``.

    Exact rows are written as exact rationals when present, otherwise
    float entries are written with full repr precision. Returns the
    number of entries written.
    """
    count = 0
    if chain.exact_rows is not None:
        for i, row in enumerate(chain.exact_rows):
            for j in sorted(row):
                stream.write(f"{i} {j} {row[j]}\n")
                count += 1
        return count
    coo = chain.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    for k in order:
        stream.write(f"{coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}\n")
        count += 1
    return count
