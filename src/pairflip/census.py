"""Exact sector combinatorics: dimension tables, cones, and loop-gas zero modes.

Sector sizes for a length-L chain over N symbols come from an integer dynamic
program on (length, depth). Binomial-series closed forms and a vectorised
brute-force tally give two independent cross-check routes; float asymptotics
(saddle-point shapes of the same counts) live in separate functions and never
feed the exact paths. The closed forms are the endpoint of a
return-generating-function computation for the simple walk on the N-regular
tree; only the resulting formulas appear here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import mpmath
import numpy as np

from .errors import ResourceCapError, UsageError
from .walks import (
    all_states,
    check_alphabet,
    check_cone_depth,
    check_size,
    enumerate_sectors,
    reduce_states,
    sector_count_closed,
    sector_index,
)


def drift_velocity(n: int) -> Fraction:
    """Mean depth gain per site of a uniformly random string, v_N = 1 - 2/N.

    Also the equilibrium depth per site, (N-2)/N.
    """
    check_alphabet(n)
    return Fraction(n - 2, n)


def tree_walk_spectral_radius(n: int) -> float:
    """Spectral radius 2*sqrt(N-1)/N of the simple random walk on the N-regular tree.

    Governs the exponential decay of the trivial-sector fraction:
    |K_0| / N^L ~ L^(-3/2) * rho^L.
    """
    check_alphabet(n)
    return 2.0 * math.sqrt(n - 1.0) / n


# Row cache for the dimension DP, keyed by alphabet size. Rows are immutable
# tuples; the list only ever grows, so sharing across callers is safe.
_ROWS: dict[int, list[tuple[int, ...]]] = {}
_ROWS_CAP_BYTES = 1 << 30


def _rows_bytes(n: int, length: int) -> float:
    """Bytes of DP rows 0..length, estimated from above: row m holds m+1
    tuple slots and m/2+1 ints below N^m, each int 32 bytes plus 4 per
    30 bits."""
    m = length + 1
    return m * (88 + 12 * m) + math.log2(n) * m * m * (m / 45 + 1 / 15)


def _dims_row(n: int, length: int) -> tuple[int, ...]:
    """Tuple indexed by depth d: number of length-`length` strings in one depth-d sector.

    Recurrence over the last site: a string lands in a depth-d sector iff its
    length-(L-1) prefix sits at depth d-1 (one way to extend) or d+1 (the N-1
    extensions that cancel differently), with the depth-0 row absorbing all N
    extensions of depth-1 prefixes. The cached rows grow like L^3 in memory;
    rows that would pass a fixed cap raise ResourceCapError before any is built.
    """
    rows = _ROWS.setdefault(n, [(1,)])
    while len(rows) <= length:
        # checked only while the cache grows, off the cached lookup's path
        if (need := _rows_bytes(n, length)) > _ROWS_CAP_BYTES:
            raise ResourceCapError(
                f"sector dimensions up to N={n}, L={length} need about "
                f"{need / 2**30:.3g} GiB, above the cap of 1 GiB"
            )
        prev = rows[-1]
        m = len(rows)
        nxt = [0] * (m + 1)
        for d in range(m % 2, m + 1, 2):
            if d == 0:
                nxt[0] = n * prev[1]
            else:
                above = prev[d + 1] if d + 1 < len(prev) else 0
                nxt[d] = prev[d - 1] + (n - 1) * above
        rows.append(tuple(nxt))
    return rows[length]


def sector_dim(n: int, length: int, depth: int) -> int:
    """Size of one depth-`depth` sector of a length-`length` chain; 0 if none exists."""
    check_alphabet(n)
    if length < 0 or depth < 0 or depth > length or (length - depth) % 2:
        return 0
    return _dims_row(n, length)[depth]


def sector_dim_rows(n: int, length: int) -> Sequence[tuple[int, ...]]:
    """Rows 0..length (at least) of the dimension DP, from the shared cache.

    ``rows[l][d] == sector_dim(n, l, d)`` for ``0 <= d <= l``; read-only.
    """
    check_alphabet(n)
    _dims_row(n, length)
    return _ROWS[n]


def multiplicity(n: int, depth: int) -> int:
    """Number of distinct sectors at a given depth: 1 at the root, else N(N-1)^(d-1)."""
    check_alphabet(n)
    if depth < 0:
        raise UsageError(f"depth must be >= 0, got {depth}")
    if depth == 0:
        return 1
    return n * (n - 1) ** (depth - 1)


sector_count = sector_count_closed


@dataclass(frozen=True)
class SectorCensus:
    """Dimension and multiplicity tables for every sector of a fixed-length chain.

    Treat the mappings as read-only. Keys are the valid depths: d from L mod 2
    up to L in steps of two.
    """

    n: int
    length: int
    dims: Mapping[int, int]
    multiplicity: Mapping[int, int]

    @property
    def depths(self) -> tuple[int, ...]:
        return tuple(sorted(self.dims))

    def total_states(self) -> int:
        """Sum of multiplicity * dimension; must equal N^L exactly."""
        return sum(self.multiplicity[d] * self.dims[d] for d in self.dims)


def sector_dims(n: int, length: int) -> SectorCensus:
    """Census of all sectors: exact big-integer dimensions plus multiplicities,
    from the integer recurrence (binomials at N=2)."""
    check_size(n, length, 0)
    valid = range(length % 2, length + 1, 2)
    row = _dims_row(n, length)
    dims = {d: row[d] for d in valid}
    mult = {d: multiplicity(n, d) for d in valid}
    return SectorCensus(n=n, length=length, dims=dims, multiplicity=mult)


@lru_cache(maxsize=None)
def _half_binom(x: Fraction, m: int) -> Fraction:
    # generalized binomial coefficient C(x, m) for fractional x
    out = Fraction(1)
    for j in range(m):
        out *= x - j
    return out / math.factorial(m)


@lru_cache(maxsize=None)
def _kd_series_coeff(depth: int, m: int) -> Fraction:
    # weight of the length-(L+d-2m) trivial-sector count in the depth-d expansion
    total = Fraction(0)
    for k in range(depth + 1):
        total += (-1) ** (k + m) * math.comb(depth, k) * _half_binom(Fraction(k, 2), m)
    return total


@lru_cache(maxsize=None)
def k0_exact_closed(n: int, length: int) -> int:
    """Trivial-sector dimension |K_0| via the binomial-series closed form.

    Exact rational arithmetic throughout; cross-check route only, the DP
    recurrence stays the production path. Zero for odd or negative lengths.
    """
    check_alphabet(n)
    if length < 0 or length % 2:
        return 0
    if length == 0:
        return 1
    gsq = 4 * (n - 1)
    half = Fraction(1, 2)
    series = Fraction(0)
    for m in range(1, length // 2 + 1):
        series += Fraction(n) ** (1 - 2 * m) * _half_binom(half, m) * (-1) ** m * gsq**m
    val = n**length * (1 + half * series)
    if val.denominator != 1:
        raise ArithmeticError(f"closed form gave non-integer {val} at N={n}, L={length}")
    return int(val)


def kd_exact_closed(n: int, length: int, depth: int) -> int:
    """Depth-d sector dimension via the alternating closed form, exact rationals.

    Expands the depth-d count in terms of trivial-sector counts at shorter
    lengths. Cross-check route only: the alternating sum cancels massively, so
    exact rationals are mandatory and the DP recurrence stays the production
    path. Zero when no such sector exists.
    """
    check_alphabet(n)
    if length < 0 or depth < 0 or depth > length or (length - depth) % 2:
        return 0
    if depth == 0:
        return k0_exact_closed(n, length)
    gsq = Fraction(4 * (n - 1))
    total = Fraction(0)
    for m in range((length + depth) // 2 + 1):
        k0 = k0_exact_closed(n, length + depth - 2 * m)
        if k0 == 0:
            continue
        total += k0 * _kd_series_coeff(depth, m) * gsq ** (m - depth)
    val = 2**depth * total
    if val.denominator != 1:
        raise ArithmeticError(
            f"closed form gave non-integer {val} at N={n}, L={length}, d={depth}"
        )
    return int(val)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


_FIT_RANGE = range(40, 81, 2)
_FIT_CACHE: dict[int, float] = {}


def k0_fit_constant(n: int) -> float:
    """Prefactor c in |K_0| ~ c * L^(-3/2) * (2 sqrt(N-1))^L.

    The shape is known but the constant is not pinned down analytically here,
    so it is fitted once per alphabet: intercept-only least squares on log
    scale over even L in [40, 80] against the exact DP values.
    """
    if n < 3:
        raise UsageError(f"asymptotic form needs N >= 3, got {n}")
    if n not in _FIT_CACHE:
        log_base = math.log(2.0) + 0.5 * math.log(n - 1.0)
        resid = [
            math.log(_dims_row(n, L)[0]) - (L * log_base - 1.5 * math.log(L))
            for L in _FIT_RANGE
        ]
        _FIT_CACHE[n] = math.exp(sum(resid) / len(resid))
    return _FIT_CACHE[n]


def k0_asymptotic(n: int, length: int) -> float:
    """Asymptotic trivial-sector dimension c * L^(-3/2) * (2 sqrt(N-1))^L."""
    if n < 3:
        raise UsageError(f"asymptotic form needs N >= 3, got {n}")
    check_size(n, length)
    log_base = math.log(2.0) + 0.5 * math.log(n - 1.0)
    return _exp(math.log(k0_fit_constant(n)) + length * log_base - 1.5 * math.log(length))


def kd_asymptotic(n: int, length: int, depth: int) -> float:
    """Gaussian-envelope sector dimension around the drift depth v_N * L.

    Evaluates (2(N-1)/(N sqrt(2 pi L))) N^L exp(-(d - v L)^2 / 2L - d ln(N-1)),
    the local limit of a biased walk with velocity v_N. Strictly decreasing in
    d for N >= 3, matching the exact table.
    """
    if n < 3:
        raise UsageError(f"asymptotic form needs N >= 3, got {n}")
    if not (0 <= depth <= length) or (length - depth) % 2:
        raise UsageError(f"no depth-{depth} sector at length {length}")
    v = (n - 2.0) / n
    lg = (
        math.log(2.0 * (n - 1))
        - math.log(n)
        - 0.5 * math.log(2.0 * math.pi * length)
        + length * math.log(n)
        - (depth - v * length) ** 2 / (2.0 * length)
        - depth * math.log(n - 1.0)
    )
    return _exp(lg)


@dataclass(frozen=True)
class ConeStats:
    """Size and boundary flow of one cone: the N-1 depth-d sectors sharing a
    depth-(d-1) prefix, together with all their descendants.

    `volume` counts states exactly; `boundary_flow` is the exact one-step
    probability flow out of the cone per state (in (0, 1]). The asymptotic
    fields are float saddle-point shapes with a branch split at d = v_N L.
    """

    n: int
    length: int
    depth: int
    volume: int
    boundary_flow: Fraction
    asymptotic_volume: float
    asymptotic_expansion: float


def cone_stats(n: int, length: int, depth: int) -> ConeStats:
    """Exact and asymptotic volume and expansion of a depth-d cone.

    The only states that can leave in one boundary step are those in the
    depth-d sectors whose length-(L-1) prefix already sits at depth d-1, hence
    flow = ((N-1)/N) |K_(d-1), L-1| / |C_d|.
    """
    check_alphabet(n)
    check_cone_depth(depth, length)
    row = _dims_row(n, length)
    volume = sum(
        row[depth + 2 * c] * (n - 1) ** (2 * c + 1)
        for c in range((length - depth) // 2 + 1)
    )
    flow = Fraction((n - 1) * _dims_row(n, length - 1)[depth - 1], n * volume)

    v = (n - 2.0) / n
    # exact, so that the ballistic branch never sees x <= 0 from rounding
    x = float(Fraction(depth * n - (n - 2) * length, n * length))
    log_vol = (2 - depth) * math.log(n - 1.0) + (length - 1) * math.log(n)
    log_phi = math.log(2.0 * (n - 1)) - 2.0 * math.log(n) + x * (1.0 - v)
    # ballistic branch for d above the drift depth, diffusive at or below it
    if depth * n > (n - 2) * length:
        gauss = -(x * length) ** 2 / (2.0 * length)
        log_vol += gauss - math.log(x) - 0.5 * math.log(2.0 * math.pi * length)
        log_phi += math.log(x)
    else:
        log_phi += -(x * length) ** 2 / (2.0 * length) - 0.5 * math.log(2.0 * math.pi * length)
    return ConeStats(
        n=n,
        length=length,
        depth=depth,
        volume=volume,
        boundary_flow=flow,
        asymptotic_volume=_exp(log_vol),
        asymptotic_expansion=_exp(log_phi),
    )


class N2Expansion(NamedTuple):
    exact: Fraction
    asymptotic: float


def n2_charge_cut(length: int, q: int) -> tuple[int, int]:
    """Boundary count and size of the two-symbol half-space of signed charge >= q.

    Sector sizes are binomials; the boundary (states able to leave in one
    boundary step) telescopes into an alternating sum over the charges above q.
    """
    check_size(2, length)
    if not (1 <= q <= length) or (length - q) % 2:
        raise UsageError(f"no charge-{q} cut at length {length}")
    boundary = 0
    size = 0
    for i, qp in enumerate(range(q, length + 1, 2)):
        states = math.comb(length, (length + qp) // 2)
        size += states
        boundary += (-1) ** (i % 2) * states
    return boundary, size


def n2_min_expansion(length: int) -> N2Expansion:
    """Minimal half-space expansion for the two-symbol chain.

    Odd lengths have the closed form ((L+1)/(L 2^L)) C(L, (L+1)/2) at the
    central cut; even lengths scan the analogous cuts. The float field is the
    large-L shape sqrt(2 / (pi L)).
    """
    check_size(2, length)
    if length % 2:
        exact = Fraction(
            (length + 1) * math.comb(length, (length + 1) // 2),
            length * 2**length,
        )
    else:
        exact = min(
            Fraction(*n2_charge_cut(length, q)) for q in range(2, length + 1, 2)
        )
    return N2Expansion(exact=exact, asymptotic=math.sqrt(2.0 / (math.pi * length)))


def enumerate_census(
    n: int,
    length: int,
    *,
    chunk_size: int = 1 << 22,
    max_states: int = 1 << 27,
) -> dict[tuple[int, ...], int]:
    """Reduce every length-L string and tally states per sector, vectorised.

    Brute-force oracle for the DP table, independent of any recurrence.
    Strings go through the reduction kernel in chunks of at most
    `chunk_size`: each chunk is one head of leading sites followed by
    every possible tail.
    """
    check_size(n, length, 0)
    total = n**length
    if total > max_states:
        raise ResourceCapError(
            f"enumerating {total} strings exceeds the cap of {max_states}"
        )
    tail = 0
    while tail < length and n ** (tail + 1) <= chunk_size:
        tail += 1
    tails = all_states(n, tail)
    tally = np.zeros(sector_count_closed(n, length), dtype=np.int64)
    for head in all_states(n, length - tail):
        chunk = np.hstack([np.broadcast_to(head, (len(tails), head.size)), tails])
        index = sector_index(*reduce_states(chunk), n, length)
        tally += np.bincount(index, minlength=tally.size)
    basis = enumerate_sectors(n, length, max_count=None)
    return {sec.irr: int(k) for sec, k in zip(basis, tally)}


def tl_zero_modes(n: int, length: int) -> int:
    """Zero-mode count of the open loop-coupling chain.

    Exact integer recurrence W_L = N W_(L-1) - W_(L-2) with W_0 = 1, W_1 = N.
    """
    check_size(n, length, 0)
    if length == 0:
        return 1
    a, b = 1, n
    for _ in range(length - 1):
        a, b = b, n * b - a
    return b


def tl_zero_modes_closed(n: int, length: int) -> float:
    """Zero-mode count by the closed form, evaluated in extended precision.

    ((N + r)^(L+1) - (N - r)^(L+1)) / (2^(L+1) r) with r = sqrt(N^2 - 4).
    Needs N >= 3 (the denominator degenerates at N = 2); the result is the
    correctly rounded float of the exact integer.
    """
    if n < 3:
        raise UsageError("closed form degenerates at N=2, use tl_zero_modes")
    check_size(n, length, 0)
    with mpmath.workdps(max(50, 2 * length)):
        root = mpmath.sqrt(n * n - 4)
        val = ((n + root) ** (length + 1) - (n - root) ** (length + 1)) / (
            2 ** (length + 1) * root
        )
        # the value is an exact integer; snap to it so the final rounding is
        # the true half-even rounding rather than double rounding through mpf
        return float(int(mpmath.nint(val)))


def tl_impurity_degeneracy(n: int, length: int, impurities: int) -> int:
    """Zero-mode count with one boundary impurity or one at each end.

    One impurity pins a single boundary loop: W_(L-1) - W_(L-2). Two pin both:
    W_(L-2) - W_(L-3).
    """
    check_alphabet(n)
    if impurities == 1:
        if length < 2:
            raise UsageError("one impurity needs length >= 2")
        return tl_zero_modes(n, length - 1) - tl_zero_modes(n, length - 2)
    if impurities == 2:
        if length < 3:
            raise UsageError("two impurities need length >= 3")
        return tl_zero_modes(n, length - 2) - tl_zero_modes(n, length - 3)
    raise UsageError(f"impurities must be 1 or 2, got {impurities}")


def tl_memory_bound(n: int) -> float:
    """Infinite-length lower bound on the boundary-spin autocorrelation plateau.

    (1/N) (1 - 4(N-1)/(N + sqrt(N^2-4))^2)^2; about 0.1672 at N = 3 and
    decaying like 1/N for large alphabets.
    """
    if n < 3:
        raise UsageError(f"memory bound needs N >= 3, got {n}")
    root = math.sqrt(n * n - 4.0)
    return (1.0 - 4.0 * (n - 1) / (n + root) ** 2) ** 2 / n
