"""Spin strings, their irreducible cores, and the sector structure they induce.

A configuration of the chain is a string of symbols from {1, ..., N}. Deleting
adjacent equal pairs until none remain sends every string to a unique
irreducible string (no two neighbouring symbols equal); two configurations are
dynamically connected exactly when their irreducible strings agree, so the
irreducible string labels a sector. Equivalently each string is a walk on the
infinite N-regular tree (a repeated symbol backtracks) and the sector is the
walk's endpoint; the endpoint's distance from the root is the sector depth d,
which satisfies d <= L and d == L (mod 2).

Symbols are 1-based. The empty irreducible string displays as "∅" and
serialises to an empty field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceCapError, UsageError

EMPTY_DISPLAY = "∅"

# Compact digit serialisation only works while every symbol is a single digit.
MAX_COMPACT_ALPHABET = 9

INT64_MAX = int(np.iinfo(np.int64).max)


def check_alphabet(n: int) -> None:
    """Every alphabet has at least two symbols."""
    if n < 2:
        raise UsageError(f"alphabet size must be >= 2, got {n}")


def check_size(n: int, length: int, min_length: int = 1) -> None:
    """Alphabet rule plus a length floor: 0 for combinatorics, 1 for chains."""
    check_alphabet(n)
    if length < min_length:
        raise UsageError(f"length must be >= {min_length}, got {length}")


def check_cone_depth(depth: int, length: int) -> None:
    """A cone sits at 2 <= d <= L with d == L (mod 2)."""
    if not 2 <= depth <= length or (length - depth) % 2:
        raise UsageError(
            f"cone depth must satisfy 2 <= d <= L with d == L (mod 2), "
            f"got d={depth}, L={length}"
        )


def _canonical_anchor(depth: int) -> tuple[int, ...]:
    """Default depth-``depth-1`` cone anchor 1,2,1,...; valid for every alphabet."""
    return tuple(1 if k % 2 == 0 else 2 for k in range(depth - 1))


def _validate_symbols(symbols: tuple[int, ...], n: int) -> None:
    check_alphabet(n)
    for s in symbols:
        if not 1 <= s <= n:
            raise UsageError(f"symbol {s} outside alphabet 1..{n}")


def _parse_symbol_text(text: str) -> tuple[int, ...]:
    """Parse either compact digits ("1221") or comma-separated ints ("1,2,2,1")."""
    text = text.strip()
    if text == "" or text == EMPTY_DISPLAY:
        return ()
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    return tuple(int(ch) for ch in text)


def _format_symbols(symbols: tuple[int, ...], n: int) -> str:
    if not symbols:
        return ""
    if n <= MAX_COMPACT_ALPHABET:
        return "".join(str(s) for s in symbols)
    return ",".join(str(s) for s in symbols)


def reduce_symbols(symbols: Sequence[int]) -> tuple[int, ...]:
    """Cancel adjacent equal pairs to the unique fixed point, one stack pass, O(L).

    The stack-based pass computes the same fixed point as deleting pairs in any
    order; confluence is exercised by the property tests.
    """
    stack: list[int] = []
    for s in symbols:
        if stack and stack[-1] == s:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def staggered_charge(states: np.ndarray, a: int) -> np.ndarray:
    """Each row's staggered count of symbol ``a`` as int32: sites 2, 4, ...
    add, sites 1, 3, ... subtract."""
    hits = (states.T == a).view(np.int8)
    q = np.add.reduce(hits[1::2], axis=0, dtype=np.int32)
    q -= np.add.reduce(hits[0::2], axis=0, dtype=np.int32)
    return q


def charge_value(symbols: Sequence[int], a: int) -> int:
    """Staggered occupation of symbol a: sum over sites i of (-1)^i [s_i == a].

    Site numbering is 1-based, so site 1 carries weight -1.
    """
    return int(staggered_charge(np.array([symbols]), a)[0])


@dataclass(frozen=True)
class Charge:
    """A staggered charge value for one symbol in a length-`length` chain."""

    symbol: int
    value: int
    length: int

    @property
    def normalized(self) -> Fraction:
        """2 Q_a / L, lies in [-1, 1]."""
        if self.length == 0:
            return Fraction(0)
        return Fraction(2 * self.value, self.length)


@dataclass(frozen=True)
class SectorId:
    """A sector label: the irreducible string, i.e. a vertex of the N-regular tree."""

    irr: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self) -> None:
        _validate_symbols(self.irr, self.alphabet_size)
        for x, y in zip(self.irr, self.irr[1:]):
            if x == y:
                raise UsageError(f"not irreducible: adjacent equal pair {x}{y}")

    @classmethod
    def parse(cls, text: str, alphabet_size: int) -> "SectorId":
        return cls(_parse_symbol_text(text), alphabet_size)

    @property
    def depth(self) -> int:
        return len(self.irr)

    def to_text(self) -> str:
        """Serialised form; the empty sector is an empty field."""
        return _format_symbols(self.irr, self.alphabet_size)

    def __str__(self) -> str:
        return self.to_text() or EMPTY_DISPLAY

    def parent(self) -> "SectorId":
        if not self.irr:
            raise UsageError("root sector has no parent")
        return SectorId(self.irr[:-1], self.alphabet_size)

    def children(self) -> list["SectorId"]:
        """Tree children: one extension per symbol differing from the last symbol."""
        last = self.irr[-1] if self.irr else None
        return [
            SectorId(self.irr + (c,), self.alphabet_size)
            for c in range(1, self.alphabet_size + 1)
            if c != last
        ]


@dataclass(frozen=True)
class SpinString:
    """An immutable chain configuration over the alphabet {1, ..., alphabet_size}."""

    symbols: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self) -> None:
        _validate_symbols(self.symbols, self.alphabet_size)

    @classmethod
    def parse(cls, text: str, alphabet_size: int) -> "SpinString":
        return cls(_parse_symbol_text(text), alphabet_size)

    @classmethod
    def from_ints(cls, symbols: Iterable[int], alphabet_size: int) -> "SpinString":
        return cls(tuple(symbols), alphabet_size)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def to_text(self) -> str:
        return _format_symbols(self.symbols, self.alphabet_size)

    def __str__(self) -> str:
        return self.to_text() or EMPTY_DISPLAY


def reduce(s: SpinString) -> SectorId:
    """Sector of a configuration: its irreducible string."""
    return SectorId(reduce_symbols(s.symbols), s.alphabet_size)


def charge(s: SpinString, a: int) -> Charge:
    """Staggered charge Q_a of a configuration."""
    if not 1 <= a <= s.alphabet_size:
        raise UsageError(f"symbol {a} outside alphabet 1..{s.alphabet_size}")
    return Charge(symbol=a, value=charge_value(s.symbols, a), length=len(s))


def sector_charge(k: SectorId, a: int, length: int | None = None) -> Charge:
    """Charge of every configuration in sector k.

    Pair deletions remove zero net charge and preserve position parity, so Q_a
    evaluated on the irreducible string equals Q_a of any member configuration.
    `length` fixes the chain length used for normalisation (defaults to the
    sector depth; it must have the same parity and be >= depth).
    """
    if not 1 <= a <= k.alphabet_size:
        raise UsageError(f"symbol {a} outside alphabet 1..{k.alphabet_size}")
    d = k.depth
    if length is None:
        length = d
    if length < d or (length - d) % 2:
        raise UsageError(f"length {length} incompatible with sector depth {d}")
    return Charge(symbol=a, value=charge_value(k.irr, a), length=length)


def is_frozen(s: SpinString) -> bool:
    """True when no move is available: no adjacent equal pair anywhere."""
    return all(x != y for x, y in zip(s.symbols, s.symbols[1:]))


def enumerate_sectors(n: int, length: int, max_count: int | None = 2_000_000) -> list[SectorId]:
    """All sectors of a length-`length` chain: irreducible strings with
    depth <= length and depth == length (mod 2), in (depth, lexicographic) order.

    Raises ResourceCapError when the count would exceed `max_count`
    (pass None to disable the cap).
    """
    total = sector_count_closed(n, length)
    if max_count is not None and total > max_count:
        raise ResourceCapError(
            f"sector enumeration for N={n}, L={length} has {total} sectors, cap is {max_count}"
        )
    stack, depth = sector_words(n, length)
    return [SectorId(tuple(w[:d]), n) for w, d in zip(stack.tolist(), depth.tolist())]


def sector_count_closed(n: int, length: int) -> int:
    """Number of sectors of a length-`length` chain, closed form.

    L+1 for a two-symbol alphabet, ((N-1)^(L+1) - 1)/(N-2) otherwise.
    """
    check_size(n, length, 0)
    if n == 2:
        return length + 1
    return ((n - 1) ** (length + 1) - 1) // (n - 2)


# ---------------------------------------------------------------------------
# vectorized reduction: batches of strings as integer arrays, symbols 1..N
# along the last axis


def state_dtype(n: int) -> np.dtype:
    """Smallest signed integer dtype that holds the symbols 1..n."""
    return np.min_scalar_type(-n - 1)  # holding -(n+1) implies holding n


def all_states(n: int, length: int) -> np.ndarray:
    """Every length-L string as the rows of an (N^L, L) array.

    Row i is the string with base-N index i, site 1 most significant.
    """
    if n**length > INT64_MAX:
        raise ResourceCapError(f"state indices must fit in int64; {n}^{length} do not")
    out = np.empty((n**length, length), dtype=state_dtype(n))
    syms = np.arange(1, n + 1, dtype=out.dtype)[:, None]
    for i in range(length):
        out.reshape(n**i, n, -1, length)[..., i] = syms
    return out


def reduce_states(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Irreducible strings of a batch of strings, as ``(stack, depth)``.

    ``states`` may have any batch shape and integer dtype; ``stack`` has
    its shape and dtype, ``depth`` (int64) its batch shape.
    ``stack[..., :depth]`` is each irreducible string; entries at or above
    ``depth`` are unspecified. A zero sentinel sits below every stack, so
    each site writes its symbol above the top and only moves the pointer.
    """
    states = np.asarray(states)
    length = states.shape[-1]
    rows = states.reshape(math.prod(states.shape[:-1]), length)
    width = length + 1
    stack = np.zeros((rows.shape[0], width), dtype=states.dtype)
    flat = stack.reshape(-1)
    bottom = np.arange(0, flat.size, width, dtype=np.int64)
    top = bottom.copy()
    for sym in np.ascontiguousarray(rows.T):
        _pop_or_push(flat, top, sym)
    depth = (top - bottom).reshape(states.shape[:-1])
    return stack[:, 1:].reshape(states.shape), depth


def _pop_or_push(
    flat: np.ndarray, top: np.ndarray, sym: np.ndarray,
    below: np.ndarray | None = None,
) -> np.ndarray:
    """Append one symbol to every stacked word, in place: a top equal to
    ``sym`` cancels it and pops, any other top gets ``sym`` pushed.
    Returns the cancel mask.

    ``flat`` holds the words one above another, each over a zero
    sentinel; ``top`` (int64) indexes each word's top symbol, and
    ``below``, if the caller has gathered it already, is ``flat[top]``.
    ``sym`` is written one slot above the old top either way, so a word
    needs a free slot above it.
    """
    cancel = (flat[top] if below is None else below) == sym
    top += 1
    flat[top] = sym
    top -= cancel  # a cancel pops instead: two slots down from the push
    top -= cancel
    return cancel


def sector_index(
    stack: np.ndarray, depth: np.ndarray, n: int, length: int
) -> np.ndarray:
    """Position of each row's sector in ``enumerate_sectors(n, length)``.

    ``(stack, depth)`` comes from :func:`reduce_states` on length-L
    strings. The sectors of smaller depth come first, as many as a
    length-(d-2) chain has; within its depth a word is ranked in mixed
    radix, the first symbol a base-N digit and every later one a
    base-(N-1) digit once the symbol it may not repeat is skipped.
    """
    if sector_count_closed(n, length) > INT64_MAX:
        raise ResourceCapError(
            f"sector indices for N={n}, L={length} do not fit in int64"
        )
    offsets = np.array(
        [sector_count_closed(n, d - 2) if d > 1 else 0 for d in range(length + 1)]
    )
    rank = np.zeros(depth.shape, dtype=np.int64)
    for k in range(length):
        digit = stack[..., k] - 1
        if k:
            digit -= stack[..., k] > stack[..., k - 1]
        rank = np.where(k < depth, rank * (n - 1) + digit, rank)
    return offsets[depth] + rank


def sector_words(n: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Every sector of a length-L chain as ``(stack, depth)`` rows, in
    (depth, lexicographic) order: the inverse of :func:`sector_index`."""
    stacks, depths = [], []
    for d in range(length % 2, length + 1, 2):
        rank = np.arange(n * (n - 1) ** (d - 1) if d else 1)
        stack = np.zeros((rank.size, length), dtype=state_dtype(n))
        for k in range(d):
            sym = rank // (n - 1) ** (d - 1 - k) % (n - (k > 0)) + 1
            stack[:, k] = sym + (sym >= stack[:, k - 1]) if k else sym
        stacks.append(stack)
        depths.append(np.full(rank.size, d))
    return np.concatenate(stacks), np.concatenate(depths)


def in_cone(stack: np.ndarray, depth: np.ndarray, anchor: Sequence[int]) -> np.ndarray:
    """True where an irreducible string extends ``anchor`` by at least one symbol."""
    inside = depth > len(anchor)
    for k, sym in enumerate(anchor):
        inside &= stack[..., k] == sym
    return inside
