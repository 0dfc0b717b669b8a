"""Monte Carlo relaxation experiments for the boundary-driven chain.

Trajectories evolve under the same update as the full local chain: one
uniform resample of the boundary site, then the even brickwork layer,
then the odd one. States live in int8 arrays of shape
``(trajectories, length)``; gates act vectorized across trajectories
and across the disjoint pairs of a layer.

Draw contract: a step consumes exactly L uniform integers below k per
trajectory, laid out as an ``(L, M)`` array. The last row resamples the
boundary (``u % N + 1``); the other L-1 rows give one value per
brickwork pair, even layer then odd layer, each in ``layer_pairs``
order. Pair-flip takes k = N and turns an equal pair into
``(u+1, u+1)``; TL takes k = N^2 and flips an equal pair iff
``u < 2(N-1)``, to ``c + 1 + (c + 1 >= a)`` with ``c = u >> 1``.
The values are exact base-k digits of raw Philox words, by the byte,
digit and group rule that ``_SymbolSource`` states.

Reproducibility: trajectories are partitioned into blocks, and every
stream is a counter-based Philox Generator built by ``_philox(seed,
key)``, in three key families:

- ``(seed, b)``: block b's dynamics, read as symbols through its
  ``_dynamics_source``;
- ``(seed, 2^63 + b)``: block b's uniform in-cone starts, read with
  ``Generator.random`` only;
- ``(seed, 2^63 - 1)``: the block bootstrap of ``estimate_tq``, read
  with ``Generator.integers``.

One batched conditioned walk steps every block's starts as one array,
and block b draws its rows' floats from its own start stream, one array
per quantity: one per row for the sector depth, one per row for each
branch column, then two per row at each site. So block b's starts
depend only on ``(seed, b)`` and the config. ``threads`` splits the
blocks into at most that many contiguous slabs (see ``_run_blocks``).

``step_states`` takes a symbol source, never a Generator: a block's
``_dynamics_source`` or a slab's ``_StripedSymbols``. A slab holds its
states site-major (Fortran order, so ``states.T`` is a C-ordered
``(L, M)`` array) and draws each block's values a chunk of steps
ahead, from that block's own source; accepted values a draw does not
use wait for the next, so draw-ahead does not change any value.
Results are reduced in fixed block order, so output is bit-identical
for a given config regardless of thread count.

The ``depth`` and ``cone_escape`` observables read each trajectory's
irreducible word. A slab reduces its states once, at t = 0, and then
carries the words: the layers never change a word, and ``step_states``
returns the boundary symbols it wrote, so each step updates a word by
two pop-or-push moves (see ``_Slab``), O(M) whatever L is. The
``charge`` observables are carried the same way: a slab counts each
symbol's staggered charge once, at t = 0, and each step moves it by the
boundary resample alone, again O(M).
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .census import _cone_masses, cone_stats, sector_dim_rows
from .chains import GateKind, layer_pairs
from .errors import NumericError, ResourceCapError, UsageError
from .walks import (
    SectorId,
    _canonical_anchor,
    _pop_or_push,
    _validate_symbols,
    check_cone_depth,
    check_size,
    in_cone,
    reduce_states,
    staggered_charge,
    state_dtype,
)

# States are int8 arrays, so the largest alphabet a simulation takes is 127.
MAX_SIM_ALPHABET = int(np.iinfo(np.int8).max)

_INIT_KEY_OFFSET = 1 << 63  # start stream keys, apart from the dynamics keys
_BOOT_KEY = (1 << 63) - 1  # the bootstrap stream's key

KNOWN_OBSERVABLES = ("charge", "depth", "match_site", "cone_escape")
_CHARGE = "charge:1"  # the observable of first passages

# bytes of a nonempty block: its size, its Philox stream and its slab slots
# (1.0 to 1.7 KiB at peak, measured with tracemalloc)
_BLOCK_BYTES = 2048
_BLOCKS_CAP_BYTES = 1 << 30
# the block-sum tables take 16 bytes (two float64) per block per planned time
# per observable, reserved up front and touched only as far as a run records
_RECORD_CAP_BYTES = 1 << 32


def _check_sim_alphabet(n: int) -> None:
    if n > MAX_SIM_ALPHABET:
        raise UsageError(
            f"alphabet size {n} exceeds {MAX_SIM_ALPHABET}, the "
            "largest symbol an int8 state array holds"
        )


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs; equal configs give identical output."""

    n: int
    length: int
    t_max: int
    gate: GateKind = GateKind.PAIR_FLIP
    n_trajectories: int = 10_000
    seed: int = 0
    observables: tuple[str, ...] = ("charge:1",)
    gamma: float = 0.1
    blocks: int = 100
    threads: int = 1
    initial: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_size(self.n, self.length)
        _check_sim_alphabet(self.n)
        if self.t_max < 0:
            raise UsageError("t_max must be nonnegative")
        if self.n_trajectories < 1:
            raise UsageError("need at least one trajectory")
        if not 0 <= self.seed < 1 << 64:
            raise UsageError("seed must fit in 64 bits")
        if not 0 < self.gamma < 1:
            raise UsageError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.blocks < 1 or self.threads < 1:
            raise UsageError("blocks and threads must be positive")
        nonempty = min(self.blocks, self.n_trajectories)  # the rest are never built
        if nonempty * _BLOCK_BYTES > _BLOCKS_CAP_BYTES:
            raise ResourceCapError(
                f"{nonempty} nonempty blocks need about "
                f"{nonempty * _BLOCK_BYTES / 2**30:.3g} GiB, above the cap of 1 GiB"
            )
        if self.initial is not None:
            if len(self.initial) != self.length:
                raise UsageError("initial state has the wrong length")
            _validate_symbols(tuple(self.initial), self.n)
        if not self.observables:
            raise UsageError("need at least one observable")
        for k, obs in enumerate(self.observables):
            _parse_observable(obs, self.n, self.length)
            if obs in self.observables[:k]:
                raise UsageError(f"observable {obs!r} is listed more than once")

    def initial_state(self) -> tuple[int, ...]:
        if self.initial is not None:
            return tuple(self.initial)
        return max_charge_state(self.n, self.length)


def max_charge_state(n: int, length: int) -> tuple[int, ...]:
    """The 2,1,2,1,... pattern: maximal staggered charge of symbol 1."""
    check_size(n, length)
    return tuple(1 if i % 2 else 2 for i in range(length))


@dataclass(frozen=True)
class _Observable:
    name: str
    kind: str
    arg: int | None


def _parse_observable(text: str, n: int, length: int) -> _Observable:
    head, _, tail = text.partition(":")
    if head == "depth":
        if tail:
            raise UsageError("depth takes no argument")
        return _Observable(text, "depth", None)
    if head not in KNOWN_OBSERVABLES:
        raise UsageError(
            f"unknown observable {text!r}; expected one of {KNOWN_OBSERVABLES}"
        )
    try:
        arg = int(tail) if tail else None
    except ValueError:
        raise UsageError(f"bad observable argument in {text!r}") from None
    if head == "charge":
        a = 1 if arg is None else arg
        if not 1 <= a <= n:
            raise UsageError(f"charge symbol {a} outside 1..{n}")
        return _Observable(text, "charge", a)
    if arg is None:
        raise UsageError(f"observable {text!r} needs an argument")
    if head == "match_site":
        if not 1 <= arg <= length:
            raise UsageError(f"site {arg} outside 1..{length}")
        return _Observable(text, "match_site", arg)
    check_cone_depth(arg, length)
    return _Observable(text, "cone_escape", arg)


# ---------------------------------------------------------------------------
# stepping kernels


def _philox(seed: int, key: int) -> np.random.Generator:
    """The Philox stream keyed ``(seed, key)``.

    Keys ``b`` are block b's dynamics, ``_INIT_KEY_OFFSET + b`` its
    starts and ``_BOOT_KEY`` the bootstrap.
    """
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, key], dtype=np.uint64))
    )


def _symbol_range(n: int, gate: GateKind) -> int:
    """How many values one draw takes: N for pair-flip, N^2 for TL."""
    return n if gate is GateKind.PAIR_FLIP else n * n


# accepted words per digit group (see ``_SymbolSource``)
_GROUP = 256
# raw 64-bit words read at the least, so that one read serves several draws
_MIN_READ = 1024
# a draw expands its sources' digit groups in batches of about this many values
_EXPAND_VALUES = 1 << 17


def _expand(
    words: np.ndarray, out: np.ndarray, tmp: np.ndarray, k: int, wrap: bool
) -> None:
    """Base-k digits of accepted words, least significant first.

    ``out[j]`` receives digit j of every word of the 1-D ``words``, so
    each plane is contiguous; ``tmp`` is scratch of the same size. With
    ``wrap`` the words are first reduced mod ``k**d``, which only the top
    digit sees. A digit is ``r - k * (r // k)``: integer division by a
    scalar is vectorized, the remainder is not.
    """
    d = len(out)
    r = words
    for j in range(d):
        if j == d - 1 and not wrap:
            if d == 1:
                out[0] = r  # otherwise r already is this plane
            break
        # the quotient goes to the next plane, where its digits are taken
        quot = out[j + 1] if j < d - 1 else tmp
        np.floor_divide(r, k, out=quot)
        np.multiply(quot, k, out=tmp)
        np.subtract(r, tmp, out=out[j])
        r = quot


class _SymbolSource:
    """Exact uniform integers in ``[0, k)`` from a bit generator's raw words.

    Raw 64-bit words are read as little-endian bytes, or as 16-bit halves
    when ``k > 256``; each byte or half is a word below ``span`` (2^8 or
    2^16). A word holds ``digits`` values: d, the largest integer with
    ``k**d <= span`` (1 when k = 1). A word at or above the largest
    multiple of ``k**d`` below ``span`` is rejected, so there is no bias;
    the rest are reduced mod ``k**d``. Accepted words are taken in groups
    of ``_GROUP`` = G, and base-k digit j of word p of a group, least
    significant first, is value ``j * G + p`` of that group's d * G. At
    k >= 17 (and every k > 256) d = 1, so the values are the accepted
    words mod k, in order.

    Values that a draw does not use wait for the next one: the sequence
    depends only on the bit generator, never on how it is split into
    draws. ``draw`` and a slab's ``_StripedSymbols`` both expand groups
    into values through :func:`_draw_blocks`.
    """

    def __init__(self, bit_generator: np.random.BitGenerator, k: int):
        self.k = k
        self.dtype = np.dtype(np.uint8 if k <= 256 else np.uint16)
        self._span = 1 << (8 * self.dtype.itemsize)
        self.digits = 1
        while k > 1 and k ** (self.digits + 1) <= self._span:
            self.digits += 1
        modulus = k**self.digits
        self._limit = self._span - self._span % modulus
        self.wrap = self._limit > modulus  # words need reducing mod k**d
        self._bits = bit_generator
        # accepted words whose values are not all drawn yet, and how many
        # values of the first group have been
        self._words = np.empty(0, self.dtype)
        self._used = 0

    def take_groups(self, count: int) -> tuple[np.ndarray, int]:
        """The next ``count`` values, as the accepted words of the groups
        that hold them and the position of the first value in those
        groups' values. A group stays in hand until all its values are
        drawn, so the last one may come back in the next call."""
        per_group = self.digits * _GROUP
        end = self._used + count
        need = -(-end // per_group) * _GROUP
        words = self._words
        while words.size < need:
            # enough raw words for the rest in one read but for rare tails
            want = (need - words.size) * self._span / self._limit
            size = int((want + 4 * math.sqrt(want)) * self.dtype.itemsize / 8) + 2
            raw = self._bits.random_raw(max(size, _MIN_READ))
            raw = raw.astype("<u8", copy=False).view(self.dtype)
            if self._limit < self._span:
                raw = raw[raw < self._limit]
            words = np.concatenate([words, raw])
        start, self._used = self._used, end % per_group
        self._words = words[end // per_group * _GROUP :]
        return words[:need], start

    def draw(self, rows: int, cols: int) -> np.ndarray:
        """The next ``rows * cols`` values, as a C-ordered ``(rows, cols)``
        array: :func:`_draw_blocks` with this source alone."""
        out = np.empty((rows, cols), self.dtype)
        _draw_blocks([self], [cols], rows, out)
        return out


def _draw_blocks(
    sources: Sequence[_SymbolSource], sizes: Sequence[int], rows: int,
    out: np.ndarray,
) -> None:
    """Fill ``out``, a ``(rows, sum(sizes))`` array, with each source's next
    ``rows * m`` values, in C order in its own block of m columns.

    This is the one place where digit planes become values in contract
    order. Over a run of equal sizes, each source takes its groups with
    ``take_groups``, and the words of as many sources as fit in about
    ``_EXPAND_VALUES`` values (at least one) are expanded together, put
    in value order and copied into their columns. The sources of a run
    must have drawn equally many values before, as fresh sources drawn
    together have, so that they hold as many groups and start at the
    same place in them.
    """
    first = sources[0]
    digits, lo, at = first.digits, 0, 0
    for m, run in itertools.groupby(sizes):
        blocks = len(list(run))
        count = rows * m
        taken = [src.take_groups(count) for src in sources[at : at + blocks]]
        start, size = taken[0][1], taken[0][0].size
        batch = min(blocks, max(1, _EXPAND_VALUES // max(1, digits * size)))
        # scratch for one batch, reused by the run's batches; ``vals`` is
        # free while ``_expand`` runs, so it serves as its ``tmp``
        words = np.empty(batch * size, first.dtype)
        planes = np.empty((digits, words.size), first.dtype)
        vals = np.empty(digits * words.size, first.dtype)
        for i in range(0, blocks, batch):
            c = min(batch, blocks - i)
            np.concatenate([w for w, _ in taken[i : i + c]], out=words[: c * size])
            part = planes[:, : c * size]
            _expand(words[: c * size], part, vals[: c * size], first.k, first.wrap)
            groups = part.reshape(digits, c, -1, _GROUP).transpose(1, 2, 0, 3)
            ordered = vals[: c * size * digits].reshape(groups.shape)
            np.copyto(ordered, groups)
            u = ordered.reshape(c, -1)[:, start : start + count]
            cols = out[:, lo + i * m : lo + (i + c) * m]
            cols.reshape(rows, c, m)[...] = u.reshape(c, rows, m).transpose(1, 0, 2)
        lo, at = lo + blocks * m, at + blocks


def _dynamics_source(seed: int, block: int, k: int) -> _SymbolSource:
    """Block ``block``'s symbol stream: raw words of its ``(seed, block)`` Philox."""
    return _SymbolSource(_philox(seed, block).bit_generator, k)


def _apply_gate(
    a: np.ndarray, b: np.ndarray, u: np.ndarray, n: int, gate: GateKind
) -> None:
    """One gate on every pair ``(a[i, j], b[i, j])``, in place, by XOR.

    ``d = (a ^ new) & -flip`` is ``a ^ new`` where the pair changes and 0
    elsewhere, so ``a ^= d; b ^= d`` writes ``new`` into both sites of a
    changing pair (which is equal) and leaves the rest.
    """
    eq = a == b
    if gate is GateKind.PAIR_FLIP:
        # an equal pair becomes (u+1, u+1)
        new = u.view(np.int8) + np.int8(1)
    else:
        # an equal pair flips with probability 2(N-1)/N^2, to a uniform
        # symbol other than a: c = u >> 1 is uniform on 0..N-2 given a flip
        eq &= u < 2 * (n - 1)
        new = ((u >> 1) + 1).astype(np.int8)  # masked where it wraps
        new += new >= a
    d = a ^ new
    d &= -eq.view(np.int8)
    a ^= d
    b ^= d


def _apply_layers(
    sites: np.ndarray, u: np.ndarray, n: int, gate: GateKind
) -> None:
    """Even layer then odd layer on site-major ``sites`` (L, M).

    ``u`` has one row per pair, even pairs first, each layer in
    ``layer_pairs`` order.
    """
    row = 0
    for parity in ("even", "odd"):
        pairs = layer_pairs(sites.shape[0], parity)
        if not pairs:
            continue
        first, last = pairs[0][0], pairs[-1][0]
        a = sites[first : last + 1 : 2]
        b = sites[first + 1 : last + 2 : 2]
        _apply_gate(a, b, u[row : row + len(pairs)], n, gate)
        row += len(pairs)


def step_states(
    states: np.ndarray,
    source: _SymbolSource | _StripedSymbols,
    n: int,
    gate: GateKind,
) -> np.ndarray:
    """One full update: boundary resample, even layer, odd layer.

    The step draws L values per trajectory, as an ``(L, M)`` array (see
    the module docstring), from ``source``: a block's symbol source
    (``_dynamics_source``) or a slab's draw-ahead (``_StripedSymbols``).
    Returns the boundary symbols the resample wrote, one per trajectory,
    as they were before the layers ran.
    """
    m, length = states.shape
    k = _symbol_range(n, gate)
    if source.k != k:
        raise ValueError(f"symbol source draws below {source.k}, the step needs {k}")
    u = source.draw(length, m)
    sites = states.T
    sites[-1] = (u[-1] if gate is GateKind.PAIR_FLIP else u[-1] % n) + 1
    boundary = sites[-1].copy()  # the layers may overwrite the last site
    _apply_layers(sites, u[:-1], n, gate)
    return boundary


def cone_escape_mask(states: np.ndarray, depth: int) -> np.ndarray:
    """True where a state lies outside the depth-``depth`` cone below the
    canonical anchor 1,2,1,..."""
    return ~in_cone(*reduce_states(states), _canonical_anchor(depth))


# ---------------------------------------------------------------------------
# ensembles


@dataclass(frozen=True)
class EnsembleSeries:
    """Per-time ensemble means with standard errors of the mean."""

    config: SimConfig
    times: np.ndarray
    means: Mapping[str, np.ndarray]
    std_errors: Mapping[str, np.ndarray]
    block_sums: Mapping[str, np.ndarray]  # (blocks, T+1), for bootstrap
    block_sizes: np.ndarray

    @property
    def n_trajectories(self) -> int:
        return int(self.block_sizes.sum())


# Draw-ahead: a slab draws up to this many steps per block in one call,
# holding at most about this many bytes of symbols
_AHEAD_STEPS = 64
_AHEAD_BYTES = 1 << 20
# slabs run side by side this many steps between early-stop checks
_SEGMENT = 64
# A slab gets at least this many trajectory-sites, or there are fewer slabs
# than threads: stepping is mostly GIL-bound numpy calls, and on 2 CPUs two
# threads only broke even at 300K (TL, L=30) to 384K (pair-flip, L=16)
# trajectory-sites per slab; at 128K they were 20-30 % slower than one
_MIN_SLAB_SITES = 1 << 18


class _StripedSymbols:
    """Symbol source over a run of nonempty blocks that each draw from their
    own, fresh, stream.

    Every ``draw`` hands out the next step's ``(L, M)`` symbols, column
    block ``b`` from block ``b``'s source. They are drawn ahead a chunk
    of steps at a time, by one :func:`_draw_blocks` call on the buffer
    seen as ``(chunk * L, M)``. A source's values do not depend on how
    they are chunked, so neither does the output.
    """

    def __init__(
        self, sources: Sequence[_SymbolSource], sizes: Sequence[int],
        length: int, steps: int,
    ):
        first, width = sources[0], sum(sizes)
        self.k = first.k
        self._sources, self._sizes = sources, sizes
        self._steps = steps  # left to draw in the run
        per_step = length * width * first.dtype.itemsize
        chunk = max(1, min(_AHEAD_STEPS, _AHEAD_BYTES // per_step, steps))
        self._buf = np.empty((chunk, length, width), first.dtype)
        self._ahead = self._buf[:0]

    def draw(self, rows: int, cols: int) -> np.ndarray:
        if self._buf.shape[1:] != (rows, cols):
            raise ValueError("a slab's symbols come one whole step at a time")
        if not len(self._ahead):
            chunk = max(1, min(len(self._buf), self._steps))
            self._steps -= chunk
            self._ahead = self._buf[:chunk]
            _draw_blocks(self._sources, self._sizes, chunk * rows,
                         self._ahead.reshape(chunk * rows, cols))
        u, self._ahead = self._ahead[0], self._ahead[1:]
        return u


class _Slab:
    """A contiguous run of whole blocks, stepped as one ``(M, L)`` array.

    ``times`` are the planned recorded times, an int64 array that starts
    at t = 0: every step by default. A step records exactly when it is
    the next planned time, into row ``filled`` of ``sums`` and
    ``sqsums``, which hold one float64 ``(times, blocks)`` table per
    observable, allocated once; rows past ``filled`` are never touched.
    Over a run of equal-size blocks the sums are row sums of the values
    reshaped to ``(blocks, size)``: each adds as its block's alone would.

    With a ``depth`` or ``cone_escape`` observable the slab carries each
    row's irreducible word, reduced from the states once, at t = 0. Only
    the boundary resample changes the word: with ``a`` the last site
    before a step and ``b`` the symbol the resample writes there, the
    first L-1 sites reduce to irr(w a), so the new word is irr(w a b),
    two pop-or-push updates whatever L is. The layers keep it.

    With a ``charge`` observable it likewise carries each symbol's
    staggered charge, counted once at t = 0 (:func:`staggered_charge`).
    A gate turns an equal pair, on two sites of opposite sign, into
    another equal pair, so the layers keep every staggered charge; the
    resample moves symbol ``c``'s by ``[b == c] - [a == c]`` times the
    sign of site L.
    """

    def __init__(
        self,
        cfg: SimConfig,
        blocks: Sequence[int],
        starts: Sequence[np.ndarray],
        crossings: np.ndarray | None,
        times: np.ndarray | None = None,
    ):
        self.cfg = cfg
        self.observables = [
            _parse_observable(o, cfg.n, cfg.length) for o in cfg.observables
        ]
        self.sizes = [len(s) for s in starts]
        k = _symbol_range(cfg.n, cfg.gate)
        self.rng = _StripedSymbols(
            [_dynamics_source(cfg.seed, b, k) for b in blocks],
            self.sizes, cfg.length, cfg.t_max,
        )
        # site-major: states.T is a C-ordered (L, M) array of site rows
        self.states = np.asfortranarray(np.concatenate(starts))
        self.initial = self.states.copy(order="F")
        self.crossings = crossings  # this slab's rows of the caller's array
        self.t = 0
        self._stack = None  # the carried words, when an observable reads them
        if any(o.kind in ("depth", "cone_escape") for o in self.observables):
            m, length = self.states.shape
            width = length + 2  # zero sentinel, L symbols and the free slot
            stack, depth = reduce_states(self.states)
            words = np.zeros((m, width), self.states.dtype)
            words[:, 1:-1] = stack
            self._stack = words.reshape(-1)
            self._bottoms = np.arange(0, m * width, width, dtype=np.int64)
            self._tops = self._bottoms + depth
        # symbol -> carried staggered charge, int32 per row
        self._charges = {
            o.arg: staggered_charge(self.states, o.arg)
            for o in self.observables if o.kind == "charge"
        }
        runs = [(m, len(list(g))) for m, g in itertools.groupby(self.sizes)]
        ends = itertools.accumulate(m * count for m, count in runs)
        self.runs = [(slice(e - m * c, e), c) for (m, c), e in zip(runs, ends)]
        if times is None:
            times = np.arange(cfg.t_max + 1, dtype=np.int64)
        self.times, self.filled = times, 0
        shape = (len(times), len(self.sizes))
        self.sums = {o: np.empty(shape) for o in cfg.observables}
        self.sqsums = {o: np.empty(shape) for o in cfg.observables}
        self.record()  # t = 0

    def word(self) -> tuple[np.ndarray, np.ndarray]:
        """The carried irreducible words as ``(stack, depth)``, laid out as
        ``reduce_states`` returns them."""
        m, length = self.states.shape
        stack = self._stack.reshape(m, length + 2)[:, 1:-1]
        return stack, self._tops - self._bottoms

    def _values(self, obs: _Observable) -> np.ndarray:
        s = self.states
        if obs.kind == "charge":
            return 2.0 * self._charges[obs.arg] / self.cfg.length
        if obs.kind == "depth":
            return self.word()[1].astype(np.float64)
        if obs.kind == "match_site":
            return (s[:, obs.arg - 1] == self.initial[:, obs.arg - 1]).astype(float)
        outside = ~in_cone(*self.word(), _canonical_anchor(obs.arg))
        return outside.astype(float)

    def _block_sums(self, vals: np.ndarray) -> np.ndarray:
        sums = [vals[rows].reshape(count, -1).sum(axis=1) for rows, count in self.runs]
        return np.concatenate(sums)

    def record(self) -> None:
        for obs in self.observables:
            vals = self._values(obs)
            self.sums[obs.name][self.filled] = self._block_sums(vals)
            self.sqsums[obs.name][self.filled] = self._block_sums(vals * vals)
            if self.crossings is not None and self.t and obs.name == _CHARGE:
                hit = (self.crossings < 0) & (vals <= self.cfg.gamma)
                self.crossings[hit] = self.t
        self.filled += 1

    def advance(self, steps: int) -> None:
        carried = self._stack is not None or self._charges
        # site L adds to a staggered charge at even L and subtracts at odd L
        even = self.cfg.length % 2 == 0
        for _ in range(steps):
            last = self.states.T[-1].copy() if carried else None
            new = step_states(self.states, self.rng, self.cfg.n, self.cfg.gate)
            if self._stack is not None:
                _pop_or_push(self._stack, self._tops, last)
                _pop_or_push(self._stack, self._tops, new)
            gain, loss = (new, last) if even else (last, new)
            for a, q in self._charges.items():
                q += gain == a
                q -= loss == a
            self.t += 1
            if self.filled < len(self.times) and self.t == self.times[self.filled]:
                self.record()


def _block_sizes(n_trajectories: int, blocks: int) -> list[int]:
    """Sizes of the nonempty blocks, in order: blocks past the trajectory
    count would be empty and draw nothing, so they are never built."""
    base, rem = divmod(n_trajectories, blocks)
    return [base + (1 if b < rem else 0) for b in range(min(blocks, n_trajectories))]


def _history(slabs: Sequence[_Slab], table: str, name: str, start: int = 0):
    """C-ordered ``(blocks, times)`` block sums from time ``start`` on."""
    parts = [getattr(s, table)[name][start : s.filled] for s in slabs]
    return np.concatenate(parts, axis=1).T.copy()


def _assemble_series(cfg: SimConfig, slabs: Sequence[_Slab]) -> EnsembleSeries:
    sizes = np.array([m for s in slabs for m in s.sizes], dtype=np.int64)
    total = sizes.sum()
    means: dict[str, np.ndarray] = {}
    errs: dict[str, np.ndarray] = {}
    bsums: dict[str, np.ndarray] = {}
    for obs in slabs[0].observables:
        bsums[obs.name] = sums = _history(slabs, "sums", obs.name)  # (B, T+1)
        tot_sq = _history(slabs, "sqsums", obs.name).sum(axis=0)
        means[obs.name] = mean = sums.sum(axis=0) / total
        if total > 1:
            var = np.maximum(tot_sq / total - mean**2, 0.0) * total / (total - 1)
            errs[obs.name] = np.sqrt(var / total)
        else:
            errs[obs.name] = np.zeros_like(mean)
    return EnsembleSeries(
        config=cfg,
        times=slabs[0].times[: slabs[0].filled],
        means=means,
        std_errors=errs,
        block_sums=bsums,
        block_sizes=sizes,
    )


def _run_blocks(
    cfg: SimConfig,
    initial_states: Sequence[np.ndarray],
    *,
    early_stop: bool = False,
    crossings: np.ndarray | None = None,
    times: Sequence[int] | None = None,
    min_slab_sites: int | None = None,
) -> EnsembleSeries:
    """Step block ``b`` from ``initial_states[b]`` and reduce in block order.

    The nonempty blocks are split into ``cfg.threads`` contiguous slabs,
    fewer if a slab would hold under ``min_slab_sites`` trajectory-sites
    (by default ``_MIN_SLAB_SITES``), run side by side for ``_SEGMENT``
    steps at a time. With
    ``early_stop`` the run ends after the first segment in which the
    ensemble-mean ``charge:1`` reaches half of gamma. ``crossings``, one
    int64 entry per trajectory set to -1 by the caller, receives each
    trajectory's first time t >= 1 with its ``charge:1`` value at or
    below gamma. ``times``, for runs without either, records t = 0 and
    these times only, in place of every step. t = 0 stays so that a
    table of block sums is two or more times wide whenever the run is:
    numpy sums a one-column table pairwise, not in block order.

    The block-sum tables for every planned time are checked against
    ``_RECORD_CAP_BYTES`` before any slab is built.
    """
    live = [b for b, start in enumerate(initial_states) if len(start)]
    if times is None:
        planned = np.arange(cfg.t_max + 1, dtype=np.int64)
    else:
        planned = np.array(sorted({0, *times}), dtype=np.int64)
    need = 16 * len(live) * len(planned) * len(cfg.observables)
    if need > _RECORD_CAP_BYTES:
        raise ResourceCapError(
            f"recording {len(live)} blocks at {len(planned)} times needs about "
            f"{need / 2**30:.3g} GiB, above the cap of {_RECORD_CAP_BYTES >> 30} GiB"
        )
    sites = sum(len(initial_states[b]) for b in live) * cfg.length
    floor = _MIN_SLAB_SITES if min_slab_sites is None else min_slab_sites
    wanted = min(cfg.threads, len(live), max(1, sites // floor))
    slabs = []
    first = total = 0
    for count in _block_sizes(len(live), wanted):
        blocks = live[first : first + count]
        rows = sum(len(initial_states[b]) for b in blocks)
        mine = None if crossings is None else crossings[total : total + rows]
        starts = [initial_states[b] for b in blocks]
        slabs.append(_Slab(cfg, blocks, starts, mine, planned))
        first, total = first + count, total + rows
    done = checked = 0
    # slabs own their blocks' streams, so the split cannot change the output
    with ThreadPoolExecutor(len(slabs)) if len(slabs) > 1 else nullcontext() as pool:
        while done < cfg.t_max:
            chunk = min(_SEGMENT, cfg.t_max - done)
            run = map if pool is None else pool.map
            list(run(lambda slab: slab.advance(chunk), slabs))
            done += chunk
            if early_stop:
                # the window keeps one earlier time, so it is at least two
                # wide and its column sums add the blocks in order
                window = _history(slabs, "sums", _CHARGE, checked)
                checked = done
                if (window.sum(axis=0) / total).min() <= 0.5 * cfg.gamma:
                    break
    return _assemble_series(cfg, slabs)


def _shared_starts(cfg: SimConfig) -> list[np.ndarray]:
    """Every block's copies of the configured initial state."""
    init = np.array(cfg.initial_state(), dtype=np.int8)
    return [np.tile(init, (m, 1)) for m in _block_sizes(cfg.n_trajectories, cfg.blocks)]


def run_ensemble(cfg: SimConfig) -> EnsembleSeries:
    """Evolve an ensemble from a shared initial state, full horizon."""
    return _run_blocks(cfg, _shared_starts(cfg))


# ---------------------------------------------------------------------------
# first passage of the ensemble-mean charge


@dataclass(frozen=True)
class TQReport:
    """First time the ensemble-mean normalized charge drops to gamma."""

    gamma: float
    t_q: int | None
    ci_low: int | None
    ci_high: int | None
    censored: bool
    censored_draws: int
    n_resamples: int
    series: EnsembleSeries
    per_trajectory_times: np.ndarray | None = None


def _crossing(mean: np.ndarray, gamma: float) -> int | None:
    hits = np.nonzero(mean <= gamma)[0]
    return int(hits[0]) if hits.size else None


def estimate_tq(
    cfg: SimConfig,
    *,
    n_resamples: int = 1000,
    per_trajectory: bool = False,
) -> TQReport:
    """Ensemble-mean first passage with a block-bootstrap interval.

    Simulation stops early once the mean has fallen decisively below
    gamma (or at ``t_max``, in which case the estimate is censored and
    says so). The confidence interval resamples whole blocks; draws
    whose resampled mean never crosses inside the simulated window are
    counted in ``censored_draws`` rather than silently clamped. Each
    resample is summed alone and its first crossing found by
    ``_crossing``, as t_Q is, so the bootstrap holds one ``(blocks,
    times)`` float64 copy at a time beside the series.
    """
    if n_resamples < 1:
        raise UsageError(f"need at least one bootstrap resample, got {n_resamples}")
    if _CHARGE not in cfg.observables:
        cfg = replace(cfg, observables=(_CHARGE,) + cfg.observables)
    passages = np.full(cfg.n_trajectories, -1, np.int64) if per_trajectory else None
    # without per-trajectory times, stop once safely below gamma so that
    # bootstrap crossings resolve
    series = _run_blocks(
        cfg, _shared_starts(cfg), early_stop=not per_trajectory, crossings=passages
    )
    t_q = _crossing(series.means[_CHARGE], cfg.gamma)
    censored = t_q is None
    ci_low = ci_high = None
    censored_draws = 0
    if not censored:
        sums, sizes = series.block_sums[_CHARGE], series.block_sizes
        rng = _philox(cfg.seed, _BOOT_KEY)
        # picks are drawn 200 resamples per call, the call shape that fixes
        # the stream; each resample is then taken alone, (blocks, T) at a time
        draws = [
            _crossing(sums[p].sum(axis=0) / sizes[p].sum(), cfg.gamma)
            for start in range(0, n_resamples, 200)
            for p in rng.integers(
                0, len(sizes), size=(min(200, n_resamples - start), len(sizes))
            )
        ]
        crossings = [c for c in draws if c is not None]
        censored_draws = n_resamples - len(crossings)
        if crossings:
            lo, hi = np.percentile(np.asarray(crossings), [2.5, 97.5])
            ci_low, ci_high = int(lo), int(math.ceil(hi))
    return TQReport(
        gamma=cfg.gamma,
        t_q=t_q,
        ci_low=ci_low,
        ci_high=ci_high,
        censored=censored,
        censored_draws=censored_draws,
        n_resamples=n_resamples,
        series=series,
        per_trajectory_times=passages,
    )


# ---------------------------------------------------------------------------
# uniform sampling inside a cone


def _block_floats(
    rngs: Sequence[np.random.Generator], sizes: Sequence[int], rows: int = 0
) -> np.ndarray:
    """Uniform floats for every block's columns, concatenated in block order:
    ``rng.random(m)`` from each block, or ``rng.random((rows, m))``."""
    parts = [g.random((rows, m) if rows else m) for g, m in zip(rngs, sizes)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _toward_table(n: int, length: int) -> np.ndarray:
    """Toward-step probabilities by steps left and distance to the target.

    Entry ``[rem, r]`` for ``r >= 1`` is ``A(rem-1, r-1) / A(rem, r)``: the
    one neighbor toward the target has weight A(rem-1, r-1), each of the
    N-1 others A(rem-1, r+1), and their sum is A(rem, r). int / int rounds
    correctly, so this is float(Fraction(...)). Column 0 holds 1/N (see
    ``_conditioned_walk``); unreachable entries are 0, out to r = 2L, so
    that a walk gone astray ends in the missed-target check.
    """
    dims = sector_dim_rows(n, length)
    table = np.zeros((length + 1, 2 * length + 1))
    table[:, 0] = 1 / n
    for rem in range(1, length + 1):
        for r in range(2 - rem % 2, rem + 1, 2):
            table[rem, r] = dims[rem - 1][r - 1] / dims[rem][r]
    return table


def _other_symbol(v: np.ndarray, n: int, toward: np.ndarray) -> np.ndarray:
    """``c + 1 + (c + 1 >= toward)`` with ``c = floor(v (N-1))``: uniform
    over the N-1 symbols other than ``toward``, to within 2^-53."""
    c = (v * (n - 1)).astype(toward.dtype)
    c += 1
    c += c >= toward
    return c


def _conditioned_walk(
    n: int,
    length: int,
    words: np.ndarray,
    depths: np.ndarray,
    rngs: Sequence[np.random.Generator],
    sizes: Sequence[int],
) -> np.ndarray:
    """Uniform members of given sectors, one row each, by walks conditioned
    on their endpoints.

    Row i walks to the sector ``words[i, :depths[i]]``. Walk counts between
    tree vertices depend only on their distance and equal the sector
    dimensions, so each site steps toward the target with probability
    ``_toward_table[rem, r]`` and otherwise to one of the N-1 other
    neighbors, uniformly. At the target (r = 0) every neighbor is one step
    farther, so the step is uniform over the N symbols: symbol 1 with
    probability 1/N, else ``c + 2``.

    All rows step together. Block b owns the next ``sizes[b]`` rows and
    draws their values from ``rngs[b]``, one site at a time: a ``(2,
    sizes[b])`` float array, one row deciding toward or not and the other
    which other symbol.
    """
    m = len(depths)
    dtype = state_dtype(n)
    table = _toward_table(n, length)
    width = length + 1
    cols = np.arange(width)
    # target words and stacks as flat (m, width) arrays, row i at
    # base[i]; indices into both are absolute, as in ``_pop_or_push``
    base = np.arange(m) * width
    # the target words, zero from each row's depth on: a zero never
    # matches a symbol
    target = np.zeros((m, width), dtype)
    target[:, : words.shape[1]] = np.where(
        cols[: words.shape[1]] < depths[:, None], words, 0
    )
    target = target.ravel()
    goal = base + depths  # the target's end
    # reduced prefix over a zero sentinel at base, its top at tops
    stack = np.zeros(m * width, dtype)
    tops = base.copy()
    common = base.copy()  # end of the common prefix of stack and target
    out = np.empty((length, m), dtype)
    for i in range(length):
        u, v = _block_floats(rngs, sizes, 2)
        ahead = target[common]
        on_path = common == tops
        # toward the target: its next symbol on the path, else back down;
        # at the target the padding gives 0, stood in for by symbol 1
        toward = np.where(on_path, ahead, stack[tops])
        np.maximum(toward, 1, out=toward)
        p = table[length - i].take((tops - common) + (goal - common))
        sym = np.where(u < p, toward, _other_symbol(v, n, toward))
        out[i] = sym
        cancel = _pop_or_push(stack, tops, sym)
        common += on_path & ~cancel & (sym == ahead)
        np.minimum(common, tops, out=common)
    stack = stack.reshape(m, width)[:, 1:]
    target = target.reshape(m, width)[:, :length]
    missed = (tops != goal) | (
        (stack != target) & (cols[:length] < depths[:, None])
    ).any(axis=1)
    if missed.any():
        raise NumericError("conditioned walk missed its target sector")
    return np.ascontiguousarray(out.T)


def sample_sector_string(
    target: SectorId, length: int, rng: np.random.Generator
) -> tuple[int, ...]:
    """Uniform member of a sector, by a walk conditioned on its endpoint.

    The one-row case of the batched walk of ``sample_cone_states``.
    """
    q = target.irr
    if (length - len(q)) % 2 or len(q) > length:
        raise UsageError(
            f"sector depth {len(q)} unreachable at length {length}"
        )
    words = np.array([q], dtype=np.int64)
    out = _conditioned_walk(
        target.alphabet_size, length, words, np.array([len(q)]), [rng], [1]
    )
    return tuple(int(s) for s in out[0])


def sample_cone_states(
    n: int,
    length: int,
    depth: int,
    sizes: Sequence[int],
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Uniform states of the depth-``depth`` cone below the canonical
    anchor 1,2,1,..., rejection free.

    Picks the sector first (mass proportional to its dimension times
    the number of cone sectors at that depth), extends the anchor by a
    uniform non-backtracking branch, then samples a uniform member of
    that sector by the conditioned walk.

    Block b's ``sizes[b]`` rows come from ``rngs[b]`` alone, whatever
    the other blocks are, and the blocks' rows are concatenated in
    order. Each block draws one float per row for the depth, one per
    row for each branch column below the anchor down to depth L, then
    the walk's values (see ``_conditioned_walk``).
    """
    check_size(n, length)
    check_cone_depth(depth, length)
    anchor = _canonical_anchor(depth)
    if not sizes or len(sizes) != len(rngs):
        raise UsageError(f"{len(sizes)} block sizes for {len(rngs)} generators")
    if any(m < 0 for m in sizes):
        raise UsageError("block sizes must be nonnegative")
    masses = _cone_masses(n, length, depth)
    total = sum(masses)
    # int / int is correctly rounded, as float(Fraction(m, total)) is
    cum = np.cumsum([m / total for m in masses])
    cum[-1] = 1.0
    depths = np.arange(depth, length + 1, 2)
    u = _block_floats(rngs, sizes)
    dd = depths[np.searchsorted(cum, u, side="right")]
    # the anchor, then a uniform non-backtracking branch down to depth L;
    # the walk reads each row's word only up to its depth
    words = np.empty((len(dd), depths[-1]), state_dtype(n))
    words[:, : len(anchor)] = anchor
    for j in range(len(anchor), depths[-1]):
        v = _block_floats(rngs, sizes)
        words[:, j] = _other_symbol(v, n, words[:, j - 1])
    return _conditioned_walk(n, length, words, dd, rngs, sizes)


@dataclass(frozen=True)
class ConeEscapeResult:
    """Escape probabilities against the flow bound ``t * Phi``."""

    times: np.ndarray
    probability: np.ndarray
    std_error: np.ndarray
    flow: float
    depth: int


def cone_escape_probability(
    cfg: SimConfig, depth: int, t_samples: Sequence[int]
) -> ConeEscapeResult:
    """Measured out-of-cone probability from a uniform in-cone start.

    Asserts the flow bound: the escape probability at time t may not
    exceed ``t * Phi(C_d)`` by more than four standard errors; a
    violation raises. At t=0 the probability is exactly zero by
    construction.
    """
    times = sorted(set(int(t) for t in t_samples))
    if not times:
        raise UsageError("need at least one sample time")
    if times[0] < 0:
        raise UsageError("sample times must be nonnegative")
    obs = f"cone_escape:{depth}"
    cfg = replace(cfg, observables=(obs,), t_max=times[-1], initial=None)
    sizes = _block_sizes(cfg.n_trajectories, cfg.blocks)
    rngs = [_philox(cfg.seed, _INIT_KEY_OFFSET + b) for b in range(len(sizes))]
    states = sample_cone_states(cfg.n, cfg.length, depth, sizes, rngs)
    series = _run_blocks(cfg, np.split(states, np.cumsum(sizes)[:-1]), times=times)
    flow = float(cone_stats(cfg.n, cfg.length, depth).boundary_flow)
    # t = 0 is recorded whether asked for or not
    sel = np.array(times, dtype=np.int64)
    at = np.searchsorted(series.times, sel)
    prob = series.means[obs][at]
    err = series.std_errors[obs][at]
    for t, p, e in zip(times, prob, err):
        if t == 0 and p != 0.0:
            raise NumericError("cone sampler produced out-of-cone states")
        if p > t * flow + 4 * e:
            raise NumericError(
                f"escape probability {p} at t={t} violates the flow bound "
                f"{t * flow} beyond 4 sigma ({e})"
            )
    return ConeEscapeResult(
        times=sel, probability=prob, std_error=err, flow=flow, depth=depth
    )
