"""Monte Carlo kernel, sampler, and estimator tests.

Statistical checks run with fixed seeds and generous thresholds, so
they are deterministic; the one-step law is checked exactly against
the rational transition rows.
"""

import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from pairflip.census import cone_stats, multiplicity, sector_dim
from pairflip.chains import GateKind, build_full_local, state_index
from pairflip import montecarlo
from pairflip.errors import ResourceCapError, UsageError
from pairflip.montecarlo import (
    _INIT_KEY_OFFSET,
    ConeEscapeResult,
    SimConfig,
    _apply_layers,
    _block_sizes,
    _conditioned_walk,
    _Slab,
    _StripedSymbols,
    _dynamics_source,
    _parse_observable,
    _philox,
    _run_blocks,
    _shared_starts,
    _symbol_range,
    cone_escape_mask,
    cone_escape_probability,
    estimate_tq,
    max_charge_state,
    reduce_states,
    run_ensemble,
    sample_cone_states,
    sample_sector_string,
    step_states,
)
from pairflip.walks import (
    SectorId,
    SpinString,
    _canonical_anchor,
    all_states,
    in_cone,
    reduce_symbols,
)


# the measured slab-size floor, before the fixture below lifts it
_MIN_SLAB_SITES = montecarlo._MIN_SLAB_SITES


@pytest.fixture(autouse=True)
def _slabs_of_any_size(monkeypatch):
    """The thread-count tests run ensembles far below the slab size at which
    a second thread is used; lifting the floor keeps them on several slabs."""
    monkeypatch.setattr(montecarlo, "_MIN_SLAB_SITES", 1)


def _start_rngs(seed: int, blocks: int) -> list[np.random.Generator]:
    """The blocks' start streams, as ``cone_escape_probability`` keys them."""
    return [_philox(seed, _INIT_KEY_OFFSET + b) for b in range(blocks)]


def _staggered_count(states: np.ndarray, symbol: int) -> np.ndarray:
    length = states.shape[1]
    signs = np.where(np.arange(length) % 2 == 0, -1, 1)
    return ((states == symbol) * signs).sum(axis=1)


class TestConfig:
    def test_defaults(self):
        cfg = SimConfig(n=3, length=6, t_max=10)
        assert cfg.gate is GateKind.PAIR_FLIP
        assert cfg.observables == ("charge:1",)
        assert cfg.initial_state() == (2, 1, 2, 1, 2, 1)

    def test_max_charge_state(self):
        assert max_charge_state(2, 5) == (2, 1, 2, 1, 2)
        arr = np.array([max_charge_state(4, 8)])
        assert _staggered_count(arr, 1)[0] == 4
        with pytest.raises(UsageError):
            max_charge_state(1, 4)

    def test_explicit_initial(self):
        cfg = SimConfig(n=2, length=4, t_max=1, initial=(1, 1, 2, 2))
        assert cfg.initial_state() == (1, 1, 2, 2)

    def test_initial_symbol_outside_the_alphabet_is_named(self):
        with pytest.raises(UsageError, match=r"symbol 3 outside alphabet 1\.\.2"):
            SimConfig(n=2, length=4, t_max=1, initial=(1, 2, 3, 1))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, length=4, t_max=1),
            dict(n=2, length=0, t_max=1),
            dict(n=2, length=4, t_max=-1),
            dict(n=2, length=4, t_max=1, n_trajectories=0),
            dict(n=2, length=4, t_max=1, gamma=0.0),
            dict(n=2, length=4, t_max=1, gamma=1.0),
            dict(n=2, length=4, t_max=1, seed=-1),
            dict(n=2, length=4, t_max=1, seed=1 << 64),
            dict(n=2, length=4, t_max=1, blocks=0),
            dict(n=2, length=4, t_max=1, threads=0),
            dict(n=2, length=4, t_max=1, initial=(1, 2, 1)),
            dict(n=2, length=4, t_max=1, initial=(1, 2, 3, 1)),
            dict(n=2, length=4, t_max=1, observables=("volume",)),
            dict(n=128, length=4, t_max=1),  # past the int8 state limit
            dict(n=2, length=4, t_max=1, observables=("charge:1", "charge:1")),
            dict(n=2, length=4, t_max=1, observables=()),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(UsageError):
            SimConfig(**kwargs)

    def test_too_many_nonempty_blocks_raise_at_once(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="above the cap of 1 GiB"):
                SimConfig(n=3, length=4, t_max=1, n_trajectories=10**20,
                          blocks=10**17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        # only blocks that hold a trajectory count toward the cap
        cap = montecarlo._BLOCKS_CAP_BYTES // montecarlo._BLOCK_BYTES
        SimConfig(n=3, length=4, t_max=1, n_trajectories=10**20, blocks=cap)
        SimConfig(n=3, length=4, t_max=1, n_trajectories=cap, blocks=10**20)
        with pytest.raises(ResourceCapError):
            SimConfig(n=3, length=4, t_max=1, n_trajectories=cap + 1,
                      blocks=cap + 1)


class TestObservableParsing:
    def test_charge_default_symbol(self):
        obs = _parse_observable("charge", 3, 6)
        assert obs.kind == "charge" and obs.arg == 1

    def test_charge_symbol_range(self):
        assert _parse_observable("charge:3", 3, 6).arg == 3
        with pytest.raises(UsageError):
            _parse_observable("charge:4", 3, 6)

    def test_depth_takes_no_argument(self):
        assert _parse_observable("depth", 3, 6).kind == "depth"
        with pytest.raises(UsageError):
            _parse_observable("depth:2", 3, 6)

    def test_match_site(self):
        assert _parse_observable("match_site:6", 3, 6).arg == 6
        with pytest.raises(UsageError):
            _parse_observable("match_site:7", 3, 6)
        with pytest.raises(UsageError):
            _parse_observable("match_site", 3, 6)

    def test_cone_escape_parity(self):
        assert _parse_observable("cone_escape:4", 3, 6).arg == 4
        with pytest.raises(UsageError):
            _parse_observable("cone_escape:3", 3, 6)
        with pytest.raises(UsageError):
            _parse_observable("cone_escape:8", 3, 6)

    def test_garbage(self):
        with pytest.raises(UsageError):
            _parse_observable("charge:x", 3, 6)
        with pytest.raises(UsageError):
            _parse_observable("entropy", 3, 6)


class TestStepKernel:
    def _one_step_counts(self, n, length, gate, start, m, seed):
        states = np.tile(np.array(start, dtype=np.int8), (m, 1))
        step_states(states, _dynamics_source(seed, 0, _symbol_range(n, gate)), n, gate)
        codes = np.zeros(m, dtype=np.int64)
        for c in range(length):
            codes = codes * n + (states[:, c] - 1)
        return Counter(codes.tolist())

    @pytest.mark.parametrize(
        "n,length,gate,start",
        [
            (2, 4, GateKind.PAIR_FLIP, (2, 1, 1, 2)),
            (3, 3, GateKind.PAIR_FLIP, (1, 1, 2)),
            (3, 3, GateKind.TEMPERLEY_LIEB, (1, 1, 2)),
            (2, 4, GateKind.TEMPERLEY_LIEB, (1, 1, 2, 2)),
            (5, 3, GateKind.TEMPERLEY_LIEB, (2, 2, 4)),
            (4, 3, GateKind.PAIR_FLIP, (3, 3, 1)),  # k = 4: nothing rejected
            (17, 2, GateKind.TEMPERLEY_LIEB, (5, 5)),  # k = 289: 16-bit values
        ],
    )
    def test_one_step_law_matches_exact_rows(self, n, length, gate, start):
        # the empirical one-step distribution must match the rational
        # transition row of the matching chain build
        chain = build_full_local(n, length, gate, exact=True)
        row = chain.exact_rows[state_index(SpinString(start, n))]
        m = 120_000
        counts = self._one_step_counts(n, length, gate, start, m, seed=11)
        support = sorted(row)
        observed = np.array([counts.get(i, 0) for i in support], dtype=float)
        expected = np.array([float(row[i]) * m for i in support])
        for idx, cnt in counts.items():
            assert idx in row, f"impossible outcome {idx} seen {cnt} times"
        assert observed.sum() == m
        chi2 = stats.chisquare(observed, expected)
        assert chi2.pvalue > 1e-5
        sigma = np.sqrt(expected * (1 - expected / m))
        assert np.all(np.abs(observed - expected) <= 4.5 * sigma)

    @staticmethod
    def _irr_words(states):
        stack, sp = reduce_states(states)
        return [
            tuple(int(x) for x in stack[k, : sp[k]])
            for k in range(states.shape[0])
        ]

    @staticmethod
    def _layers(states, source, n, gate):
        """Even and odd layer alone, on the next ``(L-1, M)`` symbols."""
        m, length = states.shape
        _apply_layers(states.T, source.draw(length - 1, m), n, gate)

    def test_layers_preserve_sector(self):
        rng = np.random.default_rng(4)
        states = rng.integers(1, 4, size=(64, 21)).astype(np.int8)
        words0 = self._irr_words(states)
        source = _dynamics_source(5, 0, 3)
        for _ in range(50):
            self._layers(states, source, 3, GateKind.PAIR_FLIP)
        assert self._irr_words(states) == words0

    def test_layers_preserve_sector_tl(self):
        rng = np.random.default_rng(6)
        states = rng.integers(1, 5, size=(64, 12)).astype(np.int8)
        words0 = self._irr_words(states)
        source = _dynamics_source(7, 0, 16)
        for _ in range(50):
            self._layers(states, source, 4, GateKind.TEMPERLEY_LIEB)
        assert self._irr_words(states) == words0

    def test_layers_preserve_staggered_charges(self):
        rng = np.random.default_rng(8)
        states = rng.integers(1, 4, size=(200, 14)).astype(np.int8)
        before = {a: _staggered_count(states, a).copy() for a in (1, 2, 3)}
        self._layers(states, _dynamics_source(9, 0, 3), 3, GateKind.PAIR_FLIP)
        for a in (1, 2, 3):
            assert np.array_equal(before[a], _staggered_count(states, a))

    def test_full_step_charge_moves_by_at_most_one(self):
        source = _dynamics_source(10, 0, 3)
        states = np.tile(
            np.array(max_charge_state(3, 12), dtype=np.int8), (100, 1)
        )
        for _ in range(60):
            q_before = _staggered_count(states, 1)
            step_states(states, source, 3, GateKind.PAIR_FLIP)
            delta = _staggered_count(states, 1) - q_before
            assert set(np.unique(delta)) <= {-1, 0, 1}

    def test_trivial_alphabet_is_invariant(self):
        # n=1 only makes sense at the kernel level: everything is frozen
        states = np.ones((10, 6), dtype=np.int8)
        for gate in (GateKind.PAIR_FLIP, GateKind.TEMPERLEY_LIEB):
            step_states(states, _dynamics_source(12, 0, 1), 1, gate)
            assert (states == 1).all()

    def test_single_site_chain(self):
        cfg = SimConfig(n=3, length=1, t_max=5, n_trajectories=50, blocks=5)
        series = run_ensemble(cfg)
        assert len(series.times) == 6


def _contract_values(seed: int, block: int, k: int, count: int) -> list[int]:
    """The first ``count`` values of block ``block``'s stream, by the written
    rule, one raw word at a time.

    Each 64-bit raw word splits into little-endian bytes, or 16-bit halves
    when k > 256; d is the largest integer with k^d <= span (1 when k = 1);
    a word at or above span - span mod k^d is dropped and the rest are
    taken mod k^d, G = 256 at a time; digit j of word p of a group is
    value j*G + p of that group.
    """
    span = 1 << 8 if k <= 256 else 1 << 16
    d = 1
    while k > 1 and k ** (d + 1) <= span:
        d += 1
    limit = span - span % k**d
    bits = _philox(seed, block).bit_generator
    values: list[int] = []
    group: list[int] = []
    while len(values) < count:
        x = int(bits.random_raw())
        for _ in range(64 // (span.bit_length() - 1)):  # 8 bytes or 4 halves
            word, x = x % span, x // span
            if word >= limit:
                continue
            group.append(word % k**d)
            if len(group) == 256:
                out = [0] * (d * 256)
                for p, w in enumerate(group):
                    for j in range(d):
                        out[j * 256 + p] = w // k**j % k
                values.extend(out)
                group = []
    return values[:count]


class TestSymbolSource:
    """Raw Philox words to exact uniform symbols, independent of chunking."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 9, 16, 127, 256, 289, 16129])
    def test_uniform(self, k):
        src = _dynamics_source(3, k, k)
        assert src.dtype == (np.uint8 if k <= 256 else np.uint16)
        count = max(200_000, 40 * k)
        vals = src.draw(count, 1).ravel()
        assert vals.dtype == src.dtype
        counts = np.bincount(vals, minlength=k)
        assert counts.size == k  # nothing at or above k
        if k > 1:
            assert stats.chisquare(counts).pvalue > 1e-6

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 9, 16, 17, 127, 256, 289])
    def test_values_follow_the_written_contract(self, k):
        # re-pins the draw contract: several base-k digits per accepted
        # word, grouped in planes (the old rule took one value per word)
        vals = _dynamics_source(4, 1, k).draw(500, 7).ravel()
        assert vals.tolist() == _contract_values(4, 1, k, vals.size)

    @pytest.mark.parametrize("k", [17, 127, 256, 289])
    def test_one_digit_alphabets_keep_the_accepted_words(self, k):
        # k >= 17 holds one digit per word: the values are the accepted
        # words mod k, in order, as before groups of digits existed
        vals = _dynamics_source(4, 1, k).draw(500, 7).ravel()
        dtype = np.uint8 if k <= 256 else np.uint16
        span = 1 << (8 * np.dtype(dtype).itemsize)
        raw = _philox(4, 1).bit_generator.random_raw(2000)
        raw = raw.astype("<u8").view(dtype).astype(np.int64)
        accepted = raw[raw < span - span % k]
        assert np.array_equal(vals, accepted[: vals.size] % k)

    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_digits_of_one_word_are_independent(self, k):
        # (v[p], v[p+G]) are digits 0 and 1 of the same word; (v[i], v[i+1])
        # are neighbours; every pair of symbols must be equally likely
        G = 256
        groups = 800
        digits = _dynamics_source(5, 3, k).digits
        vals = _dynamics_source(5, 3, k).draw(groups, digits * G)
        planes = vals.astype(np.int64).reshape(groups, digits, G)
        pairs = {
            "same word": (planes[:, 0], planes[:, 1]),
            "neighbours, even": (vals.ravel()[0:-1:2], vals.ravel()[1::2]),
            "neighbours, odd": (vals.ravel()[1:-1:2], vals.ravel()[2::2]),
        }
        for name, (first, second) in pairs.items():
            cells = np.bincount((first * k + second).ravel(), minlength=k * k)
            assert stats.chisquare(cells).pvalue > 1e-6, name

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 16, 256, 289])
    def test_chunk_invariant(self, k):
        steps, rows, cols = 90, 5, 13
        stepwise = _dynamics_source(7, 2, k)
        one = np.stack([stepwise.draw(rows, cols) for _ in range(steps)])
        whole = _dynamics_source(7, 2, k).draw(steps * rows, cols)
        assert np.array_equal(one.reshape(steps * rows, cols), whole)
        chunked = _dynamics_source(7, 2, k)
        sizes = np.random.default_rng(k).integers(0, 12, size=steps)
        parts, done = [], 0
        for size in sizes:
            size = min(int(size), steps - done)
            parts.append(chunked.draw(size * rows, cols))
            done += size
        parts.append(chunked.draw((steps - done) * rows, cols))
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("expand", [1, 1 << 17])  # a block per batch; one batch
    @pytest.mark.parametrize("k", [3, 9, 289])
    def test_slab_draws_ahead_the_same_bits(self, k, expand, monkeypatch):
        # a slab of unequal blocks, in runs of equal ones, hands out each
        # block's step-by-step symbols; its chunks end inside a group
        monkeypatch.setattr(montecarlo, "_EXPAND_VALUES", expand)
        sizes, length, steps = [5, 5, 1, 6, 6, 6, 3], 3, 200
        sources = [_dynamics_source(8, b, k) for b in range(len(sizes))]
        slab = _StripedSymbols(
            [_dynamics_source(8, b, k) for b in range(len(sizes))],
            sizes, length, steps,
        )
        chunk = len(slab._buf)
        per_group = sources[0].digits * 256
        assert 1 < chunk < steps and steps % chunk
        assert all(chunk * length * m % per_group for m in sizes)
        drawn = []
        for _ in range(steps):
            expect = np.concatenate(
                [src.draw(length, m) for src, m in zip(sources, sizes)], axis=1
            )
            drawn.append(slab.draw(length, sum(sizes)).copy())
            assert np.array_equal(drawn[-1], expect)
        # both paths above expand through one routine; the written rule,
        # one raw word at a time, is the independent reference
        drawn = np.stack(drawn)
        for b, (m, end) in enumerate(zip(sizes, np.cumsum(sizes))):
            block = drawn[:, :, end - m : end]
            assert block.ravel().tolist() == _contract_values(8, b, k, block.size)

    @pytest.mark.parametrize("gate", [GateKind.PAIR_FLIP, GateKind.TEMPERLEY_LIEB])
    @pytest.mark.parametrize("length", [1, 2, 7])
    def test_returns_the_boundary_row_it_wrote(self, gate, length):
        # the layers may overwrite the last site; the returned row is the
        # resample itself, read here from a second copy of the stream
        n, m = 3, 500
        k = _symbol_range(n, gate)
        states = np.ones((m, length), dtype=np.int8)
        mirror = _dynamics_source(17, 2, k)
        source = _dynamics_source(17, 2, k)
        for _ in range(5):
            u = mirror.draw(length, m)[-1]
            want = (u if gate is GateKind.PAIR_FLIP else u % n) + 1
            got = step_states(states, source, n, gate)
            assert got.dtype == states.dtype
            assert np.array_equal(got, want)
        if length == 1:
            assert np.array_equal(got, states[:, 0])

    def test_source_range_must_match_gate(self):
        states = np.ones((4, 3), dtype=np.int8)
        with pytest.raises(ValueError):
            step_states(states, _dynamics_source(0, 0, 3), 3, GateKind.TEMPERLEY_LIEB)
        step_states(states, _dynamics_source(0, 0, 9), 3, GateKind.TEMPERLEY_LIEB)
        assert set(np.unique(states)) <= {1, 2, 3}


class TestReduceStates:
    def test_matches_scalar_reduction(self):
        rng = np.random.default_rng(13)
        states = rng.integers(1, 4, size=(300, 11)).astype(np.int8)
        stack, sp = reduce_states(states)
        for k in range(states.shape[0]):
            irr = reduce_symbols(tuple(int(x) for x in states[k]))
            assert sp[k] == len(irr)
            assert tuple(int(x) for x in stack[k, : sp[k]]) == irr

    def test_cone_escape_mask(self):
        # (1,2,1,2) is already irreducible with prefix (1,); (1,2,2,1)
        # cancels down to the empty word, so it sits outside every cone
        inside = np.array([[1, 2, 1, 2], [1, 2, 2, 1]], dtype=np.int8)
        mask = cone_escape_mask(inside, 2)
        assert mask.tolist() == [False, True]


def _carried_cases():
    for gate, n, length in itertools.product(
        [GateKind.PAIR_FLIP, GateKind.TEMPERLEY_LIEB], [2, 3, 5], [1, 2, 3, 8, 9]
    ):
        yield gate, n, length, "shared"
        if length >= 2:  # no cone at L=1
            yield gate, n, length, "cone"


def _assert_same_words(carried, reduced):
    (stack, depth), (ref_stack, ref_depth) = carried, reduced
    assert np.array_equal(depth, ref_depth)
    inside = np.arange(stack.shape[1]) < depth[:, None]
    assert np.array_equal(stack[inside], ref_stack[inside])


class TestCarriedWord:
    """A slab carries each row's irreducible word through the boundary
    update; it must be the reduction of the states after every step."""

    @pytest.mark.parametrize("gate,n,length,start", list(_carried_cases()))
    def test_matches_reduction_after_every_step(self, gate, n, length, start):
        # the shared start 2,1,2,... is a full-depth word, so the first
        # push of the last site writes the slot above L
        seed = 100 + 10 * n + length
        cfg = SimConfig(n=n, length=length, t_max=60, gate=gate, seed=seed,
                        n_trajectories=90, blocks=3, observables=("depth",))
        if start == "shared":
            starts = _shared_starts(cfg)
        else:
            sizes = _block_sizes(cfg.n_trajectories, cfg.blocks)
            states = sample_cone_states(
                n, length, 2 + length % 2, sizes, _start_rngs(seed, cfg.blocks)
            )
            starts = np.split(states, np.cumsum(sizes)[:-1])
        slab = _Slab(cfg, range(cfg.blocks), starts, None)
        _assert_same_words(slab.word(), reduce_states(slab.states))
        for _ in range(cfg.t_max):
            slab.advance(1)
            _assert_same_words(slab.word(), reduce_states(slab.states))

    def test_only_word_observables_carry_it(self):
        base = dict(n=3, length=6, t_max=0, n_trajectories=10, blocks=2)
        for observables, carried in [
            (("charge:1", "match_site:2"), False),
            (("charge:1", "depth"), True),
            (("cone_escape:2",), True),
        ]:
            cfg = SimConfig(observables=observables, **base)
            slab = _Slab(cfg, range(2), _shared_starts(cfg), None)
            assert (slab._stack is not None) == carried


class TestCarriedCharge:
    """A slab carries every charge observable's staggered count through the
    steps; it must equal a recount of the states after every step."""

    @pytest.mark.parametrize("gate", [GateKind.PAIR_FLIP, GateKind.TEMPERLEY_LIEB])
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("length", [1, 2, 7, 24])
    def test_matches_recount_after_every_step(self, gate, n, length):
        cfg = SimConfig(n=n, length=length, t_max=60, gate=gate, seed=70 + n + length,
                        n_trajectories=90, blocks=3,
                        observables=tuple(f"charge:{a}" for a in range(1, n + 1)))
        # random starts, so that every symbol's charge starts away from zero
        rng = np.random.default_rng(length)
        starts = [rng.integers(1, n + 1, size=(30, length)).astype(np.int8)
                  for _ in range(cfg.blocks)]
        slab = _Slab(cfg, range(cfg.blocks), starts, None)
        assert sorted(slab._charges) == list(range(1, n + 1))
        for t in range(cfg.t_max + 1):
            if t:
                slab.advance(1)
            for a, q in slab._charges.items():
                assert q.dtype == np.int32
                assert np.array_equal(q, _staggered_count(slab.states, a)), (t, a)


class TestSectorSampler:
    def test_lands_in_sector(self):
        rng = np.random.default_rng(14)
        target = SectorId((1, 2, 1), 3)
        for _ in range(200):
            s = sample_sector_string(target, 7, rng)
            assert reduce_symbols(s) == (1, 2, 1)

    def test_root_sector(self):
        rng = np.random.default_rng(15)
        target = SectorId((), 2)
        for _ in range(200):
            s = sample_sector_string(target, 6, rng)
            assert reduce_symbols(s) == ()

    def test_uniform_over_members(self):
        # chi-square against the uniform law on all 47 members, drawn in
        # one batched walk
        dim = sector_dim(3, 6, 2)
        assert dim == 47
        rng = np.random.default_rng(16)
        draws = 47_000
        words = np.tile([1, 2], (draws, 1))
        arr = _conditioned_walk(3, 6, words, np.full(draws, 2), [rng], [draws])
        counts = Counter(map(tuple, arr.tolist()))
        assert len(counts) == dim
        observed = np.array(sorted(counts.values()), dtype=float)
        res = stats.chisquare(observed)
        assert res.pvalue > 1e-4

    def test_parity_mismatch_rejected(self):
        with pytest.raises(UsageError):
            sample_sector_string(SectorId((1, 2), 3), 5, np.random.default_rng(0))
        with pytest.raises(UsageError):
            sample_sector_string(SectorId((1, 2, 1), 3), 2, np.random.default_rng(0))


class TestConeSampler:
    def test_always_in_cone(self):
        arr = sample_cone_states(3, 7, 3, [500], [np.random.default_rng(17)])
        mask = cone_escape_mask(arr, 3)
        assert not mask.any()

    def test_depth_mix_matches_volume_weights(self):
        arr = sample_cone_states(3, 6, 2, [30_000], [np.random.default_rng(18)])
        _, sp = reduce_states(arr)
        weights = {
            d: Fraction(2 ** (d - 1) * sector_dim(3, 6, d)) for d in (2, 4, 6)
        }
        total = sum(weights.values())
        counts = Counter(sp.tolist())
        for d in (2, 4, 6):
            p = float(weights[d] / total)
            sigma = np.sqrt(30_000 * p * (1 - p))
            assert abs(counts[d] - 30_000 * p) <= 4.5 * sigma

    def test_volume_agrees_with_census(self):
        # every sampled state is in the cone and the cone has the frozen
        # volume 22 out of 81 states at n=3, length 4
        st = cone_stats(3, 4, 2)
        assert st.volume == 22
        arr = sample_cone_states(3, 4, 2, [20_000], [np.random.default_rng(19)])
        frac = (~cone_escape_mask(arr, 2)).mean()
        assert frac == 1.0

    def test_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(UsageError):
            sample_cone_states(3, 6, 3, [10], [rng])  # parity
        with pytest.raises(UsageError):
            sample_cone_states(3, 6, 0, [10], [rng])
        with pytest.raises(UsageError):
            sample_cone_states(1, 6, 2, [10], [rng])  # alphabet

    def test_deterministic(self):
        a = sample_cone_states(3, 8, 2, [50], [np.random.default_rng(21)])
        b = sample_cone_states(3, 8, 2, [50], [np.random.default_rng(21)])
        assert np.array_equal(a, b)

    def test_one_row_walk_is_sample_sector_string(self):
        target = SectorId((2, 3, 1), 3)
        words = np.array([target.irr])
        rng = np.random.default_rng(22)
        row = _conditioned_walk(3, 9, words, np.array([3]), [rng], [1])
        assert tuple(row[0].tolist()) == sample_sector_string(
            target, 9, np.random.default_rng(22)
        )

    def test_exact_law_over_the_cone(self):
        # every one of the 2006 states of the N=3, L=8, d=2 cone, against
        # the uniform law, drawn in four blocks of one batch
        st = cone_stats(3, 8, 2)
        assert st.volume == 2006
        every = all_states(3, 8)
        members = every[~cone_escape_mask(every, 2)]
        assert len(members) == 2006
        sizes = [50_000] * 4
        arr = sample_cone_states(3, 8, 2, sizes, _start_rngs(90, 4))
        code = arr.astype(np.int64) @ 3 ** np.arange(8)
        member_codes = members.astype(np.int64) @ 3 ** np.arange(8)
        assert np.isin(code, member_codes).all()
        cells = np.searchsorted(np.sort(member_codes), code)
        counts = np.bincount(cells, minlength=2006)
        res = stats.chisquare(counts)
        assert res.pvalue > 1e-4

    def test_block_invariance(self):
        # block b's rows do not depend on the other blocks, empty ones too
        sizes = [7, 0, 13, 5]
        rngs = _start_rngs(31, 4)
        batch = sample_cone_states(3, 10, 4, sizes, rngs)
        assert batch.shape == (25, 10)
        ends = np.cumsum(sizes)
        for b, (m, alone_rng) in enumerate(zip(sizes, _start_rngs(31, 4))):
            alone = sample_cone_states(3, 10, 4, [m], [alone_rng])
            assert np.array_equal(batch[ends[b] - m : ends[b]], alone)

    @pytest.mark.parametrize(
        "n, length, depth, anchor",
        [
            (2, 8, 2, None),
            (2, 9, 3, (2, 1)),
            (5, 7, 3, None),
            (3, 9, 3, None),
            (4, 8, 4, (3, 1, 4)),
        ],
    )
    def test_in_cone(self, n, length, depth, anchor):
        # ``anchor``, where given, is another anchor at the same depth:
        # its cone is disjoint from the canonical one
        arr = sample_cone_states(n, length, depth, [40, 60], _start_rngs(41, 2))
        stack, sp = reduce_states(arr)
        assert in_cone(stack, sp, _canonical_anchor(depth)).all()
        assert not cone_escape_mask(arr, depth).any()
        if anchor is not None:
            assert not in_cone(stack, sp, anchor).any()
        assert ((length - sp) % 2 == 0).all()

    def test_tl_escape_starts_in_cone(self):
        cfg = SimConfig(n=3, length=8, t_max=1, n_trajectories=400, seed=42,
                        blocks=4, gate=GateKind.TEMPERLEY_LIEB)
        res = cone_escape_probability(cfg, 2, [0, 1])
        assert res.probability[0] == 0.0

    def test_block_arguments_must_pair_up(self):
        rng = np.random.default_rng(0)
        with pytest.raises(UsageError):
            sample_cone_states(3, 6, 2, [10, 10], [rng])
        with pytest.raises(UsageError):
            sample_cone_states(3, 6, 2, [], [])
        with pytest.raises(UsageError):
            sample_cone_states(3, 6, 2, [-1], [rng])


class TestEnsemble:
    @pytest.mark.parametrize(
        "trajectories,blocks,sizes",
        [(10, 4, [3, 3, 2, 2]), (5, 5, [1] * 5), (5, 12, [1] * 5), (1, 3, [1])],
    )
    def test_block_sizes_stop_at_the_last_nonempty_block(
        self, trajectories, blocks, sizes
    ):
        assert _block_sizes(trajectories, blocks) == sizes

    def test_bitwise_deterministic(self):
        cfg = SimConfig(n=2, length=8, t_max=30, n_trajectories=900, seed=3, blocks=9)
        a = run_ensemble(cfg)
        b = run_ensemble(cfg)
        threaded = SimConfig(
            n=2, length=8, t_max=30, n_trajectories=900, seed=3, blocks=9, threads=4
        )
        c = run_ensemble(threaded)
        for name in a.means:
            assert np.array_equal(a.means[name], b.means[name])
            assert np.array_equal(a.means[name], c.means[name])
            assert np.array_equal(a.std_errors[name], c.std_errors[name])

    def test_thread_count_invariant_over_segments(self):
        # t_max spans four 64-step segments of the block loop
        base = dict(
            n=3, length=8, t_max=200, n_trajectories=700, seed=8, blocks=7,
            observables=("charge:1", "depth"),
        )
        a = run_ensemble(SimConfig(threads=1, **base))
        b = run_ensemble(SimConfig(threads=3, **base))
        assert len(a.times) == 201
        for name in a.means:
            assert np.array_equal(a.block_sums[name], b.block_sums[name])
            assert np.array_equal(a.means[name], b.means[name])
            assert np.array_equal(a.std_errors[name], b.std_errors[name])

    def test_small_ensembles_use_fewer_slabs_than_threads(self, monkeypatch):
        # eight threads on 900 trajectories of 8 sites: one slab, the same bits
        monkeypatch.setattr(montecarlo, "_MIN_SLAB_SITES", _MIN_SLAB_SITES)
        slabs = []

        class Counted(_Slab):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                slabs.append(self)

        base = dict(n=2, length=8, t_max=70, n_trajectories=900, seed=3, blocks=9)
        one = run_ensemble(SimConfig(threads=1, **base))
        monkeypatch.setattr(montecarlo, "_Slab", Counted)
        eight = run_ensemble(SimConfig(threads=8, **base))
        assert len(slabs) == 1
        for name in one.means:
            assert np.array_equal(one.block_sums[name], eight.block_sums[name])
            assert np.array_equal(one.std_errors[name], eight.std_errors[name])

    @pytest.mark.parametrize(
        "trajectories,length,threads,slabs",
        [
            (20_000, 30, 2, 2),  # the escape benchmark: two slabs of 10 000
            (4000, 16, 2, 1),  # the relaxation benchmark's size: one slab
            (4000, 16, 8, 1),
            (100_000, 30, 8, 8),
            (12, 1 << 16, 8, 3),  # three slabs of 2^18 sites, not eight
        ],
    )
    def test_slab_count(self, monkeypatch, trajectories, length, threads, slabs):
        monkeypatch.setattr(montecarlo, "_MIN_SLAB_SITES", _MIN_SLAB_SITES)
        made = []
        monkeypatch.setattr(
            montecarlo, "_Slab", lambda cfg, blocks, *rest: made.append(list(blocks))
        )
        monkeypatch.setattr(montecarlo, "_assemble_series", lambda cfg, slabs: None)
        cfg = SimConfig(n=3, length=length, t_max=0, n_trajectories=trajectories,
                        blocks=10, threads=threads)
        _run_blocks(cfg, [np.empty((m, 0)) for m in _block_sizes(trajectories, 10)])
        assert len(made) == slabs
        assert sum(made, []) == list(range(10))

    def test_seed_changes_output(self):
        base = dict(n=2, length=8, t_max=20, n_trajectories=400, blocks=4)
        a = run_ensemble(SimConfig(seed=1, **base))
        b = run_ensemble(SimConfig(seed=2, **base))
        assert not np.array_equal(a.means["charge:1"], b.means["charge:1"])

    def test_initial_charge_is_one(self):
        for n, length in [(2, 6), (3, 8), (4, 10)]:
            cfg = SimConfig(n=n, length=length, t_max=0, n_trajectories=32, blocks=2)
            series = run_ensemble(cfg)
            assert series.means["charge:1"][0] == 1.0
            assert series.std_errors["charge:1"][0] == 0.0

    def test_charge_decays_toward_zero(self):
        cfg = SimConfig(n=2, length=6, t_max=120, n_trajectories=2000, seed=23, blocks=20)
        series = run_ensemble(cfg)
        charge = series.means["charge:1"]
        assert charge[0] == 1.0
        assert abs(charge[-1]) < 0.1
        assert charge[5] < charge[1]

    def test_depth_stationary_under_uniform_start(self):
        # uniform product states are stationary for the doubly stochastic
        # chain, so the mean depth must sit at its exact census value for
        # every t; the value is sum(d * sectors(d) * dim(d)) / n^L
        n, length = 3, 16
        exact = float(
            sum(
                Fraction(
                    d * multiplicity(n, d) * sector_dim(n, length, d),
                    n**length,
                )
                for d in range(length + 1)
            )
        )
        cfg = SimConfig(
            n=n,
            length=length,
            t_max=30,
            n_trajectories=3000,
            seed=24,
            blocks=10,
            observables=("depth",),
        )
        rng = np.random.default_rng(99)
        sizes = _block_sizes(cfg.n_trajectories, cfg.blocks)
        starts = [
            rng.integers(1, n + 1, size=(m, length)).astype(np.int8)
            for m in sizes
        ]
        series = _run_blocks(cfg, starts)
        for mean, err in zip(series.means["depth"], series.std_errors["depth"]):
            assert abs(mean - exact) <= 4.0 * err

    def test_depth_drifts_to_equilibrium(self):
        # the fully irreducible start relaxes toward mean depth ~ L*(n-2)/n
        cfg = SimConfig(
            n=3,
            length=16,
            t_max=1500,
            n_trajectories=300,
            seed=24,
            blocks=6,
            observables=("depth",),
        )
        series = run_ensemble(cfg)
        depth = series.means["depth"]
        assert depth[0] == 16.0
        assert depth[300] < 9.0
        assert abs(depth[-1] - 6.573) < 0.6

    def test_match_site_observable(self):
        cfg = SimConfig(
            n=2,
            length=6,
            t_max=40,
            n_trajectories=800,
            seed=25,
            blocks=8,
            observables=("match_site:6", "match_site:1"),
        )
        series = run_ensemble(cfg)
        boundary = series.means["match_site:6"]
        assert boundary[0] == 1.0
        # the resampled boundary site forgets immediately; deep sites slower
        assert boundary[1] < series.means["match_site:1"][1]
        assert np.all(boundary >= 0) and np.all(boundary <= 1)

    def test_trajectory_count_and_times(self):
        cfg = SimConfig(n=2, length=4, t_max=7, n_trajectories=103, blocks=10)
        series = run_ensemble(cfg)
        assert series.n_trajectories == 103
        assert series.times.tolist() == list(range(8))


class TestEstimateTq:
    def test_basic_report(self):
        cfg = SimConfig(
            n=2, length=8, t_max=2000, n_trajectories=4000, seed=5, blocks=40
        )
        rep = estimate_tq(cfg)
        assert not rep.censored
        assert rep.t_q is not None and rep.t_q > 0
        assert rep.ci_low <= rep.t_q <= rep.ci_high
        assert rep.censored_draws == 0
        assert rep.n_resamples == 1000
        # mean at the crossing is really at or below gamma, and above just before
        charge = rep.series.means["charge:1"]
        assert charge[rep.t_q] <= cfg.gamma < charge[rep.t_q - 1]

    def test_early_stop_truncates_series(self):
        cfg = SimConfig(
            n=2, length=8, t_max=100_000, n_trajectories=1000, seed=5, blocks=10
        )
        rep = estimate_tq(cfg)
        assert len(rep.series.times) < 1000

    def test_censored_when_horizon_too_short(self):
        cfg = SimConfig(n=2, length=8, t_max=4, n_trajectories=200, seed=5, blocks=4)
        rep = estimate_tq(cfg)
        assert rep.censored and rep.t_q is None
        assert rep.ci_low is None and rep.ci_high is None

    def test_adds_charge_observable_if_missing(self):
        cfg = SimConfig(
            n=2,
            length=6,
            t_max=500,
            n_trajectories=500,
            seed=26,
            blocks=5,
            observables=("depth",),
        )
        rep = estimate_tq(cfg)
        assert "charge:1" in rep.series.means
        assert "depth" in rep.series.means

    def test_per_trajectory_times(self):
        cfg = SimConfig(n=2, length=6, t_max=400, n_trajectories=300, seed=6, blocks=6)
        rep = estimate_tq(cfg, per_trajectory=True)
        pt = rep.per_trajectory_times
        assert pt is not None and pt.shape == (300,)
        crossed = pt[pt >= 0]
        assert crossed.size > 0
        assert (crossed >= 1).all()
        # ensemble estimate lives inside the per-trajectory spread
        assert crossed.min() <= rep.t_q <= np.percentile(crossed, 99.9)

    @pytest.mark.parametrize("n_resamples", [0, -3])
    def test_rejects_no_resamples(self, n_resamples):
        cfg = SimConfig(n=2, length=6, t_max=50, n_trajectories=40, blocks=2)
        with pytest.raises(UsageError):
            estimate_tq(cfg, n_resamples=n_resamples)

    def test_deterministic(self):
        cfg = SimConfig(n=2, length=6, t_max=600, n_trajectories=600, seed=27, blocks=6)
        a = estimate_tq(cfg)
        b = estimate_tq(cfg)
        assert a.t_q == b.t_q and a.ci_low == b.ci_low and a.ci_high == b.ci_high

    def test_thread_count_invariant_over_segments(self):
        base = dict(
            n=2, length=12, t_max=2000, n_trajectories=1200, seed=9, blocks=12,
            gamma=0.05,
        )
        a = estimate_tq(SimConfig(threads=1, **base), n_resamples=450)
        b = estimate_tq(SimConfig(threads=3, **base), n_resamples=450)
        # the early stop came after several 64-step segments
        assert len(a.series.times) > 3 * 64
        assert not a.censored
        assert (a.t_q, a.ci_low, a.ci_high, a.censored_draws) == (
            b.t_q, b.ci_low, b.ci_high, b.censored_draws
        )
        assert np.array_equal(a.series.times, b.series.times)
        assert np.array_equal(
            a.series.block_sums["charge:1"], b.series.block_sums["charge:1"]
        )


class _SlabBuilt(Exception):
    """Raised in place of building a slab: the run got past its caps."""


def _no_slab(*args, **kwargs):
    raise _SlabBuilt


class TestRecordCap:
    """Block-sum tables are reserved for every planned time, so their size
    is known, and checked, before any slab is built."""

    @pytest.mark.parametrize("observables", [("charge:1",), ("charge:1", "depth")])
    def test_cap_is_checked_before_any_slab(self, monkeypatch, observables):
        monkeypatch.setattr(montecarlo, "_Slab", _no_slab)
        # 16 B x 1024 blocks x 2^18 times is the 4 GiB cap exactly
        times = (1 << 18) // len(observables)
        starts = [np.ones((1, 4), np.int8)] * 1024

        def run(t_max):
            cfg = SimConfig(n=3, length=4, t_max=t_max, n_trajectories=1024,
                            blocks=1024, observables=observables)
            _run_blocks(cfg, starts)

        with pytest.raises(_SlabBuilt):
            run(times - 1)
        with pytest.raises(ResourceCapError, match="above the cap of 4 GiB"):
            run(times)

    def test_sampled_times_count_alone(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_Slab", _no_slab)
        cfg = SimConfig(n=3, length=4, t_max=1 << 30, n_trajectories=1024,
                        blocks=1024)
        starts = [np.ones((1, 4), np.int8)] * 1024
        # t = 0 and 2^18 - 1 sampled times fill the cap; a duplicate adds none
        with pytest.raises(_SlabBuilt):
            _run_blocks(cfg, starts, times=[1, *range(1, 1 << 18)])
        with pytest.raises(ResourceCapError):
            _run_blocks(cfg, starts, times=range(1, (1 << 18) + 1))

    def test_long_runs_of_few_blocks_pass(self, monkeypatch):
        # t_Q at N=3, L=64 needs t_max near 1.33 M in 50 blocks: about 1 GB
        # reserved, little of it touched before the early stop
        monkeypatch.setattr(montecarlo, "_Slab", _no_slab)
        cfg = SimConfig(n=3, length=64, t_max=1_330_000, n_trajectories=4000,
                        blocks=50, gamma=0.01)
        with pytest.raises(_SlabBuilt):
            estimate_tq(cfg)

    def test_many_blocks_over_a_long_window_fail_at_once(self, monkeypatch):
        # 500 000 blocks at t_max = 10 000 pass the block cap but would
        # record about 80 GB of block sums
        monkeypatch.setattr(montecarlo, "_Slab", _no_slab)
        cfg = SimConfig(n=3, length=4, t_max=10_000, n_trajectories=500_000,
                        blocks=500_000)
        with pytest.raises(ResourceCapError, match="74.5 GiB"):
            _run_blocks(cfg, [np.ones((1, 4), np.int8)] * 500_000)


class TestRecordMemory:
    def test_traced_peak_is_a_few_tables(self):
        # per-trajectory times keep the whole window. The slab holds two
        # (times, blocks) tables, the series copies them once each, and the
        # bootstrap takes one resample at a time; per-time lists of block
        # sums and (resamples, times) arrays peaked above 11 such tables
        cfg = SimConfig(n=2, length=4, t_max=3000, n_trajectories=50, blocks=50,
                        seed=3)
        table = cfg.blocks * (cfg.t_max + 1) * 8
        tracemalloc.start()
        try:
            rep = estimate_tq(cfg, n_resamples=200, per_trajectory=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not rep.censored and len(rep.series.times) == cfg.t_max + 1
        assert peak < 8 * table


class TestConeEscape:
    def test_zero_at_time_zero_and_flow_bound(self):
        cfg = SimConfig(n=3, length=8, t_max=1, n_trajectories=8000, seed=7, blocks=20)
        res = cone_escape_probability(cfg, 2, [0, 1, 3])
        assert isinstance(res, ConeEscapeResult)
        assert res.times.tolist() == [0, 1, 3]
        assert res.probability[0] == 0.0
        assert res.flow == pytest.approx(
            float(cone_stats(3, 8, 2).boundary_flow)
        )
        # escape accumulates
        assert res.probability[2] > res.probability[1] > 0

    def test_first_step_escape_estimates_flow(self):
        # uniform start in the cone makes the t=1 escape an unbiased
        # estimate of the boundary flow
        cfg = SimConfig(n=3, length=6, t_max=1, n_trajectories=20_000, seed=28, blocks=20)
        res = cone_escape_probability(cfg, 2, [0, 1])
        flow = float(cone_stats(3, 6, 2).boundary_flow)
        assert abs(res.probability[1] - flow) <= 4 * max(res.std_error[1], 1e-12)

    def test_deep_cone_escapes_quickly(self):
        cfg = SimConfig(n=3, length=6, t_max=1, n_trajectories=2000, seed=29, blocks=10)
        res = cone_escape_probability(cfg, 6, [0, 2, 6])
        assert res.probability[-1] > 0.3

    def test_bad_arguments(self):
        cfg = SimConfig(n=3, length=6, t_max=1, n_trajectories=100, blocks=2)
        with pytest.raises(UsageError):
            cone_escape_probability(cfg, 3, [0, 1])  # parity
        with pytest.raises(UsageError):
            cone_escape_probability(cfg, 2, [])
        with pytest.raises(UsageError):
            cone_escape_probability(cfg, 2, [-1, 2])

    def test_deterministic(self):
        cfg = SimConfig(n=3, length=6, t_max=1, n_trajectories=1000, seed=30, blocks=5)
        a = cone_escape_probability(cfg, 2, [0, 2])
        b = cone_escape_probability(cfg, 2, [0, 2])
        assert np.array_equal(a.probability, b.probability)

    @pytest.mark.parametrize("times", [[7], [0, 7], [3, 5, 20], [1]])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_sampled_times_are_the_full_record(self, times, threads):
        # recording only the sampled times gives the bits of a run that
        # records every step; t = 0 is always recorded
        cfg = SimConfig(n=3, length=8, t_max=max(times), n_trajectories=300,
                        seed=31, blocks=7, threads=threads,
                        observables=("cone_escape:2", "depth", "charge:1"))
        sizes = _block_sizes(cfg.n_trajectories, cfg.blocks)
        states = sample_cone_states(3, 8, 2, sizes, _start_rngs(31, cfg.blocks))
        starts = np.split(states, np.cumsum(sizes)[:-1])
        full = _run_blocks(cfg, starts)
        some = _run_blocks(cfg, starts, times=times)
        at = sorted({0, *times})
        assert some.times.dtype == np.int64 and some.times.tolist() == at
        for obs in cfg.observables:
            assert np.array_equal(some.block_sums[obs], full.block_sums[obs][:, at])
            assert np.array_equal(some.means[obs], full.means[obs][at])
            assert np.array_equal(some.std_errors[obs], full.std_errors[obs][at])
        res = cone_escape_probability(cfg, 2, times)
        assert res.times.tolist() == sorted(times)
        assert np.array_equal(res.probability, full.means["cone_escape:2"][sorted(times)])


def _reference_run(cfg, starts, *, stop_threshold=None, per_trajectory=False):
    """Each block stepped alone on its own stream, summed with ``vals.sum()``.

    One generator call per block and draw, one sum per block and time;
    the stop rule and first passages follow ``estimate_tq``.
    """
    length = cfg.length
    signs = np.where(np.arange(length) % 2 == 0, -1, 1)

    def values(obs, s, init):
        head, _, tail = obs.partition(":")
        if head == "charge":
            return 2.0 * ((s == int(tail)) * signs).sum(axis=1) / length
        if head == "depth":
            return reduce_states(s)[1].astype(np.float64)
        if head == "match_site":
            i = int(tail) - 1
            return (s[:, i] == init[:, i]).astype(np.float64)
        d = int(tail)
        return (~in_cone(*reduce_states(s), _canonical_anchor(d))).astype(np.float64)

    blocks = [(b, s.copy(), s.copy()) for b, s in enumerate(starts) if len(s)]
    k = _symbol_range(cfg.n, cfg.gate)
    rngs = [_dynamics_source(cfg.seed, b, k) for b, _, _ in blocks]
    sums = {o: [[] for _ in blocks] for o in cfg.observables}
    sq = {o: [[] for _ in blocks] for o in cfg.observables}
    firsts = [np.full(len(s), -1, dtype=np.int64) for _, s, _ in blocks]

    def record(k, t):
        _, s, init = blocks[k]
        for obs in cfg.observables:
            vals = values(obs, s, init)
            sums[obs][k].append(float(vals.sum()))
            sq[obs][k].append(float((vals * vals).sum()))
            if per_trajectory and obs == "charge:1" and t:
                firsts[k][(firsts[k] < 0) & (vals <= cfg.gamma)] = t

    for k in range(len(blocks)):
        record(k, 0)
    done = 0
    while done < cfg.t_max:
        chunk = min(64, cfg.t_max - done)
        for k, (_, s, _) in enumerate(blocks):
            for t in range(done + 1, done + chunk + 1):
                step_states(s, rngs[k], cfg.n, cfg.gate)
                record(k, t)
        done += chunk
        if stop_threshold is not None:
            mean = np.array(sums["charge:1"]).sum(axis=0) / cfg.n_trajectories
            if mean.min() <= stop_threshold:
                break
    total = sum(len(s) for _, s, _ in blocks)
    out = {}
    for obs in cfg.observables:
        bs = np.array(sums[obs])
        mean = bs.sum(axis=0) / total
        var = np.maximum(np.array(sq[obs]).sum(axis=0) / total - mean**2, 0.0)
        err = np.sqrt(var * total / (total - 1) / total)
        out[obs] = (bs, mean, err)
    return out, np.concatenate(firsts)


def _assert_matches_reference(series, ref):
    assert set(series.means) == set(ref)
    for obs, (bs, mean, err) in ref.items():
        assert np.array_equal(series.block_sums[obs], bs), obs
        assert np.array_equal(series.means[obs], mean), obs
        assert np.array_equal(series.std_errors[obs], err), obs


class TestBlockLoopMatchesReference:
    """Slabs of blocks give the bits of blocks stepped one at a time."""

    @pytest.mark.parametrize("gate", [GateKind.PAIR_FLIP, GateKind.TEMPERLEY_LIEB])
    @pytest.mark.parametrize("length", [1, 2, 7, 24])
    @pytest.mark.parametrize(
        "trajectories,blocks", [(61, 7), (5, 9)]  # unequal; more blocks
    )
    def test_every_observable_any_thread_count(
        self, gate, length, trajectories, blocks
    ):
        # at L=24, 2/L is inexact, so a change in summation order shows
        observables = ("charge:1", "charge:3", "depth", f"match_site:{length}")
        self._check_any_thread_count(
            dict(n=3, length=length, gate=gate, seed=length + 40,
                 n_trajectories=trajectories, blocks=blocks),
            observables,
        )

    @pytest.mark.parametrize("gate", [GateKind.PAIR_FLIP, GateKind.TEMPERLEY_LIEB])
    @pytest.mark.parametrize("length", [1, 2, 7, 24])
    @pytest.mark.parametrize("n", [2, 5])
    def test_word_observables_other_alphabets(self, n, gate, length):
        # the carried word against the reference's full reduction at every step
        self._check_any_thread_count(
            dict(n=n, length=length, gate=gate, seed=length + 50 + n,
                 n_trajectories=61, blocks=7),
            ("depth",),
        )

    @staticmethod
    def _check_any_thread_count(base, observables):
        """Random starts, 70 steps, every thread count against the reference;
        ``cone_escape`` joins the observables wherever a cone fits."""
        n, length = base["n"], base["length"]
        if length >= 2:
            observables += (f"cone_escape:{2 + length % 2}",)
        base = dict(base, t_max=70, observables=observables)
        starts = [
            np.random.default_rng(b).integers(1, n + 1, size=(m, length)).astype(np.int8)
            for b, m in enumerate(_block_sizes(base["n_trajectories"], base["blocks"]))
        ]
        ref, _ = _reference_run(SimConfig(**base), starts)
        for threads in (1, 2, 3):
            series = _run_blocks(SimConfig(threads=threads, **base), starts)
            assert series.times.tolist() == list(range(71))
            _assert_matches_reference(series, ref)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_early_stopped_estimate(self, threads):
        base = dict(n=2, length=12, t_max=5000, n_trajectories=300, blocks=7,
                    seed=31, gamma=0.05, observables=("charge:1", "depth"))
        ref, _ = _reference_run(
            SimConfig(**base), _shared_starts(SimConfig(**base)),
            stop_threshold=0.025,
        )
        rep = estimate_tq(SimConfig(threads=threads, **base), n_resamples=50)
        # the stop came after several segments, well before t_max
        assert 3 * 64 < len(rep.series.times) < 5000
        _assert_matches_reference(rep.series, ref)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_per_trajectory_first_passages(self, threads):
        base = dict(n=2, length=10, t_max=100, n_trajectories=307, blocks=6,
                    seed=6)
        ref, firsts = _reference_run(
            SimConfig(**base), _shared_starts(SimConfig(**base)),
            per_trajectory=True,
        )
        rep = estimate_tq(
            SimConfig(threads=threads, **base), n_resamples=50,
            per_trajectory=True,
        )
        assert len(rep.series.times) == 101
        _assert_matches_reference(rep.series, ref)
        assert rep.per_trajectory_times.dtype == np.int64
        assert np.array_equal(rep.per_trajectory_times, firsts)
        assert (firsts >= 1).any() and (firsts == -1).any()
