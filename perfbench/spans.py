"""Spans around the package's public functions, for the traced run.

A function is wrapped where its caller looks it up (``pairflip.cli``
binds ``build_lumped`` at import, so the span goes on
``pairflip.cli.build_lumped``; ``_Block.advance`` finds ``step_states``
in ``pairflip.montecarlo``). Spans stay in memory and are written out
when the run ends. A span's parent is the innermost open span of its
thread; a worker thread with none open hangs its spans on the innermost
span open on the main thread, which is the call that started the pool.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, NamedTuple

import pairflip.chains
import pairflip.cli
import pairflip.montecarlo
import pairflip.spectra


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    info: Any  # what the wrapper's ``info`` function read from the call


def _dimension(args, kwargs, result) -> int:
    return result.dimension


def _gap_method(args, kwargs, result) -> tuple[str, int]:
    return result.method, result.iterations


def _trajectories(args, kwargs, result) -> int:
    return args[0].shape[0]


# (module, attribute, span name, info from (args, kwargs, result))
WRAPPED: list[tuple[Any, str, str, Callable | None]] = [
    (pairflip.cli, "main", "cli.op", None),
    (pairflip.cli, "write_artifact", "io.write_artifact", None),
    (pairflip.cli, "build_lumped", "chains.build_lumped", _dimension),
    (pairflip.cli, "build_full_local", "chains.build_full_local", None),
    (pairflip.cli, "build_full_nonlocal", "chains.build_full_nonlocal", None),
    (pairflip.chains, "enumerate_sectors", "walks.enumerate_sectors", None),
    (pairflip.cli, "spectral_gap", "spectra.spectral_gap", _gap_method),
    (pairflip.cli, "cheeger_check", "spectra.cheeger_check", None),
    (pairflip.spectra, "subset_expansion", "spectra.subset_expansion", None),
    (pairflip.spectra, "cone_subset", "spectra.cone_subset", None),
    (pairflip.cli, "estimate_tq", "montecarlo.estimate_tq", None),
    (pairflip.cli, "cone_escape_probability", "montecarlo.cone_escape_probability", None),
    (pairflip.montecarlo, "sample_cone_states", "montecarlo.sample_cone_states", None),
    (pairflip.montecarlo, "step_states", "montecarlo.step_states", _trajectories),
    (pairflip.montecarlo, "reduce_states", "montecarlo.reduce_states", None),
]


class Tracer:
    """Installs span-recording wrappers; ``close`` puts the originals back."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._originals: list[tuple[Any, str, Any]] = []
        for module, attr, name, info in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info))

    def close(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn: Callable, name: str, info: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append(Span(  # list.append is atomic under the GIL
                span_id, parent, name, start, end, threading.get_ident(),
                None if info is None else info(args, kwargs, result)))
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": Span._fields, "spans": self.spans}, handle)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, [])]
        out[s.id] = (s.end - s.start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer totals of the traced rounds, as a mean per round."""
    own = self_times(spans)
    total: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        total[key] = total.get(key, 0.0) + value

    for s in spans:
        name, dur = s.name, s.end - s.start
        if name == "spectra.spectral_gap":
            method, iterations = s.info
            add(f"spectra.gap_{method}_s", dur)
            if method == "iterative":
                add("spectra.gap_matvecs", iterations)
        elif name in ("chains.build_lumped", "spectra.cheeger_check"):
            add(name + "_s", own[s.id])
            if name == "chains.build_lumped":
                add("chains.sectors_built", s.info)
        elif name == "montecarlo.estimate_tq":
            add("montecarlo.estimate_tq_self_s", own[s.id])
        elif name == "montecarlo.cone_escape_probability":
            add("montecarlo.cone_escape_self_s", own[s.id])
        else:
            add(name + "_s", dur)
            if name == "montecarlo.step_states":
                add("montecarlo.traj_steps", s.info)
    return {k: v / rounds for k, v in total.items()}

