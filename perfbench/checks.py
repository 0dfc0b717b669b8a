"""Output checks for the workloads' artifacts.

Every check compares an artifact against a computation made here, apart
from the program's own path (transition matrices built from the chain's
definition, solved with scipy/numpy directly), or against a property the
method guarantees. None compares against stored output. Each check
returns a list of problems; an empty list means the artifact passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg

RHO3 = 2 * math.sqrt(2) / 3  # tree-walk spectral radius at N=3


# ---------------------------------------------------------------------------
# references built from the chain's definition


def all_strings(n: int, length: int) -> np.ndarray:
    """Every string over 1..n, site 1 most significant, as (n**length, length)."""
    idx = np.arange(n**length)
    digits = [(idx // n ** (length - 1 - i)) % n + 1 for i in range(length)]
    return np.stack(digits, axis=1).astype(np.int64)


def _push(code: np.ndarray, sym: np.ndarray, n: int) -> np.ndarray:
    # irreducible string as base-(n+1) digits, 0 = empty; equal top cancels
    top = code % (n + 1)
    return np.where(top == sym, code // (n + 1), code * (n + 1) + sym)


def _reduce_codes(strings: np.ndarray, n: int) -> np.ndarray:
    code = np.zeros(strings.shape[0], dtype=np.int64)
    for c in range(strings.shape[1]):
        code = _push(code, strings[:, c], n)
    return code


def lumped_reference(n: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Sector chain (T, pi) counted from the nonlocal chain's definition.

    T[s, s'] is the chance that a uniform member of sector s, after one
    uniform redraw of its last site, lies in sector s'.
    """
    strings = all_strings(n, length)
    src = _reduce_codes(strings, n)
    prefix = _reduce_codes(strings[:, :-1], n)
    labels, s_idx, sizes = np.unique(src, return_inverse=True, return_counts=True)
    dim = labels.size
    counts = np.zeros(dim * dim)
    for b in range(1, n + 1):
        dst = np.searchsorted(labels, _push(prefix, np.full_like(prefix, b), n))
        counts += np.bincount(s_idx * dim + dst, minlength=dim * dim)
    mat = counts.reshape(dim, dim) / (n * sizes[:, None])
    return mat, sizes / sizes.sum()


def lumped_gap_reference(n: int, length: int) -> float:
    """1 - |lambda_2| of the sector chain, by eigvalsh of D^1/2 T D^-1/2."""
    mat, pi = lumped_reference(n, length)
    root = np.sqrt(pi)
    sym = root[:, None] * mat / root[None, :]
    asym = np.abs(sym - sym.T).max()
    if asym > 1e-12:
        raise AssertionError(f"sector chain is not reversible ({asym:.2e})")
    mods = np.sort(np.abs(scipy.linalg.eigvalsh(0.5 * (sym + sym.T))))
    return float(1.0 - mods[-2])


def pair_flip_gate(n: int) -> np.ndarray:
    """Two-site gate on pair index (a-1)*n + (b-1): an equal pair is
    redrawn as a uniform equal pair, an unequal pair stays."""
    gate = np.eye(n * n)
    for a in range(n):
        row = a * n + a
        gate[row, row] = 0.0
        for b in range(n):
            gate[row, b * n + b] = 1.0 / n
    return gate


def _layer(n: int, length: int, first: int) -> np.ndarray:
    # gates on 0-based site pairs (first, first+1), (first+2, first+3), ...
    factors = []
    i = 0
    while i < length:
        if i >= first and (i - first) % 2 == 0 and i + 1 < length:
            factors.append(pair_flip_gate(n))
            i += 2
        else:
            factors.append(np.eye(n))
            i += 1
    out = np.ones((1, 1))
    for f in factors:
        out = np.kron(out, f)
    return out


def local_reference(n: int, length: int) -> np.ndarray:
    """Full local pair-flip chain: redraw the last site, then the layer on
    sites (2,3), (4,5), ..., then the layer on (1,2), (3,4), ..."""
    bath = np.kron(np.eye(n ** (length - 1)), np.full((n, n), 1.0 / n))
    return bath @ _layer(n, length, 1) @ _layer(n, length, 0)


def local_gap_reference(n: int, length: int) -> float:
    mods = np.sort(np.abs(np.linalg.eigvals(local_reference(n, length))))
    return float(1.0 - mods[-2])


def exact_mean_charge(n: int, length: int, t_max: int) -> np.ndarray:
    """Mean of 2 Q_1 / L from the 2,1,2,1,... start, by evolving the
    distribution under the full local chain; entry t is time t."""
    mat = local_reference(n, length)
    strings = all_strings(n, length)
    signs = np.where(np.arange(length) % 2 == 0, -1.0, 1.0)
    charge = 2.0 * ((strings == 1) * signs).sum(axis=1) / length
    start = np.array([1 if i % 2 else 2 for i in range(length)])
    index = int(((start - 1) * n ** np.arange(length - 1, -1, -1)).sum())
    dist = np.zeros(n**length)
    dist[index] = 1.0
    out = [dist @ charge]
    for _ in range(t_max):
        dist = dist @ mat
        out.append(dist @ charge)
    return np.array(out)


# ---------------------------------------------------------------------------
# gap-sweep


def check_n2_gap(payload: Mapping, window: tuple[float, float]) -> list[str]:
    """Two-symbol lumped gap: exactly 1/L, inside the certified window."""
    length, gap = payload["length"], payload["gap"]
    problems = []
    if abs(gap - 1.0 / length) > 1e-12:
        problems.append(f"N=2 L={length}: gap {gap!r} is not 1/L")
    lo, hi = window
    if not lo <= gap <= hi:
        problems.append(f"N=2 L={length}: gap {gap!r} outside window [{lo}, {hi}]")
    return problems


def check_gap_matches(payload: Mapping, reference: float, tol: float) -> list[str]:
    gap = payload["gap"]
    if abs(gap - reference) > tol:
        return [
            f"{payload['chain']} N={payload['n']} L={payload['length']}: "
            f"gap {gap!r} differs from reference {reference!r} by more than {tol}"
        ]
    return []


def check_n3_lumped_family(
    gaps: Mapping[int, float],
    cone_flows: Mapping[int, Sequence[Fraction]],
    frozen_bounds: Mapping[int, float],
) -> list[str]:
    """N=3 lumped gaps against the cone bound, the frozen-sector bound at
    even L, monotone decrease in L and C5's rho^L L^-3/2 shape."""
    problems = []
    for length, gap in gaps.items():
        phi = float(min(cone_flows[length]))
        if gap > 2 * phi:
            problems.append(f"N=3 L={length}: gap {gap!r} above 2*Phi(cone) = {2 * phi!r}")
        if length in frozen_bounds and gap > frozen_bounds[length]:
            problems.append(
                f"N=3 L={length}: gap {gap!r} above the frozen-sector bound "
                f"{frozen_bounds[length]!r}"
            )
    ordered = sorted(gaps)
    for a, b in zip(ordered, ordered[1:]):
        if not gaps[b] < gaps[a]:
            problems.append(f"N=3 gap does not decrease from L={a} to L={b}")
    consts = [gaps[length] / (RHO3**length * length**-1.5) for length in ordered]
    if consts and max(consts) / min(consts) >= 2.0:
        problems.append(f"N=3 shape spread {max(consts) / min(consts):.3f} not below 2")
    return problems


# ---------------------------------------------------------------------------
# relax-pf


def check_relax(payload: Mapping) -> list[str]:
    """First-passage report: uncensored, t_q inside its interval and equal
    to the first time the reported mean reaches gamma; mean charge 1 at t=0."""
    fp = payload["first_passage"]
    means = payload["means"]["charge:1"]
    problems = []
    if fp["censored"] or fp["t_q"] is None:
        return ["relax: first passage is censored"]
    if not fp["ci_low"] <= fp["t_q"] <= fp["ci_high"]:
        problems.append(
            f"relax: t_q {fp['t_q']} outside [{fp['ci_low']}, {fp['ci_high']}]"
        )
    first = next((t for t, m in enumerate(means) if m <= fp["gamma"]), None)
    if first != fp["t_q"]:
        problems.append(f"relax: t_q {fp['t_q']} but the mean first reaches gamma at {first}")
    if means[0] != 1.0:
        problems.append(f"relax: mean charge at t=0 is {means[0]!r}, not 1")
    return problems


def check_relax_exact(payload: Mapping, exact: np.ndarray, sigmas: float = 5.0) -> list[str]:
    """Simulated mean charge within ``sigmas`` standard errors of the exact
    mean at every time."""
    means = np.asarray(payload["means"]["charge:1"])
    errs = np.asarray(payload["std_errors"]["charge:1"])
    if means.shape != exact.shape:
        return [f"relax exact: {means.size} times, expected {exact.size}"]
    off = np.abs(means - exact) > sigmas * errs + 1e-12
    if off.any():
        t = int(np.argmax(off))
        return [
            f"relax exact: mean {means[t]!r} at t={t} is more than {sigmas} "
            f"standard errors ({errs[t]!r}) from the exact {exact[t]!r}"
        ]
    return []


# ---------------------------------------------------------------------------
# escape-tl


def check_escape(payload: Mapping, flow: float) -> list[str]:
    """Escape from a uniform in-cone start: none at t=0, Phi after the one
    bath kick of t=1, never above t*Phi by more than 4 sigma."""
    times = payload["times"]
    prob = payload["probability"]
    err = payload["std_error"]
    problems = []
    if abs(payload["flow"] - flow) > 1e-15:
        problems.append(f"escape: flow {payload['flow']!r}, cone_stats gives {flow!r}")
    for t, p, e in zip(times, prob, err):
        if t == 0 and p != 0.0:
            problems.append(f"escape: p(0) = {p!r}, not 0")
        if t == 1 and abs(p - flow) > 4 * e:
            problems.append(f"escape: p(1) = {p!r} not within 4 sigma ({e!r}) of Phi {flow!r}")
        if p > t * flow + 4 * e:
            problems.append(f"escape: p({t}) = {p!r} above t*Phi + 4 sigma")
    if 1 not in times:
        problems.append("escape: t=1 was not sampled")
    return problems
