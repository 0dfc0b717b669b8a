"""Closed-form bounds on gaps, relaxation times, and entropy growth.

Every evaluator returns a :class:`BoundValue` carrying the number, a
validity flag for the parameter window the derivation needs, and the
intermediate constants in ``meta``. Values outside the window are still
computed (the formula extends), but ``valid`` is False and downstream
consumers must not certify anything with them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from .census import _k0_log_asymptotic, cone_stats, drift_velocity, sector_dim
from .errors import NumericError, UsageError
from .walks import check_alphabet, check_size


@dataclass(frozen=True)
class BoundValue:
    """A bound evaluation: the number, its window flag, and workings."""

    value: float
    valid: bool
    meta: Mapping[str, Any] = field(default_factory=dict)


mean_depth_fraction = drift_velocity

_LOG_MAX = math.log(sys.float_info.max)


def _scaled_exp(prefactor: float, exponent: float) -> tuple[float, float]:
    """``prefactor * e**exponent`` for a positive prefactor, and its log.

    The value is ``inf`` once it passes the largest double; the log,
    which the bounds report in ``meta["log_value"]``, stays finite.
    """
    log_value = math.log(prefactor) + exponent
    try:
        return prefactor * math.exp(exponent), log_value
    except OverflowError:  # e**exponent alone passes the largest double
        return (math.exp(log_value) if log_value < _LOG_MAX else math.inf), log_value


def _exact_value(exact: Fraction, meta: dict[str, Any]) -> float:
    """The float of a positive exact value. Past the largest double it is
    ``inf``, below the normal range it rounds toward 0, and ``meta`` then
    gains its natural log, ``log_value``."""
    try:
        value = float(exact)
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        meta["log_value"] = math.log(exact.numerator) - math.log(exact.denominator)
    return value


def _profile_constant(n: int, x: float) -> float:
    """Gaussian envelope prefactor F at depth fraction x = d/L."""
    v = float(mean_depth_fraction(n))
    return 4 * (n - 1) / (math.sqrt(2 * math.pi) * n**2) * math.exp(
        (x - v) * (1 - v)
    )


# ---------------------------------------------------------------------------
# gap bounds


def thm1_gap_upper(n: int, length: int) -> BoundValue:
    """Upper bound on the nonlocal gap: the frozen-state fraction.

    Exactly ``|K_0| / n^L``; the meta carries the exact fraction and,
    for n >= 3, the fitted large-L asymptotic of the same ratio. Odd
    lengths have no frozen sectors, so the bound does not apply there.
    Below the normal float range (N=10^6, L=120) the meta also carries
    the natural logs, ``log_value`` and ``asymptotic_log``.
    """
    check_size(n, length)
    if length % 2:
        raise UsageError("frozen sectors need an even length")
    exact = Fraction(sector_dim(n, length, 0), n**length)
    meta: dict[str, Any] = {"exact": exact, "asymptotic": None}
    value = _exact_value(exact, meta)
    if n >= 3:
        # in logs: K_0 and n**L pass the largest double long before their
        # ratio underflows
        log_asym = _k0_log_asymptotic(n, length) - length * math.log(n)
        meta["asymptotic"] = math.exp(log_asym)
        if meta["asymptotic"] < sys.float_info.min:
            meta["asymptotic_log"] = log_asym
    return BoundValue(value=value, valid=True, meta=meta)


def n2_gap_window(length: int) -> tuple[float, float]:
    """Two-symbol nonlocal gap window (1/(pi L), sqrt(8/(pi L))).

    The window is the Cheeger pair ``(h^2 / 2, 2 h)`` at the large-L
    expansion ``h = sqrt(2 / (pi L))`` of ``census.n2_min_expansion``,
    which counts boundary states per state of the cut: twice the flow
    expansion Phi of ``spectra.cut_expansions`` and
    ``spectra.cheeger_check``.
    """
    check_size(2, length)
    return 1.0 / (math.pi * length), math.sqrt(8.0 / (math.pi * length))


# ---------------------------------------------------------------------------
# relaxation-time lower bounds


def thm3_charge_time_lower(n: int, length: int, gamma: float) -> BoundValue:
    """Lower bound on the time for the mean charge to reach gamma.

    At gamma = 0 this is exactly ``1 / Phi(C_2)`` (even lengths only,
    since depth-2 sectors need even L). For gamma > 0 the bound is

        gamma * D_{eta/2} * sqrt(L) * exp(L (2 gamma - v)^2 / 2)

    with eta = 2 gamma, valid on 0 < gamma < v/2. Outside the window
    the value is still evaluated but flagged invalid; the weaker
    comparison constant D_gamma is reported in the meta, and so is the
    natural log of the value, ``log_value``, which stays finite where
    the value passes the largest double and becomes ``inf``.
    """
    check_size(n, length)
    if gamma < 0 or gamma >= 1:
        raise UsageError(f"gamma must lie in [0, 1), got {gamma}")
    v = float(mean_depth_fraction(n))
    if gamma == 0:
        if length % 2:
            raise UsageError("the depth-2 cone needs an even length")
        flow = cone_stats(n, length, 2).boundary_flow
        exact = 1 / flow
        meta: dict[str, Any] = {"exact": exact, "flow": flow}
        return BoundValue(value=_exact_value(exact, meta), valid=True, meta=meta)
    eta = 2 * gamma
    d_const = (
        n**2
        * math.sqrt(2 * math.pi)
        / (2 * (1 + eta) * (n - 1))
        * math.exp(-(eta - v) * (1 - v))
    )
    exponent = length * (2 * gamma - v) ** 2 / 2
    value, log_value = _scaled_exp(gamma * d_const * math.sqrt(length), exponent)
    comparison = (
        2
        * (1 + 2 * gamma)
        * (n - 1)
        / (n**2 * math.sqrt(2 * math.pi))
        * math.exp(-(2 * gamma - v) * (1 - v))
    )
    return BoundValue(
        value=value,
        valid=0 < gamma < v / 2,
        meta={
            "eta": eta,
            "D": d_const,
            "exponent": exponent,
            "log_value": log_value,
            "window": (0.0, v / 2),
            "comparison_D": comparison,
        },
    )


def thm2_entropy_time_lower(n: int, length: int, gamma: float) -> BoundValue:
    """Lower bound on the time to reach a (1 - gamma/2) entropy deficit.

    Valid on gamma_* < gamma < 1 with
    ``gamma_* = 2 (1 - v ln(n-1)/ln n)``; for n = 2 and for any n where
    gamma_* >= 1 the window is empty and every evaluation is flagged.
    As for :func:`thm3_charge_time_lower`, ``meta["log_value"]`` is the
    natural log of the value and stays finite where the value is ``inf``.
    """
    check_size(n, length)
    if not 0 < gamma < 1:
        raise UsageError(f"gamma must lie in (0, 1), got {gamma}")
    v = float(mean_depth_fraction(n))
    if n == 2:
        # ln(n-1) = 0: there is no entropy plateau to certify against
        return BoundValue(
            value=math.inf,
            valid=False,
            meta={"gamma_star": 2.0, "reason": "empty window for n=2"},
        )
    ratio = math.log(n) / math.log(n - 1)
    gamma_star = 2 * (1 - v / ratio)
    x = (1 - gamma / 2) * ratio  # target depth fraction d_gamma / L
    lam = 0.5 * (x - v) ** 2
    f_const = _profile_constant(n, x)
    c_gamma = gamma / (2 * f_const)
    value, log_value = _scaled_exp(c_gamma * math.sqrt(length), length * lam)
    return BoundValue(
        value=value,
        valid=gamma_star < gamma < 1,
        meta={
            "log_value": log_value,
            "gamma_star": gamma_star,
            "depth_fraction": x,
            "rate": lam,
            "C": c_gamma,
            "F": f_const,
        },
    )


# ---------------------------------------------------------------------------
# entropy growth envelope


def entropy_offset(n: int) -> float:
    """Additive constant of the entropy envelope, 1/e + 2 ln(n-1) - ln n."""
    check_alphabet(n)
    return 1 / math.e + 2 * math.log(n - 1) - math.log(n)


def entropy_bound_curve(
    n: int, length: int, depth: float, t: float, *, bipartite: bool = False
) -> BoundValue:
    """Entropy envelope at a given reference depth and time.

        L ln n (1 - (d/L) ln(n-1)/ln n + t (F_d/sqrt(L)) e^{-L(d/L-v)^2/2}) + c

    The bipartite variant doubles the time term. Valid only below the
    crossover, ``v L - d >= sqrt(L)``; past it the envelope shape is
    not controlled, so the value is flagged rather than interpolated.
    At t = 0, d = 0 the envelope is exactly ``L ln n + c``. A value past
    the largest double raises NumericError.
    """
    check_size(n, length)
    if not 0 <= depth <= length:
        raise UsageError(f"depth {depth} outside [0, {length}]")
    if t < 0:
        raise UsageError("time must be nonnegative")
    v = float(mean_depth_fraction(n))
    x = depth / length
    c = entropy_offset(n)
    f_const = _profile_constant(n, x)
    slope = (f_const / math.sqrt(length)) * math.exp(
        -length * (x - v) ** 2 / 2
    )
    if bipartite:
        slope *= 2
    static = 1.0 - x * math.log(n - 1) / math.log(n)
    value = length * math.log(n) * (static + t * slope) + c
    if not math.isfinite(value):
        raise NumericError(f"entropy envelope at t={t} overflows a double")
    return BoundValue(
        value=value,
        valid=v * length - depth >= math.sqrt(length),
        meta={
            "offset": c,
            "F": f_const,
            "slope": slope,
            "crossover_depth": v * length - math.sqrt(length),
        },
    )
