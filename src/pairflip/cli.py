"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 resource
cap exceeded. Artifacts are written atomically; every ``--out`` file
gets a ``<name>.meta.json`` sidecar with the resolved parameters, the
package version, a timestamp, the numpy, scipy and Python versions, the
CPU count and the operation's wall time. The artifact
itself never contains a timestamp or a timing, so reruns with equal
parameters are byte-identical.

A ``--config FILE`` of ``key = value`` lines supplies defaults for the
chosen subcommand; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import io as _io
import json
import math
import sys
import time
from fractions import Fraction
from typing import Any, Sequence

from . import __version__, bounds as bounds_mod, census
from .chains import (
    DEFAULT_STATE_CAP,
    GateKind,
    build_full_local,
    build_full_nonlocal,
    build_lumped,
    export_coo,
)
from .checks import run_checks
from .errors import NumericError, ResourceCapError, UsageError
from .io import build_meta, write_artifact
from .montecarlo import SimConfig, cone_escape_probability, estimate_tq, run_ensemble
from .spectra import (
    DEFAULT_TOL,
    DENSE_CUTOFF,
    MAX_ITERATIONS,
    charge_expansion,
    cheeger_check,
    cut_expansions,
    lumped_gap,
    spectral_gap,
)

_FLOAT_FMT = ".12g"


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as UsageError (exit code 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _fmt_float(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


def _emit(args: argparse.Namespace, text: str, command: str) -> None:
    if args.out:
        params = {
            k: v
            for k, v in vars(args).items()
            if k not in ("func", "out", "config", "started") and v is not None
        }
        wall_s = time.perf_counter() - args.started
        write_artifact(args.out, text, build_meta(command, params, wall_s))
    else:
        sys.stdout.write(text)


def _json_text(payload: Any) -> str:
    from .io import json_ready

    return json.dumps(json_ready(payload), indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_census(args: argparse.Namespace) -> int:
    n, length = args.n, args.length
    table = census.sector_dims(n, length)
    rows = ["d,multiplicity,dim_exact,dim_asymptotic,cone_volume,"
            "cone_expansion_exact,cone_expansion_asymptotic"]
    for d, dim in table.dims.items():
        if n < 3 or length == 0:
            dim_asym = ""
        elif d == 0:
            dim_asym = _fmt_float(census.k0_asymptotic(n, length))
        else:
            dim_asym = _fmt_float(census.kd_asymptotic(n, length, d))
        if d >= 2:
            cs = census.cone_stats(n, length, d)
            cone_cells = [
                str(cs.volume),
                str(cs.boundary_flow),
                _fmt_float(cs.asymptotic_expansion),
            ]
        else:
            cone_cells = ["", "", ""]
        rows.append(
            ",".join(
                [str(d), str(table.multiplicity[d]), str(dim), dim_asym]
                + cone_cells
            )
        )
    _emit(args, "\n".join(rows) + "\n", "census")
    return 0


def _build_chain(args: argparse.Namespace):
    gate = GateKind.parse(args.gate)
    if args.chain == "local":
        return build_full_local(
            args.n, args.length, gate, exact=args.exact, cap=args.state_cap
        )
    if args.chain == "nonlocal":
        return build_full_nonlocal(
            args.n, args.length, exact=args.exact, cap=args.state_cap
        )
    return build_lumped(args.n, args.length, cap=args.state_cap)


def _cmd_gap(args: argparse.Namespace) -> int:
    if args.chain == "local":
        chain = _build_chain(args)
        result = spectral_gap(
            chain,
            tol=args.tol,
            dense_cutoff=args.dense_cutoff,
            max_iterations=args.max_iterations,
        )
    else:
        # the nonlocal chain shares the lumped chain's nonzero spectrum,
        # which comes from its blocks; the chain is built only to be exported
        GateKind.parse(args.gate)  # a bad --gate fails whatever the chain
        chain = _build_chain(args) if args.export_matrix else None
        result = lumped_gap(args.n, args.length)
    report = None if args.no_cheeger else cheeger_check(args.n, args.length, result)
    payload: dict[str, Any] = {
        "n": args.n,
        "length": args.length,
        "chain": args.chain,
        "gap": result.gap,
        "method": result.method,
        "residual": result.residual,
        "iterations": result.iterations,
        "precision": result.precision,
        "cheeger_upper": None,
        "cheeger_lower_witness": None,
        "cheeger_witness": None,
        "phi_min": None,
    }
    if report is not None:
        payload.update(
            cheeger_upper=report.upper,
            cheeger_lower_witness=report.lower_witness,
            cheeger_witness=report.witness,
            phi_min=report.phi_min,
        )
    if args.export_matrix:
        buf = _io.StringIO()
        count = export_coo(chain, buf)
        write_artifact(
            args.export_matrix,
            buf.getvalue(),
            build_meta(
                "gap --export-matrix",
                {"n": args.n, "length": args.length, "chain": args.chain,
                 "entries": count},
            ),
        )
    _emit(args, _json_text(payload), "gap")
    return 0


def _cmd_expansion(args: argparse.Namespace) -> int:
    n, length = args.n, args.length
    candidates: dict[str, Fraction] = {}
    if args.depth is not None:
        candidates[f"cone d={args.depth}"] = census.cone_stats(
            n, length, args.depth
        ).boundary_flow
    if args.charge is not None:
        candidates[f"charge q={args.charge}"] = charge_expansion(
            n, length, args.charge
        )
    if not candidates:
        candidates = cut_expansions(n, length)
    if not candidates:
        raise UsageError(f"no candidate cuts exist for N={n}, L={length}")
    witness, phi_min = min(candidates.items(), key=lambda kv: kv[1])
    payload = {
        "n": n,
        "length": length,
        "candidates": candidates,
        "phi_min": phi_min,
        "witness": witness,
    }
    _emit(args, _json_text(payload), "expansion")
    return 0


def _parse_initial(text: str | None, n: int) -> tuple[int, ...] | None:
    if text is None:
        return None
    parts = text.split(",") if "," in text else list(text)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad --initial value {text!r}") from None


def _sim_config(args: argparse.Namespace, **fields: Any) -> SimConfig:
    """SimConfig from the flags every Monte Carlo command shares."""
    return SimConfig(
        n=args.n,
        gate=GateKind.parse(args.gate),
        n_trajectories=args.trajectories,
        seed=args.seed,
        blocks=args.blocks,
        threads=args.threads,
        **fields,
    )


def _series_payload(series) -> dict[str, Any]:
    return {
        "times": series.times,
        "means": dict(series.means),
        "std_errors": dict(series.std_errors),
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _sim_config(
        args,
        length=args.length,
        t_max=args.t_max,
        observables=tuple(
            s.strip() for s in args.observables.split(",") if s.strip()
        ),
        gamma=args.gamma,
        initial=_parse_initial(args.initial, args.n),
    )
    payload: dict[str, Any] = {
        "config": {
            "n": cfg.n, "length": cfg.length, "t_max": cfg.t_max,
            "gate": cfg.gate, "n_trajectories": cfg.n_trajectories,
            "seed": cfg.seed, "observables": list(cfg.observables),
            "gamma": cfg.gamma, "blocks": cfg.blocks,
            "initial": list(cfg.initial_state()),
        },
    }
    if args.estimate_tq:
        report = estimate_tq(
            cfg,
            n_resamples=args.resamples,
            per_trajectory=args.per_trajectory,
        )
        payload.update(_series_payload(report.series))
        payload["first_passage"] = {
            "gamma": report.gamma,
            "t_q": report.t_q,
            "ci_low": report.ci_low,
            "ci_high": report.ci_high,
            "censored": report.censored,
            "censored_draws": report.censored_draws,
            "n_resamples": report.n_resamples,
        }
        if report.per_trajectory_times is not None:
            payload["per_trajectory_times"] = report.per_trajectory_times
    else:
        payload.update(_series_payload(run_ensemble(cfg)))
    _emit(args, _json_text(payload), "simulate")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        lengths = [int(s) for s in args.lengths.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"bad --lengths value {args.lengths!r}") from None
    if not lengths:
        raise UsageError("--lengths needs at least one entry")
    rows = ["length,gamma,t_q,ci_low,ci_high,censored,censored_draws,"
            "bound,bound_valid"]
    for length in lengths:
        cfg = _sim_config(args, length=length, t_max=args.t_max, gamma=args.gamma)
        report = estimate_tq(cfg, n_resamples=args.resamples)
        bound = bounds_mod.thm3_charge_time_lower(args.n, length, args.gamma)
        rows.append(
            ",".join(
                [
                    str(length),
                    _fmt_float(args.gamma),
                    "" if report.t_q is None else str(report.t_q),
                    "" if report.ci_low is None else str(report.ci_low),
                    "" if report.ci_high is None else str(report.ci_high),
                    str(report.censored).lower(),
                    str(report.censored_draws),
                    _fmt_float(bound.value),
                    str(bound.valid).lower(),
                ]
            )
        )
    _emit(args, "\n".join(rows) + "\n", "sweep")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    try:
        gammas = [float(s) for s in args.gammas.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"bad --gammas value {args.gammas!r}") from None
    n, length = args.n, args.length

    def bound_dict(b) -> dict[str, Any]:
        return {"value": b.value, "valid": b.valid, "meta": dict(b.meta)}

    payload: dict[str, Any] = {"n": n, "length": length}
    if length % 2 == 0:
        payload["thm1"] = bound_dict(bounds_mod.thm1_gap_upper(n, length))
        payload["charge_time_exact"] = bound_dict(
            bounds_mod.thm3_charge_time_lower(n, length, 0.0)
        )
    else:
        payload["thm1"] = None
        payload["charge_time_exact"] = None
    payload["thm3"] = [
        dict(gamma=g, **bound_dict(bounds_mod.thm3_charge_time_lower(n, length, g)))
        for g in gammas
    ]
    payload["thm2"] = [
        dict(gamma=g, **bound_dict(bounds_mod.thm2_entropy_time_lower(n, length, g)))
        for g in gammas
    ]
    payload["n2_window"] = (
        list(bounds_mod.n2_gap_window(length)) if n == 2 else None
    )
    if args.curve_times:
        try:
            times = [float(s) for s in args.curve_times.split(",") if s.strip()]
        except ValueError:
            raise UsageError(
                f"bad --curve-times value {args.curve_times!r}"
            ) from None
        if not all(math.isfinite(t) for t in times):
            raise UsageError(f"--curve-times must be finite, got {args.curve_times!r}")
        payload["entropy_curve"] = [
            dict(
                t=t,
                depth=args.curve_depth,
                **bound_dict(
                    bounds_mod.entropy_bound_curve(
                        n, length, args.curve_depth, t, bipartite=args.bipartite
                    )
                ),
            )
            for t in times
        ]
    _emit(args, _json_text(payload), "bounds")
    return 0


def _cmd_escape(args: argparse.Namespace) -> int:
    try:
        times = [int(s) for s in args.times.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"bad --times value {args.times!r}") from None
    cfg = _sim_config(args, length=args.length, t_max=max(times) if times else 0)
    res = cone_escape_probability(cfg, args.depth, times)
    payload = {
        "n": args.n,
        "length": args.length,
        "depth": res.depth,
        "flow": res.flow,
        "times": res.times,
        "probability": res.probability,
        "std_error": res.std_error,
    }
    _emit(args, _json_text(payload), "escape")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = None
    if args.suite is not None:
        suites = [s.strip() for s in args.suite.split(",") if s.strip()]
        if not suites:
            raise UsageError(f"--suite names no suite: {args.suite!r}")
    results = run_checks(suites)
    failed = 0
    for r in results:
        mark = "ok  " if r.passed else "FAIL"
        print(f"{mark} {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    if failed:
        raise NumericError(f"{failed} verification check(s) failed")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub: _Parser) -> None:
    sub.add_argument("--config", help="file of key = value defaults")
    sub.add_argument("--out", help="artifact path (stdout if omitted)")


def _add_sim_flags(sub: _Parser) -> None:
    sub.add_argument("--gate", default="pf", help="pf or tl")
    sub.add_argument("--trajectories", type=int, default=10_000)
    sub.add_argument("--t-max", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--gamma", type=float, default=0.1)
    sub.add_argument("--blocks", type=int, default=100)
    sub.add_argument("--threads", type=int, default=1)


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="pairflip", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    registry: dict[str, _Parser] = {}

    p = subs.add_parser("census", help="sector table with cone statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_census)
    registry["census"] = p

    p = subs.add_parser("gap", help="spectral gap of a chain build")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument(
        "--chain", choices=("local", "nonlocal", "lumped"), default="lumped"
    )
    p.add_argument("--gate", default="pf", help="pf or tl (local chains)")
    p.add_argument("--exact", action="store_true",
                   help="carry exact rational rows (small sizes)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="ARPACK tolerance (local chain)")
    p.add_argument("--dense-cutoff", type=int, default=DENSE_CUTOFF,
                   help="largest dense solve (local chain)")
    p.add_argument("--max-iterations", type=int, default=MAX_ITERATIONS,
                   help="ARPACK iteration cap (local chain)")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                   help="largest state (or, lumped, sector) count to build; "
                        "for the lumped and nonlocal chains it limits only "
                        "--export-matrix")
    p.add_argument("--no-cheeger", action="store_true",
                   help="skip the conductance comparison")
    p.add_argument("--export-matrix", help="also write the matrix in COO text")
    _add_common(p)
    p.set_defaults(func=_cmd_gap)
    registry["gap"] = p

    p = subs.add_parser("expansion", help="exact cut expansions (flow form)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--depth", type=int, help="single cone cut at this depth")
    p.add_argument("--charge", type=int,
                   help="two-symbol charge-tail cut at this value")
    _add_common(p)
    p.set_defaults(func=_cmd_expansion)
    registry["expansion"] = p

    p = subs.add_parser("simulate", help="ensemble relaxation experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    _add_sim_flags(p)
    p.add_argument("--observables", default="charge:1")
    p.add_argument("--initial", help="start state, e.g. 2121 or 2,1,2,1")
    p.add_argument("--estimate-tq", action="store_true",
                   help="report the ensemble-mean first passage at gamma")
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--per-trajectory", action="store_true",
                   help="also record per-trajectory first passages")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)
    registry["simulate"] = p

    p = subs.add_parser("sweep", help="first-passage times across lengths")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lengths", required=True, help="comma list, e.g. 8,16,24")
    _add_sim_flags(p)
    p.add_argument("--resamples", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)
    registry["sweep"] = p

    p = subs.add_parser("bounds", help="closed-form bound evaluations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--gammas", default="0.1", help="comma list of gamma values")
    p.add_argument("--curve-times", help="comma list of entropy-curve times")
    p.add_argument("--curve-depth", type=float, default=0.0)
    p.add_argument("--bipartite", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)
    registry["bounds"] = p

    p = subs.add_parser("escape", help="measured cone escape vs the flow bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--times", required=True, help="comma list of sample times")
    p.add_argument("--gate", default="pf")
    p.add_argument("--trajectories", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", type=int, default=100)
    p.add_argument("--threads", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_escape)
    registry["escape"] = p

    p = subs.add_parser("verify", help="run the built-in oracle checks")
    p.add_argument("--suite", help="comma list of suites (default: all)")
    p.set_defaults(func=_cmd_verify, out=None, config=None)
    registry["verify"] = p

    return parser, registry


def _load_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"{path}:{lineno}: expected key = value, got {line!r}"
                    )
                key, _, value = line.partition("=")
                entries[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    return entries


def _typed_defaults(sub: _Parser, entries: dict[str, str]) -> dict[str, Any]:
    actions = {a.dest: a for a in sub._actions}
    out: dict[str, Any] = {}
    for key, raw in entries.items():
        if key not in actions:
            raise UsageError(f"config key {key!r} is not an option here")
        action = actions[key]
        if isinstance(
            action, (argparse._StoreTrueAction, argparse._StoreFalseAction)
        ):
            low = raw.lower()
            if low not in ("true", "false", "1", "0", "yes", "no"):
                raise UsageError(f"config key {key!r} needs a boolean, got {raw!r}")
            out[key] = low in ("true", "1", "yes")
        elif action.type is not None:
            try:
                out[key] = action.type(raw)
            except ValueError:
                raise UsageError(
                    f"config key {key!r}: cannot parse {raw!r}"
                ) from None
        else:
            out[key] = raw
        # a default satisfies a required flag
        action.required = False
    return out


def _probe_config(
    argv: list[str], registry: dict[str, _Parser]
) -> tuple[str, str] | None:
    """Find (command, config path) without a full parse.

    Config defaults may satisfy required flags, so this must not fail
    on an incomplete command line the way a real parse would.
    """
    command = next((tok for tok in argv if tok in registry), None)
    if command is None:
        return None
    for k, tok in enumerate(argv):
        if tok == "--config" and k + 1 < len(argv):
            return command, argv[k + 1]
        if tok.startswith("--config="):
            return command, tok.split("=", 1)[1]
    return None


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        probe = _probe_config(argv, registry)
        if probe is not None:
            command, config_path = probe
            sub = registry[command]
            sub.set_defaults(**_typed_defaults(sub, _load_config_file(config_path)))
        args = parser.parse_args(argv)
        args.started = time.perf_counter()
        # exact counts can run past the int-to-str digit cap of Python >= 3.10.7
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            return args.func(args)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    except UsageError as exc:
        print(f"pairflip: error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, OverflowError) as exc:
        # OverflowError: a float, or an int converted to one, past the largest double
        print(f"pairflip: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"pairflip: resource cap: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
