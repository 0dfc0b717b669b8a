"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 resource
cap exceeded. Artifacts are written atomically; every ``--out`` file
gets a ``<name>.meta.json`` sidecar with the resolved parameters, the
package version, a timestamp, the numpy, scipy and Python versions, the
CPU count and the operation's wall time; the Monte Carlo commands'
sidecars also record the trajectory-steps taken (``traj_steps``) and
their rate (``traj_steps_per_s``). The artifact
itself never contains a timestamp or a timing, so reruns with equal
parameters are byte-identical. An output path that cannot be written
is a usage error.

A ``--config FILE`` of ``key = value`` lines supplies defaults for the
chosen subcommand: its entries enter argv as ``--key=value`` flags right
after the subcommand, ahead of the explicit flags, which win as later
occurrences. Given more than once, the last ``--config`` is read; an
abbreviation such as ``--conf`` is read as argparse reads it.
``main`` builds the parser once per process and every in-process call
shares it, so no call changes it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io as _io
import json
import math
import sys
import time
from fractions import Fraction
from typing import Any, Callable, Sequence

from . import __version__, bounds as bounds_mod, census
from .chains import (
    DEFAULT_STATE_CAP,
    GateKind,
    build_full_local,
    build_full_nonlocal,
    build_lumped,
    export_coo,
    local_operator,
)
from .checks import run_checks
from .errors import NumericError, ResourceCapError, UsageError
from .io import build_meta, json_ready, write_artifact
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
from .walks import _parse_symbol_text

_FLOAT_FMT = ".12g"


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as UsageError (exit code 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _fmt_float(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


def _write(path: str, text: str, meta: dict[str, Any]) -> None:
    try:
        write_artifact(path, text, meta)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _emit(
    args: argparse.Namespace, text: str, traj_steps: int | None = None
) -> None:
    """Write the artifact and its sidecar, or ``text`` to stdout. A Monte
    Carlo command passes the trajectory-steps it took: the sidecar, never
    the artifact, records them and their rate over the wall time."""
    if args.out:
        params = {
            k: v
            for k, v in vars(args).items()
            if k not in ("func", "out", "config", "started") and v is not None
        }
        wall_s = time.perf_counter() - args.started
        meta = build_meta(args.command, params, wall_s)
        if traj_steps is not None:
            meta["traj_steps"] = traj_steps
            meta["traj_steps_per_s"] = traj_steps / wall_s
        _write(args.out, text, meta)
    else:
        sys.stdout.write(text)


def _json_text(payload: Any) -> str:
    return json.dumps(json_ready(payload), indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_census(args: argparse.Namespace) -> int:
    n, length = args.n, args.length
    table = census.sector_dims(n, length)
    cones = census._cone_table(n, length)
    rows = ["d,multiplicity,dim_exact,dim_asymptotic,cone_volume,"
            "cone_expansion_exact,cone_expansion_asymptotic"]
    for d, dim in table.dims.items():
        if n < 3 or length == 0:
            dim_asym = ""
        elif d == 0:
            dim_asym = _fmt_float(census.k0_asymptotic(n, length))
        else:
            dim_asym = _fmt_float(census.kd_asymptotic(n, length, d))
        cs = cones.get(d)
        cone_cells = ["", "", ""] if cs is None else [
            str(cs.volume), str(cs.boundary_flow), _fmt_float(cs.asymptotic_expansion)
        ]
        rows.append(
            ",".join(
                [str(d), str(table.multiplicity[d]), str(dim), dim_asym]
                + cone_cells
            )
        )
    _emit(args, "\n".join(rows) + "\n")
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
    gate = GateKind.parse(args.gate)  # a bad --gate fails whatever the chain
    # the chain is built only to be exported: the local gap is solved
    # matrix free, and the nonlocal chain shares the lumped chain's
    # nonzero spectrum, which comes from its blocks
    chain = _build_chain(args) if args.export_matrix else None
    if args.chain == "local":
        result = spectral_gap(
            local_operator(args.n, args.length, gate, cap=args.state_cap),
            tol=args.tol,
            dense_cutoff=args.dense_cutoff,
            max_iterations=args.max_iterations,
        )
    else:
        result = lumped_gap(args.n, args.length)
    report = None if args.no_cheeger else cheeger_check(args.n, args.length, result)
    payload: dict[str, Any] = {
        "n": args.n,
        "length": args.length,
        "chain": args.chain,
        **dataclasses.asdict(result),
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
        if report.lower_witness < sys.float_info.min:
            # phi^2/2 below the normal float range: null and its log, as
            # bounds does past the largest double
            payload["cheeger_lower_witness"] = None
            payload["cheeger_lower_witness_log"] = report.lower_log
    if args.export_matrix:
        buf = _io.StringIO()
        count = export_coo(chain, buf)
        _write(
            args.export_matrix,
            buf.getvalue(),
            build_meta(
                "gap --export-matrix",
                {"n": args.n, "length": args.length, "chain": args.chain,
                 "entries": count},
            ),
        )
    _emit(args, _json_text(payload))
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
    _emit(args, _json_text(payload))
    return 0


def _comma_list(text: str, convert: Callable[[str], Any], flag: str) -> list:
    """The nonblank entries of a comma list, each through ``convert``."""
    try:
        items = [convert(s.strip()) for s in text.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"bad {flag} value {text!r}") from None
    if not items:
        raise UsageError(f"{flag} needs at least one entry")
    return items


def _parse_initial(text: str | None) -> tuple[int, ...] | None:
    try:
        return None if text is None else _parse_symbol_text(text)
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


def _traj_steps(series) -> int:
    """Trajectory-steps a run took: it recorded every step up to its last."""
    return series.n_trajectories * int(series.times[-1])


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
        observables=tuple(_comma_list(args.observables, str, "--observables")),
        gamma=args.gamma,
        initial=_parse_initial(args.initial),
    )
    config = dataclasses.asdict(cfg)
    del config["threads"]  # the output does not depend on it
    config["initial"] = cfg.initial_state()
    payload: dict[str, Any] = {"config": config}
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
        series = report.series
    else:
        series = run_ensemble(cfg)
        payload.update(_series_payload(series))
    _emit(args, _json_text(payload), _traj_steps(series))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    lengths = _comma_list(args.lengths, int, "--lengths")
    rows = ["length,gamma,t_q,ci_low,ci_high,censored,censored_draws,"
            "bound,bound_valid"]
    steps = 0
    for length in lengths:
        cfg = _sim_config(args, length=length, t_max=args.t_max, gamma=args.gamma)
        report = estimate_tq(cfg, n_resamples=args.resamples)
        steps += _traj_steps(report.series)
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
    _emit(args, "\n".join(rows) + "\n", steps)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    gammas = _comma_list(args.gammas, float, "--gammas")
    n, length = args.n, args.length

    def bound_dict(b) -> dict[str, Any]:
        # JSON has no Infinity: the empty thm2 window at N=2 is null, and so
        # is a value or an asymptotic out of the normal float range, whose
        # log the meta keeps
        meta, value = dict(b.meta), b.value
        if math.isinf(value) or ("log_value" in meta and value < sys.float_info.min):
            value = None
        if "asymptotic_log" in meta:
            meta["asymptotic"] = None
        return {"value": value, "valid": b.valid, "meta": meta}

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
    if args.curve_times is not None:
        times = _comma_list(args.curve_times, float, "--curve-times")
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
    _emit(args, _json_text(payload))
    return 0


def _cmd_escape(args: argparse.Namespace) -> int:
    times = _comma_list(args.times, int, "--times")
    cfg = _sim_config(args, length=args.length, t_max=max(times))
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
    _emit(args, _json_text(payload), cfg.n_trajectories * cfg.t_max)
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


def _add_ensemble_flags(sub: _Parser) -> None:
    """The flags ``_sim_config`` reads, shared by every Monte Carlo command."""
    sub.add_argument("--gate", default="pf", help="pf or tl")
    sub.add_argument("--trajectories", type=int, default=10_000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--blocks", type=int, default=100)
    sub.add_argument("--threads", type=int, default=1)


def _add_sim_flags(sub: _Parser) -> None:
    _add_ensemble_flags(sub)
    sub.add_argument("--t-max", type=int, required=True)
    sub.add_argument("--gamma", type=float, default=0.1)


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="pairflip", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    registry: dict[str, _Parser] = {}

    def command(name: str, func: Callable, summary: str, *sizes: str) -> _Parser:
        """Declare and register a subcommand with its required int flags."""
        p = registry[name] = subs.add_parser(name, help=summary)
        for flag in sizes:
            p.add_argument(flag, type=int, required=True)
        p.set_defaults(func=func)
        return p

    command("census", _cmd_census, "sector table with cone statistics",
            "--n", "--length")

    p = command("gap", _cmd_gap, "spectral gap of a chain build", "--n", "--length")
    p.add_argument(
        "--chain", choices=("local", "nonlocal", "lumped"), default="lumped"
    )
    p.add_argument("--gate", default="pf", help="pf or tl (local chains)")
    p.add_argument("--exact", action="store_true",
                   help="carry exact rational rows (small sizes)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="largest eigenpair residual of the iterative solve "
                        "(local chain)")
    p.add_argument("--dense-cutoff", type=int, default=DENSE_CUTOFF,
                   help="largest chain, in states, solved densely; iterative "
                        f"above it (local chain; default {DENSE_CUTOFF}, the "
                        "measured crossover)")
    p.add_argument("--max-iterations", type=int, default=MAX_ITERATIONS,
                   help="matvec cap of the iterative solve (local chain)")
    p.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                   help="largest state (or, lumped, sector) count to build; "
                        "for the lumped and nonlocal chains it limits only "
                        "--export-matrix")
    p.add_argument("--no-cheeger", action="store_true",
                   help="skip the conductance comparison")
    p.add_argument("--export-matrix", help="also write the matrix in COO text")

    p = command("expansion", _cmd_expansion, "exact cut expansions (flow form)",
                "--n", "--length")
    p.add_argument("--depth", type=int, help="single cone cut at this depth")
    p.add_argument("--charge", type=int,
                   help="two-symbol charge-tail cut at this value")

    p = command("simulate", _cmd_simulate, "ensemble relaxation experiment",
                "--n", "--length")
    _add_sim_flags(p)
    p.add_argument("--observables", default="charge:1")
    p.add_argument("--initial", help="start state, e.g. 2121 or 2,1,2,1")
    p.add_argument("--estimate-tq", action="store_true",
                   help="report the ensemble-mean first passage at gamma")
    p.add_argument("--resamples", type=int, default=1000)
    p.add_argument("--per-trajectory", action="store_true",
                   help="also record per-trajectory first passages")

    p = command("sweep", _cmd_sweep, "first-passage times across lengths", "--n")
    p.add_argument("--lengths", required=True, help="comma list, e.g. 8,16,24")
    _add_sim_flags(p)
    p.add_argument("--resamples", type=int, default=1000)

    p = command("bounds", _cmd_bounds, "closed-form bound evaluations",
                "--n", "--length")
    p.add_argument("--gammas", default="0.1", help="comma list of gamma values")
    p.add_argument("--curve-times", help="comma list of entropy-curve times")
    p.add_argument("--curve-depth", type=float, default=0.0)
    p.add_argument("--bipartite", action="store_true")

    p = command("escape", _cmd_escape, "measured cone escape vs the flow bound",
                "--n", "--length", "--depth")
    p.add_argument("--times", required=True, help="comma list of sample times")
    _add_ensemble_flags(p)

    # every command so far writes an artifact
    for p in registry.values():
        p.add_argument("--config", help="file of key = value defaults")
        p.add_argument("--out", help="artifact path (stdout if omitted)")

    p = command("verify", _cmd_verify, "run the built-in oracle checks")
    p.add_argument("--suite", help="comma list of suites (default: all)")
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


def _config_tokens(sub: _Parser, entries: dict[str, str]) -> list[str]:
    """Check ``entries`` against ``sub``'s options and spell them as flags.

    Each entry becomes ``--opt=value``, a true boolean a bare ``--flag``
    (a false one nothing); the parser itself is left unchanged.
    """
    actions = {a.dest: a for a in sub._actions}
    tokens: list[str] = []
    for key, raw in entries.items():
        if key not in actions:
            raise UsageError(f"config key {key!r} is not an option here")
        action = actions[key]
        flag = action.option_strings[-1]
        if isinstance(
            action, (argparse._StoreTrueAction, argparse._StoreFalseAction)
        ):
            low = raw.lower()
            if low not in ("true", "false", "1", "0", "yes", "no"):
                raise UsageError(f"config key {key!r} needs a boolean, got {raw!r}")
            if (low in ("true", "1", "yes")) == action.const:
                tokens.append(flag)
            continue
        if action.type is not None:
            try:
                action.type(raw)
            except ValueError:
                raise UsageError(
                    f"config key {key!r}: cannot parse {raw!r}"
                ) from None
        tokens.append(f"{flag}={raw}")
    return tokens


def _probe_config(
    argv: list[str], registry: dict[str, _Parser]
) -> tuple[int, str] | None:
    """Find (index of the command token, config path) without a full parse.

    Config entries may satisfy required flags, so this must not fail
    on an incomplete command line the way a real parse would. A token
    after the command names an option as the subcommand's parser reads
    it: the option spelled so, else the one option it is a prefix of.
    """
    at = next((k for k, tok in enumerate(argv) if tok in registry), None)
    if at is None:
        return None
    options = registry[argv[at]]._option_string_actions
    path = None  # the last --config wins, as for every repeated flag
    for k in range(at + 1, len(argv)):
        name, eq, value = argv[k].partition("=")
        if name.startswith("--") and name not in options:
            matches = [opt for opt in options if opt.startswith(name)]
            # an unknown or ambiguous prefix stays as it is; the parse reports it
            name = matches[0] if len(matches) == 1 else name
        if name == "--config" and (eq or k + 1 < len(argv)):
            path = value if eq else argv[k + 1]
    return None if path is None else (at, path)


@functools.cache
def _shared_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser every ``main`` call in this process reads and never changes."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = _shared_parser()
    try:
        probe = _probe_config(argv, registry)
        if probe is not None:
            at, config_path = probe
            # ahead of the explicit flags, which win as later occurrences
            entries = _load_config_file(config_path)
            argv[at + 1 : at + 1] = _config_tokens(registry[argv[at]], entries)
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
    except (ResourceCapError, MemoryError) as exc:
        # MemoryError: an allocation past the machine's, say for a huge --trajectories
        print(f"pairflip: resource cap: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
