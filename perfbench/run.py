"""Benchmark of the pairflip command line, one workload per process.

    python3 perfbench/run.py --workload gap-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run sets up (imports plus one small warm call into every layer the
workload uses), then repeats whole rounds of the workload's operations
until ``--seconds`` have passed, at least one round. Each operation goes
in-process through ``pairflip.cli.main(argv)`` and writes its artifact
with ``--out`` under ``.perfbench_work/``; after the timed part every
artifact is parsed and checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics: the median round wall
time, set-up time (median of separate fresh processes, each timed from
its start to the end of its warm calls) and peak RSS. ``--trace 1``
times untraced rounds and then traced rounds, and reports the per-layer
metrics of the traced rounds (see ``spans.py``). The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5

from workloads import (  # noqa: E402
    ESCAPE, N2_LENGTHS, N3_LOCAL_LENGTHS, N3_LUMPED_LENGTHS, NONLOCAL_LENGTH,
    RELAX, RELAX_EXACT, WARMUP, WORKLOADS, operations,
)


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _import_package():
    if not (SRC / "pairflip" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: package source not found under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pairflip.cli

    return pairflip.cli


def round_seed(seed: int, r: int) -> int:
    """Seed of round ``r``: the run's seed for the first round."""
    return (seed + (r << 32)) % (1 << 64)


def warm_up(cli, workload: str, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for k, argv in enumerate(WARMUP[workload]):
        rc = cli.main(argv + ["--out", str(out_dir / f"warm{k}.json")])
        if rc != 0:
            raise RuntimeError(f"warm-up call {argv} exited {rc}")


def setup_seconds(workload: str, work: Path) -> float:
    """Median over fresh processes of start-to-ready (imports + warm calls)."""
    samples = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--setup-probe", str(work / f"probe{k}")]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return statistics.median(samples)


def run_round(cli, workload: str, seed: int, out_dir: Path) -> dict:
    """One round of the workload's operations; returns its record."""
    out_dir.mkdir(parents=True)
    ops = operations(workload, seed)
    failed = 0
    start = time.perf_counter()
    for name, argv in ops:
        try:
            rc = cli.main(argv + ["--out", str(out_dir / f"{name}.json")])
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            rc = -1
        failed += rc != 0
    wall = time.perf_counter() - start
    return {"dir": out_dir, "seed": seed, "wall": wall, "ops": len(ops), "failed": failed}


def run_rounds(cli, workload: str, seed: int, seconds: float, out_dir: Path,
               first: int) -> list[dict]:
    """Rounds ``first``, ``first + 1``, ... until ``seconds`` have passed."""
    rounds = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        r = first + len(rounds)
        rounds.append(run_round(cli, workload, round_seed(seed, r), out_dir / f"round{r}"))
    return rounds


def _load(path: Path):
    with open(path) as handle:
        return json.load(handle)


def traj_steps(workload: str, out_dir: Path) -> int:
    """Trajectory-steps a completed round did (relax-pf's from its artifacts,
    whose length is set by the early stop)."""
    if workload == "relax-pf":
        return sum(RELAX["trajectories"] * (len(_load(path)["times"]) - 1)
                   for path in out_dir.glob("relax[0-9].json"))
    if workload == "escape-tl":
        return ESCAPE["trajectories"] * max(ESCAPE["times"])
    return 0


# ---------------------------------------------------------------------------
# output checks


class Checker:
    """Checks rounds' artifacts; references are computed once per run.

    ``checks`` (and ``spans`` below) are imported where used: the set-up
    probes run this file, and their time must hold only the program's own.
    """

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli, self.workload, self.seed, self.work = cli, workload, seed, work
        self._refs: dict | None = None

    def refs(self) -> dict:
        if self._refs is not None:
            return self._refs
        import checks
        from pairflip.bounds import n2_gap_window, thm1_gap_upper
        from pairflip.census import cone_stats

        refs: dict = {}
        if self.workload == "gap-sweep":
            # dense references up to L=10 (2047 sectors), where they are cheap
            refs["lumped"] = {L: checks.lumped_gap_reference(3, L)
                              for L in N3_LUMPED_LENGTHS if L <= 10}
            refs["local"] = {L: checks.local_gap_reference(3, L) for L in N3_LOCAL_LENGTHS}
            refs["window"] = {L: n2_gap_window(L) for L in N2_LENGTHS}
            refs["flows"] = {
                L: [cone_stats(3, L, d).boundary_flow for d in range(2 + L % 2, L + 1, 2)]
                for L in N3_LUMPED_LENGTHS
            }
            refs["frozen"] = {L: thm1_gap_upper(3, L).value
                              for L in N3_LUMPED_LENGTHS if L % 2 == 0}
        elif self.workload == "escape-tl":
            refs["flow"] = float(cone_stats(ESCAPE["n"], ESCAPE["length"],
                                            ESCAPE["depth"]).boundary_flow)
        self._refs = refs
        return refs

    def check_round(self, rnd: dict) -> list[str]:
        import checks

        d = rnd["dir"]
        present = {p.stem: _load(p) for p in d.glob("*.json")
                   if not p.name.endswith(".meta.json")}
        refs = self.refs()
        problems = []
        if self.workload == "gap-sweep":
            lumped = {}
            for L in N3_LUMPED_LENGTHS:
                p = present.get(f"gap-n3-L{L}")
                if p is None:
                    continue
                lumped[L] = p["gap"]
                if L in refs["lumped"]:
                    problems += checks.check_gap_matches(p, refs["lumped"][L], 1e-9)
            problems += checks.check_n3_lumped_family(lumped, refs["flows"], refs["frozen"])
            for L in N2_LENGTHS:
                if f"gap-n2-L{L}" in present:
                    problems += checks.check_n2_gap(present[f"gap-n2-L{L}"], refs["window"][L])
            for L in N3_LOCAL_LENGTHS:
                if f"gap-local-n3-L{L}" in present:
                    problems += checks.check_gap_matches(
                        present[f"gap-local-n3-L{L}"], refs["local"][L], 1e-9)
            nl = present.get(f"gap-nonlocal-n3-L{NONLOCAL_LENGTH}")
            if nl is not None and NONLOCAL_LENGTH in lumped:
                problems += checks.check_gap_matches(
                    nl, lumped[NONLOCAL_LENGTH], 1e-10)
        elif self.workload == "relax-pf":
            for payload in present.values():
                problems += checks.check_relax(payload)
        elif "escape" in present:
            problems += checks.check_escape(present["escape"], refs["flow"])
        return problems

    def check_exact_relaxation(self) -> list[str]:
        """A small simulate against the exactly evolved mean charge."""
        import checks

        p = RELAX_EXACT
        path = self.work / "relax-exact.json"
        argv = ["simulate", "--n", str(p["n"]), "--length", str(p["length"]),
                "--t-max", str(p["t_max"]), "--trajectories", str(p["trajectories"]),
                "--blocks", str(p["blocks"]), "--seed", str(self.seed),
                "--out", str(path)]
        rc = self.cli.main(argv)
        if rc != 0:
            return [f"relax exact: simulate exited {rc}"]
        exact = checks.exact_mean_charge(p["n"], p["length"], p["t_max"])
        return checks.check_relax_exact(_load(path), exact)


# ---------------------------------------------------------------------------


def traced_rounds(cli, workload: str, plain: list[dict], work: Path) -> tuple[list, dict]:
    """The plain rounds again under the tracer; returns them and the
    per-layer values, means per round."""
    import spans

    tracer = spans.Tracer()
    try:
        # the same seeds, so that traced and untraced rounds do equal work
        traced = [run_round(cli, workload, r["seed"], work / "traced" / r["dir"].name)
                  for r in plain]
    finally:
        tracer.close()
    tracer.write(work / "spans.json")
    layer = spans.layer_metrics(tracer.spans, len(traced))
    steps = layer.get("montecarlo.traj_steps", 0.0)
    if steps:
        layer["montecarlo.step_ns_per_traj_step"] = (
            1e9 * layer["montecarlo.step_states_s"] / steps)
    done = [r for r in plain if r["failed"] == 0]
    if done:  # from the untraced rounds, like the end-to-end metrics
        layer["traj_steps_per_s"] = (sum(traj_steps(workload, r["dir"]) for r in done)
                                     / sum(r["wall"] for r in done))
    layer["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                 - statistics.median(r["wall"] for r in plain))
    return traced, layer


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cli = _import_package()
    work = WORK / f"{workload}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup = None if trace else setup_seconds(workload, work)
    warm_up(cli, workload, work / "warm")
    # peak RSS covers set-up and the first round, whose seed is the run's
    # own, so it does not depend on how many rounds fit in the run
    plain = [run_round(cli, workload, round_seed(seed, 0), work / "plain" / "round0")]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain += run_rounds(cli, workload, seed, seconds - plain[0]["wall"], work / "plain",
                        first=1)
    if trace:
        traced, values = traced_rounds(cli, workload, plain, work)
        kind = "per_layer"
    else:
        traced = []
        values = {"wall_s": statistics.median(r["wall"] for r in plain),
                  "setup_s": setup, "peak_rss_mb": peak_rss_mb}
        kind = "end_to_end"
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in _declared_units(kind).items()}

    rounds = plain + traced
    checker = Checker(cli, workload, seed, work)
    problems = []
    for rnd in rounds:
        if rnd["failed"] == 0:  # the checks speak of operations that completed
            problems += checker.check_round(rnd)
    if workload == "relax-pf":
        problems += checker.check_exact_relaxation()
    for line in problems:
        sys.stderr.write(f"perfbench: check failed: {line}\n")
    return {
        "correct": not problems,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def _print_table(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload, each in its own process, with a summary table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(f"perfbench: {workload} exited {proc.returncode}\n")
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, result in results.items():
        _print_table(workload, result)
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.setup_probe:
        warm_up(_import_package(), args.workload, Path(args.setup_probe))
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_table(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
