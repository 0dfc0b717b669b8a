"""The benchmark's workloads: the CLI operations each round runs.

An operation is ``(name, argv)``; ``argv`` is what ``pairflip`` would get
on the command line, without ``--out`` (the runner adds one artifact path
per operation). Monte Carlo operations take their seed from the round.
"""

from __future__ import annotations

# N=3 lumped lengths. L=11 is left out: its dimension 4095 still falls
# under the dense cutoff, and the nonsymmetric eig takes over 90 s.
N3_LUMPED_LENGTHS = (6, 7, 8, 9, 10, 12, 13, 14)
N2_LENGTHS = (3, 5, 7, 9, 11, 13, 15)
N3_LOCAL_LENGTHS = (4, 5, 6)
NONLOCAL_LENGTH = 8

RELAX_SEEDS_PER_ROUND = 2
RELAX = dict(n=3, length=16, gamma=0.01, trajectories=4000, blocks=50,
             resamples=200, t_max=12000, threads=1)
ESCAPE = dict(n=3, length=30, depth=2, gate="tl", trajectories=20000,
              times=tuple(range(21)), threads=2)

# The relax-pf check compares a small simulate against the exact mean
# charge evolved under the full local chain.
RELAX_EXACT = dict(n=3, length=6, t_max=120, trajectories=4000, blocks=20)


def _gap_ops() -> list[tuple[str, list[str]]]:
    ops = []
    for length in N3_LUMPED_LENGTHS:
        ops.append((f"gap-n3-L{length}", ["gap", "--n", "3", "--length", str(length)]))
    for length in N2_LENGTHS:
        ops.append((f"gap-n2-L{length}", ["gap", "--n", "2", "--length", str(length)]))
    for length in N3_LOCAL_LENGTHS:
        ops.append((f"gap-local-n3-L{length}",
                    ["gap", "--n", "3", "--length", str(length), "--chain", "local"]))
    ops.append((f"gap-nonlocal-n3-L{NONLOCAL_LENGTH}",
                ["gap", "--n", "3", "--length", str(NONLOCAL_LENGTH),
                 "--chain", "nonlocal"]))
    return ops


def relax_argv(seed: int, p: dict = RELAX) -> list[str]:
    return [
        "simulate", "--n", str(p["n"]), "--length", str(p["length"]),
        "--gamma", str(p["gamma"]), "--trajectories", str(p["trajectories"]),
        "--blocks", str(p["blocks"]), "--resamples", str(p["resamples"]),
        "--t-max", str(p["t_max"]), "--threads", str(p["threads"]),
        "--estimate-tq", "--seed", str(seed),
    ]


def escape_argv(seed: int, p: dict = ESCAPE) -> list[str]:
    return [
        "escape", "--n", str(p["n"]), "--length", str(p["length"]),
        "--depth", str(p["depth"]), "--gate", p["gate"],
        "--trajectories", str(p["trajectories"]),
        "--times", ",".join(str(t) for t in p["times"]),
        "--threads", str(p["threads"]), "--seed", str(seed),
    ]


def operations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The operations of one round of ``workload``."""
    if workload == "gap-sweep":
        return _gap_ops()
    if workload == "relax-pf":
        # the early stop moves one simulation's step count by up to 15 %
        # between seeds; a round of two seeds averages that down
        return [(f"relax{k}", relax_argv((seed + (k << 48)) % (1 << 64)))
                for k in range(RELAX_SEEDS_PER_ROUND)]
    if workload == "escape-tl":
        return [("escape", escape_argv(seed))]
    raise KeyError(workload)


# One small call into every layer a workload uses, so that lazy imports,
# the first LAPACK/ARPACK call and thread start-up are paid in set-up.
WARMUP = {
    "gap-sweep": [
        ["gap", "--n", "3", "--length", "4"],
        ["gap", "--n", "2", "--length", "5", "--dense-cutoff", "2"],
        ["gap", "--n", "2", "--length", "3", "--chain", "local"],
        ["gap", "--n", "2", "--length", "4", "--chain", "nonlocal"],
    ],
    "relax-pf": [
        relax_argv(0, dict(RELAX, length=6, trajectories=200, blocks=4,
                           resamples=20, t_max=64)),
    ],
    "escape-tl": [
        escape_argv(0, dict(ESCAPE, length=8, trajectories=200, times=(0, 1, 2))),
    ],
}

WORKLOADS = tuple(WARMUP)
