"""Import graph: the Monte Carlo and closed-form commands and every gap
(the lumped and nonlocal ones from the tridiagonal blocks, the local one
matrix free) load no sparse or dense scipy linear algebra and no mpmath;
the commands that need them, such as ``gap --export-matrix``, load them
when they run.

Each check runs in a fresh interpreter, since this test process has long
since imported everything.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pairflip

HEAVY = ("scipy.sparse", "scipy.linalg", "scipy.sparse.linalg", "mpmath")

SCRIPT = textwrap.dedent(
    """
    import sys, tempfile
    from pathlib import Path

    import pairflip
    from pairflip.cli import main

    heavy = {heavy!r}
    out = Path(tempfile.mkdtemp())
    light = [
        ["simulate", "--n", "2", "--length", "6", "--t-max", "20",
         "--trajectories", "40", "--blocks", "4", "--seed", "1"],
        ["escape", "--n", "3", "--length", "8", "--depth", "2",
         "--times", "0,1", "--trajectories", "40", "--blocks", "4",
         "--gate", "tl", "--seed", "1"],
        ["census", "--n", "3", "--length", "8"],
        ["bounds", "--n", "3", "--length", "8"],
        ["gap", "--n", "3", "--length", "8", "--chain", "lumped"],
        ["gap", "--n", "3", "--length", "8", "--chain", "nonlocal"],
        ["gap", "--n", "3", "--length", "3", "--chain", "local"],
        ["gap", "--n", "3", "--length", "6", "--chain", "local",
         "--gate", "tl"],
    ]
    for k, argv in enumerate(light):
        assert main(argv + ["--out", str(out / f"{{k}}.json")]) == 0, argv
    loaded = [m for m in heavy if m in sys.modules]
    assert not loaded, f"loaded by {{[a[0] for a in light]}}: {{loaded}}"

    assert main(["gap", "--n", "3", "--length", "5", "--chain", "local",
                 "--export-matrix", str(out / "local.coo"),
                 "--out", str(out / "gap.json")]) == 0
    assert "scipy.sparse" in sys.modules, "exported without building the chain"

    names = {{}}
    exec("from pairflip import *", names)
    missing = [n for n in pairflip.__all__ if n not in names]
    assert not missing, f"unbound names in __all__: {{missing}}"
    print("ok")
    """
)


def test_light_commands_defer_heavy_imports():
    src = str(Path(pairflip.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(heavy=HEAVY)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok")
