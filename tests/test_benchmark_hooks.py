"""The benchmark's trace hooks resolve against the package.

``perfbench/spans.py`` wraps package functions under the module and name
where their callers look them up. A renamed or dropped import must fail
here, not in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pairflip.cli
import pairflip.montecarlo

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    spans = _load_spans()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in spans.WRAPPED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_tracer_installs_records_and_closes(capsys, tmp_path):
    spans = _load_spans()
    originals = [getattr(module, attr) for module, attr, _, _ in spans.WRAPPED]
    tracer = spans.Tracer()
    try:
        for (module, attr, _, _), original in zip(spans.WRAPPED, originals):
            assert getattr(module, attr) is not original, attr
        # the local gap is solved matrix free; only an export builds the chain
        argv = ["gap", "--n", "3", "--length", "4", "--chain", "local",
                "--export-matrix", str(tmp_path / "local.coo")]
        assert pairflip.cli.main(argv) == 0
    finally:
        tracer.close()
    capsys.readouterr()
    for (module, attr, _, _), original in zip(spans.WRAPPED, originals):
        assert getattr(module, attr) is original, attr
    names = {span.name for span in tracer.spans}
    assert {
        "cli.op",
        "chains.build_full_local",
        "spectra.spectral_gap",
        "spectra.cheeger_check",
    } <= names


def test_traced_escape_records_the_cone_sampler(capsys):
    # the sampler's span feeds montecarlo.sample_cone_states_s: a renamed or
    # inlined sampler must fail here, not read 0 in a traced benchmark run
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        argv = ["escape", "--n", "3", "--length", "8", "--depth", "2",
                "--times", "0,1", "--trajectories", "200", "--blocks", "4",
                "--gate", "tl", "--threads", "2"]
        assert pairflip.cli.main(argv) == 0
    finally:
        tracer.close()
    capsys.readouterr()
    sampled = [s for s in tracer.spans if s.name == "montecarlo.sample_cone_states"]
    assert len(sampled) == 1  # one batched call per run
    assert spans.layer_metrics(tracer.spans, 1)["montecarlo.sample_cone_states_s"] > 0


def test_traced_escape_reduces_once_per_slab(capsys, monkeypatch):
    # the cone observable carries each trajectory's word from one
    # reduction at t = 0; a reduction per recorded time would show here.
    # Two slabs of 100 trajectories are far below the slab-size floor.
    monkeypatch.setattr(pairflip.montecarlo, "_MIN_SLAB_SITES", 1)
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        argv = ["escape", "--n", "3", "--length", "8", "--depth", "2",
                "--times", "0,1,2,3,4,5", "--trajectories", "200", "--blocks", "4",
                "--gate", "tl", "--threads", "2"]
        assert pairflip.cli.main(argv) == 0
    finally:
        tracer.close()
    capsys.readouterr()
    names = [s.name for s in tracer.spans]
    assert names.count("montecarlo.step_states") == 2 * 5  # two slabs
    assert names.count("montecarlo.reduce_states") == 2
