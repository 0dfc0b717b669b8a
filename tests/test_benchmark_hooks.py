"""The benchmark's trace hooks resolve against the package.

``perfbench/spans.py`` wraps package functions under the module and name
where their callers look them up. A renamed or dropped import must fail
here, not in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pairflip.cli

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


def test_tracer_installs_records_and_closes(capsys):
    spans = _load_spans()
    originals = [getattr(module, attr) for module, attr, _, _ in spans.WRAPPED]
    tracer = spans.Tracer()
    try:
        for (module, attr, _, _), original in zip(spans.WRAPPED, originals):
            assert getattr(module, attr) is not original, attr
        argv = ["gap", "--n", "3", "--length", "4", "--chain", "local"]
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
