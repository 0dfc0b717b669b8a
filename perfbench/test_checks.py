"""Tests of the benchmark's own checks: each passes a correct value and
rejects a deliberately wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from pairflip.bounds import n2_gap_window, thm1_gap_upper  # noqa: E402
from pairflip.census import cone_stats  # noqa: E402
from pairflip.chains import build_full_local, build_lumped  # noqa: E402
from pairflip.spectra import spectral_gap  # noqa: E402


def test_references_match_the_program_on_small_chains():
    assert checks.lumped_gap_reference(2, 5) == pytest.approx(0.2, abs=1e-13)
    lumped = spectral_gap(build_lumped(3, 6)).gap
    assert checks.lumped_gap_reference(3, 6) == pytest.approx(lumped, abs=1e-12)
    local = spectral_gap(build_full_local(3, 4)).gap
    assert checks.local_gap_reference(3, 4) == pytest.approx(local, abs=1e-12)
    assert checks.local_reference(3, 4).sum(axis=1) == pytest.approx(np.ones(81))


def test_n2_gap_check():
    payload = {"n": 2, "length": 7, "chain": "lumped", "gap": 1 / 7}
    assert checks.check_n2_gap(payload, n2_gap_window(7)) == []
    assert checks.check_n2_gap(dict(payload, gap=1 / 7 + 1e-9), n2_gap_window(7))
    assert checks.check_n2_gap(payload, (0.2, 0.5))


def test_gap_matches_check():
    ref = checks.lumped_gap_reference(3, 7)
    payload = {"n": 3, "length": 7, "chain": "lumped", "gap": ref}
    assert checks.check_gap_matches(payload, ref, 1e-9) == []
    assert checks.check_gap_matches(dict(payload, gap=ref + 1e-8), ref, 1e-9)


@pytest.fixture(scope="module")
def family():
    lengths = (6, 7, 8, 9)
    gaps = {L: checks.lumped_gap_reference(3, L) for L in lengths}
    flows = {L: [cone_stats(3, L, d).boundary_flow for d in range(2 + L % 2, L + 1, 2)]
             for L in lengths}
    frozen = {L: thm1_gap_upper(3, L).value for L in lengths if L % 2 == 0}
    return gaps, flows, frozen


def test_family_check_passes_true_gaps(family):
    assert checks.check_n3_lumped_family(*family) == []


@pytest.mark.parametrize("change, message", [
    (lambda g, phi, frozen: {**g, 7: g[6]}, "does not decrease"),
    (lambda g, phi, frozen: {**g, 9: 2.01 * float(min(phi[9]))}, "2*Phi"),
    (lambda g, phi, frozen: {**g, 8: 1.01 * frozen[8]}, "frozen-sector"),
    (lambda g, phi, frozen: {**g, 9: 0.45 * g[9]}, "shape spread"),
])
def test_family_check_rejects(family, change, message):
    gaps, flows, frozen = family
    problems = checks.check_n3_lumped_family(change(gaps, flows, frozen), flows, frozen)
    assert any(message in p for p in problems), problems


RELAX = {
    "means": {"charge:1": [1.0, 0.5, 0.02, 0.009, 0.004]},
    "first_passage": {"gamma": 0.01, "t_q": 3, "ci_low": 2, "ci_high": 4,
                      "censored": False},
}


@pytest.mark.parametrize("first_passage, means", [
    ({"censored": True, "t_q": None}, None),
    ({"ci_high": 2}, None),
    ({"t_q": 4}, None),
    ({}, [0.999, 0.5, 0.02, 0.009, 0.004]),
])
def test_relax_check_rejects(first_passage, means):
    assert checks.check_relax(RELAX) == []
    bad = {"first_passage": {**RELAX["first_passage"], **first_passage},
           "means": {"charge:1": means or RELAX["means"]["charge:1"]}}
    assert checks.check_relax(bad)


def test_relax_exact_check():
    exact = checks.exact_mean_charge(3, 4, 6)
    assert exact[0] == 1.0
    errs = np.full(exact.size, 1e-3)
    errs[0] = 0.0
    ok = {"means": {"charge:1": list(exact + np.r_[0, [1e-3] * 6])},
          "std_errors": {"charge:1": list(errs)}}
    assert checks.check_relax_exact(ok, exact) == []
    bad_means = exact.copy()
    bad_means[3] += 6e-3
    bad = dict(ok, means={"charge:1": list(bad_means)})
    assert checks.check_relax_exact(bad, exact)


ESCAPE = {"flow": 0.1, "times": [0, 1, 2, 3], "probability": [0.0, 0.1, 0.19, 0.28],
          "std_error": [0.0, 0.005, 0.006, 0.007]}


@pytest.mark.parametrize("probability, flow", [
    ([1e-4, 0.1, 0.19, 0.28], 0.1),
    ([0.0, 0.13, 0.19, 0.28], 0.1),
    ([0.0, 0.1, 0.19, 0.35], 0.1),
    ([0.0, 0.1, 0.19, 0.28], 0.09),
])
def test_escape_check_rejects(probability, flow):
    assert checks.check_escape(ESCAPE, 0.1) == []
    assert checks.check_escape(dict(ESCAPE, probability=probability), flow)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        spans.Span(0, None, "op", 0.0, 10.0, 1, None),
        spans.Span(1, 0, "a", 1.0, 4.0, 1, None),
        spans.Span(2, 0, "b", 3.0, 5.0, 2, None),  # overlaps 1, another thread
        spans.Span(3, 1, "c", 2.0, 3.0, 1, None),
    ]
    own = spans.self_times(tree)
    assert own == {0: pytest.approx(6.0), 1: pytest.approx(2.0),
                   2: pytest.approx(2.0), 3: pytest.approx(1.0)}


def test_layer_metrics_split_gap_methods_and_take_self_times():
    S = spans.Span
    trace = [
        S(0, None, "cli.op", 0.0, 10.0, 1, None),
        S(1, 0, "chains.build_lumped", 0.0, 1.0, 1, 127),
        S(2, 1, "walks.enumerate_sectors", 0.2, 0.5, 1, None),
        S(3, 0, "spectra.spectral_gap", 1.0, 3.0, 1, ("dense", 0)),
        S(4, 0, "spectra.spectral_gap", 3.0, 4.0, 1, ("iterative", 50)),
    ]
    layer = spans.layer_metrics(trace, rounds=2)
    assert layer == {
        "cli.op_s": pytest.approx(5.0),
        "chains.build_lumped_s": pytest.approx(0.35),
        "chains.sectors_built": 63.5,
        "walks.enumerate_sectors_s": pytest.approx(0.15),
        "spectra.gap_dense_s": pytest.approx(1.0),
        "spectra.gap_iterative_s": pytest.approx(0.5),
        "spectra.gap_matvecs": 25.0,
    }
