"""CLI contract tests: artifacts, schemas, exit codes, config files."""

import contextlib
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pairflip.chains
import pairflip.cli
import pairflip.montecarlo
import pairflip.spectra
from pairflip.census import cone_stats, k0_asymptotic, kd_asymptotic
from pairflip.chains import GateKind, build_full_local
from pairflip.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _forbid(monkeypatch, targets, what):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"the command {what}")

    for module, name in targets:
        monkeypatch.setattr(module, name, forbidden)


@pytest.fixture
def no_chain_cuts(monkeypatch):
    """Make every cut or expansion taken from a built chain raise."""
    _forbid(
        monkeypatch,
        [(pairflip.spectra, name) for name in (
            "candidate_cuts", "cone_subset", "n2_charge_subset", "subset_expansion"
        )],
        "computed a cut from a chain",
    )


@pytest.fixture
def no_lumped_chain(monkeypatch, no_chain_cuts):
    """Also make every route to a built lumped or nonlocal chain and to a
    matrix gap raise."""
    _forbid(
        monkeypatch,
        [
            (pairflip.cli, "build_lumped"),
            (pairflip.chains, "build_lumped"),
            (pairflip.cli, "build_full_nonlocal"),
            (pairflip.chains, "build_full_nonlocal"),
            (pairflip.cli, "spectral_gap"),
            (pairflip.spectra, "spectral_gap"),
        ],
        "built or solved a chain",
    )


class TestCensusCommand:
    HEADER = (
        "d,multiplicity,dim_exact,dim_asymptotic,cone_volume,"
        "cone_expansion_exact,cone_expansion_asymptotic"
    )

    def test_header_and_exact_cells(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--n", "3", "--length", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == self.HEADER
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert rows["0"][1:3] == ["1", "15"]
        assert rows["2"][1:3] == ["6", "7"]
        assert rows["4"][1:3] == ["24", "1"]
        # frozen cone cells
        assert rows["2"][4:6] == ["22", "5/33"]
        assert rows["4"][4:6] == ["2", "1/3"]
        # no cone below depth 2
        assert rows["0"][4:7] == ["", "", ""]

    def test_asymptotic_cells_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--n", "3", "--length", "6")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            d = int(cells[0])
            expected = (
                k0_asymptotic(3, 6) if d == 0 else kd_asymptotic(3, 6, d)
            )
            assert float(cells[3]) == pytest.approx(expected, rel=1e-10)
            if d >= 2:
                st = cone_stats(3, 6, d)
                assert int(cells[4]) == st.volume
                assert Fraction(cells[5]) == st.boundary_flow
                assert float(cells[6]) == pytest.approx(
                    st.asymptotic_expansion, rel=1e-10
                )

    def test_two_symbol_table_skips_dim_asymptotics(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--n", "2", "--length", "6")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            assert cells[3] == ""
            if int(cells[0]) >= 2:
                assert cells[4] != "" and cells[5] != ""

    def test_odd_length_rows(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--n", "3", "--length", "5")
        assert code == 0
        depths = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert depths == ["1", "3", "5"]

    def test_artifact_with_sidecar(self, capsys, tmp_path):
        target = tmp_path / "nested" / "census.csv"
        code, out, _ = run_cli(
            capsys, "census", "--n", "3", "--length", "4", "--out", str(target)
        )
        assert code == 0
        assert out == ""  # artifact mode keeps stdout quiet
        text = target.read_text()
        assert text.startswith(self.HEADER)
        meta = json.loads((tmp_path / "nested" / "census.csv.meta.json").read_text())
        assert meta["command"] == "census"
        assert meta["parameters"]["n"] == 3
        assert meta["parameters"]["length"] == 4
        assert meta["version"]
        assert meta["created"]
        leftovers = [p for p in target.parent.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_sidecar_records_environment(self, capsys, tmp_path):
        # the versions bit-reproducibility rests on go to the sidecar only
        import numpy
        import scipy

        target = tmp_path / "census.csv"
        run_cli(capsys, "census", "--n", "3", "--length", "4", "--out", str(target))
        meta = json.loads((tmp_path / "census.csv.meta.json").read_text())
        assert meta["numpy"] == numpy.__version__
        assert meta["scipy"] == scipy.__version__
        assert meta["python"] == ".".join(map(str, sys.version_info[:3]))
        assert isinstance(meta["cpu_count"], int) and meta["cpu_count"] >= 1
        assert numpy.__version__ not in target.read_text()

    def test_deterministic_artifact_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "census", "--n", "3", "--length", "8", "--out", str(a))
        run_cli(capsys, "census", "--n", "3", "--length", "8", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_counts_past_the_int_to_str_digit_cap(self, capsys):
        # dimensions of about 4800 digits, and the asymptotic cone branch
        # at an alphabet where (N-2)/N rounds to 1
        digit_cap = getattr(sys, "get_int_max_str_digits", lambda: 0)
        before = digit_cap()
        code, out, err = run_cli(
            capsys, "census", "--n", str(10**60), "--length", "80"
        )
        assert code == 0 and err == ""
        assert digit_cap() == before  # the command puts the cap back
        # depth 80: N (N-1)^79 sectors of one state each
        d, mult, dim = out.splitlines()[-1].split(",")[:3]
        assert (d, dim) == ("80", "1")
        assert len(mult) == 4800 and mult.startswith("99") and mult.endswith("0" * 60)

    def test_exact_expansions_past_the_float_range(self, capsys):
        # the cone flows are exact and need no float of the alphabet
        code, out, err = run_cli(
            capsys, "expansion", "--n", str(10**400), "--length", "12"
        )
        assert code == 0 and err == ""
        d = _strict_json(out)
        assert list(d["candidates"]) == [f"cone d={k}" for k in (2, 4, 6, 8, 10, 12)]
        assert re.fullmatch(r"[1-9][0-9]*/[1-9][0-9]*", d["phi_min"])

    def test_alphabet_past_the_float_range(self, capsys):
        code, out, err = run_cli(
            capsys, "census", "--n", str(10**400), "--length", "3"
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "numerical failure" in err

    def test_negative_length_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "census", "--n", "3", "--length", "-1")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "length" in err

    @pytest.mark.parametrize("n", ["2", "3"])
    def test_zero_length_has_one_empty_sector(self, capsys, n):
        code, out, err = run_cli(capsys, "census", "--n", n, "--length", "0")
        assert code == 0 and err == ""
        assert out.splitlines() == [self.HEADER, "0,1,1,,,,"]


class TestGapCommand:
    def test_lumped_gap_schema(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--n", "3", "--length", "6")
        assert code == 0
        d = json.loads(out)
        for key in (
            "gap",
            "method",
            "residual",
            "cheeger_upper",
            "cheeger_lower_witness",
        ):
            assert key in d
        assert d["gap"] == pytest.approx(0.066255466, abs=1e-8)
        assert d["method"] == "tridiagonal"
        assert 0 < d["precision"] < 1e-12
        assert d["gap"] <= d["cheeger_upper"]
        assert d["cheeger_witness"] == "cone d=2"
        assert d["phi_min"] == pytest.approx(
            float(cone_stats(3, 6, 2).boundary_flow), abs=1e-12
        )

    @pytest.mark.parametrize(
        "length,gap", [(400, 2.80843405897813e-14), (600, 1.20244028734082e-19)]
    )
    def test_lumped_far_below_double_precision(
        self, capsys, no_lumped_chain, length, gap
    ):
        code, out, err = run_cli(capsys, "gap", "--n", "3", "--length", str(length))
        assert code == 0 and err == ""
        d = json.loads(out)
        assert d["method"] == "tridiagonal"
        assert d["gap"] == pytest.approx(gap, rel=1e-10)
        assert d["precision"] < 1e-11
        assert d["cheeger_witness"] == "cone d=2"
        assert d["gap"] <= d["cheeger_upper"]

    def test_lumped_two_symbol_sandwich_without_a_chain(self, capsys, no_lumped_chain):
        code, out, _ = run_cli(capsys, "gap", "--n", "2", "--length", "7")
        d = json.loads(out)
        assert code == 0
        assert d["gap"] == pytest.approx(1 / 7, abs=1e-12)
        assert d["cheeger_witness"] == "charge q=1"
        assert d["phi_min"] == 5 / 32

    def test_state_cap_limits_only_the_export(self, capsys, tmp_path):
        for chain in ("lumped", "nonlocal"):
            argv = ("gap", "--n", "3", "--length", "20", "--chain", chain)
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and json.loads(out)["gap"] > 0
            code, _, err = run_cli(
                capsys, *argv, "--export-matrix", str(tmp_path / "m.txt")
            )
            assert code == 3 and "cap" in err

    def test_nonlocal_gap_builds_no_chain(self, capsys, no_lumped_chain):
        code, out, err = run_cli(
            capsys, "gap", "--n", "3", "--length", "8", "--chain", "nonlocal"
        )
        assert code == 0 and err == ""
        d = json.loads(out)
        assert d["method"] == "tridiagonal"
        # the sector compression of the built chain gives 0.04089341919764544
        assert d["gap"] == pytest.approx(0.04089341919764544, rel=1e-12)
        assert d["cheeger_witness"] == "cone d=2"
        assert d["phi_min"] == float(cone_stats(3, 8, 2).boundary_flow)

    def test_local_gap_takes_no_cut_from_the_chain(self, capsys, no_chain_cuts):
        code, out, err = run_cli(
            capsys, "gap", "--n", "3", "--length", "6", "--chain", "local"
        )
        assert code == 0 and err == ""
        d = json.loads(out)
        assert d["method"] == "iterative"  # 729 states, above the cutoff
        assert d["cheeger_witness"] == "cone d=2"
        assert d["phi_min"] == float(cone_stats(3, 6, 2).boundary_flow)
        assert d["gap"] <= d["cheeger_upper"]

    def test_lumped_gap_below_the_float_range(self, capsys):
        # rho^L L^-3/2 at N=1000, L=300 is far below 1e-308
        code, out, err = run_cli(capsys, "gap", "--n", "1000", "--length", "300")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "underflows" in err

    def test_bad_gate_fails_on_the_lumped_chain(self, capsys):
        code, _, err = run_cli(capsys, "gap", "--n", "3", "--length", "4", "--gate", "x")
        assert code == 1 and "gate" in err

    def test_precision_in_rerun_identical_artifact(self, capsys, tmp_path):
        texts = []
        for k in range(2):
            target = tmp_path / f"gap{k}.json"
            assert run_cli(
                capsys, "gap", "--n", "3", "--length", "9", "--out", str(target)
            )[0] == 0
            texts.append(target.read_text())
        assert texts[0] == texts[1]
        assert 0 < json.loads(texts[0])["precision"] < 1e-12

    def test_nonlocal_two_symbol_gap(self, capsys):
        code, out, _ = run_cli(
            capsys, "gap", "--n", "2", "--length", "5", "--chain", "nonlocal"
        )
        d = json.loads(out)
        assert code == 0
        assert d["gap"] == pytest.approx(0.2, abs=1e-12)

    def test_local_chain_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "gap", "--n", "2", "--length", "4", "--chain", "local"
        )
        d = json.loads(out)
        assert code == 0
        assert "caveat" not in d  # every path returns the eigenvalue gap
        assert d["chain"] == "local"
        assert 0.0 < d["gap"] < 1.0

    @pytest.mark.parametrize("gate", ["pf", "tl"])
    def test_local_gap_at_the_default_cutoff(self, capsys, gate):
        # 729 states go to ARPACK, and find the gap of the whole spectrum
        code, out, _ = run_cli(
            capsys, "gap", "--n", "3", "--length", "6", "--chain", "local",
            "--gate", gate,
        )
        assert code == 0
        d = json.loads(out)
        assert d["method"] == "iterative"
        mat = build_full_local(3, 6, GateKind.parse(gate)).matrix.toarray()
        mods = np.sort(np.abs(np.linalg.eigvals(mat)))
        assert abs(d["gap"] - (1.0 - mods[-2])) < 1e-12

    @pytest.mark.parametrize(
        "gate,gap", [("pf", 0.0077518715347026), ("tl", 0.00430296282287046)]
    )
    def test_local_chain_above_cutoff(self, capsys, gate, gap):
        # 6561 states, above the dense cutoff; the expected values are
        # the dense eigenvalue gaps from scipy.linalg.eigvals
        code, out, _ = run_cli(
            capsys, "gap", "--n", "3", "--length", "8", "--chain", "local",
            "--gate", gate,
        )
        d = json.loads(out)
        assert code == 0
        assert d["method"] == "iterative"
        assert d["gap"] == pytest.approx(gap, abs=1e-12)
        assert "caveat" not in d

    @pytest.mark.parametrize("chain", ["lumped", "nonlocal"])
    @pytest.mark.parametrize("n", ["4", "16"])
    def test_one_step_mixing_chain_iterative(self, capsys, chain, n):
        # at L=1 the deflated operator is zero, and ARPACK cannot start
        # from a vector that it sends to exactly zero (N=4 and 16 do)
        code, out, err = run_cli(
            capsys, "gap", "--n", n, "--length", "1", "--dense-cutoff", "1",
            "--chain", chain,
        )
        assert code == 0 and err == ""
        assert json.loads(out)["gap"] == pytest.approx(1.0, abs=1e-12)

    def test_no_cheeger_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "gap", "--n", "3", "--length", "4", "--no-cheeger"
        )
        d = json.loads(out)
        assert code == 0
        assert d["cheeger_upper"] is None
        assert d["phi_min"] is None

    def test_lower_witness_below_the_float_range_is_null(self, capsys):
        # phi^2/2 at N=10, L=1000 is below the smallest double: it is
        # written as null, never as 0, beside its log from the exact phi
        code, out, err = run_cli(capsys, "gap", "--n", "10", "--length", "1000")
        assert code == 0 and err == ""
        d = _strict_json(out)
        assert d["cheeger_lower_witness"] is None
        phi = cone_stats(10, 1000, 2).boundary_flow
        assert d["cheeger_witness"] == "cone d=2"
        log_phi = math.log(phi.numerator) - math.log(phi.denominator)
        assert d["cheeger_lower_witness_log"] == pytest.approx(
            2 * log_phi - math.log(2), rel=1e-14
        )
        assert d["cheeger_lower_witness_log"] < math.log(sys.float_info.min)
        assert d["phi_min"] > 0

    def test_lower_witness_in_range_has_no_log(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--n", "3", "--length", "6")
        assert code == 0
        d = _strict_json(out)
        assert d["cheeger_lower_witness"] == 0.5 * d["phi_min"] ** 2
        assert "cheeger_lower_witness_log" not in d

    def test_too_short_for_any_cut(self, capsys):
        # no cone fits at L=1 and charge cuts need N=2: the gap alone
        code, out, err = run_cli(capsys, "gap", "--n", "3", "--length", "1")
        assert code == 0 and err == ""
        d = json.loads(out)
        assert d["gap"] == pytest.approx(1.0)
        for key in ("cheeger_upper", "cheeger_lower_witness",
                    "cheeger_witness", "phi_min"):
            assert d[key] is None

    def test_export_matrix(self, capsys, tmp_path):
        target = tmp_path / "matrix.txt"
        code, _, _ = run_cli(
            capsys,
            "gap",
            "--n",
            "3",
            "--length",
            "4",
            "--export-matrix",
            str(target),
            "--out",
            str(tmp_path / "gap.json"),
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert len(lines) > 0
        row, col, value = lines[0].split()
        int(row), int(col)
        Fraction(value)  # lumped rows are exact
        meta = json.loads((tmp_path / "matrix.txt.meta.json").read_text())
        assert meta["parameters"]["entries"] == len(lines)


class TestExactExport:
    """``gap --exact`` exports the built chain's rows as exact rationals,
    each equal to the float export's entry for the same pair."""

    @staticmethod
    def _entries(path):
        rows = (line.split() for line in path.read_text().splitlines())
        return {(int(i), int(j)): value for i, j, value in rows}

    @pytest.mark.parametrize("chain", ["local", "nonlocal"])
    def test_entries_are_the_float_entries(self, capsys, tmp_path, chain):
        argv = ("gap", "--n", "2", "--length", "3", "--chain", chain)
        exact, floats = tmp_path / "exact.txt", tmp_path / "float.txt"
        code, _, err = run_cli(capsys, *argv, "--exact", "--export-matrix", str(exact))
        assert code == 0 and err == ""
        code, _, err = run_cli(capsys, *argv, "--export-matrix", str(floats))
        assert code == 0 and err == ""
        rational, plain = self._entries(exact), self._entries(floats)
        assert rational and rational.keys() == plain.keys()
        assert any("/" in value for value in rational.values())
        for pair, value in rational.items():
            assert re.fullmatch(r"\d+(/\d+)?", value), value
            assert float(Fraction(value)) == float(plain[pair]), pair
        for row in range(1 + max(i for i, _ in rational)):
            assert sum(Fraction(v) for (i, _), v in rational.items() if i == row) == 1


class TestExpansionCommand:
    def test_builds_no_chain(self, capsys, no_lumped_chain):
        for argv, phi in [
            (("--n", "3", "--length", "4", "--depth", "2"), "5/33"),
            (("--n", "2", "--length", "3", "--charge", "1"), "1/4"),
            (("--n", "2", "--length", "5"), "3/16"),
            (("--n", "3", "--length", "30"), None),
        ]:
            code, out, err = run_cli(capsys, "expansion", *argv)
            assert code == 0 and err == ""
            if phi is not None:
                assert json.loads(out)["phi_min"] == phi

    def test_nonpositive_charge_cut(self, capsys):
        code, out, _ = run_cli(
            capsys, "expansion", "--n", "2", "--length", "3", "--charge", "-1"
        )
        assert code == 0
        # the one charge -3 state leaves half the time: (1/8)(1/2) / (7/8)
        assert json.loads(out)["candidates"] == {"charge q=-1": "1/14"}
        code, _, err = run_cli(
            capsys, "expansion", "--n", "2", "--length", "3", "--charge", "-3"
        )
        assert code == 1 and "nonempty and proper" in err

    def test_single_cone(self, capsys):
        code, out, _ = run_cli(
            capsys, "expansion", "--n", "3", "--length", "4", "--depth", "2"
        )
        d = json.loads(out)
        assert code == 0
        assert d["candidates"] == {"cone d=2": "5/33"}
        assert d["phi_min"] == "5/33"
        assert d["witness"] == "cone d=2"

    def test_single_charge_cut(self, capsys):
        code, out, _ = run_cli(
            capsys, "expansion", "--n", "2", "--length", "3", "--charge", "1"
        )
        d = json.loads(out)
        assert code == 0
        assert d["candidates"] == {"charge q=1": "1/4"}

    def test_full_sweep_witness(self, capsys):
        code, out, _ = run_cli(capsys, "expansion", "--n", "2", "--length", "5")
        d = json.loads(out)
        assert code == 0
        assert d["witness"] == "charge q=1"
        assert d["phi_min"] == "3/16"
        assert "cone d=3" in d["candidates"]

    def test_too_short_for_any_cut(self, capsys):
        code, out, err = run_cli(capsys, "expansion", "--n", "3", "--length", "1")
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert "no candidate cuts" in err

    def test_charge_cut_needs_two_symbols(self, capsys):
        code, _, err = run_cli(
            capsys, "expansion", "--n", "3", "--length", "4", "--charge", "2"
        )
        assert code == 1
        assert "two-symbol" in err


class TestSimulateCommand:
    ARGS = (
        "simulate", "--n", "2", "--length", "6", "--t-max", "40",
        "--trajectories", "400", "--blocks", "4", "--seed", "9",
    )

    def test_series_schema(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        d = json.loads(out)
        assert code == 0
        assert d["config"]["initial"] == [2, 1, 2, 1, 2, 1]
        assert len(d["times"]) == 41
        assert d["means"]["charge:1"][0] == 1.0
        assert len(d["std_errors"]["charge:1"]) == 41

    def test_deterministic_artifact(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, *self.ARGS, "--out", str(a))
        run_cli(capsys, *self.ARGS, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_first_passage_block(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "2", "--length", "6", "--t-max", "400",
            "--trajectories", "400", "--blocks", "4", "--estimate-tq",
        )
        d = json.loads(out)
        assert code == 0
        fp = d["first_passage"]
        assert not fp["censored"]
        assert fp["ci_low"] <= fp["t_q"] <= fp["ci_high"]
        assert "per_trajectory_times" not in d

    def test_per_trajectory_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "2", "--length", "4", "--t-max", "200",
            "--trajectories", "50", "--blocks", "2", "--estimate-tq",
            "--per-trajectory",
        )
        d = json.loads(out)
        assert code == 0
        assert len(d["per_trajectory_times"]) == 50

    def test_sidecar_carries_wall_time(self, capsys, tmp_path):
        target = tmp_path / "sim.json"
        code, _, _ = run_cli(capsys, *self.ARGS, "--out", str(target))
        assert code == 0
        meta = json.loads((tmp_path / "sim.json.meta.json").read_text())
        assert meta["wall_s"] > 0
        assert "wall_s" not in meta["parameters"]
        assert "started" not in meta["parameters"]
        assert "wall" not in target.read_text()

    def test_initial_formats_agree(self, capsys):
        base = (
            "simulate", "--n", "2", "--length", "4", "--t-max", "5",
            "--trajectories", "40", "--blocks", "2",
        )
        _, out1, _ = run_cli(capsys, *base, "--initial", "2121")
        _, out2, _ = run_cli(capsys, *base, "--initial", "2,1,2,1")
        assert out1 == out2

    def test_bad_initial(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "2", "--length", "4", "--t-max", "5",
            "--initial", "21x1",
        )
        assert code == 1
        assert "initial" in err

    def test_initial_with_a_letter(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "--n", "2", "--length", "4", "--t-max", "5",
            "--initial", "2a21",
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "bad --initial value '2a21'" in err

    def test_bad_observable(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "2", "--length", "4", "--t-max", "5",
            "--observables", "entropy",
        )
        assert code == 1

    def test_no_observable(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "--n", "3", "--length", "4", "--t-max", "3",
            "--trajectories", "10", "--blocks", "2", "--observables", "",
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "observable" in err

    @pytest.mark.parametrize("resamples", ["0", "-3"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_resamples_must_be_positive(self, capsys, command, resamples):
        size = ("--length", "4") if command == "simulate" else ("--lengths", "4")
        extra = ("--estimate-tq",) if command == "simulate" else ()
        code, out, err = run_cli(
            capsys,
            command, "--n", "2", *size, "--t-max", "200", "--trajectories",
            "40", "--blocks", "2", "--resamples", resamples, *extra,
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "resample" in err

    def test_repeated_observable(self, capsys):
        # a repeated name used to double the time axis
        code, out, err = run_cli(
            capsys,
            "simulate", "--n", "2", "--length", "4", "--t-max", "3",
            "--trajectories", "10", "--blocks", "2",
            "--observables", "charge:1,charge:1",
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert "charge:1" in err


class TestSweepCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--n", "2", "--lengths", "4,6", "--t-max", "400",
            "--trajectories", "300", "--blocks", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("length,gamma,t_q,ci_low,ci_high,censored")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "4"
        assert first[5] == "false"
        assert float(first[7]) > 0  # the closed-form bound column

    def test_censored_cells_empty(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--n", "2", "--lengths", "8", "--t-max", "3",
            "--trajectories", "100", "--blocks", "2",
        )
        assert code == 0
        cells = out.strip().splitlines()[1].split(",")
        assert cells[2] == "" and cells[3] == "" and cells[4] == ""
        assert cells[5] == "true"

    def test_bad_lengths(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--n", "2", "--lengths", "4;6", "--t-max", "5"
        )
        assert code == 1

    def test_empty_lengths_names_the_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--n", "2", "--lengths", ",", "--t-max", "5"
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "--lengths needs at least one entry" in err


class TestBoundsCommand:
    def test_even_length_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "3", "--length", "4", "--gammas", "0.1"
        )
        d = json.loads(out)
        assert code == 0
        assert d["thm1"]["value"] == pytest.approx(15 / 81)
        assert d["charge_time_exact"]["meta"]["exact"] == "33/5"
        assert d["thm3"][0]["gamma"] == 0.1
        assert d["thm3"][0]["valid"] is True
        assert d["thm2"][0]["valid"] is False  # window empty for n=3
        assert d["n2_window"] is None
        assert "entropy_curve" not in d  # --curve-times left out

    @pytest.mark.parametrize("flag", ["--gammas", "--curve-times"])
    @pytest.mark.parametrize("value", ["", ","])
    def test_empty_list_is_a_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "bounds", "--n", "3", "--length", "4", flag, value
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and f"{flag} needs at least one entry" in err

    def test_odd_length_drops_even_only_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--n", "2", "--length", "7", "--gammas", "0.2"
        )
        d = json.loads(out)
        assert code == 0
        assert d["thm1"] is None
        assert d["charge_time_exact"] is None
        assert d["n2_window"][0] == pytest.approx(1 / (7 * 3.14159265), rel=1e-6)

    def test_entropy_curve_entries(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds", "--n", "3", "--length", "16",
            "--curve-times", "0,1", "--curve-depth", "1",
        )
        d = json.loads(out)
        assert code == 0
        curve = d["entropy_curve"]
        assert [pt["t"] for pt in curve] == [0.0, 1.0]
        assert curve[1]["value"] > curve[0]["value"]
        assert curve[0]["valid"] is True

    def test_exact_bound_past_the_float_range(self, capsys):
        # 1 / Phi(C_2) at N=10^6 is a Fraction past the largest double: it
        # is written as null, and its log, from the exact value, in the meta
        code, out, err = run_cli(capsys, "bounds", "--n", "1000000", "--length", "120")
        assert code == 0 and err == ""
        bound = _strict_json(out)["charge_time_exact"]
        assert bound["value"] is None
        exact = Fraction(bound["meta"]["exact"])
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        assert bound["meta"]["log_value"] == pytest.approx(log_exact, rel=1e-14)
        assert math.log(sys.float_info.max) < bound["meta"]["log_value"] < math.inf

    def test_gap_bound_below_the_float_range_is_null(self, capsys):
        # |K_0| / n^L at N=10^6, L=120 is near 1e-327, below the smallest
        # double: the value and the asymptotic are null beside their logs
        code, out, err = run_cli(capsys, "bounds", "--n", "1000000", "--length", "120")
        assert code == 0 and err == ""
        thm1 = _strict_json(out)["thm1"]
        assert thm1["value"] is None and thm1["meta"]["asymptotic"] is None
        exact = Fraction(thm1["meta"]["exact"])
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        assert thm1["meta"]["log_value"] == pytest.approx(log_exact, rel=1e-14)
        assert -math.inf < thm1["meta"]["log_value"] < math.log(sys.float_info.min)
        assert -math.inf < thm1["meta"]["asymptotic_log"] < math.log(sys.float_info.min)

    def test_exact_bound_in_range_has_no_log(self, capsys):
        # inside the float range the gamma=0 value is written as before
        code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--length", "20")
        assert code == 0
        bound = _strict_json(out)["charge_time_exact"]
        assert bound["value"] == float(Fraction(bound["meta"]["exact"]))
        assert "log_value" not in bound["meta"]

    @pytest.mark.parametrize(
        "argv,key",
        [
            (("--length", "1200"), "thm2"),
            (("--length", "1000", "--gammas", "0.05"), "thm2"),
            (("--length", "1001", "--gammas", "0.9"), "thm3"),
            (("--length", "600", "--gammas", "0.99"), "thm3"),
            (("--length", "2000", "--gammas", "0.9"), "thm3"),
        ],
    )
    def test_exponential_bound_past_the_float_range_is_null(self, capsys, argv, key):
        # the value passes the largest double: it is written as null, never
        # rounded, and its log stays in the meta
        code, out, err = run_cli(capsys, "bounds", "--n", "3", *argv)
        assert code == 0 and err == ""
        bound = _strict_json(out)[key][0]
        assert bound["value"] is None
        assert math.log(sys.float_info.max) < bound["meta"]["log_value"] < math.inf

    @pytest.mark.parametrize("n, length", [("3", "700"), ("1000000", "60")])
    def test_gap_bound_past_the_float_range_of_n_to_the_l(self, capsys, n, length):
        # n**L and K_0 overflow a double, their ratio does not
        code, out, err = run_cli(capsys, "bounds", "--n", n, "--length", length)
        assert code == 0 and err == ""
        thm1 = _strict_json(out)["thm1"]
        assert math.isfinite(thm1["value"]) and thm1["value"] > 0
        assert math.isfinite(thm1["meta"]["asymptotic"])
        assert thm1["meta"]["asymptotic"] > 0

    def test_empty_thm2_window_is_null(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "2", "--length", "4")
        assert code == 0
        d = _strict_json(out)
        assert d["thm2"][0]["value"] is None
        assert d["thm2"][0]["valid"] is False

    def test_curve_past_the_float_range(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--n", "3", "--length", "40",
            "--curve-times", "1e308", "--curve-depth", "13",
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "numerical failure" in err

    @pytest.mark.parametrize("times", ["nan", "inf", "1,-inf"])
    def test_non_finite_curve_times(self, capsys, times):
        # json would write them as NaN or Infinity, which is not JSON
        code, out, err = run_cli(
            capsys, "bounds", "--n", "3", "--length", "4", "--curve-times", times
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "finite" in err


class TestEscapeCommand:
    def test_escape_payload(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "escape", "--n", "3", "--length", "6", "--depth", "2",
            "--times", "0,1", "--trajectories", "1000", "--blocks", "5",
        )
        d = json.loads(out)
        assert code == 0
        assert d["probability"][0] == 0.0
        assert d["flow"] == pytest.approx(
            float(cone_stats(3, 6, 2).boundary_flow)
        )

    def test_output_independent_of_threads(self, capsys, monkeypatch):
        # two slabs of this small ensemble, below the slab-size floor
        monkeypatch.setattr(pairflip.montecarlo, "_MIN_SLAB_SITES", 1)
        argv = ("escape", "--n", "3", "--length", "8", "--depth", "2",
                "--times", "0,1,3", "--trajectories", "700", "--blocks", "7",
                "--gate", "tl", "--seed", "5")
        code1, out1, _ = run_cli(capsys, *argv, "--threads", "1")
        code2, out2, _ = run_cli(capsys, *argv, "--threads", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bad_depth(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "escape", "--n", "3", "--length", "6", "--depth", "3",
            "--times", "0,1",
        )
        assert code == 1

    @pytest.mark.parametrize("times", ["", ",,"])
    def test_empty_times_names_the_flag(self, capsys, times):
        code, out, err = run_cli(
            capsys,
            "escape", "--n", "3", "--length", "6", "--depth", "2",
            "--times", times,
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "--times needs at least one entry" in err

    def test_bad_times_entry(self, capsys):
        code, _, err = run_cli(
            capsys,
            "escape", "--n", "3", "--length", "6", "--depth", "2",
            "--times", "0,1.5",
        )
        assert code == 1
        assert "bad --times value '0,1.5'" in err


class TestBlocksPastTrajectories:
    COMMANDS = {
        "simulate": ["simulate", "--n", "3", "--length", "4", "--t-max", "5"],
        "escape": ["escape", "--n", "3", "--length", "4", "--depth", "2",
                   "--times", "0,3"],
    }

    @staticmethod
    def _run_limited(argvs):
        """Exit codes of ``main`` on each argv, run in a subprocess with a
        timeout and a 1 GiB address-space limit."""
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from pairflip.cli import main\n"
            f"print([main(argv) for argv in {argvs!r}])\n"
        )
        src = str(Path(pairflip.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout), proc.stderr

    def test_empty_blocks_cost_nothing(self, capsys, tmp_path):
        # blocks past the trajectory count would be empty; built, 10^18
        # of them would never finish
        codes, _ = self._run_limited([
            [*argv, "--trajectories", "5", "--blocks", str(10**18),
             "--out", str(tmp_path / f"{name}.json")]
            for name, argv in self.COMMANDS.items()
        ])
        assert codes == [0, 0]
        for name, argv in self.COMMANDS.items():
            code, out, _ = run_cli(capsys, *argv, "--trajectories", "5", "--blocks", "5")
            assert code == 0
            got = json.loads((tmp_path / f"{name}.json").read_text())
            if "config" in got:  # simulate's echo of its flags
                assert got["config"]["blocks"] == 10**18
                got["config"]["blocks"] = 5
            assert got == json.loads(out)

    def test_too_many_nonempty_blocks_exit_3(self):
        # 10^17 nonempty blocks would fill memory one block at a time
        # before any array allocation failed; the config refuses them
        codes, err = self._run_limited([
            [*argv, "--trajectories", str(10**20), "--blocks", str(10**17)]
            for argv in self.COMMANDS.values()
        ])
        assert codes == [3, 3]
        assert err.count("above the cap of 1 GiB") == 2


class TestAlphabetLimit:
    # trajectories are int8 arrays: 127 symbols fit, 128 do not
    SIMULATE = ("simulate", "--length", "4", "--t-max", "2",
                "--trajectories", "10", "--blocks", "2")
    ESCAPE = ("escape", "--length", "4", "--depth", "2", "--times", "0,1",
              "--trajectories", "10", "--blocks", "2")

    @pytest.mark.parametrize("command", [SIMULATE, ESCAPE])
    def test_rejects_128(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--n", "128")
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert "int8" in err

    @pytest.mark.parametrize("command", [SIMULATE, ESCAPE])
    def test_runs_127(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--n", "127")
        assert code == 0 and err == ""
        json.loads(out)


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "census")
        assert code == 0
        assert all(
            line.startswith("ok") or "checks passed" in line
            for line in out.strip().splitlines()
        )

    def test_thread_count_check_listed_and_passing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "montecarlo")
        assert code == 0
        assert "ok   montecarlo.thread_count_invariant" in out.splitlines()[2]

    def test_symbol_stream_check_listed_and_passing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "montecarlo")
        assert code == 0
        assert "ok   montecarlo.symbol_stream_chunk_invariant: ok" in out.splitlines()

    def test_symbol_contract_check_listed_and_passing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "montecarlo")
        assert code == 0
        assert "ok   montecarlo.symbols_follow_contract: ok" in out.splitlines()

    def test_carried_charge_check_listed_and_passing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "montecarlo")
        assert code == 0
        assert "ok   montecarlo.carried_charge_matches_recount: ok" in out.splitlines()

    def test_cone_sampler_block_check_listed_and_passing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "montecarlo")
        assert code == 0
        assert "ok   montecarlo.cone_sampler_block_invariant: ok" in out.splitlines()

    def test_carried_word_check_listed_and_passing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "montecarlo")
        assert code == 0
        assert "ok   montecarlo.carried_word_matches_reduction: ok" in out.splitlines()

    def test_rows_any_order_check_listed_and_passing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "census")
        assert code == 0
        assert "ok   census.rows_any_order: ok" in out.splitlines()

    def test_local_iterative_check_listed_and_passing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "gaps")
        assert code == 0
        assert any(
            line.startswith("ok   spectra.local_iterative_matches_dense: ")
            for line in out.splitlines()
        )

    def test_lumped_blocks_check_listed_and_passing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "gaps")
        assert code == 0
        assert any(
            line.startswith("ok   spectra.lumped_blocks_match_chain: ")
            for line in out.splitlines()
        )

    def test_block_zero_check_listed_and_passing(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "gaps")
        assert code == 0
        assert any(
            line.startswith("ok   spectra.block_zero_holds_the_gap: ")
            for line in out.splitlines()
        )

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 1
        assert "unknown suite" in err

    @pytest.mark.parametrize("suite", [",", "", " , "])
    def test_empty_suite_list(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite)
        assert code == 1 and out == ""
        assert "names no suite" in err


class TestMonteCarloFlags:
    """Every command's flags: ``(dest, default, type, required)``."""

    ENSEMBLE = {
        "--gate": ("gate", "pf", None, False),
        "--trajectories": ("trajectories", 10_000, int, False),
        "--seed": ("seed", 0, int, False),
        "--blocks": ("blocks", 100, int, False),
        "--threads": ("threads", 1, int, False),
    }
    COMMON = {
        "-h": ("help", "==SUPPRESS==", None, False),
        "--config": ("config", None, None, False),
        "--out": ("out", None, None, False),
        "--n": ("n", None, int, True),
    }
    TIMES = {
        "--t-max": ("t_max", None, int, True),
        "--gamma": ("gamma", 0.1, float, False),
        "--resamples": ("resamples", 1000, int, False),
    }
    LENGTH = {"--length": ("length", None, int, True)}
    EXPECTED = {
        "census": {**COMMON, **LENGTH},
        "gap": {
            **COMMON, **LENGTH,
            "--chain": ("chain", "lumped", None, False),
            "--gate": ("gate", "pf", None, False),
            "--exact": ("exact", False, None, False),
            "--tol": ("tol", pairflip.spectra.DEFAULT_TOL, float, False),
            "--dense-cutoff": (
                "dense_cutoff", pairflip.spectra.DENSE_CUTOFF, int, False
            ),
            "--max-iterations": (
                "max_iterations", pairflip.spectra.MAX_ITERATIONS, int, False
            ),
            "--state-cap": (
                "state_cap", pairflip.chains.DEFAULT_STATE_CAP, int, False
            ),
            "--no-cheeger": ("no_cheeger", False, None, False),
            "--export-matrix": ("export_matrix", None, None, False),
        },
        "expansion": {
            **COMMON, **LENGTH,
            "--depth": ("depth", None, int, False),
            "--charge": ("charge", None, int, False),
        },
        "bounds": {
            **COMMON, **LENGTH,
            "--gammas": ("gammas", "0.1", None, False),
            "--curve-times": ("curve_times", None, None, False),
            "--curve-depth": ("curve_depth", 0.0, float, False),
            "--bipartite": ("bipartite", False, None, False),
        },
        "verify": {
            "-h": COMMON["-h"],
            "--suite": ("suite", None, None, False),
        },
        "simulate": {
            **COMMON, **ENSEMBLE, **TIMES,
            "--length": ("length", None, int, True),
            "--observables": ("observables", "charge:1", None, False),
            "--initial": ("initial", None, None, False),
            "--estimate-tq": ("estimate_tq", False, None, False),
            "--per-trajectory": ("per_trajectory", False, None, False),
        },
        "sweep": {
            **COMMON, **ENSEMBLE, **TIMES,
            "--lengths": ("lengths", None, None, True),
        },
        "escape": {
            **COMMON, **ENSEMBLE,
            "--length": ("length", None, int, True),
            "--depth": ("depth", None, int, True),
            "--times": ("times", None, None, True),
        },
    }

    @pytest.mark.parametrize("command", sorted(EXPECTED))
    def test_flags_and_defaults(self, command):
        _, registry = pairflip.cli.build_parser()
        actions = {
            a.option_strings[0]: (a.dest, a.default, a.type, a.required)
            for a in registry[command]._actions
        }
        assert actions == self.EXPECTED[command]


def _readme_commands():
    """The ``pairflip ...`` lines of the README's command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("pairflip ")]


class TestReadmeCommands:
    """Every README command line parses with the real parser; nothing runs."""

    def test_block_lists_every_command(self):
        _, registry = pairflip.cli.build_parser()
        assert {shlex.split(line)[1] for line in _readme_commands()} == set(registry)

    @pytest.mark.parametrize("line", _readme_commands())
    def test_parses(self, line):
        parser, _ = pairflip.cli.build_parser()
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0]


class TestUnwritableOutput:
    """An output that cannot be written is a usage error (exit 1), with no
    traceback and no temp file left behind."""

    def _check(self, capsys, tmp_path, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert "cannot write" in err
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]

    def test_out_below_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        self._check(capsys, tmp_path, "census", "--n", "3", "--length", "4",
                    "--out", str(blocker / "x.csv"))

    def test_out_is_a_directory(self, capsys, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        self._check(capsys, tmp_path, "expansion", "--n", "3", "--length", "4",
                    "--out", str(target))
        assert list(target.iterdir()) == []

    def test_export_matrix_below_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        self._check(capsys, tmp_path, "gap", "--n", "3", "--length", "4",
                    "--export-matrix", str(blocker / "m.txt"))


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "gap", "--n", "3")[0] == 1
        assert run_cli(capsys, "nonsense")[0] == 1
        assert run_cli(capsys, "census", "--n", "1", "--length", "4")[0] == 1

    def test_resource_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "gap", "--n", "4", "--length", "11", "--chain", "local"
        )
        assert code == 3
        assert "cap" in err.lower()

    def test_memory_error_is_a_resource_cap(self, capsys, monkeypatch):
        # a huge --trajectories fails in numpy's allocation; raised here
        # by hand, so that the test allocates nothing
        def out_of_memory(cfg):
            raise MemoryError("Unable to allocate 3.47 EiB")

        monkeypatch.setattr(pairflip.cli, "run_ensemble", out_of_memory)
        code, out, err = run_cli(
            capsys, "simulate", "--n", "3", "--length", "4", "--t-max", "5",
            "--trajectories", "99999999999999999999",
        )
        assert code == 3 and out == ""
        assert err == "pairflip: resource cap: Unable to allocate 3.47 EiB\n"

    def test_recording_cap_builds_no_slab(self, capsys, monkeypatch):
        # 1000 blocks recording 10^8 + 1 times would need about 1.5 TiB of
        # block sums; the run is refused before a slab is built
        def no_slab(*args, **kwargs):
            raise AssertionError("a slab was built")

        monkeypatch.setattr(pairflip.montecarlo, "_Slab", no_slab)
        code, out, err = run_cli(
            capsys, "simulate", "--n", "3", "--length", "4", "--blocks", "1000",
            "--trajectories", "1000", "--t-max", "100000000",
        )
        assert code == 3 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("pairflip: resource cap: recording 1000 blocks")
        assert "above the cap of 4 GiB" in err

    def test_numeric_failure(self, capsys):
        # only the local chain runs ARPACK
        code, _, err = run_cli(
            capsys,
            "gap", "--n", "3", "--length", "8", "--chain", "local",
            "--dense-cutoff", "4", "--max-iterations", "1", "--tol", "1e-15",
        )
        assert code == 2
        assert "numerical failure" in err
        assert "eigensolver did not converge" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--n", "3", "--length", "100000"),
            ("gap", "--n", "3", "--length", "20000"),
            ("expansion", "--n", "3", "--length", "100000"),
            ("expansion", "--n", "2", "--length", "100000", "--charge", "2"),
            ("expansion", "--n", "2", "--length", "1000000000000", "--charge", "2"),
            ("census", "--n", "2", "--length", "1000000000"),
        ],
    )
    def test_sector_dimension_memory_cap(self, capsys, argv):
        # the dimension rows grow like L^3 in memory; a length past the
        # cap fails at once instead of filling the machine
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "GiB" in err

    def test_long_census_below_the_memory_cap(self, capsys):
        code, out, err = run_cli(capsys, "census", "--n", "3", "--length", "2000")
        assert code == 0 and err == ""
        assert out.count("\n") == 1 + 1001

    def test_long_n2_charge_cut_stays_small(self):
        # the cut reads rows L and L-1 alone; a process that kept every row
        # up to L = 3468 peaked near 900 MiB. A forked child's ru_maxrss
        # starts at its parent's RSS, so the command runs under a small
        # interpreter, not under pytest, which reads its child's peak.
        script = (
            "import resource, subprocess, sys\n"
            "argv = ['expansion', '--n', '2', '--length', '3468', '--charge', '2']\n"
            "proc = subprocess.run([sys.executable, '-m', 'pairflip.cli', *argv],"
            " stdout=subprocess.DEVNULL)\n"
            "print(proc.returncode,"
            " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        src = str(Path(pairflip.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        code, maxrss_kib = proc.stdout.split()
        assert code == "0", proc.stderr
        assert int(maxrss_kib) < 256 * 1024


class TestMonteCarloCommandsProperty:
    """Any small Monte Carlo command ends in an exit code, never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["simulate", "sweep", "escape"]),
        n=st.one_of(st.integers(2, 5), st.integers(2, 300)),
        length=st.integers(1, 9),
        t_max=st.integers(0, 3),
        trajectories=st.integers(1, 50),
        blocks=st.integers(1, 80),
        threads=st.integers(1, 3),
        gate=st.sampled_from(["pf", "tl"]),
        depth=st.integers(0, 10),
        estimate=st.booleans(),
    )
    def test_exit_code_and_one_line(
        self, command, n, length, t_max, trajectories, blocks, threads, gate,
        depth, estimate,
    ):
        argv = [command, "--n", str(n), "--gate", gate,
                "--trajectories", str(trajectories), "--blocks", str(blocks),
                "--threads", str(threads), "--seed", str(length)]
        if command == "escape":
            times = ",".join(str(t) for t in range(t_max + 1))
            argv += ["--length", str(length), "--depth", str(depth),
                     "--times", times]
        else:
            argv += ["--t-max", str(t_max), "--resamples", "20"]
            if command == "sweep":
                argv += ["--lengths", f"{length},{length + 1}"]
            else:
                argv += ["--length", str(length)]
                if estimate:
                    argv += ["--estimate-tq", "--per-trajectory"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert err.getvalue().count("\n") <= 1
        assert (code == 0) == (err.getvalue() == "")


class TestGapCommandProperty:
    """Any small gap command ends in an exit code, never a traceback, and
    its gap does not depend on the dense cutoff."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        chain=st.sampled_from(["lumped", "nonlocal", "local"]),
        gate=st.sampled_from(["pf", "tl"]),
        n=st.integers(2, 4),
        length=st.integers(1, 5),
        cutoff=st.sampled_from([1, 2, 10, None]),
        exact=st.booleans(),
        no_cheeger=st.booleans(),
        export=st.booleans(),
    )
    def test_exit_code_and_cutoff_invariance(
        self, tmp_path, chain, gate, n, length, cutoff, exact, no_cheeger,
        export,
    ):
        base = ["gap", "--chain", chain, "--gate", gate, "--n", str(n),
                "--length", str(length)]
        argv = list(base)
        if cutoff is not None:
            argv += ["--dense-cutoff", str(cutoff)]
        if exact:
            argv.append("--exact")
        if no_cheeger:
            argv.append("--no-cheeger")
        if export:
            argv += ["--export-matrix", str(tmp_path / "matrix.txt")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert err.getvalue().count("\n") <= 1
        assert (code == 0) == (err.getvalue() == "")
        if code == 0:
            ref = io.StringIO()
            with contextlib.redirect_stdout(ref):
                assert main(base + ["--no-cheeger"]) == 0
            gap = json.loads(out.getvalue())["gap"]
            assert abs(gap - json.loads(ref.getvalue())["gap"]) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 6), length=st.integers(1, 60))
    def test_lumped_any_length(self, n, length):
        # no chain is built, so no length within reach hits the state cap
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["gap", "--n", str(n), "--length", str(length)])
        assert code == 0
        assert err.getvalue().count("\n") <= 1
        assert json.loads(out.getvalue())["gap"] > 0


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def _run_captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 0.1, 0.5, 0.999, 1.0, -1.0]),
)
# every large length passes the dimension rows' memory cap at any
# alphabet; bounds reaches the odd ones without those rows, so it also
# gets 1001
_LENGTHS = st.one_of(
    st.integers(-3, 80), st.sampled_from([10**5, 10**5 + 1, 10**12])
)
_BOUNDS_LENGTHS = st.one_of(_LENGTHS, st.just(1001))
_ALPHABETS = st.one_of(
    st.integers(-2, 6), st.integers(7, 10**80), st.just(10**400)
)
_WIDE_INTS = st.one_of(st.integers(-6, 30), st.integers(-(10**30), 10**30))


class TestSmallCommandsProperty:
    """census, expansion, bounds and verify --suite end in an exit code,
    never a traceback, with at most one stderr line."""

    @settings(max_examples=40, deadline=None)
    @given(n=_ALPHABETS, length=_LENGTHS)
    def test_census(self, n, length):
        code, out, err = _run_captured(
            ["census", "--n", str(n), "--length", str(length)]
        )
        assert code in (0, 1, 2, 3)
        assert err.count("\n") <= 1 and (code == 0) == (err == "")
        if code == 0:
            assert out.startswith("d,multiplicity")

    @settings(max_examples=60, deadline=None)
    @given(
        n=_ALPHABETS,
        length=_LENGTHS,
        depth=st.one_of(st.none(), _WIDE_INTS),
        charge=st.one_of(st.none(), _WIDE_INTS),
    )
    def test_expansion(self, n, length, depth, charge):
        argv = ["expansion", "--n", str(n), "--length", str(length)]
        if depth is not None:
            argv += ["--depth", str(depth)]
        if charge is not None:
            argv += ["--charge", str(charge)]
        code, out, err = _run_captured(argv)
        assert code in (0, 1, 2, 3)
        assert err.count("\n") <= 1 and (code == 0) == (err == "")
        if code == 0:
            d = _strict_json(out)
            # read as text: the exact flow at an alphabet of 10^400 has more
            # digits than this process converts to an int
            assert re.fullmatch(r"[1-9][0-9]*/[1-9][0-9]*", d["phi_min"])

    @settings(max_examples=60, deadline=None)
    @given(
        n=_ALPHABETS,
        length=_BOUNDS_LENGTHS,
        gammas=st.lists(_FLOATS, min_size=1, max_size=3),
        times=st.one_of(st.none(), st.lists(_FLOATS, min_size=1, max_size=3)),
        depth=_FLOATS,
        bipartite=st.booleans(),
    )
    def test_bounds(self, n, length, gammas, times, depth, bipartite):
        argv = ["bounds", "--n", str(n), "--length", str(length),
                "--gammas", ",".join(map(str, gammas)),
                f"--curve-depth={depth}"]
        if times is not None:
            argv.append("--curve-times=" + ",".join(map(str, times)))
        if bipartite:
            argv.append("--bipartite")
        code, out, err = _run_captured(argv)
        assert code in (0, 1, 2, 3)
        assert err.count("\n") <= 1 and (code == 0) == (err == "")
        if code == 0:
            _strict_json(out)  # no NaN and no Infinity
            assert "NaN" not in out and "Infinity" not in out

    @settings(max_examples=40, deadline=None)
    @given(
        suite=st.one_of(
            st.lists(
                st.sampled_from(["census", "bounds", "nonsense", "", " "]),
                max_size=3,
            ).map(",".join),
            st.text(max_size=10),
        )
    )
    def test_verify_suite(self, suite):
        code, out, err = _run_captured(["verify", f"--suite={suite}"])
        assert code in (0, 1)
        assert err.count("\n") <= 1 and (code == 0) == (err == "")
        if code == 0:
            assert "FAIL" not in out and "0/0" not in out


class TestConfigFile:
    def test_defaults_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# defaults\nn = 2\nlengths = 4\nt-max = 300\n"
            "trajectories = 200\nblocks = 2\n"
        )
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[0] == "4"
        code, out, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--lengths", "6"
        )
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[0] == "6"

    def test_boolean_key(self, capsys, tmp_path):
        cfg = tmp_path / "gap.cfg"
        cfg.write_text("no-cheeger = true\n")
        code, out, _ = run_cli(
            capsys, "gap", "--n", "3", "--length", "4", "--config", str(cfg)
        )
        assert code == 0
        assert json.loads(out)["cheeger_upper"] is None

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volume = 3\n")
        code, _, err = run_cli(
            capsys, "census", "--n", "3", "--length", "4", "--config", str(cfg)
        )
        assert code == 1
        assert "volume" in err

    def test_bad_value(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("length = soon\n")
        code, _, _ = run_cli(
            capsys, "census", "--n", "3", "--config", str(cfg)
        )
        assert code == 1

    def test_last_config_wins(self, capsys, tmp_path):
        first, last = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("length = 5\n")
        last.write_text("length = 7\n")
        for argv in (
            ["--config", str(first), "--config", str(last)],
            [f"--config={first}", f"--config={last}"],
            ["--config", str(first), f"--config={last}"],
        ):
            code, out, _ = run_cli(capsys, "gap", "--n", "3", "--no-cheeger", *argv)
            assert code == 0
            assert json.loads(out)["length"] == 7

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "census", "--n", "3", "--length", "4",
            "--config", str(tmp_path / "absent.cfg"),
        )
        assert code == 1
        assert "config" in err


class TestAbbreviatedConfig:
    """``--config`` may be abbreviated, as argparse allows every option."""

    @pytest.mark.parametrize("joined", [False, True])
    def test_prefix_is_read(self, capsys, tmp_path, joined):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("length = 5\n")
        flag = [f"--conf={cfg}"] if joined else ["--conf", str(cfg)]
        code, out, err = run_cli(capsys, "gap", "--n", "3", *flag)
        assert code == 0 and err == ""
        ref = run_cli(capsys, "gap", "--n", "3", "--length", "5")
        assert out == ref[1] and json.loads(out)["length"] == 5

    def test_missing_file_through_a_prefix(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "gap", "--n", "3", "--length", "8",
            "--conf", str(tmp_path / "absent.cfg"),
        )
        assert code == 1 and out == ""
        assert "cannot read config file" in err

    def test_ambiguous_prefix_is_a_usage_error(self, capsys, tmp_path):
        # --c could be --chain or --config
        cfg = tmp_path / "a.cfg"
        cfg.write_text("length = 5\n")
        code, out, err = run_cli(capsys, "gap", "--n", "3", "--c", str(cfg))
        assert code == 1 and out == ""
        assert "ambiguous option" in err


class TestNoStateBetweenCalls:
    """In-process ``main`` calls share one parser; no call may leave a
    trace in the next."""

    def test_config_required_flag_does_not_carry_over(self, capsys, tmp_path):
        cfg = tmp_path / "census.cfg"
        cfg.write_text("length = 4\n")
        assert run_cli(capsys, "census", "--n", "3", "--config", str(cfg))[0] == 0
        code, _, err = run_cli(capsys, "census", "--n", "3")
        assert code == 1
        assert "--length" in err

    def test_config_boolean_does_not_carry_over(self, capsys, tmp_path):
        cfg = tmp_path / "gap.cfg"
        cfg.write_text("no-cheeger = true\n")
        argv = ("gap", "--n", "3", "--length", "4")
        code, out, _ = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0 and json.loads(out)["cheeger_upper"] is None
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["cheeger_upper"] is not None

    def test_identical_calls_identical_artifacts(self, capsys, tmp_path):
        cfg = tmp_path / "gap.cfg"
        cfg.write_text("chain = local\nlength = 6\n")
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "gap", "--n", "3", "--config", str(cfg), "--out", str(path)
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert json.loads(paths[0].read_text())["chain"] == "local"

    def test_config_value_meets_the_flag_checks(self, capsys, tmp_path):
        # a config entry is parsed as its flag, so a choice outside the
        # flag's choices is a usage error, not a default passed through
        cfg = tmp_path / "gap.cfg"
        cfg.write_text("chain = bogus\n")
        code, out, err = run_cli(
            capsys, "gap", "--n", "3", "--length", "4", "--config", str(cfg)
        )
        assert code == 1 and out == ""
        assert "--chain" in err


class TestEntryPoint:
    def test_console_script_version(self):
        exe = shutil.which("pairflip")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "--version"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pairflip.cli", "census", "--n", "2",
             "--length", "2"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0].startswith("d,multiplicity")

    def test_package_invocation_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pairflip", "--help"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "usage: pairflip" in proc.stdout

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pairflip.cli", "--help"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "census" in proc.stdout
