"""CLI contract tests: artifacts, schemas, exit codes, config files."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pairflip.census
import pairflip.chains
import pairflip.cli
import pairflip.spectra
from pairflip.census import cone_stats, k0_asymptotic, kd_asymptotic
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
        assert d["method"] == "dense"
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

    def test_bad_observable(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "2", "--length", "4", "--t-max", "5",
            "--observables", "entropy",
        )
        assert code == 1

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "3", "--length", "1001", "--gammas", "0.9"),
            ("--n", "1000000", "--length", "60"),
        ],
    )
    def test_bound_past_the_float_range(self, capsys, argv):
        # a lower bound on a time cannot be rounded to inf
        code, out, err = run_cli(capsys, "bounds", *argv)
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

    def test_bad_depth(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "escape", "--n", "3", "--length", "6", "--depth", "3",
            "--times", "0,1",
        )
        assert code == 1


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

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nonsense")
        assert code == 1
        assert "unknown suite" in err

    @pytest.mark.parametrize("suite", [",", "", " , "])
    def test_empty_suite_list(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite)
        assert code == 1 and out == ""
        assert "names no suite" in err


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

    def test_long_census_below_the_memory_cap(self, capsys, monkeypatch):
        # a private row cache, so the 2000 rows are freed after the test
        monkeypatch.setattr(pairflip.census, "_ROWS", {})
        code, out, err = run_cli(capsys, "census", "--n", "3", "--length", "2000")
        assert code == 0 and err == ""
        assert out.count("\n") == 1 + 1001


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
    with (
        pytest.MonkeyPatch.context() as mp,
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        # a private row cache per call, so that the dimension rows of many
        # wide alphabets do not pile up over the examples
        mp.setattr(pairflip.census, "_ROWS", {})
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
            assert Fraction(d["phi_min"]) > 0

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
            assert "NaN" not in out

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

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "census", "--n", "3", "--length", "4",
            "--config", str(tmp_path / "absent.cfg"),
        )
        assert code == 1
        assert "config" in err


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

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pairflip.cli", "--help"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "census" in proc.stdout
