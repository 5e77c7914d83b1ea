"""Command-line interface: flag parsing, outputs, exit codes, determinism.

Exit-code contract: 0 on success, 1 for usage problems (bad flags, flag or
config values the library rejects, missing files, malformed config or
dataset files, datasets that break a dataset rule), 2 for numerical failures
inside a computation.
Output bytes must not depend on the worker count; that is checked through
real subprocess runs with different LAMA_THREADS settings.
"""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from lama import cli
from lama.cli import _parse_int_list, _parse_range, _write_json, build_parser, run
from lama.experiments import SimulationConfig
from lama.risk_theory import InputError


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    # json.loads hands NaN, Infinity and -Infinity here; strict JSON has none.
    raise ValueError(f"non-finite constant {name} in JSON output")


class TestRangeParsing:
    def test_forms(self):
        assert _parse_range("5") == [5]
        assert _parse_range("1:5") == [1, 2, 3, 4, 5]
        assert _parse_range("2:10:4") == [2, 6, 10]
        assert _parse_int_list("1:3,7,10:12") == [1, 2, 3, 7, 10, 11, 12]

    def test_bad_ranges(self):
        for text in ("3:1", "1:5:0", "1:2:3:4"):
            with pytest.raises(ValueError, match="range"):
                _parse_range(text)

    @pytest.mark.parametrize(
        "argv",
        [
            ["surface", "--n-range", "5:3", "--m-range", "1:2"],
            ["surface", "--n-range", "a", "--m-range", "1:2"],
            ["surface", "--n-range", "20", "--m-range", "1:2:0"],
            ["simulate", "--r2", "0.5,x"],
            ["simulate", "--n", "8,b", "--m", "3"],
            ["simulate", "--n", "8", "--m", "5:3"],
            ["validate-thm1", "--n", "20", "--sizes", "2,x"],
            ["validate-thm1", "--n", "20", "--sizes", "2,4", "--weights", "0.5,y"],
            ["validate-rmt", "--n", "30", "--c", "2.0", "--theta", "1,z"],
        ],
    )
    def test_malformed_list_flags_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "bad value" in err and "numerical failure" not in err


@pytest.mark.parametrize(
    "argv, file, name",
    [
        (["eval", "--data", "crime", "--n-train", "18", "--methods", "mma,foo", "--reps", "5"], None,
         "--methods"),
        (["eval", "--data", "crime", "--n-train", "18", "--max-models", "999", "--reps", "2"], None,
         "--max-models"),
        (["eval", "--data", "crime", "--n-train", "1", "--reps", "2"], None, "--n-train"),
        (["fit", "--data", "mtcars", "--max-models", "99"], None, "--max-models"),
        (["fit", "--data", "mtcars", "--n-train", "1"], None, "--n-train"),
        (["fit", "--data", "mtcars", "--methods", "foo"], None, "--methods"),
        (["simulate", "--r2", "1.5"], None, "--r2"),
        (["simulate", "--reps", "0"], None, "--reps"),
        (["simulate", "--n", "2"], None, "--n"),
        (["simulate", "--n", "20", "--m", "0", "--p", "50", "--reps", "2", "--methods", "mma"], None, "--m"),
        (["simulate", "--n", "20", "--m=-3", "--p", "50", "--reps", "2", "--methods", "mma"], None, "--m"),
        (["simulate"], {"r2_values": []}, "r2_values"),
        (["simulate"], {"m_values": [0]}, "m_values"),
        (["eval", "--data", "crime", "--n-train", "18", "--reps", "2", "--methods", ","], None, "--methods"),
        (["simulate", "--n", "8", "--m", "3", "--p", "8", "--reps", "2", "--methods", ","], None, "--methods"),
        (["fit", "--data", "mtcars", "--methods", ","], None, "--methods"),
        (["validate-rmt", "--n", "30", "--c", "0.5", "--theta", "1,2"], None, "--theta"),
        (["validate-rmt", "--n", "4", "--c", "1.5", "--reps", "2", "--theta", "nan,0,0,0,0,0"], None, "--theta"),
        (["simulate"], {"n_values": 5}, "n_values"),
        (["simulate"], {"replications": "a"}, "replications"),
        (["simulate"], {"methods": "mma"}, "methods"),
        (["surface", "--n-range", "20", "--m-range", "10", "--truncate", "0"], None, "--truncate"),
        (["surface", "--n-range", "20", "--m-range", "10", "--snr", "nan"], None, "--snr"),
        (["surface", "--n-range", "20", "--m-range", "10", "--r2", "1.5"], None, "--r2"),
        (["surface", "--n-range", "20", "--m-range", "10", "--sigma2", "0"], None, "--sigma2"),
        (["validate-rmt", "--n", "30", "--c", "0.01"], None, "--c"),
        (["surface", "--n-range", "0", "--m-range", "5"], None, "--n-range"),
        (["surface", "--n-range", "20", "--m-range", "0"], None, "--m-range"),
        (["validate-rmt", "--n", "30", "--c", "nan"], None, "--c"),
        (["surface", "--n-range", "20", "--m-range", "10", "--decay", "nan"], None, "--decay"),
        (["surface", "--n-range", "20", "--m-range", "10", "--snr", "1e308", "--sigma2", "1e308"], None,
         "--snr"),
        (["surface", "--n-range", "20", "--m-range", "10", "--r2", "0.5", "--alpha", "1e308"], None,
         "--alpha"),
        (["validate-thm1", "--n", "20", "--sizes", "0,4", "--reps", "1"], None, "--sizes"),
        (["validate-thm1", "--n", "20", "--sizes", "4,2", "--reps", "1"], None, "--sizes"),
        (["validate-thm1", "--n", "20", "--sizes", "2,4", "--reps", "0"], None, "--reps"),
        (["validate-thm1", "--n", "0", "--sizes", "2,4", "--reps", "1"], None, "--n:"),
        (["validate-rmt", "--n", "20", "--c", "0.5", "--reps", "0"], None, "--reps"),
        (["validate-thm1", "--n", "20", "--sizes", "2,4", "--reps", "1", "--weights", "0.5,nan"], None,
         "--weights"),
        (["validate-thm1", "--n", "20", "--sizes", "2,4", "--reps", "1", "--weights", "0.7,0.7"], None,
         "--weights"),
        (["validate-thm1", "--n", "20", "--sizes", "2,4", "--reps", "1", "--weights=-0.5,1.5"], None,
         "--weights"),
        (["validate-thm1", "--n", "20", "--sizes", "2,4", "--reps", "1", "--weights", "0.5"], None,
         "--weights"),
        (["eval", "--data", "mtcars", "--n-train", "20", "--reps", "0"], None, "--reps"),
        (["simulate", "--n", "8", "--m", "3", "--p", "8", "--reps", "2", "--truncate-loss", "-1"], None,
         "--truncate-loss"),
        (["simulate", "--n", "8", "--m", "3", "--p", "8", "--reps", "2", "--truncate-loss", "nan"], None,
         "--truncate-loss"),
        (["simulate", "--n", "8", "--m", "3", "--p", "8", "--reps", "2", "--seed", "-1"], None, "--seed"),
        (["eval", "--data", "crime", "--n-train", "18", "--reps", "2", "--seed", "-1"], None, "--seed"),
        (["validate-thm1", "--n", "20", "--sizes", "2,4", "--reps", "1", "--seed", "-1"], None, "--seed"),
        (["simulate"], {"seed": -1}, "seed"),
        (["simulate"], {"replications": 1.7}, "replications"),
        (["fit", "--data", "DATA", "--response", "z"], "y,a\n1,2\n3,4\n", "--response"),
        (["fit", "--data", "DATA", "--response", "y"], "y,a\n1,x\n3,4\n", "non-numeric cell"),
        (["eval", "--data", "DATA", "--response", "y", "--n-train", "2"], "y,a\n1,2\n3\n", "ragged rows"),
        (["fit", "--data", "DATA", "--response", "y"], "y,a\n1,2\n3,nan\n5,7\n",
         "--data: dataset contains non-finite entries"),
        (["eval", "--data", "DATA", "--response", "y", "--n-train", "2"], "y,a,b\n1,2,3\n3,2,4\n5,2,8\n",
         "--data: constant column(s) [1] cannot be standardized (--no-standardize skips it)"),
        (["fit", "--data", "DATA", "--response", "y"], "y,a\n1,2\n", "--data: need at least 2 observations"),
        (["fit", "--data", "DATA", "--response", "y"], "y,a\n1,2\n3,5\n",
         "--data: need at least 3 observations to order regressors, got 2"),
        (["fit", "--data", "mtcars", "--n-train", "40"], None, "--n-train: 40 not in [2, 32]"),
    ],
    ids=[
        "eval-unknown-method", "eval-max-models", "eval-n-train", "fit-max-models", "fit-n-train",
        "fit-unknown-method", "simulate-r2", "simulate-reps", "simulate-n", "simulate-m-zero",
        "simulate-m-negative", "config-r2-values-empty", "config-m-values-zero", "eval-methods-empty",
        "simulate-methods-empty", "fit-methods-empty", "rmt-theta-length", "rmt-theta-nan",
        "config-n-values-scalar", "config-replications-string", "config-methods-string", "surface-truncate",
        "surface-snr",
        "surface-r2", "surface-sigma2", "rmt-c-too-small", "surface-n-range", "surface-m-range", "rmt-c-nan",
        "surface-decay-nan", "surface-scale-overflow", "surface-alpha-overflow", "thm1-sizes-zero",
        "thm1-sizes-decreasing", "thm1-reps-zero", "thm1-n-zero", "rmt-reps-zero", "thm1-weights-nan",
        "thm1-weights-off-simplex", "thm1-weights-negative", "thm1-weights-length", "eval-reps-zero",
        "simulate-truncate-loss-negative", "simulate-truncate-loss-nan",
        "simulate-seed-negative", "eval-seed-negative", "thm1-seed-negative", "config-seed-negative",
        "config-replications-fractional", "data-no-response-column", "data-non-numeric", "data-ragged",
        "data-non-finite", "data-constant-column", "data-one-row", "fit-data-two-rows", "fit-n-train-above",
    ],
)
def test_rejected_values_are_usage_errors(capsys, tmp_path, argv, file, name):
    # ``file`` is None, a config dict (passed with --config) or a CSV dataset's text (passed as DATA).
    if isinstance(file, dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(file))
        argv = argv + ["--config", str(path)]
    elif file is not None:
        path = tmp_path / "data.csv"
        path.write_text(file)
        argv = [str(path) if a == "DATA" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and name in errors[0], err
    assert "unknown methods ['a', 'm']" not in err  # a bare string is not split into letters


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--n", "8", "--m", "3", "--p", "8", "--reps", "2"],
     ["validate-thm1", "--n", "20", "--sizes", "2,4", "--reps", "1"]],
    ids=["simulate", "thm1"],
)
def test_no_command_takes_a_test_set_size(capsys, argv):
    # Out-of-sample risk is exact, so there are no test rows to size.
    code, out, err = run_cli(capsys, *argv, "--test-size", "8")
    assert (code, out, err) == (1, "", "error: lama: unrecognized arguments: --test-size 8\n")


def test_a_config_naming_test_size_is_an_unknown_field(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"test_size": 8}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(config))
    assert (code, out) == (1, "")
    assert "unknown config field(s): ['test_size']" in err
    with pytest.raises(TypeError, match="test_size"):
        SimulationConfig(test_size=8)


def test_thm1_json_has_no_test_size_key(capsys):
    code, out, _ = run_cli(capsys, "validate-thm1", "--n", "20", "--sizes", "2,4", "--reps", "1")
    assert code == 0 and "test_size" not in json.loads(out)


class TestSurfaceCommand:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "surface", "--n-range", "20", "--m-range", "5,10", "--snr", "1"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,M,weighting,risk,bias,variance,excluded_singular"
        assert len(lines) == 3
        assert lines[1].startswith("20,5,equal,")
        assert np.isfinite(float(lines[1].split(",")[3]))

    def test_weighting_aliases(self, capsys):
        code, out, _ = run_cli(
            capsys, "surface", "--n-range", "20", "--m-range", "30",
            "--weights", "varpen",
        )
        assert code == 0
        assert ",variance_penalized," in out.strip().split("\n")[1]

    def test_exclusion_flag_is_recorded(self, capsys):
        code, out, _ = run_cli(
            capsys, "surface", "--n-range", "20", "--m-range", "20",
            "--exclude-singular",
        )
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",true")

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["surface", "--n-range", "10:20:10", "--m-range", "4", "--r2", "0.5"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        target = tmp_path / "surface.csv"
        assert run(argv + ["--out", str(target)]) == 0
        capsys.readouterr()
        assert target.read_text() == out

    def test_out_of_memory_is_a_numerical_failure(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr("lama.cli.risk_surface", exhausted)
        code, out, err = run_cli(capsys, "surface", "--n-range", "3", "--m-range", "1000000")
        assert (code, out) == (2, "")
        assert err == "numerical failure: Unable to allocate 7.28 TiB for an array\n"

    @pytest.mark.parametrize("m", ["100", "300"])
    def test_single_prints_the_validate_thm1_limit(self, capsys, m):
        # Both commands evaluate the Theorem-1 form: "single" at its diagonal, validate-thm1 at e_1.
        _, out, _ = run_cli(capsys, "surface", "--n-range", "200", "--m-range", m, "--weights", "single")
        row = out.strip().split("\n")[1].split(",")
        _, out, _ = run_cli(capsys, "validate-thm1", "--n", "200", "--sizes", m, "--reps", "1")
        report = json.loads(out)
        assert row[3:6] == [repr(report[f"theoretical_{part}"]) for part in ("risk", "bias", "variance")]

    def test_single_through_the_boundary_warns_nothing(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "surface", "--n-range", "1:20", "--m-range", "1:40", "--weights", "single")
        assert (code, err) == (0, "")
        assert out.count(",single,inf,inf,inf,") == 20

    def test_profile_parameterizations_differ(self, capsys):
        _, snr_out, _ = run_cli(capsys, "surface", "--n-range", "20", "--m-range", "5")
        _, r2_out, _ = run_cli(
            capsys, "surface", "--n-range", "20", "--m-range", "5", "--r2", "0.5"
        )
        assert snr_out != r2_out


SIM_ARGS = [
    "simulate", "--n", "8", "--m", "3,5", "--r2", "0.5", "--p", "16",
    "--reps", "2", "--methods", "mma,uniform", "--seed", "1",
]


class TestSimulateCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, *SIM_ARGS)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("method,n,M,R2,")
        assert len(lines) == 1 + 4  # 2 candidate counts x 2 methods
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] in {"mma", "uniform"}
            assert np.isfinite(float(fields[4]))

    def test_config_wins_over_flags_with_warning(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"replications": 3}))
        warning = "^--reps conflicts with config field 'replications'; config wins$"
        with pytest.warns(RuntimeWarning, match=warning):
            code, flagged_out, _ = run_cli(
                capsys, *SIM_ARGS, "--config", str(config)
            )
        assert code == 0
        pure = SIM_ARGS.copy()
        pure[pure.index("--reps") + 1] = "3"
        code, expected_out, _ = run_cli(capsys, *pure)
        assert flagged_out == expected_out

    def test_every_config_field_has_a_flag(self):
        flags = build_parser().parse_args(["simulate"]).flags
        assert {f: flags[f] for f in SimulationConfig.__dataclass_fields__} == {
            "n_values": "--n", "r2_values": "--r2", "alpha": "--alpha", "p": "--p", "m_values": "--m",
            "replications": "--reps", "seed": "--seed", "methods": "--methods",
            "exclude_boundary": "--exclude-boundary", "truncate_loss": "--truncate-loss",
        }

    def test_unknown_config_field_is_a_usage_error(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"replications": 2, "bogus": 1}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 1
        assert "unknown config field" in err

    def test_missing_and_malformed_config_files(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate", "--config", str(tmp_path / "nope.json"))
        assert code == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(capsys, "simulate", "--config", str(bad))
        assert code == 1
        for text in ("[]", "5"):
            bad.write_text(text)
            code, _, err = run_cli(capsys, "simulate", "--config", str(bad))
            assert code == 1
            assert "JSON object" in err


class TestEvalCommand:
    def test_builtin_dataset(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--data", "mtcars", "--n-train", "25",
            "--reps", "2", "--methods", "mma",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "method,n_train,test_err_mean,test_err_var,reps"
        assert lines[1].startswith("mma,25,")

    def test_csv_path_requires_response(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["y,x1,x2,x3"]
        X = rng.standard_normal((12, 3))
        y = X @ [1.0, 0.5, 0.0] + rng.standard_normal(12)
        rows += [f"{y[i]},{X[i,0]},{X[i,1]},{X[i,2]}" for i in range(12)]
        path = tmp_path / "toy.csv"
        path.write_text("\n".join(rows) + "\n")

        code, _, err = run_cli(capsys, "eval", "--data", str(path), "--n-train", "8", "--reps", "1")
        assert code == 1
        assert "--response" in err
        code, out, _ = run_cli(
            capsys, "eval", "--data", str(path), "--response", "y",
            "--n-train", "8", "--reps", "2", "--methods", "mma",
        )
        assert code == 0
        assert out.startswith("method,n_train,")

    def test_unknown_dataset_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--data", "nope", "--n-train", "10")
        assert code == 1
        assert "no such dataset" in err


class TestFitCommand:
    def test_json_records(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--data", "mtcars", "--methods", "mma,lama")
        assert code == 0
        records = json.loads(out, parse_constant=_reject_constant)
        assert [r["method"] for r in records] == ["mma", "lama"]
        for rec in records:
            assert set(rec) == {"method", "weights", "criterion_value", "sigma_hat", "xi"}
            assert sum(rec["weights"]) == pytest.approx(1.0, abs=1e-8)
        assert records[1]["xi"] is not None

    def test_methods_are_judged_by_the_library(self, capsys):
        # --methods is only split on commas; experiments._method_tags strips, lower-cases and drops empty pieces.
        _, plain, _ = run_cli(capsys, "fit", "--data", "mtcars", "--methods", "mma,lama")
        assert run_cli(capsys, "fit", "--data", "mtcars", "--methods", " MMA, ,lama,") == (0, plain, "")
        expected = (1, "", "error: --methods: need at least one method\n")
        assert run_cli(capsys, "fit", "--data", "mtcars", "--methods", ",") == expected

    def test_subsample_changes_the_fit(self, capsys):
        _, full, _ = run_cli(capsys, "fit", "--data", "mtcars", "--methods", "mma")
        _, sub, _ = run_cli(
            capsys, "fit", "--data", "mtcars", "--methods", "mma", "--n-train", "20"
        )
        assert full != sub
        _, sub2, _ = run_cli(
            capsys, "fit", "--data", "mtcars", "--methods", "mma", "--n-train", "20"
        )
        assert sub == sub2

    def test_candidate_cap_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "fit", "--data", "mtcars", "--max-models", "99"
        )
        assert code == 1
        assert "--max-models" in err


class TestValidateCommands:
    def test_rmt_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate-rmt", "--n", "30", "--c", "0.5", "--reps", "2"
        )
        assert code == 0
        report = json.loads(out, parse_constant=_reject_constant)
        assert report["k"] == 15
        assert report["trace_inverse"]["theoretical"] == pytest.approx(1.0)

    def test_rmt_boundary_is_a_numerical_failure(self, capsys):
        code, _, err = run_cli(capsys, "validate-rmt", "--n", "30", "--c", "1.0")
        assert code == 2
        assert "numerical failure" in err

    def test_thm1_boundary_is_a_numerical_failure(self, capsys):
        # k = n = 2 carries weight 1/2: its limiting risk is infinite.
        code, out, err = run_cli(capsys, "validate-thm1", "--n", "2", "--sizes", "1,2", "--reps", "2")
        assert (code, out) == (2, "")
        assert "numerical failure" in err and "boundary" in err
        code, out, _ = run_cli(
            capsys, "validate-thm1", "--n", "2", "--sizes", "1,2", "--reps", "2", "--weights", "1,0"
        )
        assert code == 0 and math.isfinite(json.loads(out)["theoretical_risk"])

    def test_json_writer_refuses_non_finite_values(self, capsys, tmp_path):
        for path in (None, str(tmp_path / "out.json")):
            with pytest.raises(ValueError, match="not JSON compliant"):
                _write_json(path, {"rel_error": float("nan")})
        assert capsys.readouterr().out == "" and not (tmp_path / "out.json").exists()

    def test_thm1_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate-thm1", "--n", "20", "--sizes", "2,4",
            "--reps", "1",
        )
        assert code == 0
        report = json.loads(out, parse_constant=_reject_constant)
        assert report["sizes"] == [2, 4]
        assert report["rel_error"] >= 0.0

    def test_thm1_keeps_the_profile_past_p(self, capsys):
        # --p sizes the R2 parameterization; under --snr/--decay the signal runs to --truncate.
        argv = ["validate-thm1", "--n", "100", "--sizes", "10,50", "--reps", "2", "--truncate", "800", "--decay", "0.3"]
        _, out, _ = run_cli(capsys, *argv)
        _, wide, _ = run_cli(capsys, *argv, "--p", "800")
        assert out == wide

    def test_thm1_p_does_not_widen_the_draw(self, capsys):
        # The draw reads sizes[-1] columns, and the coefficients between --truncate and --p are zero.
        argv = ["validate-thm1", "--n", "300", "--sizes", "30,150,240", "--reps", "5"]
        _, narrow, _ = run_cli(capsys, *argv, "--p", "400")
        _, wide, _ = run_cli(capsys, *argv, "--p", "1000")
        assert narrow == wide

    def test_thm1_explicit_weights(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate-thm1", "--n", "20", "--sizes", "2,4",
            "--reps", "1", "--weights", "0.25,0.75",
        )
        assert code == 0
        assert json.loads(out)["theoretical_risk"] > 0.0


class TestTopLevel:
    def test_no_command_prints_usage(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "surface", "--bogus")
        assert code == 1
        assert "error" in err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0

    def test_import_leaves_scipy_out(self):
        # Importing scipy would double the startup every command pays.
        code = "import lama.cli, sys; print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_the_process_pool_out(self):
        # A one-worker run never needs multiprocessing; the pool is imported where it is used.
        code = "import lama.cli, sys; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


# The CI worker-count cases, the benchmark argvs and fit: at least one argv per command.
PARITY_ARGVS = [
    "eval --data crime --n-train 18 --methods mma,jma,lama --reps 50 --seed 0",
    "eval --data mtcars --n-train 24 --methods jma --reps 20 --seed 0",
    "simulate --n 50 --m 45,100 --r2 0.5 --p 1000 --methods mma,jma,lama --reps 12 --seed 0",
    "simulate --n 50 --m 100 --p 1000 --reps 3 --methods jma --seed 0",
    "simulate --n 20 --m 15,30 --p 100 --reps 4 --methods mma,jma,lama,aic --seed 0",
    "simulate --n 20 --m 600 --p 1000 --reps 2 --methods mma,aic,uniform --seed 0",
    "surface --n-range 20:200:5 --m-range 20:200:5 --weights varpen",
    "surface --n-range 20:200:5 --m-range 20:200:5 --weights equal --exclude-singular",
    "surface --n-range 5:300:5 --m-range 100:1200:100 --weights varpen --exclude-singular",
    "surface --n-range 20:200:5 --m-range 20:200:5 --weights varpen --snr 1.2345 --decay 0.6543",
    "validate-thm1 --n 40 --sizes 5,20,60,90 --reps 8 --seed 2",
    "validate-rmt --n 60 --c 2.0 --reps 6 --seed 1",
    "fit --data mtcars",
]


class TestCommandParser:
    """``run`` parses a named command with that command's parser alone; it must
    act as ``build_parser()``'s subparser for it, and build nothing more."""

    @staticmethod
    def _full(capsys, argv):
        # run's exit code and stderr, had it parsed with the full parser.
        try:
            args = build_parser().parse_args(argv)
        except InputError as exc:
            return 1, f"error: {exc.field}: {exc.args[1]}\n", None
        assert capsys.readouterr() == ("", "")
        return None, "", args

    def test_namespaces_match_the_full_parser(self, capsys, monkeypatch):
        assert {argv.split()[0] for argv in PARITY_ARGVS} == set(cli._COMMANDS)
        for argv in map(str.split, PARITY_ARGVS):
            # Both parsers take func from the table: swap it for one that keeps the namespace.
            seen = []
            help_text, add_flags, _ = cli._COMMANDS[argv[0]]
            monkeypatch.setitem(cli._COMMANDS, argv[0], (help_text, add_flags, seen.append))
            assert run(argv) is None
            assert vars(seen[0]) == vars(self._full(capsys, argv)[2]), argv

    def test_help_matches_the_full_parser(self, capsys):
        for name in cli._COMMANDS:
            with pytest.raises(SystemExit) as exc:
                run([name, "--help"])
            assert exc.value.code == 0
            command_help = capsys.readouterr()
            with pytest.raises(SystemExit):
                build_parser().parse_args([name, "--help"])
            assert command_help == capsys.readouterr()
            assert command_help.out.startswith(f"usage: lama {name} ")

    @pytest.mark.parametrize(
        "argv",
        ["surface --weights bogus", "surface", "eval --data crime --n-train x"]
        + [f"{argv} --test-size 8" for argv in PARITY_ARGVS],
    )
    def test_usage_errors_match_the_full_parser(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert out == "" and (code, err) == self._full(capsys, argv.split())[:2]

    def test_a_command_builds_one_parser(self, capsys, monkeypatch):
        built, init = [], cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs["prog"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        assert run(PARITY_ARGVS[9].split()) == 0  # the surface-grid benchmark argv
        assert built == ["lama surface"]
        full = ["lama"] + [f"lama {name}" for name in cli._COMMANDS]
        for argv, code in (([], 1), (["bogus"], 1), (["--help"], 0)):
            built.clear()
            try:
                assert run(argv) == code
            except SystemExit as exc:
                assert exc.code == code
            assert built == full, argv
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [SIM_ARGS,
     ["validate-thm1", "--n", "40", "--sizes", "5,20,60,90", "--reps", "8", "--seed", "2"],
     ["validate-rmt", "--n", "60", "--c", "2.0", "--reps", "6", "--seed", "1"]],
    ids=["simulate", "thm1", "rmt"],
)
class TestProcessDeterminism:
    @staticmethod
    def _run(argv, threads: str):
        env = {**os.environ, "LAMA_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "lama.cli", *argv],
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_output_bytes_ignore_worker_count(self, argv):
        serial = self._run(argv, "1")
        assert serial == self._run(argv, "3")
        assert serial == self._run(argv, "1")
