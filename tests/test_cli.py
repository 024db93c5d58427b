"""End-to-end tests of the command-line interface.

Most tests drive `baryopt.cli.main` in process with configs written to a
temp directory; one test executes the installed console script.  Trace and
summary files must be byte-identical across repeated runs of the same
config, which the determinism test enforces literally.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import baryopt
from baryopt.cli import EXIT_FAILED, EXIT_NOT_CONVERGED, EXIT_OK, main


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _ppa_config(**params):
    return {
        "problem": {"kind": "symmetric_quadratic"},
        "method": "ppa",
        "params": params,
        "init": {"x": [0.3], "q": [0.3, 0.7]},
    }


class TestPpaRun:
    def test_converged_run_and_artifacts(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, _ppa_config())
        code = main(["run", cfg, "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "ppa: converged" in out
        assert out.count("wrote ") == 2

        trace = (tmp_path / "out" / "config.trace.csv").read_text().splitlines()
        assert trace[0] == (
            "k,x0,q0,q1,F,barygrad_norm,loss_spread,prox_displacement,step_bregman"
        )
        first = trace[1].split(",")
        assert first[0] == "0"
        assert first[-1] == "nan"

        summary = json.loads((tmp_path / "out" / "config.summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["iterations"] == 10
        assert summary["problem"] == "symmetric_quadratic"
        assert summary["no_fixed_point_suspected"] is False
        assert summary["final_lam"] == 128.0
        np.testing.assert_allclose(summary["x"], [0.0], atol=5e-6)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write_config(tmp_path, _ppa_config())
        main(["run", cfg, "--out-dir", str(tmp_path / "a")])
        main(["run", cfg, "--out-dir", str(tmp_path / "b")])
        for name in ("config.trace.csv", "config.summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_output_path_may_name_subdirectories(self, tmp_path):
        doc = _ppa_config()
        doc["output"] = {"path": "sub/run"}
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        for name in ("run.trace.csv", "run.summary.json"):
            assert (tmp_path / "out" / "sub" / name).is_file()

    def test_iteration_cap_exits_not_converged(self, tmp_path):
        cfg = _write_config(tmp_path, _ppa_config(max_outer_iter=3))
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_NOT_CONVERGED
        summary = json.loads((tmp_path / "config.summary.json").read_text())
        assert summary["status"] == "max_iter"

    def test_constant_losses_report_the_drift(self, tmp_path):
        doc = {
            "problem": {"kind": "constant", "c": [0.0, 0.4, 1.0], "m": 1},
            "method": "ppa",
            "params": {"max_outer_iter": 300},
            "init": {"x": [0.0], "q": [1, 1, 1]},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_NOT_CONVERGED
        summary = json.loads((tmp_path / "config.summary.json").read_text())
        assert summary["no_fixed_point_suspected"] is True


class TestFlowRun:
    def test_trace_columns_and_grid(self, tmp_path):
        doc = {
            "problem": {"kind": "symmetric_quadratic"},
            "method": "flow_min_max",
            "params": {"t_end": 0.5, "dt": 0.01},
            "init": {"x": [0.3], "q": [0.3, 0.7]},
            "output": {"path": "flow"},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
        trace = (tmp_path / "flow.trace.csv").read_text().splitlines()
        assert trace[0] == "t,x0,q0,q1,F,df_dt_analytic,entropy,entropy_rate_analytic"
        assert len(trace) == 52  # header + 51 recorded states
        summary = json.loads((tmp_path / "flow.summary.json").read_text())
        assert summary["divergence_reason"] is None and summary["divergence_step"] is None

    def test_divergence_exits_not_converged(self, tmp_path):
        doc = {
            "problem": {"kind": "symmetric_quadratic"},
            "method": "flow_min_min",
            "params": {"t_end": 200.0, "dt": 0.01, "xi_cap": 5.0},
            "init": {"x": [0.3], "q": [0.3, 0.7]},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_NOT_CONVERGED
        summary = json.loads((tmp_path / "config.summary.json").read_text())
        assert summary["status"] == "diverged"
        assert summary["divergence_reason"] == "logit_cap"
        assert summary["divergence_step"] == round(summary["t_final"] / 0.01)

    def test_json_trace_matches_csv(self, tmp_path):
        doc = {
            "problem": {"kind": "symmetric_quadratic"},
            "method": "flow_min_max",
            "params": {"t_end": 0.2, "dt": 0.01},
            "init": {"x": [0.3], "q": [0.3, 0.7]},
        }
        cfg = _write_config(tmp_path, doc)
        main(["run", cfg, "--out-dir", str(tmp_path / "c"), "--format", "csv"])
        main(["run", cfg, "--out-dir", str(tmp_path / "j"), "--format", "json"])
        csv_lines = (tmp_path / "c" / "config.trace.csv").read_text().splitlines()
        jdoc = json.loads((tmp_path / "j" / "config.trace.json").read_text())
        assert jdoc["columns"] == csv_lines[0].split(",")
        assert len(jdoc["rows"]) == len(csv_lines) - 1
        for line, row in zip(csv_lines[1:], jdoc["rows"]):
            for text, value in zip(line.split(","), row):
                if text == "nan":
                    assert value is None
                else:
                    np.testing.assert_allclose(float(text), value, rtol=1e-15)


class TestProxEvalRun:
    def test_summary_only(self, tmp_path):
        doc = {
            "problem": {"kind": "symmetric_quadratic"},
            "method": "prox_eval",
            "params": {"lam": 0.5},
            "init": {"x": [0.3], "q": [0.3, 0.7]},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
        assert not (tmp_path / "config.trace.csv").exists()
        summary = json.loads((tmp_path / "config.summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["residual_x"] <= 1e-10
        assert len(summary["x"]) == 1 and len(summary["q"]) == 2

    def test_inner_failure_exits_not_converged(self, tmp_path):
        doc = {
            "problem": {"kind": "symmetric_quadratic"},
            "method": "prox_eval",
            "params": {"lam": 2.0, "allow_newton": False, "inner_max_iter": 2},
            "init": {"x": [3.0], "q": [0.5, 0.5]},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_NOT_CONVERGED
        summary = json.loads((tmp_path / "config.summary.json").read_text())
        assert summary["status"] == "inner_failure"


class TestLandscapeRun:
    def test_saddle_report_round_trip(self, tmp_path):
        doc = {
            "problem": {"kind": "symmetric_quadratic"},
            "method": "landscape",
            "init": {"x": [0.0], "q": [0.5, 0.5]},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_OK
        summary = json.loads((tmp_path / "config.summary.json").read_text())
        assert summary["classification"] == "saddle"
        assert summary["inertia"] == [1, 1, 0]
        np.testing.assert_allclose(
            summary["riemannian"], [[1.0, -0.5], [-0.5, 0.0]], atol=1e-12
        )
        np.testing.assert_allclose(summary["schur_b2"], [[-0.25]], atol=1e-12)

    def test_flat_x_block_is_a_domain_error(self, tmp_path, capsys):
        doc = {
            "problem": {"kind": "constant", "c": [0.0, 1.0], "m": 1},
            "method": "landscape",
            "init": {"x": [0.0], "q": [0.5, 0.5]},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_FAILED
        assert "singular" in capsys.readouterr().err

    def _overflowing(self, **output):
        doc = {
            "problem": {"kind": "symmetric_quadratic"},
            "method": "landscape",
            "init": {"x": [1e300], "q": [0.3, 0.7]},
        }
        return dict(doc, output=output) if output else doc

    def test_overflowing_losses_are_one_error_line(self, tmp_path, capsys):
        """Losses that overflow used to give exit 0, `not-critical` and null entries."""
        cfg = _write_config(tmp_path, self._overflowing())
        with np.errstate(over="ignore"):
            assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == EXIT_FAILED
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: family returned non-finite loss values"
        ]
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "out" / "config.summary.json").exists()

    def test_overflow_prints_no_numpy_warning(self, tmp_path):
        """Run as a program, with numpy's default error state, stderr holds
        the `error:` line alone and no overflow warning before it."""
        cfg = _write_config(tmp_path, self._overflowing())
        src = os.path.dirname(os.path.dirname(os.path.abspath(baryopt.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "baryopt.cli", "run", cfg, "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == EXIT_FAILED
        assert proc.stderr.splitlines() == ["error: family returned non-finite loss values"]

    def test_failed_run_leaves_its_output_directory(self, tmp_path, capsys):
        """The output directory is made before the run and stays, empty,
        when the run then fails."""
        cfg = _write_config(tmp_path, self._overflowing(path="sub/run"))
        with np.errstate(over="ignore"):
            assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == EXIT_FAILED
        assert (tmp_path / "out" / "sub").is_dir()
        assert list((tmp_path / "out" / "sub").iterdir()) == []


class TestChecksCommand:
    def test_passing_scope_exits_ok(self, capsys):
        assert main(["checks", "prox_core"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        assert ", 0 failed" in out

    def test_scope_with_known_failure_exits_failed(self, capsys):
        assert main(["checks", "landscape"]) == EXIT_FAILED
        out = capsys.readouterr().out
        assert "[FAIL] log_partition_metric_hessian" in out

    def test_full_registry_is_clean(self, capsys):
        """Every registered property of the build holds, so the complete
        check sweep must exit 0."""
        assert main(["checks", "all"]) == EXIT_OK

    def test_json_format(self, capsys):
        assert main(["checks", "objectives", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["scope"] == "objectives"
        assert doc["n_failed"] == 0
        assert all(r["passed"] for r in doc["results"])

    def test_unknown_scope_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["checks", "geometry"])
        assert info.value.code == 2

    def test_negative_seed_is_one_error_line(self, capsys):
        assert main(["checks", "ppa", "--seed", "-1"]) == EXIT_FAILED
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be an integer >= 0, got -1\n"

    def test_out_dir_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["checks", "objectives", "--out-dir", "x"])
        assert info.value.code == 2

    def test_run_method_matches_the_checks_command(self, tmp_path, capsys):
        doc = {
            "problem": {"kind": "symmetric_quadratic"},
            "method": "checks",
            "params": {"scope": "objectives"},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--seed", "3", "--out-dir", str(tmp_path)]) == EXIT_OK
        run_lines = capsys.readouterr().out.splitlines()
        summary = json.loads((tmp_path / "config.summary.json").read_text(encoding="utf-8"))

        assert main(["checks", "objectives", "--seed", "3", "--format", "json"]) == EXIT_OK
        expected = json.loads(capsys.readouterr().out)
        assert summary.pop("method") == "checks"
        assert summary.pop("problem") == "symmetric_quadratic"
        assert summary == expected

        assert main(["checks", "objectives", "--seed", "3"]) == EXIT_OK
        text = capsys.readouterr().out
        summary_path = os.path.join(str(tmp_path), "config.summary.json")
        assert run_lines[-2:] == [f"wrote {summary_path}", "checks: ok"]
        assert "\n".join(run_lines[:-2]) + "\n" == text


class TestConfigErrors:
    def _expect_failure(self, tmp_path, capsys, doc, fragment):
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_FAILED
        assert fragment in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        doc = _ppa_config()
        doc["extra"] = 1
        self._expect_failure(tmp_path, capsys, doc, "unknown key 'extra'")

    def test_unknown_method(self, tmp_path, capsys):
        doc = _ppa_config()
        doc["method"] = "gradient_descent"
        self._expect_failure(tmp_path, capsys, doc, "unknown method")

    def test_unknown_param_for_method(self, tmp_path, capsys):
        doc = _ppa_config()
        doc["params"] = {"t_end": 5.0}
        self._expect_failure(tmp_path, capsys, doc, "unknown key 't_end'")

    def test_unknown_problem_kind(self, tmp_path, capsys):
        doc = _ppa_config()
        doc["problem"] = {"kind": "cubic"}
        self._expect_failure(tmp_path, capsys, doc, "unknown problem kind")

    def test_init_dimension_mismatch(self, tmp_path, capsys):
        doc = _ppa_config()
        doc["init"] = {"x": [0.3], "q": [0.2, 0.3, 0.5]}
        self._expect_failure(tmp_path, capsys, doc, "q has 3 entries, family has 2")

    def test_missing_init(self, tmp_path, capsys):
        doc = _ppa_config()
        del doc["init"]
        self._expect_failure(tmp_path, capsys, doc, "missing key 'init'")

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": ', encoding="utf-8")
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == EXIT_FAILED
        err = capsys.readouterr().err
        assert "line 1 column" in err

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["run", missing, "--out-dir", str(tmp_path)]) == EXIT_FAILED
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("params, fragment", [
        ({"stop_tol": -1}, "stop_tol must be positive"),
        ({"record_every": 0}, "record_every must be an integer >= 1"),
        ({"lam": "abc"}, "lam must be a number"),
        ({"stop_tol": float("nan")}, "stop_tol must be finite"),
        ({"max_outer_iter": 2.5}, "max_outer_iter must be an integer >= 1"),
        ({"allow_newton": "no"}, "allow_newton must be true or false"),
    ])
    def test_invalid_ppa_param_is_one_error_line(self, tmp_path, capsys, params, fragment):
        cfg = _write_config(tmp_path, _ppa_config(**params))
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_FAILED
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: ") and fragment in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("params, fragment", [
        ({"xi_cap": float("nan")}, "xi_cap must be finite"),
        ({"record_every": 2.5}, "record_every must be an integer >= 1"),
        ({"record_every": True}, "record_every must be a number"),
        ({"t_end": "abc"}, "t_end must be a number"),
        ({"dt": "x"}, "dt must be a number"),
        ({"t_end": 1.0, "dt": 0.6}, "not a whole number of steps"),
    ])
    def test_invalid_flow_param_is_one_error_line(self, tmp_path, capsys, params, fragment):
        doc = {
            "problem": {"kind": "symmetric_quadratic"},
            "method": "flow_min_max",
            "params": params,
            "init": {"x": [0.3], "q": [0.3, 0.7]},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_FAILED
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: ") and fragment in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("key", ["eps_critical", "eps_eig_scale"])
    @pytest.mark.parametrize("value, fragment", [
        ("abc", "must be a number"),
        (float("nan"), "must be finite"),
        (-1, "must be positive"),
        (True, "must be a number"),
    ])
    def test_invalid_landscape_param_is_one_error_line(self, tmp_path, capsys, key, value,
                                                        fragment):
        doc = {
            "problem": {"kind": "symmetric_quadratic"},
            "method": "landscape",
            "params": {key: value},
            "init": {"x": [0.0], "q": [0.5, 0.5]},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_FAILED
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: {key} ") and fragment in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_unwritable_out_dir_is_one_error_line(self, tmp_path, capsys):
        """An --out-dir that is a regular file fails before the run, without a traceback."""
        cfg = _write_config(tmp_path, _ppa_config())
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        assert main(["run", cfg, "--out-dir", str(out)]) == EXIT_FAILED
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_unwritable_out_dir_fails_before_the_run(self, tmp_path, capsys):
        """A checks run prints its results only once its output directory exists."""
        cfg = _write_config(tmp_path, {"problem": {"kind": "symmetric_quadratic"},
                                       "method": "checks"})
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        assert main(["run", cfg, "--out-dir", str(out)]) == EXIT_FAILED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"error: cannot write output {out}")
        assert "Traceback" not in captured.err

    def test_impossible_allocation_is_one_error_line(self, tmp_path, capsys):
        """A flow of 1e15 steps asks for petabytes of trace storage."""
        doc = {
            "problem": {"kind": "symmetric_quadratic"},
            "method": "flow_min_max",
            "params": {"t_end": 1e15, "dt": 1.0},
            "init": {"x": [0.3], "q": [0.3, 0.7]},
        }
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_FAILED
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: Unable to allocate")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_bad_output_format_in_config(self, tmp_path, capsys):
        doc = _ppa_config()
        doc["output"] = {"format": "xml"}
        self._expect_failure(tmp_path, capsys, doc, "unknown output format")

    @pytest.mark.parametrize("change, fragment", [
        ({"problem": {"kind": "quadratic", "A": "x", "b": [[0.0], [0.0]], "c": [0.0, 0.0]}},
         "problem.A must be a number or a rectangular array"),
        ({"problem": {"kind": "quadratic", "A": [[[1.0]], [[1.0, 2.0]]], "b": [[0.0], [0.0]],
                      "c": [0.0, 0.0]}},
         "problem.A must be a number or a rectangular array"),
        ({"init": {"x": "a", "q": [0.3, 0.7]}}, "init.x must be a number"),
        ({"problem": {"kind": "constant", "c": [0.0, 1.0], "m": "two"}}, "m must be a number"),
        ({"problem": {"kind": "constant", "c": [0.0, 1.0], "m": 1.7}},
         "m must be an integer >= 1"),
        ({"problem": {"kind": "constant", "c": [0.0, 1.0], "m": True}}, "m must be a number"),
        ({"output": {"path": 3}}, "output.path must be a string"),
        ({"method": ["ppa"]}, "unknown method ['ppa']"),
    ])
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, change, fragment):
        doc = _ppa_config()
        doc.update(change)
        cfg = _write_config(tmp_path, doc)
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == EXIT_FAILED
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("error: ") and fragment in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestParamSchema:
    """Each method accepts every field of its config class: a config setting
    every documented param to its default writes the same files as one that
    sets none."""

    PROX_DEFAULTS = {"lam": 0.5, "inner_tol": 1e-10, "inner_max_iter": 10000,
                     "allow_newton": True}
    PPA_DEFAULTS = {**PROX_DEFAULTS, "stop_tol": 1e-12, "max_outer_iter": 5000,
                    "fp_tol": 1e-5, "record_every": 1}
    FLOW_DEFAULTS = {"t_end": 50.0, "dt": 0.01, "record_every": 1, "xi_cap": 700.0}
    LANDSCAPE_DEFAULTS = {"eps_critical": 1e-8, "eps_eig_scale": 1e-8}

    @pytest.mark.parametrize("method, defaults", [
        ("prox_eval", PROX_DEFAULTS),
        ("ppa", PPA_DEFAULTS),
        ("flow_min_max", FLOW_DEFAULTS),
        ("landscape", LANDSCAPE_DEFAULTS),
    ])
    def test_default_params_change_nothing(self, tmp_path, capsys, method, defaults):
        doc = {
            "problem": {"kind": "symmetric_quadratic"},
            "method": method,
            "init": {"x": [0.3], "q": [0.3, 0.7]},
            "output": {"path": "run"},
        }
        for name, params in (("bare", {}), ("full", defaults)):
            cfg = _write_config(tmp_path, dict(doc, params=params), name=f"{name}.json")
            assert main(["run", cfg, "--out-dir", str(tmp_path / name)]) == EXIT_OK
        files = sorted(os.listdir(tmp_path / "bare"))
        assert files and files == sorted(os.listdir(tmp_path / "full"))
        for name in files:
            assert (tmp_path / "bare" / name).read_bytes() == (
                tmp_path / "full" / name).read_bytes()


class TestPackage:
    def test_runtime_imports_need_numpy_only(self):
        """Neither the package nor the CLI loads scipy."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(baryopt.__file__)))
        code = (
            "import sys, baryopt, baryopt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        assert proc.stdout.strip() == "[]"

    def test_all_lists_the_public_names_and_no_modules(self):
        names = baryopt.__all__
        assert names == sorted(set(names)) and len(names) == 78
        assert not any(isinstance(getattr(baryopt, n), types.ModuleType) for n in names)
        assert {"prox", "run_ppa", "ProxConfig", "CheckResult", "KNOWN_FAILING"} <= set(names)
        assert callable(baryopt.prox)


class TestInstalledScript:
    def test_console_entry_point(self):
        exe = shutil.which("baryopt")
        assert exe is not None, "console script not on PATH"
        proc = subprocess.run(
            [exe, "checks", "objectives", "--seed", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert ", 0 failed" in proc.stdout
