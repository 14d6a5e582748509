import io
import json
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import burkill
from burkill.catalog import fixture_names
from burkill.cli import main
from burkill.core import MAX_PARSE_EXP
from burkill.errors import UnsupportedFormat
from burkill.reporting import export
from burkill.walsh import sign_table


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestCli:
    def test_list(self):
        code, out = run_cli(["list"])
        assert code == 0
        assert "saks_A_counterexample" in out

    def test_integrate_saks(self):
        code, out = run_cli([
            "integrate", "--fixture", "saks_A_counterexample",
            "--region", "0,2", "--e-min", "1/2^9", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["levels"][-1]["upper"] == 1.0
        assert obj["schema"] == "burkill.report/1"

    def test_integrate_csv(self):
        code, out = run_cli([
            "integrate", "--fixture", "origin_indicator",
            "--e-min", "1/2^6", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "e,upper,lower"
        assert lines[-1].endswith("2.0,0.0")

    def test_klimit(self):
        code, out = run_cli([
            "klimit", "--fixture", "m_power_singularity",
            "--permanent", "0:)(", "--e-min", "1/2^7", "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["verdict"]["kind"] == "converged"

    def test_walsh_csv(self):
        code, out = run_cli(["walsh", "--stage", "3"])
        assert code == 0
        assert out.splitlines()[0] == "1,1,1,1"

    def test_planar(self):
        code, out = run_cli(["planar", "--fixture", "two_squares",
                             "--mode", "restricted", "--format", "csv"])
        assert code == 0
        assert out.strip().splitlines()[-1].split(",")[1] == "1.0"

    def test_bad_verb_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_bad_region_exits_2(self):
        code, _ = run_cli(["integrate", "--fixture", "origin_indicator",
                           "--region", "0,1,2"])
        assert code == 2

    def test_unsupported_format(self):
        with pytest.raises(UnsupportedFormat):
            export(sign_table(2), "json")

    def test_verify_subset_and_determinism(self):
        code1, out1 = run_cli(["verify", "--criteria", "10"])
        code2, out2 = run_cli(["verify", "--criteria", "10"])
        assert code1 == code2 == 0
        assert out1 == out2
        assert "[PASS] criterion 10" in out1

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("e_min = 1/2^5\ntol = 1e-6\n")
        code, out = run_cli(["--config", str(cfg), "integrate",
                             "--fixture", "origin_indicator",
                             "--format", "csv"])
        assert code == 0
        assert len(out.strip().splitlines()) == 4  # header + levels 3..5

    def test_config_file_grid_density_reaches_search(self, tmp_path,
                                                      monkeypatch):
        import burkill.cli as cli
        seen = []
        real = cli.estimate_norm_limits

        def spy(g, region, cfg):
            seen.append(cfg.grid_density)
            return real(g, region, cfg)

        monkeypatch.setattr(cli, "estimate_norm_limits", spy)
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("e_min = 1/2^4\ngrid_density = 4\n")
        code, _ = run_cli(["--config", str(cfg), "integrate",
                           "--fixture", "origin_indicator"])
        assert code == 0
        assert seen == [4]

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_exits_2(self, tol):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli([
                "integrate", "--fixture", "saks_A_counterexample",
                "--region", "1,2", "--e-min", "1/2^5", f"--tol={tol}"])
        assert code == 2
        assert out == ""
        assert "tol_float" in err.getvalue()

    @pytest.mark.parametrize("argv", [["--tol", "1e400"],
                                      ["--tol", "inf", "--format", "json"]])
    def test_infinite_tolerance_exits_2(self, argv):
        """An infinite tolerance would call any bracket converged and
        write a non-JSON "tol": Infinity."""
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["integrate", "--fixture", "origin_indicator",
                                 "--e-min", "1/2^5", *argv])
        assert code == 2
        assert out == ""
        assert "tol_float" in err.getvalue() and "inf" in err.getvalue()

    @pytest.mark.parametrize("e_min", ["0", "-1/2^3"])
    def test_non_positive_e_min_exits_2(self, e_min):
        # in a child process, so that a regression hangs no test run
        src = str(Path(burkill.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run(
            [sys.executable, "-m", "burkill.cli", "integrate", "--fixture",
             "origin_indicator", f"--e-min={e_min}"],
            env=env, capture_output=True, text=True, timeout=30)
        assert child.returncode == 2
        assert "e-min must be positive" in child.stderr

    @pytest.mark.parametrize("argv, text", [
        (["--e-min", "1/2^1"], ""),
        (["--e-min=3/2^4"], ""),
        ([], "e_min = 1/2^2\n"),
    ])
    def test_e_min_coarser_than_first_level_exits_2(self, tmp_path, argv,
                                                     text):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(text)
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["--config", str(cfg), "integrate",
                                 "--fixture", "origin_indicator"] + argv)
        assert code == 2
        assert out == ""
        assert "e-min must be at most 1/2^3" in err.getvalue()

    def test_e_min_at_first_level_runs_one_level(self):
        code, out = run_cli(["integrate", "--fixture", "origin_indicator",
                             "--e-min", "1/2^3", "--format", "csv"])
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # header + level 3

    def test_config_file_bad_max_points_exits_2(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("max_points = -5\n")
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["--config", str(cfg), "integrate",
                                 "--fixture", "origin_indicator"])
        assert code == 2
        assert out == ""
        assert "max_points" in err.getvalue()

    def test_unknown_criterion_exits_2(self):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["verify", "--criteria", "99"])
        assert code == 2
        assert out == ""
        assert "unknown criteria [99]" in err.getvalue()

    def test_unknown_density_set_exits_2(self):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["density", "--fixture", "density_left_limit",
                                 "--set", "bogus"])
        assert code == 2
        assert out == ""
        assert "no set 'bogus'" in err.getvalue()
        assert "oscillating_blocks" in err.getvalue()

    def test_missing_config_file_exits_2(self, tmp_path, monkeypatch):
        missing = str(tmp_path / "absent.cfg")
        argv = ["integrate", "--fixture", "origin_indicator"]
        err = io.StringIO()
        with redirect_stderr(err):
            code, _ = run_cli(["--config", missing] + argv)
        assert code == 2
        assert "cannot read config file" in err.getvalue()
        monkeypatch.setenv("BURKILL_CONFIG", missing)
        with redirect_stderr(io.StringIO()):
            code, _ = run_cli(argv)
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("e-min = 1/2^4\n", "unknown config key 'e-min'"),
        ("e_min = 1/2^4\ndensity\n", "expected key = value"),
    ])
    def test_bad_config_line_exits_2(self, tmp_path, text, message):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("# lab settings\n\n" + text)
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["--config", str(cfg), "integrate",
                                 "--fixture", "origin_indicator"])
        assert code == 2
        assert out == ""
        assert message in err.getvalue()

    @pytest.mark.parametrize("permanent, message", [
        ("0:)x", "unknown convention ')x' at 0; known tokens: )( )[ ]( ]["),
        ("1/2:", "unknown convention '' at 1/2"),
        ("5:)[", "permanent point 5 is outside the region [0,1]"),
        ("1/2:][,3/2", "permanent point 3/2 is outside the region"),
    ])
    def test_bad_permanent_point_exits_2(self, permanent, message):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["klimit", "--fixture", "k_convention_jump",
                                 "--permanent", permanent, "--e-min", "1/2^4"])
        assert code == 2
        assert out == ""
        assert message in err.getvalue()

    def test_bare_permanent_point_keeps_free_brackets(self):
        from burkill.catalog import fixture
        from burkill.core import Dyadic
        from burkill.integrator import SearchConfig, estimate_k_limits
        from burkill.reporting import limit_report_table

        fx = fixture("k_convention_jump")
        cfg = SearchConfig(e_schedule=(Dyadic(1, 3), Dyadic(1, 4)))
        want = limit_report_table(estimate_k_limits(
            fx.fn, fx.region, [(Dyadic(1, 1), None)], cfg))
        code, out = run_cli(["klimit", "--fixture", "k_convention_jump",
                             "--permanent", "1/2", "--e-min", "1/2^4"])
        assert code == 0
        assert out == want

    @pytest.mark.parametrize("text, message", [
        ("grid_density = 1.5\n", "grid_density must be an integer, not '1.5'"),
        ("max_points = lots\n", "max_points must be an integer, not 'lots'"),
        ("tol = small\n", "tol must be a number, not 'small'"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, text,
                                                message):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(text)
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["--config", str(cfg), "integrate",
                                 "--fixture", "origin_indicator"])
        assert code == 2
        assert out == ""
        assert message in err.getvalue()

    def test_non_numeric_criterion_exits_2(self):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["verify", "--criteria", "1,x"])
        assert code == 2
        assert out == ""
        assert "--criteria must be an integer, not 'x'" in err.getvalue()

    @pytest.mark.parametrize("verb", ["integrate", "klimit", "sigmalimit",
                                      "variation"])
    def test_grid_over_max_points_exits_2(self, tmp_path, verb):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("max_points = 20\n")
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["--config", str(cfg), verb, "--fixture",
                                 "origin_indicator", "--e-min", "1/2^6"])
        assert code == 2
        assert out == ""
        assert "grid needs more than 20 points" in err.getvalue()

    @pytest.mark.parametrize("fixture", fixture_names())
    @pytest.mark.parametrize("verb", ["integrate", "klimit", "sigmalimit",
                                      "variation", "density", "around"])
    def test_region_wider_than_grid_budget_exits_2(self, verb, fixture):
        """A region of width 1e30 fails on the grid budget before any grid
        or special point is built: no overflow, and no special-point chain
        walking to 1e30."""
        def out_of_time(signum, frame):
            raise TimeoutError(f"{verb} {fixture} ran past 10 s")

        previous = signal.signal(signal.SIGALRM, out_of_time)
        err = io.StringIO()
        signal.alarm(10)
        try:
            with redirect_stderr(err):
                code, out = run_cli([verb, "--fixture", fixture,
                                     "--region", "0,1e30"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        assert out == ""
        assert err.getvalue() == (
            "error: grid needs more than 200000 points\n")

    @pytest.mark.parametrize("argv, text", [
        (["integrate", "--region", "1/2^9999999,1"], "1/2^9999999"),
        (["integrate", "--region=-1,1/2^-4097"], "1/2^-4097"),
        (["integrate", "--e-min", "1/2^4097"], "1/2^4097"),
        (["klimit", "--permanent", "3/2^4100:)["], "3/2^4100"),
    ])
    def test_dyadic_exponent_past_the_bound_exits_2(self, argv, text):
        """A num/2^k with |k| above MAX_PARSE_EXP fails when it is parsed,
        before any level exponent or key grows with it."""
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli([*argv, "--fixture", "origin_indicator"])
        assert code == 2
        assert out == ""
        assert err.getvalue() == (
            f"error: {text}: the exponent k of num/2^k must be at most "
            f"{MAX_PARSE_EXP} in magnitude\n")


def test_cli_and_reporting_import_no_numpy():
    """numpy is loaded only by the walsh verb and verify, not by the
    report path."""
    src = str(Path(burkill.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, burkill.cli, burkill.reporting; "
         "print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=30)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "False\n"
