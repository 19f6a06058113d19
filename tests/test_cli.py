import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest

import fhmerge
from fhmerge import experiments, painleve, specfun, toeplitz
from fhmerge.asympt import fh1_log, fh2_log, transition_log
from fhmerge.cli import build_parser, main
from fhmerge.errors import DegenerateDenominatorError
from fhmerge.symbol import FHParams

PI = math.pi
# the child interpreter must import the same fhmerge as this process
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fhmerge.__file__)))
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_det_example(capsys):
    code, out = run_cli(["det", "--alpha1", "0.25", "--alpha2", "0.25", "--t", "0", "--n", "2"], capsys)
    assert code == 0
    val = float(out.strip().splitlines()[1].split(",")[2])
    assert abs(val - math.log(128.0 / (9.0 * PI**2))) < 1e-10


def test_det_t_grid_rows_are_det_paths(capsys):
    code, out = run_cli(
        ["det", "--alpha1", "0.3", "--alpha2", "0.2", "--beta1", "0,0.1", "--n", "16",
         "--t-grid", "0.2:0.8:4"],
        capsys,
    )
    assert code == 0
    grid = np.linspace(0.2, 0.8, 4)
    path = toeplitz.det_path(FHParams(0.3, 0.2, beta1=0.1j), 16, grid)
    rows = [(16, t, ld.log_abs, ld.arg) for t, ld in zip(grid, path)]
    assert out == experiments._csv_text(["n", "t", "log_abs_det", "arg_det"], rows)


def test_predict_transition_row_is_transition_log(capsys):
    # the command solves sigma to max(20, 2.2 nt): 20 at nt = 6.4, 28.16 at 12.8
    p = FHParams(0.3, 0.3, t=0.1)
    for n in (64, 128):
        code, out = run_cli(
            ["predict", "--regime", "transition", "--alpha1", "0.3", "--alpha2", "0.3",
             "--t", "0.1", "--n", str(n)],
            capsys,
        )
        assert code == 0
        traj = painleve.integrate_sigma(p, x_max=max(20.0, 2.2 * n * p.t))
        want = transition_log(p, n, traj).log_value
        row = out.strip().splitlines()[1].split(",")
        assert row[:3] == ["transition", str(n), "0.1"]
        assert row[3:5] == [experiments._fmt(want.real), experiments._fmt(want.imag)]


def test_verify_regimes_writes_the_grid(capsys):
    code, out = run_cli(["verify", "--suite", "regimes", "--n-list", "32", "64"], capsys)
    lines = out.strip().splitlines()
    assert code in (0, 1)
    assert lines[-1] == f"# verdict: {'PASS' if code == 0 else 'FAIL'}"
    assert lines[0].startswith("n,t,x,exact,") and len(lines) == 2 + 2 * 4


def test_sweep_rows_are_regime_sweeps(tmp_path, capsys):
    cfg = {"symbol": {"alpha1": 0.3, "alpha2": 0.25, "beta1": [0, 0.1]}, "n_list": [32, 64],
           "nt_values": [1.0, 5.0]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(["sweep", "--config", str(path)], capsys)
    report = experiments.regime_sweep(experiments.SweepConfig(
        params=FHParams(0.3, 0.25, beta1=0.1j), n_list=(32, 64), nt_values=(1.0, 5.0)
    ))
    assert code == (0 if report.verdict else 1)
    assert out == report.to_csv() + f"# verdict: {'PASS' if report.verdict else 'FAIL'}\n"


def test_predict_fh1_merged_pair(capsys):
    # alpha1 = alpha2 = 1/4 merge to the |z-1| singularity
    code, out = run_cli(
        ["predict", "--regime", "fh1", "--alpha1", "0.25", "--alpha2", "0.25", "--t", "0", "--n", "100"],
        capsys,
    )
    assert code == 0
    val = float(out.strip().splitlines()[1].split(",")[3])
    assert abs(val - (0.25 * math.log(100.0) + 0.13386377687007902)) < 1e-9


def test_predict_fh1_unit_alpha_sum(capsys):
    code, out = run_cli(
        ["predict", "--regime", "fh1", "--alpha1", "0.5", "--alpha2", "0.5", "--t", "0", "--n", "100"],
        capsys,
    )
    assert code == 0
    val = float(out.strip().splitlines()[1].split(",")[3])
    assert abs(val - math.log(100.0)) < 1e-9  # CSV carries 12 significant digits


@pytest.mark.parametrize(
    "regime, args, notes",
    [
        ("fh2", ["--t", "0.3"], {"t_threshold": 0.125, "t_ok": True}),
        ("beta-one", ["--t", "0.03"], {"nt": 1.92, "branch": "small"}),
        ("fh2-odd", ["--beta1", "0.5", "--beta2", "-0.5", "--t", "0.3"], {"k": -1, "ell": 1}),
    ],
)
def test_predict_json_meta_carries_the_notes(regime, args, notes, capsys):
    # what a predictor notes beside its terms (validity threshold, branch
    # taken, beta reduction) reaches the JSON meta
    code, out = run_cli(
        ["predict", "--regime", regime, "--alpha1", "0.3", "--alpha2", "0.3", *args,
         "--n", "64", "--format", "json"],
        capsys,
    )
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["terms"] and meta["notes"].items() >= notes.items()


def test_sigma_degenerate_zero_column(capsys):
    code, out = run_cli(
        ["sigma", "--alpha1", "0.5", "--alpha2", "0.5", "--beta1", "0.5", "--beta2", "0.5",
         "--x-max", "10"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("x,re_sigma")
    for line in lines[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_sigma_json_meta_records_the_pass(capsys):
    # where the solver took over from the series and what its pass cost
    # reach the JSON meta beside x0: the 0.3 pair starts its grid at
    # x0 = 1e-3 and hands over at 0.2
    code, out = run_cli(
        ["sigma", "--alpha1", "0.3", "--alpha2", "0.3", "--x-max", "12", "--format", "json"],
        capsys,
    )
    assert code == 0
    meta = json.loads(out)["meta"]
    traj = painleve.integrate_sigma(FHParams(0.3, 0.3, t=0.3), x_max=12.0)
    assert meta["x0"] == 1e-3 and abs(meta["handover"] - 0.2) < 1e-12
    assert (meta["steps"], meta["nfev"]) == (traj.steps, traj.nfev)
    assert 0 < meta["steps"] < meta["nfev"]


def test_fourier_output_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "coeffs.csv"
    code, _ = run_cli(
        ["fourier", "--alpha1", "0.25", "--alpha2", "0.25", "--t", "0", "--n-max", "2",
         "-o", str(out_file)],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "j,f_j"
    mid = lines[3].split(",")
    assert mid[0] == "0" and abs(float(mid[1].rstrip("j").split("+")[0]) - 4.0 / PI) < 1e-9


@pytest.mark.parametrize(
    "t, refine, quadrature", [("0", None, False), ("0.3", 0, True)], ids=["closed-form", "rule"]
)
def test_fourier_json_meta_records_the_rule(t, refine, quadrature, capsys):
    code, out = run_cli(
        ["fourier", "--alpha1", "0.3", "--alpha2", "0.3", "--t", t, "--n-max", "8",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["refine"] == refine
    assert (meta["nodes"] > 0) == quadrature
    assert meta["quad_error"] <= 1e-11


def test_json_format_and_config_override(tmp_path, capsys):
    cfg = tmp_path / "sym.json"
    cfg.write_text(json.dumps({"alpha1": [0.25, 0.0], "alpha2": [0.25, 0.0], "t": 0.9}))
    code, out = run_cli(
        ["det", "--config", str(cfg), "--t", "0", "--n", "2", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["t"] == 0.0  # flag overrides config
    assert abs(payload["data"][0]["log_abs_det"] - math.log(128.0 / (9.0 * PI**2))) < 1e-9


def test_complex_flag_syntax(capsys):
    code, out = run_cli(
        ["det", "--alpha1", "0.3", "--alpha2", "0.3", "--beta1", "0,0.3", "--beta2", "0,0.3",
         "--t", "0.4", "--n", "4"],
        capsys,
    )
    assert code == 0


def test_v_flag(capsys):
    # f = e^V with V0 = 1 shifts ln D_n by n
    code, out = run_cli(
        ["det", "--alpha1", "0", "--alpha2", "0", "--t", "0.3", "--n", "5", "--v", "0=1,0"],
        capsys,
    )
    assert code == 0
    val = float(out.strip().splitlines()[1].split(",")[2])
    assert abs(val - 5.0) < 1e-10


def test_validation_exit_code(capsys):
    code = main(["det", "--alpha1", "-0.9", "--alpha2", "0.0", "--t", "0", "--n", "2"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["det", "--alpha1", "0.3", "--alpha2", "0.3", "--t", "nan", "--n", "4"],
        ["sigma", "--alpha1", "nan", "--alpha2", "0.3"],
        ["det", "--alpha1", "nan", "--alpha2", "0.3", "--t", "0.3", "--n", "4"],
        ["det", "--alpha1", "0.3", "--alpha2", "0.3,nan", "--t", "0.3", "--n", "4"],
        ["det", "--alpha1", "0.3", "--alpha2", "0.3", "--t", "0.3", "--n", "4", "--v", "1=nan"],
    ],
    ids=["t", "sigma-alpha", "alpha", "alpha-imag", "v"],
)
def test_non_finite_parameter_exit_code(argv, capsys):
    # NaN fails every range comparison silently; it is refused before any work
    assert main(argv) == 2
    assert "finite" in capsys.readouterr().err


_SIGMA = ["sigma", "--alpha1", "0.3", "--alpha2", "0.3"]
_DET = ["det", "--alpha1", "0.3", "--alpha2", "0.3", "--n", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        [*_SIGMA, "--x-max", "12", "--tol", "nan"],
        [*_SIGMA, "--x-max", "12", "--tol", "inf"],
        [*_SIGMA, "--x-max", "12", "--tol", "-1"],
        [*_SIGMA, "--x-max", "12", "--tol", "0"],
        [*_SIGMA, "--x-max", "nan"],
        [*_SIGMA, "--x-max", "inf"],
        ["fourier", "--alpha1", "0.3", "--alpha2", "0.3", "--t", "0.3", "--n-max", "8",
         "--tol", "nan"],
        [*_DET, "--t", "0.3", "--tol", "-1"],
        [*_DET, "--t-grid", "0.1:0.5:3", "--tol", "nan"],
    ],
    ids=["sigma-tol-nan", "sigma-tol-inf", "sigma-tol-negative", "sigma-tol-zero",
         "sigma-x-max-nan", "sigma-x-max-inf", "fourier-tol-nan",
         "det-tol-negative", "det-path-tol-nan"],
)
def test_unusable_tol_or_range_exit_code(argv, capsys):
    # refused up front: a NaN tol passed every gate, a negative one reached
    # scipy, and a NaN x_max ground through the solver's whole budget
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "tol must be finite and positive" in err or "x_max < inf" in err


def test_quadrature_failure_exit_code(capsys):
    code = main(["fourier", "--alpha1", "0.3", "--alpha2", "0.3", "--t", "0.3", "--n-max", "8",
                 "--tol", "1e-30"])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("where", [["--t", "0.3"], ["--t-grid", "0.1:0.5:3"]])
def test_det_tol_reaches_quadrature(where, capsys):
    # an unreachable tol fails the table on the single point and the t grid alike
    code = main(["det", "--alpha1", "0.3", "--alpha2", "0.3", "--n", "8", "--tol", "1e-30", *where])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("grid", ["0.1:0.5", "a:b:3", "0.1:0.5:0"])
def test_det_malformed_t_grid_exit_code(grid, capsys):
    # START:STOP:COUNT with COUNT >= 1 is parsed before any table
    with pytest.raises(SystemExit) as exc:
        main(["det", "--alpha1", "0.3", "--alpha2", "0.3", "--n", "4", "--t-grid", grid])
    assert exc.value.code == 2
    assert "--t-grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, n_list",
    [
        ("dyson", ["0"]),
        ("dyson", ["1"]),
        ("fk", ["8"]),
        ("fk", ["64", "32"]),
        ("betaone", ["0"]),
        ("betaone", ["1"]),
        ("betaone", ["64", "32"]),
    ],
)
def test_verify_unusable_n_list_exit_code(suite, n_list, capsys):
    assert main(["verify", "--suite", suite, "--n-list", *n_list]) == 2
    assert "n_list" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["2", "8"])
def test_verify_betaone_refuses_t_past_pi_before_sigma(n, capsys):
    # the suite's nt = 30 puts t = 30/n past pi; refused before the sigma solve
    start = time.perf_counter()
    code = main(["verify", "--suite", "betaone", "--t", "0.3", "--n-list", n])
    assert code == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert f"at n = {n}" in err and "nt = " in err


@pytest.mark.parametrize("regime", ["fh1", "fh2", "fh2-odd", "transition", "beta-one"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_predict_refuses_n_below_one(regime, n, capsys):
    start = time.perf_counter()
    code = main(["predict", "--regime", regime, "--alpha1", "0.3", "--alpha2", "0.3",
                 "--t", "0.1", "--n", n])
    assert code == 2
    assert time.perf_counter() - start < 0.5
    assert "n must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("regime", ["fh1", "fh2"])
def test_predict_past_the_old_barnes_strip(regime, capsys, monkeypatch):
    # the merged pair's ln G(1.6 +- 2.5i) lie off |Im z| <= 2, where ln G once refused
    args = ["--alpha1", "0.3", "--alpha2", "0.3", "--beta1", "0,2.5", "--t", "0.5"]
    code, out = run_cli(["predict", "--regime", regime, *args, "--n", "64"], capsys)
    assert code == 0
    re_pred, im_pred = map(float, out.strip().splitlines()[1].split(",")[3:5])
    assert math.isfinite(re_pred) and math.isfinite(im_pred)
    # the real part does not depend on the branch: ln G from mpmath gives the same
    monkeypatch.setattr(specfun, "log_barnes_g", lambda z: complex(mp.log(mp.barnesg(z))))
    p = FHParams(0.3, 0.3, 2.5j, 0.0, 0.5)
    ref = (fh1_log(p.merged(), 64) if regime == "fh1" else fh2_log(p, 64)).log_value
    assert abs(re_pred - ref.real) <= 1e-10 * max(1.0, abs(ref.real))


@pytest.mark.parametrize(
    "argv, says",
    [
        (["verify", "--suite", "regimes", "--n-list", "2"], "nt = 20 at n = 2 "),
        (["verify", "--suite", "diffid", "--n-list", "0"], "n must be at least 1"),
    ],
    ids=["regimes", "diffid"],
)
def test_verify_refuses_a_bad_grid_before_sigma(argv, says, monkeypatch, capsys):
    solves = []
    monkeypatch.setattr(experiments, "integrate_sigma", lambda *a, **k: solves.append(a))
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    assert not solves
    assert says in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg, says",
    [
        ({"n_list": [4, 8], "nt_values": [0.2, 20.0]}, "nt = 20 at n = 4 "),
        ({"n_list": [32], "t_rule": "fixed-t", "t_value": 3.5}, "nt = 112 at n = 32 "),
        ({"n_list": [32], "t_rule": "fixed-t", "t_value": 0.0}, "nt = 0 at n = 32 "),
    ],
    ids=["nt-past-pi", "t-past-pi", "t-zero"],
)
def test_sweep_refuses_t_outside_0_pi_before_sigma(cfg, says, tmp_path, monkeypatch, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    solves = []
    monkeypatch.setattr(experiments, "integrate_sigma", lambda *a, **k: solves.append(a))
    start = time.perf_counter()
    assert main(["sweep", "--config", str(path)]) == 2
    assert time.perf_counter() - start < 0.5
    assert not solves
    assert says in capsys.readouterr().err


def test_verify_identity_suite(tmp_path, capsys):
    out = tmp_path / "identity.csv"
    code = main(["verify", "--suite", "identity", "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.exists() and (tmp_path / "identity.json").exists()
    payload = json.loads((tmp_path / "identity.json").read_text())
    assert payload["suite"] == "identity" and payload["verdict"] is True
    assert payload["runtime_s"] > 0.0  # timed like the other suites


def test_verify_stdout_matches_csv_file(tmp_path, capsys):
    # stdout carries the -o file's CSV rows plus the verdict line
    out = tmp_path / "identity.csv"
    assert main(["verify", "--suite", "identity", "-o", str(out)]) == 0
    capsys.readouterr()
    code, text = run_cli(["verify", "--suite", "identity"], capsys)
    assert code == 0
    assert text == out.read_text() + "# verdict: PASS\n"


def test_verify_identity_suite_degenerate_pair(capsys):
    # sigma == 0 at alpha = beta = 1/2: the closed form passes the identity
    code = main(["verify", "--suite", "identity", "--alpha1", "0.5", "--alpha2", "0.5",
                 "--beta1", "0.5", "--beta2", "0.5", "--t", "0.2"])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("flags", [["--beta1", "0,0.1"], ["--beta2", "0,-0.1"]])
def test_verify_symbol_flag_overrides_suite_default(flags, capsys):
    # a lone flag replaces its field of the suite default FHParams(0.3, 0.3, t=0.3)
    assert main(["verify", "--suite", "identity"]) == 0
    default_row = capsys.readouterr().out.splitlines()[1]
    assert main(["verify", "--suite", "identity", *flags]) == 0
    assert capsys.readouterr().out.splitlines()[1] != default_row


def test_verify_fk_below_critical_returns_a_verdict(capsys):
    # c1 is in closed form up to alpha = 1/sqrt 2, so no quadrature can fail
    code = main(["verify", "--suite", "fk", "--alpha", "0.65", "--n-list", "32", "64"])
    capsys.readouterr()
    assert code in (0, 1)


def test_sigma_r_failure_exit_code(monkeypatch, capsys):
    # a failing r-trajectory is reported, not written as r = 0 columns
    def fail(p, traj):
        raise DegenerateDenominatorError("Lax quadratic degenerates")

    monkeypatch.setattr(painleve, "r_trajectory", fail)
    code = main(["sigma", "--alpha1", "0.3", "--alpha2", "0.3", "--x-max", "12"])
    assert code == 3
    assert capsys.readouterr().out == ""


def test_deterministic_output(tmp_path):
    # byte-identical CSV across repeated runs of the same invocation
    args = ["fourier", "--alpha1", "0.3", "--alpha2", "0.3", "--t", "0.5", "--n-max", "4"]
    outs = []
    for i in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "fhmerge.cli", *args],
            capture_output=True,
            text=True,
            check=True,
            env=CHILD_ENV,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_entry_point_module():
    proc = subprocess.run(
        [sys.executable, "-m", "fhmerge.cli", "--help"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0 and "fourier" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "identity", "--format", "json"],
        ["sweep", "--config", "sweep.json", "--format", "json"],
    ],
)
def test_report_commands_reject_format(argv, capsys):
    # the suites write CSV rows plus a JSON summary; no --format to ignore
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_sweep_rejects_log_grid_rule(tmp_path, capsys):
    # the sweep takes t fixed or nt fixed; any other rule is a validation error
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"n_list": [32], "t_rule": "log-grid"}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "t_rule" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, content",
    [
        ("det", '{"t": "abc"}'),
        ("det", '{"alpha1": "x"}'),
        ("det", '{"V": {"k": 1}}'),
        ("det", '{"alpha1": [1, 2, 3]}'),
        ("det", '{"alpha1": '),
        ("det", None),
        ("sweep", '{"n_list": ["a"]}'),
        ("sweep", '{"n_list": [0]}'),
    ],
    ids=["t-text", "alpha-text", "v-key", "alpha-triple", "bad-json", "missing", "n-list-text",
         "n-list-zero"],
)
def test_malformed_config_exit_code(tmp_path, capsys, command, content):
    # an unreadable or ill-typed config is invalid input, not a failed verdict
    cfg = tmp_path / "f.json"
    if content is not None:
        cfg.write_text(content)
    argv = ["det", "--config", str(cfg), "--n", "4"] if command == "det" else [
        "sweep", "--config", str(cfg)]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_lines():
    with open(README) as fh:
        return fh.read().splitlines()


def test_readme_command_lines_parse():
    # every fhmerge line of README's code blocks parses (nothing runs)
    lines, in_block = [], False
    for line in _readme_lines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("fhmerge "):
            lines.append(line)
    assert lines
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_readme_flags_belong_to_a_subcommand():
    # a flag README names outside its pip and pytest lines is some
    # subcommand's option
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    known = {
        flag
        for sub in subs.choices.values()
        for action in sub._actions
        for flag in action.option_strings
    }
    named = {
        flag
        for line in _readme_lines()
        if "pip " not in line and "pytest" not in line
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)
    }
    assert named and named <= known, sorted(named - known)


@pytest.mark.parametrize("where", [["--t", "0.3"], ["--t-grid", "0.1:0.5:3"]])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_det_refuses_n_below_one(where, n, capsys):
    # named as the user gave it, not as the table's n_max = n - 1
    code = main(["det", "--alpha1", "0.3", "--alpha2", "0.3", "--n", n, *where])
    assert code == 2
    assert f"n must be at least 1, got {n}" in capsys.readouterr().err
