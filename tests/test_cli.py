import json
import math
import os
import subprocess
import sys

import fhmerge
from fhmerge import painleve
from fhmerge.cli import main
from fhmerge.errors import DegenerateDenominatorError

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


def test_quadrature_failure_exit_code(capsys):
    code = main(["fourier", "--alpha1", "0.3", "--alpha2", "0.3", "--t", "0.3", "--n-max", "8",
                 "--tol", "1e-30"])
    capsys.readouterr()
    assert code == 3


def test_verify_identity_suite(tmp_path, capsys):
    out = tmp_path / "identity.csv"
    code = main(["verify", "--suite", "identity", "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.exists() and (tmp_path / "identity.json").exists()
    payload = json.loads((tmp_path / "identity.json").read_text())
    assert payload["suite"] == "identity" and payload["verdict"] is True


def test_verify_identity_suite_degenerate_pair(capsys):
    # sigma == 0 at alpha = beta = 1/2: the closed form passes the identity
    code = main(["verify", "--suite", "identity", "--alpha1", "0.5", "--alpha2", "0.5",
                 "--beta1", "0.5", "--beta2", "0.5", "--t", "0.2"])
    capsys.readouterr()
    assert code == 0


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
