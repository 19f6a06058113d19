"""Command-line front end: compute tables, determinants, trajectories,
predictions, and run the named verification suites.

Exit codes: 0 success, 1 failed verification verdict, 2 invalid
parameters / usage, 3 numerical failure.  Outputs are CSV (or JSON
wrapping {meta, data}); rows are deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
import time

import numpy as np

from . import asympt, experiments, painleve, toeplitz
from .errors import NumericalError, ValidationError, check_size
from .symbol import FHParams, fourier_coeffs, params_from_json_dict

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _complex_flag(text: str) -> complex:
    """Parse 're' or 're,im' into a complex value."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _v_flag(text: str):
    """Parse 'k=re,im' (or 'k=re') into (k, complex)."""
    try:
        key, val = text.split("=", 1)
        return int(key), _complex_flag(val)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"expected 'k=re,im', got {text!r}") from exc


def _t_grid_flag(text: str):
    """Parse 'START:STOP:COUNT' (finite ends, COUNT >= 1) into np.linspace's arguments."""
    try:
        start, stop, count = text.split(":")
        grid = float(start), float(stop), int(count)
        if grid[2] >= 1 and all(map(math.isfinite, grid[:2])):
            return grid
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 'START:STOP:COUNT' with COUNT >= 1, got {text!r}")


def _add_symbol_flags(sub, table_output=True):
    sub.add_argument("--config", help="JSON symbol-config path; flags override it")
    sub.add_argument("--alpha1", type=_complex_flag, default=None)
    sub.add_argument("--alpha2", type=_complex_flag, default=None)
    sub.add_argument("--beta1", type=_complex_flag, default=None)
    sub.add_argument("--beta2", type=_complex_flag, default=None)
    sub.add_argument("--t", type=float, default=None)
    sub.add_argument(
        "--v", type=_v_flag, action="append", default=None, metavar="K=RE,IM",
        help="Laurent coefficient of the smooth factor (repeatable)",
    )
    sub.add_argument("--output", "-o", help="output file (default stdout)")
    if table_output:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _read_config(path) -> dict:
    """The JSON object in the file at path, or a ValidationError."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {path} is not a JSON object")
    return cfg


def _params_from_args(args, base: FHParams = FHParams(0.0, 0.0)) -> FHParams:
    """The symbol flags over the config file, or over base without one."""
    if args.config:
        base = params_from_json_dict(_read_config(args.config))
    v = dict(base.v_coeffs)
    if args.v is not None:
        v = dict(args.v)
    return FHParams(
        alpha1=args.alpha1 if args.alpha1 is not None else base.alpha1,
        alpha2=args.alpha2 if args.alpha2 is not None else base.alpha2,
        beta1=args.beta1 if args.beta1 is not None else base.beta1,
        beta2=args.beta2 if args.beta2 is not None else base.beta2,
        t=args.t if args.t is not None else base.t,
        v_coeffs=v,
    )


def _emit(args, header, rows, meta):
    """Write rows as CSV or {meta, data} JSON to the output target."""
    if args.format == "csv":
        text = experiments._csv_text(header, rows)
    else:
        text = experiments.json_text({"meta": meta, "data": [dict(zip(header, r)) for r in rows]})
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(args, **extra):
    meta = {k: v for k, v in vars(args).items() if k != "func"}
    meta.update(extra)
    return meta


def _cmd_fourier(args):
    p = _params_from_args(args)
    table = fourier_coeffs(p, args.n_max, tol=args.tol)
    rows = [(j, table[j]) for j in range(-args.n_max, args.n_max + 1)]
    meta = _meta(args, quad_error=table.quad_error_estimate, refine=table.refine,
                 nodes=table.nodes)
    _emit(args, ["j", "f_j"], rows, meta)
    return EXIT_OK


def _cmd_det(args):
    p = _params_from_args(args)
    check_size(args.n)  # before either branch builds a table at n - 1
    if args.t_grid is not None:
        grid = np.linspace(*args.t_grid)
        path = toeplitz.det_path(p, args.n, grid, tol=args.tol)
        rows = [(args.n, t, ld.log_abs, ld.arg) for t, ld in zip(grid, path)]
    else:
        table = fourier_coeffs(p, args.n - 1, tol=args.tol)
        ld = toeplitz.log_det(table, args.n)
        rows = [(args.n, p.t, ld.log_abs, ld.arg)]
    _emit(args, ["n", "t", "log_abs_det", "arg_det"], rows, _meta(args))
    return EXIT_OK


def _cmd_sigma(args):
    p = _params_from_args(args)
    traj = painleve.integrate_sigma(p, x_max=args.x_max, tol=args.tol)
    rt = painleve.r_trajectory(p, traj)
    rows = [
        (x, sig.real, sig.imag, sig_x.real, sig_x.imag, r.real, r.imag, res)
        for x, sig, sig_x, r, res in zip(
            traj.x_grid, traj.sigma, traj.sigma_x, rt.r, traj.residual
        )
    ]
    header = ["x", "re_sigma", "im_sigma", "re_sigma_x", "im_sigma_x", "re_r", "im_r", "residual"]
    meta = _meta(args, x0=traj.x0, handover=traj.handover, steps=traj.steps, nfev=traj.nfev)
    _emit(args, header, rows, meta)
    return EXIT_OK


def _cmd_predict(args):
    p = _params_from_args(args)
    n = args.n
    check_size(n)  # before the transition and beta-one regimes solve sigma
    if args.regime == "fh1":
        pred = asympt.fh1_log(p if p.t == 0.0 else p.merged(), n)
    elif args.regime == "fh2":
        pred = asympt.fh2_log(p, n)
    elif args.regime == "fh2-odd":
        pred = asympt.fh2_odd_log(p, n)
    elif args.regime == "transition":
        traj = painleve.integrate_sigma(p, x_max=max(20.0, 2.2 * n * p.t))
        pred = asympt.transition_log(p, n, traj)
    else:  # beta-one
        traj = painleve.integrate_sigma(p, x_max=max(25.0, 2.2 * n * p.t))
        rt = painleve.r_trajectory(p, traj)
        log_dn = asympt.transition_log(p, n, traj).log_value
        pred = asympt.beta_one_ratio(p, n, rt.r_at(2.0 * n * p.t), log_dn)
    row = (pred.regime, n, p.t, pred.log_value.real, pred.log_value.imag, pred.residual_order)
    _emit(
        args,
        ["regime", "n", "t", "re_log_pred", "im_log_pred", "residual_order"],
        [row],
        _meta(args, terms={k: complex(v) for k, v in pred.terms.items()}, notes=pred.notes),
    )
    return EXIT_OK


# the symbol of the verify suites that take one, when no config is given
_SUITE_DEFAULT = FHParams(0.3, 0.3, t=0.3)


def _cmd_verify(args):
    p = _params_from_args(args, _SUITE_DEFAULT)
    if args.suite == "regimes":
        cfg = experiments.SweepConfig(params=p, n_list=tuple(args.n_list or (64, 128)))
        report = experiments.regime_sweep(cfg)
    elif args.suite == "dyson":
        report = experiments.dyson_check(tuple(args.n_list or (64, 128, 256)))
    elif args.suite == "fk":
        report = experiments.fk_moment_scan(
            args.alpha, tuple(args.n_list or (64, 128, 256, 512)), math.pi / 3.0
        )
    elif args.suite == "diffid":
        n = (args.n_list or [64])[-1]
        grid = np.linspace(0.05, 0.35, 10)
        report = experiments.diff_identity_scan(p, n, grid)
    elif args.suite == "betaone":
        report = experiments.beta_one_check(
            p, tuple(args.n_list or (32,)), (0.5, 2.0, 5.0, 10.0, 30.0)
        )
    else:  # identity
        start = time.time()
        traj = painleve.integrate_sigma(p, x_max=42.0)
        lhs, rhs, disc = painleve.integral_identity_check(p, traj, 40.0)
        row = {"T": 40.0, "lhs": lhs, "rhs": rhs, "err": disc}
        report = experiments.ExperimentReport(
            suite="identity", rows=[row], verdict=disc <= 5e-3,
            summary={"discrepancy": disc}, runtime_s=time.time() - start,
        )
    _write_report(args, report)
    return EXIT_OK if report.verdict else EXIT_VERDICT


def _cmd_sweep(args):
    get = _read_config(args.config).get
    p = params_from_json_dict(get("symbol", {}))
    try:  # ill-typed fields fail here, not mid-sweep
        cfg = experiments.SweepConfig(
            params=p,
            n_list=tuple(map(operator.index, get("n_list", [64, 128]))),
            t_rule=get("t_rule", "fixed-nt"),
            t_value=None if get("t_value") is None else float(get("t_value")),
            nt_values=tuple(map(float, get("nt_values", [0.2, 1.0, 5.0, 20.0]))),
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed sweep config: {exc}") from exc
    report = experiments.regime_sweep(cfg)
    _write_report(args, report)
    return EXIT_OK if report.verdict else EXIT_VERDICT


def _write_report(args, report):
    out = args.output
    if out:
        report.to_csv(out if out.endswith(".csv") else out + ".csv")
        report.to_json(out[:-4] + ".json" if out.endswith(".csv") else out + ".json")
    else:
        sys.stdout.write(report.to_csv())
        sys.stdout.write(f"# verdict: {'PASS' if report.verdict else 'FAIL'}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fhmerge",
        description="Toeplitz determinants with two merging singularities: "
        "exact values, Painleve V transcendent, asymptotic predictions, and "
        "cross-check suites.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("fourier", help="dump symbol Fourier coefficients")
    _add_symbol_flags(s)
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--tol", type=float, default=1e-11)
    s.set_defaults(func=_cmd_fourier)

    s = sub.add_parser("det", help="log-determinant (optionally along a t grid)")
    _add_symbol_flags(s)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--t-grid", type=_t_grid_flag, help="START:STOP:COUNT ascending t grid")
    s.add_argument("--tol", type=float, default=1e-11)
    s.set_defaults(func=_cmd_det)

    s = sub.add_parser("sigma", help="integrate the Painleve V transcendent")
    _add_symbol_flags(s)
    s.add_argument("--x-max", type=float, default=40.0)
    s.add_argument("--tol", type=float, default=1e-8)
    s.set_defaults(func=_cmd_sigma)

    s = sub.add_parser("predict", help="evaluate one asymptotic predictor")
    _add_symbol_flags(s)
    s.add_argument(
        "--regime",
        choices=("fh1", "fh2", "fh2-odd", "transition", "beta-one"),
        required=True,
    )
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=_cmd_predict)

    s = sub.add_parser("verify", help="run a named verification suite")
    _add_symbol_flags(s, table_output=False)
    s.add_argument(
        "--suite",
        choices=("regimes", "dyson", "fk", "diffid", "betaone", "identity"),
        required=True,
    )
    s.add_argument("--n-list", type=int, nargs="*", default=None)
    s.add_argument("--alpha", type=float, default=0.4, help="exponent for the fk suite")
    s.set_defaults(func=_cmd_verify)

    s = sub.add_parser("sweep", help="run a sweep described by a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--output", "-o")
    s.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
