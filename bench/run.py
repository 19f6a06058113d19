"""The fhmerge benchmark: one command for every workload.

    python3 bench/run.py --workload dyson|sigma-family|shifted-ratio \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; fhmerge is imported from its src/.  Each
repetition of the workload runs in a fresh interpreter (bench/child.py), so
the Fourier-table cache and lazy constants start empty as they do for each
`fhmerge verify` a user runs.  Repetitions are repeated until S seconds have
passed (at least one).  FHMERGE_THREADS and the BLAS thread variables are
removed from the children's environment, as a user runs the suites.

Every repetition's outputs are checked against oracles computed without
fhmerge (bench/oracles.py).  The last line of standard output is one JSON
object {correct, attempted, failed, metrics}; the line before it records
the thread settings, the per-repetition figures and the check figures.

--trace 0 reports the end-to-end metrics: medians of wall_s and cpu_s over
the repetitions, and setup_s, the median time for a fresh
interpreter to import fhmerge: from process start to the end of
`import fhmerge.experiments`, over SETUP_PROBES extra interpreters and the
repetitions' own.
--trace 1 alternates an untraced and a traced repetition and reports the
per-layer metrics of the traced ones (medians), the line count of
src/fhmerge, and trace.overhead_s, traced minus untraced wall_s.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("dyson", "sigma-family", "shifted-ratio")
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "FHMERGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)
# layers each workload is said to exercise; a traced run recording zero
# calls in one of them has lost its instrumentation
EXERCISED = {
    "dyson": ("quadrature.arc_rule.calls", "symbol.fourier_coeffs.calls",
              "toeplitz.log_det.calls", "experiments.busy_s"),
    "sigma-family": ("painleve.integrate_sigma.calls", "painleve.solve_ivp.calls",
                     "painleve.r_trajectory.s", "painleve.integral_identity_check.s",
                     "asympt.predict.calls", "specfun.calls", "symbol.fourier_coeffs.calls",
                     "toeplitz.log_det.calls", "experiments.busy_s"),
    "shifted-ratio": ("quadrature.arc_rule.calls", "symbol.fourier_coeffs.calls",
                      "toeplitz.log_det.calls", "toeplitz.orth_poly.calls",
                      "painleve.integrate_sigma.calls", "painleve.r_trajectory.s",
                      "asympt.predict.calls", "experiments.busy_s"),
}
UNITS = {"calls": "count", "retries": "count", "repeat_calls": "count", "nodes": "count",
         "modes": "count", "node_modes": "count", "nfev": "count", "flops": "flop",
         "lines": "lines"}


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


PROBE = "import sys, time; import fhmerge.experiments; print(time.time() - float(sys.argv[1]))"


def setup_probe(env, deadline):
    proc = subprocess.run([sys.executable, "-c", PROBE, repr(time.time())], env=env, cwd=ROOT,
                          check=True, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    return float(proc.stdout)


def repetition(workload, seed, trace, env, deadline):
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(int(trace)),
           repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition passed the {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(rep["fhmerge"]) != SRC / "fhmerge":
        raise BenchError(f"imported fhmerge from {rep['fhmerge']}, not {SRC / 'fhmerge'}")
    return rep


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "fhmerge").rglob("*.py")))


def unit(name):
    last = name.rsplit(".", 1)[-1]
    return "s" if last == "s" or last.endswith("_s") else UNITS[last]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "fhmerge" / "__init__.py").is_file():
        raise BenchError(f"no fhmerge source at {SRC / 'fhmerge'}")

    deadline = time.perf_counter() + RUN_LIMIT_S
    env = child_env()
    probes = [] if args.trace else [setup_probe(env, deadline) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(repetition(args.workload, args.seed, False, env, deadline))
        if args.trace:
            traced.append(repetition(args.workload, args.seed, True, env, deadline))
        if time.perf_counter() - start >= args.seconds:
            break

    attempted = failed = 0
    failures, figures = [], {}
    for rep in plain + traced:
        outs = {op["name"]: op["out"] for op in rep["ops"] if "out" in op}
        attempted += len(rep["ops"])
        failed += sum("error" in op for op in rep["ops"])
        fails, figs = oracles.check(args.workload, args.seed, outs, rep["extra"])
        failures += fails
        for key, value in figs.items():
            figures.setdefault(key, []).append(value)

    setups = probes + [r["ready_s"] for r in plain]
    med = lambda reps, key: statistics.median(r[key] for r in reps)  # noqa: E731
    if args.trace:
        metrics = {}
        for name in traced[0]["trace"]["metrics"]:
            metrics[name] = statistics.median(r["trace"]["metrics"][name] for r in traced)
        for name in EXERCISED[args.workload]:
            if metrics[name] == 0:
                raise BenchError(f"traced run recorded no {name} on {args.workload}")
        metrics["src.lines"] = src_lines()
        metrics["trace.overhead_s"] = med(traced, "wall_s") - med(plain, "wall_s")
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}
    else:
        metrics = {
            "wall_s": {"value": med(plain, "wall_s"), "unit": "s"},
            "cpu_s": {"value": med(plain, "cpu_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }

    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for rep in plain + traced:
        for op in rep["ops"]:
            if "error" in op:
                print(f"operation failed: {op['name']}: {op['error']}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": len(plain),
        "nproc": plain[0]["env"]["cpu_count"],
        "affinity": plain[0]["env"]["affinity"],
        "pool_size_cap": plain[0]["env"]["cpu_count"],  # FHMERGE_THREADS unset
        "pool_parallel": traced[0]["trace"]["max_parallel"] if traced else None,
        "blas_threads": plain[0]["env"]["blas_threads"],
        "wall_s": [r["wall_s"] for r in plain],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": setups,
        "figures": figures,
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
