"""heatkern benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload cauchy --seed 1 --seconds 20 --trace 0

Run from the repository root.  The runner generates the workload's inputs
from the seed, then runs passes -- each the whole op list in a fresh
interpreter (``perfbench/worker.py``), so no library cache is warm -- until
``--seconds`` have passed.  Times are scaled to a fixed reference machine
speed with calibration slices timed in the same pass.  Every output is checked against an independent
reference outside the timed window (``perfbench/reference.py``), and every
pass must reproduce the first pass's outputs bit for bit.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics from the traced ones plus the tracing overhead, and requires traced
outputs to equal untraced ones.  The last line of standard output is the
result as JSON; the full record, with machine information, per-op errors
and (traced) spans, goes to ``.perfbench/BENCH_<workload>_seed<n>_trace<t>.json``.
The exit code is 0 only if every output was correct.
"""

import os

# One process, no added threads: pin the BLAS/OpenMP pools before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Times are reported at a fixed reference speed: each raw time is scaled by
# CAL_REF_S / (median of the calibration slices timed around it), where one
# slice is a fixed scipy computation that uses no heatkern (worker.py).
CAL_REF_S = 4e-3
CAL_WINDOW = 4          # slices on each side of an op
MIN_PASSES = 3          # medians need at least three passes
MIN_OP_SAMPLES = 100    # op_ms.p90 needs ten samples beyond it
PASS_TIMEOUT_S = 150.0
RUN_LIMIT_S = 120.0     # start no pass after this, so the run ends in time


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def machine_info():
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh
                     if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def run_pass(workdir, pass_no, trace, env):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(workdir), str(pass_no),
         "1" if trace else "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"pass {pass_no} exited with code {proc.returncode}")
    with open(workdir / f"pass_{pass_no}.json") as fh:
        record = json.load(fh)
    with np.load(workdir / f"outputs_{pass_no}.npz") as npz:
        record["outputs"] = {int(k[2:]): npz[k] for k in npz.files}
    return record


def schedule(seconds, trace, ops_per_pass, passes, elapsed):
    """Mode of the next pass (0 untraced, 1 traced), or None to stop."""
    untraced = sum(1 for p in passes if not p["trace"])
    traced = len(passes) - untraced
    if elapsed > RUN_LIMIT_S and untraced and (traced or not trace):
        return None
    if trace:
        if min(untraced, traced) >= 2 and elapsed >= seconds:
            return None
        return 0 if untraced <= traced else 1
    if untraced < MIN_PASSES or elapsed < seconds \
            or untraced * ops_per_pass < MIN_OP_SAMPLES:
        return 0
    return None


def failures(passes, checked):
    """(failed op runs, {op id: first reason}) over every pass.

    An op run fails if it raised, if its output differs from the first
    pass's, or if the first pass's output missed its reference.
    """
    first = passes[0]["outputs"]
    failed = 0
    reasons = {}
    for p in passes:
        for rec in p["ops"]:
            op_id = rec["id"]
            reason = rec["error"]
            if reason is None and op_id not in first:
                reason = "raised in the first pass only"
            elif reason is None and not np.array_equal(
                    p["outputs"][op_id], first[op_id], equal_nan=True):
                reason = f"output differs from pass 0 in pass {p['pass']}"
            elif reason is None and not checked[op_id]["ok"]:
                c = checked[op_id]
                reason = f"{c['kind']} error {c['err']:.3e} > {c['tol']:.1e}"
            if reason is not None:
                failed += 1
                reasons.setdefault(op_id, reason)
    return failed, reasons


def at_reference_speed(p):
    """(setup_s, op latencies in s) of a pass, scaled to the reference speed.

    Slice i is timed just before op i, the last one after the last op, so
    op i is scaled by the slices i - CAL_WINDOW + 1 .. i + CAL_WINDOW and
    set-up by the first ones.
    """
    cal = p["calibration_s"]
    scale = [CAL_REF_S / statistics.median(cal[max(0, i - CAL_WINDOW + 1):
                                                i + CAL_WINDOW + 1])
             for i in range(len(p["ops"]))]
    setup = p["setup_s"] * CAL_REF_S / statistics.median(cal[:2 * CAL_WINDOW])
    return setup, [s * rec["seconds"] for s, rec in zip(scale, p["ops"])]


def quantile(values, q):
    """The q-th 10-quantile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=10)[q - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heatkern" / "__init__.py").is_file():
        fail(f"no heatkern sources under {SRC}; run from a repository checkout")
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    sys.path.insert(0, str(SRC))
    import reference    # needs heatkern, for the oracles

    inputs = workloads.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        for name, config in workloads.config_files(inputs).items():
            with open(workdir / name, "w") as fh:
                json.dump(config, fh)
        with open(workdir / "inputs.json", "w") as fh:
            json.dump(inputs, fh)

        env = dict(os.environ, PYTHONHASHSEED="0",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        passes = []
        start = time.perf_counter()
        while True:
            ops_per_pass = len(passes[0]["ops"]) if passes else 1
            mode = schedule(args.seconds, args.trace, ops_per_pass, passes,
                            time.perf_counter() - start)
            if mode is None:
                break
            passes.append(run_pass(workdir, len(passes), mode, env))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.workload == "validate":
        inputs["ops"] = passes[0]["ops_list"]
    ops = inputs["ops"]

    checked = reference.check(inputs, passes[0]["outputs"])
    failed, fail_reasons = failures(passes, checked)
    attempted = sum(len(p["ops"]) for p in passes)
    correct = failed == 0

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    med = statistics.median
    for p in passes:
        p["ref_setup_s"], p["ref_op_s"] = at_reference_speed(p)
        p["ref_wall_s"] = sum(p["ref_op_s"])
    if args.trace:
        values = {name: med(p["per_layer"].get(name, 0.0) for p in traced)
                  for name in (m["name"] for m in bench["per_layer"])}
        base = med(p["ref_wall_s"] for p in untraced)
        overhead = med(p["ref_wall_s"] for p in traced) - base
        values["trace.overhead_s"] = overhead
        values["trace.overhead_share"] = overhead / base
        names = [m["name"] for m in bench["per_layer"]]
    else:
        latencies = [1e3 * s for p in untraced for s in p["ref_op_s"]]
        values = {
            "setup_s": med(p["ref_setup_s"] for p in untraced),
            "wall_s": med(p["ref_wall_s"] for p in untraced),
            "op_ms.p50": med(latencies),
            "op_ms.p90": quantile(latencies, 9),
            "err_digits": med(c["digits"] for c in checked.values())
            if checked else reference.digits(float("inf"), 1.0),
            "pass_frac": (attempted - failed) / attempted,
            "peak_rss_mb": med(p["peak_rss_mb"] for p in untraced),
        }
        names = [m["name"] for m in bench["end_to_end"]]
    metrics = {n: {"value": float(values[n]), "unit": units[n]} for n in names}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(), "correct": correct,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "err_digits_min": min((c["digits"] for c in checked.values()), default=None),
        "samples": {"passes": len(untraced), "traced_passes": len(traced),
                    "ops_per_pass": len(ops),
                    "op_latencies": sum(len(p["ops"]) for p in untraced)},
        "reference_speed": {"calibration_ref_s": CAL_REF_S,
                            "raw_wall_s": med(p["wall_s"] for p in untraced),
                            "raw_setup_s": med(p["setup_s"] for p in untraced)},
        "passes": [{k: p[k] for k in ("pass", "trace", "setup_s", "wall_s",
                                      "ref_setup_s", "ref_wall_s", "peak_rss_mb",
                                      "truncation_warnings")}
                   for p in passes],
        "checks": {str(k): v for k, v in checked.items()},
        "failures": {str(k): v for k, v in fail_reasons.items()},
    }
    if traced:
        record["self_s"] = traced[-1]["self_s"]
        record["spans"] = traced[-1]["spans"]
    with open(OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh)

    for n in names:
        print(f"{args.workload:<13} {n:<48} {values[n]:>14.6g} {units[n]}")
    for op_id, reason in sorted(fail_reasons.items()):
        print(f"FAILED op {op_id} ({ops[op_id].get('kind')}): {reason}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
