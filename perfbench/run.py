"""kgexplain benchmark: end-to-end and per-layer metrics on three workloads.

Run from the root of a kgexplain checkout (it imports the package from
`src/`, and caches generated data under `.perfbench_cache/`):

    python3 perfbench/run.py --workload fb-explain --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                  # every workload, each in a fresh process
    python3 perfbench/run.py --smoke          # every workload at tiny size, traced and not

One run is one workload in one process with a single closed-loop client. With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it wraps the
package's functions, reports the per-layer metrics and writes the spans to
`.perfbench_out/`. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy is first imported: the loop is one
# client, and the 2-core machine it was tuned on is shared.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SETUP_REPS = 3
DEFAULT_SEED = 0
DEFAULT_SECONDS = 25
REFERENCE_DIR = os.path.join(HERE, "reference")
ORDER = ("planted-suite", "fb-explain", "fb-evaluate")


def parse_args(argv):
    p = argparse.ArgumentParser(description="kgexplain end-to-end and per-layer benchmark")
    p.add_argument("--workload", choices=ORDER + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help=f"timed phase length (default {DEFAULT_SECONDS}; 1 with --smoke)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="1 reports per-layer metrics (default 0; both with --smoke)")
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    p.add_argument("--write-reference", action="store_true",
                   help="store the first pass's paths as the default seed's reference")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else DEFAULT_SECONDS
    return args


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "git_sha": "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(THREADS),
        "nproc": os.cpu_count(),
    }
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10)
            if sha.returncode == 0:
                env["git_sha"] = sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    from kgexplain import kernels

    if hasattr(kernels, "active_backend"):
        env["kernel_backend"] = kernels.active_backend()
    return env


def run_all(args):
    """Each workload (and with --smoke each trace mode) in a fresh process."""
    traces = (args.trace,) if args.trace is not None else ((0, 1) if args.smoke else (0,))
    names = ORDER if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        for trace in traces:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            if args.write_reference:
                cmd.append("--write-reference")
            done = subprocess.run(cmd, timeout=900)
            status = status or done.returncode
    return status


class Loop:
    """Runs whole passes of jobs and keeps the outcome of each."""

    def __init__(self, workload):
        import calibrate

        self.workload = workload
        self.scale = calibrate.scale
        self.attempted = self.failed = self.targets = 0
        self.records = []
        self.per_target_s = []
        self.raw_rates = []
        self.scaled_rates = []
        self.errors = []

    def run_job(self, expected, job):
        """Run one job; returns (seconds, targets explained)."""
        # every job starts from a collected heap, as a fresh CLI process would
        gc.collect()
        t = time.perf_counter()
        try:
            records = job()
        except Exception:  # a failing job is counted, the run goes on
            self.attempted += expected
            self.failed += expected
            self.errors.append(traceback.format_exc())
            return time.perf_counter() - t, 0
        n = sum(rec["explained"] for rec in records)
        self.attempted += len(records)
        self.targets += n
        self.records.extend(records)
        return time.perf_counter() - t, n

    def run_pass(self, p):
        """Run pass p, scaling each job's time to the reference host speed
        by the mean of the calibrations just before and just after it."""
        kind = self.workload.calibration
        before = self.scale(kind)
        n, raw_s, scaled_s = 0, 0.0, 0.0
        for expected, job in self.workload.pass_jobs(p):
            dt, k = self.run_job(expected, job)
            after = self.scale(kind)
            scale = (before + after) / 2
            before = after
            if k:
                self.per_target_s.append(dt / k * scale)
            n += k
            raw_s += dt
            scaled_s += dt * scale
        self.raw_rates.append(n / raw_s)
        self.scaled_rates.append(n / scaled_s)

    def run_until(self, deadline, first_pass):
        for p in itertools.count(first_pass):
            self.run_pass(p)
            if time.perf_counter() >= deadline:
                return


def reference_check(name, records, n_first, write):
    """Compare the first pass's paths with the stored reference."""
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    got = {}
    for rec in records[:n_first]:
        got.setdefault(rec["key"], rec["paths"])
    if write:
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        lines = [f"{json.dumps(k)}: {json.dumps(got[k])}" for k in sorted(got)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        return []
    if not os.path.exists(path):
        return [f"missing reference {os.path.relpath(path)}"]
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)
    return [f"paths differ from the reference for {k}" for k in sorted(want)
            if got.get(k) != want[k]]


def declared_units(root, trace):
    """name -> unit of the metrics BENCHMARK.json declares for this trace mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args, root):
    units = declared_units(root, args.trace)
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import kgexplain

    import_s = time.perf_counter() - t0
    if not os.path.abspath(kgexplain.__file__).startswith(os.path.join(root, "src")):
        print(f"perfbench: imported kgexplain from {kgexplain.__file__}, not from src/",
              file=sys.stderr)
        return 2

    import calibrate
    import tracer as tr
    import workloads

    size = "smoke" if args.smoke else "full"
    wl = workloads.WORKLOADS[args.workload](root, args.seed, size)
    tracer = tr.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_times = []
    for _ in range(SETUP_REPS):
        scale = calibrate.scale("interpreter")  # imports and TSV parsing
        t = time.perf_counter()
        wl.setup()
        setup_times.append((time.perf_counter() - t) * scale)
        if len(setup_times) == 1:
            import_s *= scale
    setup_s = import_s + statistics.median(setup_times)
    wl.plan()

    loop = Loop(wl)
    t_run = time.perf_counter()
    deadline = t_run + args.seconds
    if tracer:
        tracer.uninstall()
    loop.run_pass(0)  # untraced; a warm-up when tracing
    n_first = len(loop.records)
    if tracer:
        # each job of pass 0 untraced, traced, traced and untraced back to
        # back: the overhead is traced over untraced time of the same jobs,
        # measured close together and in mirrored order so that host drift
        # and a job's second run being faster both cancel
        first_start = len(tracer.spans)
        untraced_s = traced_s = 0.0
        first_targets = 0
        for expected, job in wl.pass_jobs(0):
            for traced in (False, True, True, False):
                if not traced:
                    untraced_s += loop.run_job(expected, job)[0]
                    continue
                tracer.install()
                dt, n = loop.run_job(expected, job)
                tracer.uninstall()
                traced_s += dt
                first_targets += n
        first_end = len(tracer.spans)
        tracer.install()
        before = loop.targets
        loop.run_until(deadline, 1)
        tracer.uninstall()
        traced_targets = first_targets + loop.targets - before
    else:
        loop.run_until(deadline, 1)
    elapsed = time.perf_counter() - t_run

    check = wl.checker()
    problems = []
    bad_records = 0
    for rec in loop.records:
        bad = check(rec)
        if bad:
            bad_records += 1
            problems.append(f"{rec['key']}: {', '.join(bad)}")
    failed = loop.failed + bad_records
    quality, quality_problems = wl.quality()
    problems += quality_problems
    if args.seed == DEFAULT_SEED and not args.smoke:
        problems += reference_check(wl.name, loop.records, n_first, args.write_reference)
    correct = failed == 0 and not problems and loop.attempted > 0

    env = environment()
    print(f"workload {wl.name}  seed {args.seed}  size {size}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    info = wl.data_info()
    if info:
        print("data " + json.dumps(info, sort_keys=True))
    if tracer:
        import kernelbench

        metrics = tr.layer_metrics(tracer, first_start, first_end, first_targets,
                                   traced_targets)
        metrics["trace.overhead"] = traced_s / untraced_s
        metrics.update(kernelbench.kernel_metrics())
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"trace-{wl.name}-s{args.seed}-{size}.json"),
                    {"env": env, "data": info, "metrics": metrics})
    else:
        metrics = {
            "targets_per_s": statistics.median(loop.scaled_rates),
            "explain_s_p50": statistics.median(loop.per_target_s) if loop.per_target_s else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if set(metrics) != set(units):
        print("perfbench: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2
    for k, v in metrics.items():
        print(f"  {k:<44} {v:>14.6g} {units[k]}")
    for k, v in quality.items():
        print(f"  {k:<44} {v:>14.6g}")
    print(f"  {'failed_share':<44} {failed / max(loop.attempted, 1):>14.6g}")
    print(f"  {'targets':<44} {loop.targets:>14d}  in {elapsed:.2f} s")
    print("  per pass, targets/s measured: " + " ".join(f"{r:.4g}" for r in loop.raw_rates))
    print("  per pass, targets/s scaled:   " + " ".join(f"{r:.4g}" for r in loop.scaled_rates))
    for line in problems[:20] + loop.errors[:3]:
        print("CHECK FAILED: " + line.rstrip(), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kgexplain", "__init__.py")):
        print("perfbench: src/kgexplain not found; run from the root of a kgexplain checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all" or args.smoke and args.trace is None:
        return run_all(args)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
