"""lineport benchmark: run one seeded workload in this process and report.

Run from the repository root:

    python3 bench/run.py --workload laplace --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off: ``wall_s``
(median warm pass), ``setup_s`` (fresh interpreter until ``import
lineport.cli`` completes) and ``peak_rss_mb``. ``--trace 1`` measures untraced
and traced passes and reports the per-layer metrics. Either way the last line
of standard output is one JSON object; ``attempted`` and ``failed`` count ops
(one op is one job of a pass; it fails on a nonzero exit, an exception or a
failed output check). A run record and, for traced runs, the spans are written
to ``.bench_runs/`` under the repository root. ``--workload all`` runs every
workload, each in a fresh process. NOTES.md describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3          # fewest timed passes behind a median
SETUP_SAMPLES = 9       # fresh interpreters behind setup_s
IMPORTTIME_SAMPLES = 3  # fresh interpreters behind the import.* breakdown
IMPORT_MODULES = ("lineport", "scipy.constants", "scipy.linalg", "numpy")


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="length of the measured window per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def limit_blas_threads():
    """Run BLAS on one thread, whatever the caller's environment says. Must
    precede the first numpy import. On a 2-CPU machine shared with other
    tenants, two OpenBLAS threads made the laplace passes slower and noisier,
    and the program's work is single-threaded apart from BLAS."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_fresh_import():
    """Wall time of a fresh interpreter that only runs ``import lineport.cli``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import lineport.cli"], env=child_env(),
                   check=True, timeout=120)
    return time.perf_counter() - start


def import_breakdown(samples):
    """Median cumulative import time (s) of IMPORT_MODULES, from
    ``python -X importtime`` in fresh interpreters."""
    seen = {name: [] for name in IMPORT_MODULES}
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lineport.cli"],
                              env=child_env(), check=True, timeout=120,
                              capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for name in IMPORT_MODULES:
            seen[name].append(cumulative.get(name, 0.0))
    return {f"import.{name}.cum_s": statistics.median(v) for name, v in seen.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Runner:
    """Runs passes of one workload and keeps the op tally."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.checks = {}
        self.warnings = {}
        self.pass_warnings = []

    def _clear_outputs(self):
        for job in self.workload.jobs:
            if job.out_dir:
                for entry in os.scandir(job.out_dir):
                    os.remove(entry.path)

    def run_pass(self, tracer=None):
        """One pass over the jobs; returns its wall time. Checks run after
        the timed window."""
        self._clear_outputs()
        errors = {}
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            with span("pass"):
                for job in self.workload.jobs:
                    with span(f"job.{job.name}"):
                        try:
                            job.run()
                        except Exception:  # an op fails; the pass goes on
                            errors[job.name] = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        self.pass_warnings.append(len(caught))
        for w in caught:
            key = f"{w.category.__name__}: {w.message}"
            self.warnings[key] = self.warnings.get(key, 0) + 1
        for job in self.workload.jobs:
            self.attempted += 1
            if job.name in errors:
                self.failures.append({"job": job.name, "error": errors[job.name]})
                continue
            try:
                values = job.check()
            except Exception:
                self.failures.append({"job": job.name,
                                      "error": traceback.format_exc(limit=3)})
                continue
            for key, value in values.items():
                self.checks.setdefault(f"check.{key}", []).append(value)
        return elapsed

    def run_untraced_for(self, seconds):
        """Untraced passes for ``seconds`` (at least MIN_PASSES), and
        SETUP_SAMPLES fresh-import times taken between passes, spread evenly
        over the window so that they see the same load on the machine."""
        times, setup = [], []
        start = time.perf_counter()
        while True:
            times.append(self.run_pass())
            elapsed = time.perf_counter() - start
            while len(setup) < min(SETUP_SAMPLES, int(elapsed / seconds * SETUP_SAMPLES) + 1):
                setup.append(time_fresh_import())
            if len(times) >= MIN_PASSES and elapsed >= seconds:
                return times, setup

    def run_traced_for(self, seconds, tracer):
        """Untraced and traced passes in turn for ``seconds`` (at least
        MIN_PASSES of each), so that both kinds see the same load on the
        machine; the tracer is installed only around its own passes."""
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
            untraced.append(self.run_pass())
            tracer.install()
            try:
                traced.append(self.run_pass(tracer))
            finally:
                tracer.uninstall()
        return untraced, traced

    def outputs(self):
        """sha256 and size of every file each CLI job wrote in the last pass,
        plus the number of CSV values written."""
        digests, size, values = {}, 0, 0
        for job in self.workload.jobs:
            if not job.out_dir:
                continue
            files = {}
            for entry in sorted(os.scandir(job.out_dir), key=lambda e: e.name):
                data = Path(entry.path).read_bytes()
                files[entry.name] = hashlib.sha256(data).hexdigest()
                size += len(data)
                if entry.name.endswith(".csv"):
                    lines = data.splitlines()
                    values += (len(lines) - 1) * (lines[0].count(b",") + 1)
            digests[job.name] = files
        return digests, size, values


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    blas["threads"] = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    return blas


def git_commit():
    if not (ROOT / ".git").exists():  # do not report an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the package sources, to identify the code in a checkout
    that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lineport").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_one(args, nproc):
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import lineport
    import lineport.cli  # noqa: F401  (bound as lineport.cli for the jobs)
    if Path(lineport.__file__).resolve().parent != (SRC / "lineport").resolve():
        print(f"error: imported lineport from {lineport.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    RUNS_DIR.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    work = tempfile.mkdtemp(prefix=f"{stem}-", dir=RUNS_DIR)
    try:
        workload = WORKLOADS[args.workload](lineport, work, args.seed)
        runner = Runner(workload)
        first_s = runner.run_pass()
        digests, bytes_written, values_written = runner.outputs()
        if args.trace:
            tracer = Tracer()
            untraced, traced = runner.run_traced_for(args.seconds, tracer)
            metrics, events = layer_metrics(tracer, len(traced), workload.impulse_specs,
                                            values_written)
            metrics |= import_breakdown(IMPORTTIME_SAMPLES)
            metrics["output.values_written"] = values_written
            metrics["output.bytes_written"] = bytes_written
            metrics["pass.first_s"] = first_s
            metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                               / statistics.median(untraced) - 1.0)
            tracer.write(RUNS_DIR / f"{stem}.spans.csv.gz")
            timing = {"untraced_pass_s": untraced, "traced_pass_s": traced}
        else:
            passes, setup_times = runner.run_untraced_for(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"wall_s": statistics.median(passes),
                       "setup_s": statistics.median(setup_times),
                       "peak_rss_mb": peak_rss_mb}
            timing = {"pass_s": passes, "setup_s": setup_times}
            events = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": workload.params,
        "jobs": [job.name for job in workload.jobs],
        "attempted": runner.attempted, "failed": failed, "failures": runner.failures,
        "warnings_per_pass": runner.pass_warnings, "events": events,
        "metrics": metrics, "timing": timing, "first_pass_s": first_s,
        "checks": {k: max(v) for k, v in runner.checks.items()},
        "warnings": runner.warnings, "output_sha256": digests,
        "system": {
            "nproc": nproc, "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas_info(np), "git_commit": git_commit(),
            "source_sha256": source_digest(),
        },
    }
    (RUNS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 3
    report(args, record, metrics, timing, units)
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def report(args, record, metrics, timing, units):
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          + ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in record["params"].items()))
    if args.trace:
        for name in sorted(metrics):
            idle = " (layer not run on this workload)" if metrics[name] == 0 else ""
            print(f"{name} = {metrics[name]:.6g} {units[name]}{idle}")
        for job, share in record["events"]["trace.job_coverage"].items():
            print(f"trace.job_coverage.{job} = {share:.4g}")
        print(f"inversion.pf_fallbacks = {record['events']['inversion.pf_fallbacks']} "
              f"(over {len(timing['traced_pass_s'])} traced passes)")
    else:
        q1, q3 = quartiles(timing["pass_s"])
        print(f"wall_s = {metrics['wall_s']:.6g} s (median of {len(timing['pass_s'])} "
              f"warm passes; quartiles {q1:.6g}, {q3:.6g})")
        q1, q3 = quartiles(timing["setup_s"])
        print(f"setup_s = {metrics['setup_s']:.6g} s (median of {len(timing['setup_s'])} "
              f"fresh interpreters; quartiles {q1:.6g}, {q3:.6g})")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB (1 process)")
    for name, value in sorted(record["checks"].items()):
        print(f"{name} = {value:.3g} (worst over passes)")
    print(f"warnings = {sum(record['warnings_per_pass'])} "
          f"(over {len(record['warnings_per_pass'])} passes)")
    for key, count in record["warnings"].items():
        print(f"warning x{count}: {key}")
    for failure in record["failures"]:
        print(f"FAILED {failure['job']}: {failure['error'].strip().splitlines()[-1]}")
    print(f"ops_failed = {record['failed']} / ops_total = {record['attempted']}")


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    nproc = len(os.sched_getaffinity(0))
    limit_blas_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS
    args = parse_args(argv, WORKLOADS)
    if not (SRC / "lineport" / "__init__.py").is_file():
        print(f"error: no lineport sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd).returncode)
        return code
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
