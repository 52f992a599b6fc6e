"""adasplit benchmark.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``. One workload runs in this process, closed loop with one client
and no think time, after a set-up that imports the package, writes every
input trial and runs one warm-up op. ``--workload all`` runs every workload,
each in its own process, and prints a table.

``--trace 0`` measures for ``--seconds`` (and at least ``MIN_OPS`` ops) and
reports the end-to-end metrics. On a shared host the CPU speed can drift by
tens of percent over seconds to minutes, so every timed sample is paired
with a fixed reference kernel timed right before and after it
(``reference_s``), and the end-to-end times are reported at the reference
speed: seconds scaled by ``REF_NOMINAL_S`` over the kernel's time at that
moment. The raw seconds are kept in the details file. ``--trace 1`` runs a
fixed number of ops,
alternating untraced and traced ones, and reports the per-layer metrics
from the traced ops (see ``tracer.py``); its work counts repeat exactly for
a given seed and ``--seconds``.

Every op's output is checked (see ``workloads.py``); the first op is re-run
at the end and must give a byte-identical report. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Details, the environment record and the span dump go to
``.bench_out/`` in the checkout.
"""

import os
import time

_T0 = time.perf_counter()


def _process_age():
    """Seconds since this process started, from /proc when it exists, so that
    set-up time covers interpreter start-up too."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE0 = _process_age()

# numpy's OpenBLAS would otherwise use every core; these must be set before
# numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# The keys of workloads.WORKLOADS, repeated so that arguments are checked
# before the package is imported.
WORKLOAD_NAMES = ("analyze-n4000", "simulate-default", "subgroups-k14")
# The tail percentile needs ten samples beyond it; with 15 it is the fifth
# fastest sample rather than the fastest.
MIN_OPS = 15
MIN_PAIRS = 3
SETUP_SAMPLES = 3  # set-ups per run: this process plus two fresh ones
DIGEST_OPS = 8
CHILD_TIMEOUT_S = 170
# The reference kernel's time at the speed the end-to-end times are scaled to
# (about its time on a 2-core Intel Xeon VM).
REF_NOMINAL_S = 0.035
SETUP_REF_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def tail(times):
    """Op time at the highest percentile with at least ten samples beyond it,
    with that percentile; the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


_REF_DATA = None


def reference_s():
    """Wall time of a fixed kernel that does the kinds of work the workloads
    do, in about equal parts: interpreted Python, many small numpy calls, and
    an n x n distance matrix with a stable row sort. Its work never depends on
    the package or the seed, so its time tracks only the machine's speed."""
    global _REF_DATA
    import numpy as np
    if _REF_DATA is None:
        gen = np.random.default_rng(12345)
        _REF_DATA = (gen.standard_normal((60, 6)), gen.standard_normal(60),
                     gen.standard_normal((420, 6)))
    a, b, points = _REF_DATA
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(140_000):
        acc += (i % 7) * 0.5
    for _ in range(400):
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        acc += float(x @ x)
    sq = np.einsum("ij,ij->i", points, points)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    acc += float(np.argsort(d2, axis=1, kind="stable")[:, 1].sum())
    return time.perf_counter() - t0


def at_reference_speed(seconds, ref_s):
    return seconds * REF_NOMINAL_S / ref_s


class Run:
    """One workload in this process: set-up, measured ops, checks."""

    def __init__(self, args, workload, warmup_input):
        self.args = args
        self.w = workload
        self.warmup_input = warmup_input
        self.workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
        self.inputs = []
        self.times = []
        self.refs = []  # reference kernel times around the untraced samples
        self.traced = []
        self.failed = 0
        self.problems = []
        self.first_report = None
        self.records = []

    def input(self, i):
        while len(self.inputs) <= i:
            self.inputs.append(
                self.w.make_input(self.workdir, self.args.seed, len(self.inputs)))
        return self.inputs[i]

    def input_count(self):
        """Inputs written during set-up; more are made between ops if a
        faster program gets through these before ``--seconds`` is up."""
        if self.args.trace:
            return 2 * self.pairs()
        return max(MIN_OPS, math.ceil(self.args.seconds / self.w.nominal_op_s))

    def pairs(self):
        return max(MIN_PAIRS, math.ceil(self.args.seconds / (2 * self.w.nominal_op_s)))

    def setup(self):
        """Write every input and run one warm-up op; returns the seconds
        since process start."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.input(self.input_count() - 1)
        warm = self.w.make_input(self.workdir, self.args.seed, self.warmup_input)
        self.execute(warm, -1)
        return _AGE0 + time.perf_counter() - _T0

    def execute(self, inp, i):
        """Run one op and check its output; returns its wall time."""
        t0 = time.perf_counter()
        try:
            result = self.w.op(inp)
        except Exception as exc:  # a raising op is a failed op
            elapsed = time.perf_counter() - t0
            self.fail(i, f"raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            report = self.w.report(inp, result)
            problems, record = self.w.check(inp, report)
        except Exception as exc:
            self.fail(i, f"output unreadable: {type(exc).__name__}: {exc}")
            return elapsed
        if problems:
            self.fail(i, "; ".join(problems))
        if i == 0:
            self.first_report = report
        if 0 <= i < DIGEST_OPS:
            self.records.append(record)
        return elapsed

    def fail(self, i, message):
        if i >= 0:
            self.failed += 1
        self.problems.append(f"{f'op {i}' if i >= 0 else 'warm-up op'}: {message}")

    def measure(self, tracer=None):
        start = time.perf_counter()
        if tracer is None:
            self.refs.append(reference_s())
        i = 0
        while True:
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.op = i
                tracer.install()
            try:
                elapsed = self.execute(self.input(i), i)
            finally:
                if traced:
                    tracer.uninstall()
            (self.traced if traced else self.times).append(elapsed)
            if tracer is None:
                self.refs.append(reference_s())
            i += 1
            if tracer is not None:
                if i >= 2 * self.pairs():
                    break
            elif i >= MIN_OPS and time.perf_counter() - start >= self.args.seconds:
                break

    def scaled_times(self):
        """Untraced sample times at the reference speed: each scaled by the
        mean of the reference times just before and just after it."""
        return [at_reference_speed(t, (self.refs[j] + self.refs[j + 1]) / 2)
                for j, t in enumerate(self.times)]

    def verify_rerun(self):
        inp = self.input(0)
        try:
            again = self.w.report(inp, self.w.op(inp))
        except Exception as exc:
            again = f"{type(exc).__name__}: {exc}"
        if self.first_report is None or again != self.first_report:
            self.problems.append("re-running op 0 gave a different report")
        self.problems += [f"audit: {p}" for p in self.w.audit(self.args.seed)]


def fresh_setups(args, count):
    """Set-up times of ``count`` fresh processes doing this run's set-up."""
    out = []
    for _ in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def setup_record(setup_s):
    """A set-up time with the reference kernel's median time right after it."""
    ref_s = statistics.median(reference_s() for _ in range(SETUP_REF_SAMPLES))
    return {"setup_s": setup_s, "ref_s": ref_s,
            "scaled_s": at_reference_speed(setup_s, ref_s)}


def run_workload(args):
    import_start = time.perf_counter()
    import workloads  # imports adasplit
    import_s = time.perf_counter() - import_start
    run = Run(args, workloads.WORKLOADS[args.workload], workloads.WARMUP_INPUT)
    try:
        setup_s = run.setup()
        setup = setup_record(setup_s)
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
        run.measure(tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.verify_rerun()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    # Times are per sample; a sample is ``ops_per_sample`` ops.
    per_sample = run.w.ops_per_sample
    attempted = (len(run.times) + len(run.traced)) * per_sample
    p50 = statistics.median(run.times) / per_sample
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "import_s": import_s, "error_rate": run.failed * per_sample / attempted,
        "ops_per_sample": per_sample,
        "problems": run.problems[:20],
        "digest": workloads.digest(run.records), "digest_ops": len(run.records),
        "sample_times_s": run.times,
    }
    if args.trace:
        per_layer, absent = tracing.per_layer_metrics(tracer)
        per_layer["trace.overhead"] = statistics.median(run.traced) / per_sample / p50
        per_layer["trace.ops"] = len(run.traced) * per_sample
        per_layer["trace.busy_s"] = sum(run.traced)
        units = {m: u for m, (u, _) in tracing.PER_LAYER.items()}
        units.update({"trace.overhead": "ratio", "trace.ops": "count",
                      "trace.busy_s": "s"})
        metrics = {m: {"value": v, "unit": units[m]} for m, v in per_layer.items()}
        info.update(absent=absent, traced_sample_times_s=run.traced)
    else:
        setups = [setup] + fresh_setups(args, SETUP_SAMPLES - 1)
        scaled = run.scaled_times()
        op_tail_s, pct = tail(scaled)
        values = {
            "setup_s": statistics.median(s["scaled_s"] for s in setups),
            "op_p50_s": statistics.median(scaled) / per_sample,
            "op_tail_s": op_tail_s / per_sample,
            "ops_per_s": len(scaled) * per_sample / sum(scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]}
                   for m, v in values.items()}
        raw_tail_s, _ = tail(run.times)
        info.update(setups=setups, op_tail_percentile=pct,
                    op_samples=len(run.times), ref_nominal_s=REF_NOMINAL_S,
                    ref_times_s=run.refs, scaled_sample_times_s=scaled,
                    raw_seconds={
                        "setup_s": statistics.median(s["setup_s"] for s in setups),
                        "op_p50_s": p50, "op_tail_s": raw_tail_s / per_sample,
                        "ops_per_s": len(run.times) * per_sample / sum(run.times)})

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(out_dir / f"{stem}-spans.csv")
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"info": info, "metrics": metrics}, indent=2) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:18s} {name:32s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({k: info[k] for k in (
        "environment", "error_rate", "digest", "digest_ops") + (
        ("absent",) if args.trace else ("op_tail_percentile", "op_samples"))}))
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": attempted,
        "failed": run.failed * per_sample,
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Each workload in its own process; prints every metric by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 60, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "adasplit" / "__init__.py").is_file():
        print(f"error: no adasplit sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
