"""rankforge benchmark: one workload per run, closed loop with one client.

    python3 perfbench/run.py --workload ranks --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; rankforge is imported from `src/`.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` they are the per-layer ones of a traced pass, next to
an untraced pass over the same operations.  See perfbench/README.md.
"""

import time

_T_START = time.perf_counter()  # set-up time counts the imports below

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ["ranks", "enumerate", "polarize"]
SETUP_CHILDREN = 6        # extra set-ups in fresh processes; setup_s is the median
LADDER_SAFETY_S = 60.0    # wall-clock safety net only; rungs are decided by guards and budgets
END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("exact_share", "share"), ("reach_log2_points", "log2_points"), ("peak_rss_mb", "MB"),
]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="one small round per deck (smoke test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-expected", action="store_true",
                    help="run the whole deck once and write perfbench/expected/<workload>.json")
    return ap.parse_args(argv)


def machine(threads: int) -> dict:
    import numpy as np

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "RANKFORGE_THREADS": threads,
    }


def workdir(args) -> Path:
    return ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"


def inputs_dir(args) -> Path:
    return workdir(args) / f"inputs-{os.getpid()}"


def setup(args):
    """Import, input generation and cache warm-up; returns (deck, seconds it took)."""
    import rankforge.cli  # noqa: F401  (the import is part of set-up)

    deck = workloads.build_deck(args.workload, args.seed, args.tiny)
    workloads.write_inputs(deck, inputs_dir(args))
    workloads.warm_caches(deck)
    return deck, time.perf_counter() - _T_START


def child_setups(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    out = []
    for _ in range(SETUP_CHILDREN):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


class Runner:
    """Runs operations one after another and keeps the correctness tally."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run(self, op):
        """(latency in s, Outcome) of one operation; only the call itself is timed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw = workloads.run_op(op)
        except Exception as e:  # an uncaught exception is a failed operation
            dt = time.perf_counter() - t0
            return dt, self.fail(op, f"uncaught {type(e).__name__}: {e}")
        return time.perf_counter() - t0, self.judge(op, raw)

    def judge(self, op, raw):
        """Outcome of the correctness gate; deck entries are also held to their first
        run and, for seed 0, to the committed expectation."""
        try:
            outcome = workloads.check(op, raw)
        except (KeyError, TypeError, ValueError) as e:
            outcome = workloads.Outcome(False, False, None, f"malformed output: {type(e).__name__}: {e}")
        if not outcome.ok:
            return self.fail(op, outcome.error)
        if op.entry >= 0:
            first = self.first.setdefault(op.entry, outcome.record)
            if not workloads.records_agree(first, outcome.record):
                return self.fail(op, "result differs from the first run of this input")
            if self.expected is not None:
                want = self.expected.get(str(op.entry))
                if want is None or not workloads.records_agree(want, outcome.record):
                    return self.fail(op, "digest mismatch against the committed expectation")
        return outcome

    def fail(self, op, msg):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"#{op.entry} {op.kind} {op.label}: {msg}")
        return workloads.Outcome(False, False, None, msg)

    def digest(self) -> str:
        h = hashlib.sha256()
        for entry in sorted(self.first):
            h.update(json.dumps([entry, self.first[entry]], sort_keys=True).encode())
        return h.hexdigest()[:16]


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timed_loop(runner, deck, seconds):
    """Cycle through the deck until the time is up, then finish the round under way, so
    that every run measures whole rounds; returns per-op (op, latency, outcome)."""
    results = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or _mid_round(deck, i % len(deck)):
        op = deck[i % len(deck)]
        results.append((op, *runner.run(op)))
        i += 1
    return results


def _mid_round(deck, j: int) -> bool:
    return j > 0 and deck[j].round == deck[j - 1].round


def loop_metrics(results) -> dict:
    lats = [dt for _, dt, _ in results]
    n = len(lats)
    return {
        "ops_per_s": (n / sum(lats), n),
        "op_p50_ms": (quantile(lats, 0.5) * 1e3, n),
        "op_p90_ms": (quantile(lats, 0.9) * 1e3, n),
        "exact_share": (sum(o.exact for _, _, o in results) / n, n),
    }


def reach(runner, args, work: Path) -> tuple:
    """log2 of the domain of the largest rung answered exactly, and the rungs tried."""
    from rankforge.errors import DomainSizeError

    best, tried = 0.0, []
    start = time.perf_counter()
    shutil.rmtree(work / "ladder", ignore_errors=True)
    (work / "ladder").mkdir(parents=True)
    for i, rung in enumerate(workloads.ladder(args.workload, args.seed, args.tiny)):
        if time.perf_counter() - start > LADDER_SAFETY_S:
            tried.append((rung.label, "stopped by the safety timer"))
            break
        rung.op.path = str(work / "ladder" / f"{i:02d}.json")
        with open(rung.op.path, "w") as fh:
            json.dump(rung.op.payload, fh)
        runner.attempted += 1
        try:
            raw = workloads.run_op(rung.op)
        except DomainSizeError:
            raw = (3, "", "")
        except Exception as e:  # an uncaught exception is a failed operation
            runner.fail(rung.op, f"uncaught {type(e).__name__}: {e}")
            tried.append((rung.label, "failed"))
            break
        if isinstance(raw, tuple) and raw[0] == 3:
            tried.append((rung.label, "refused"))
            break
        outcome = runner.judge(rung.op, raw)
        if not outcome.ok:
            tried.append((rung.label, "failed"))
            break
        if not outcome.exact:
            tried.append((rung.label, "inexact"))
            break
        best = math.log2(rung.points)
        tried.append((rung.label, "exact"))
    return best, tried


def load_expected(args):
    path = HERE / "expected" / f"{args.workload}.json"
    if args.seed != 0 or args.tiny or not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)["records"]


def write_expected(args, deck):
    runner = Runner(None)
    for op in deck:
        runner.run(op)
    if runner.failed:
        print("\n".join(runner.errors), file=sys.stderr)
        return 1
    path = HERE / "expected" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    records = {str(k): v for k, v in sorted(runner.first.items())}
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "digest": runner.digest(),
                   "records": records}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} ({len(records)} records, digest {runner.digest()})")
    return 0


def trace_run(args, deck, runner, report):
    """Untraced and traced runs of the first half of the deck; per-layer metrics."""
    import tracing

    ops = deck[: max(1, len(deck) // 2)]
    tracer = tracing.Tracer()
    untraced, traced = [], []
    # each operation runs once untraced and once traced, alternating which goes first
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.append(runner.run(op)[0])
                continue
            tracer.op = i
            tracer.install()
            try:
                traced.append(runner.run(op)[0])
            finally:
                tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["analytic.value_histogram.thread_speedup"] = (thread_speedup(tracer, report), "x")
    metrics["trace.slowdown"] = (sum(traced) / sum(untraced), "x")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.ops"] = (len(ops), "count")
    tracer.write(workdir(args) / "spans.jsonl")
    report.append(f"traced pass: {len(ops)} ops, untraced {sum(untraced):.3f} s, traced {sum(traced):.3f} s, "
                  f"{len(tracer.spans)} spans written to {workdir(args) / 'spans.jsonl'}")
    return metrics


def thread_speedup(tracer, report) -> float:
    """One thread against RANKFORGE_THREADS on the largest histograms the traced pass made."""
    from rankforge.analytic import value_histogram

    inputs = sorted(tracer.histogram_inputs.values(), key=lambda f: -f.shape.domain_size)[:6]
    threads = os.environ["RANKFORGE_THREADS"]
    best = {"1": [math.inf] * len(inputs), threads: [math.inf] * len(inputs)}
    try:
        for _ in range(3):
            for n in ("1", threads):
                os.environ["RANKFORGE_THREADS"] = n
                for j, f in enumerate(inputs):
                    t0 = time.perf_counter()
                    value_histogram(f)
                    best[n][j] = min(best[n][j], time.perf_counter() - t0)
    finally:
        os.environ["RANKFORGE_THREADS"] = threads
    t1, tn = sum(best["1"]), sum(best[threads])
    report.append(f"thread speedup on {len(inputs)} histograms: {t1:.4f} s (1 thread) / {tn:.4f} s ({threads})")
    return t1 / tn if tn else 1.0


def timed_run(args, deck, own_setup, runner, report) -> tuple:
    """End-to-end metrics: set-up, the timed loop, peak memory, then the reach ladder."""
    setups = [own_setup] + child_setups(args)
    results = timed_loop(runner, deck, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    best, tried = reach(runner, args, workdir(args))
    report.append("ladder " + ", ".join(f"{lbl}: {what}" for lbl, what in tried))
    values = {"setup_s": (statistics.median(setups), len(setups)), **loop_metrics(results),
              "reach_log2_points": (best, len(tried)), "peak_rss_mb": (peak_mb, 1)}
    report.append(f"failed_share {sum(not o.ok for _, _, o in results) / len(results):.6g} share "
                  f"samples={len(results)}")
    by_kind, by_stratum = {}, {}
    for op, dt, _ in results:
        by_kind.setdefault(op.kind, []).append(dt)
        by_stratum.setdefault(f"{op.kind} {op.label}", []).append(dt)
    for kind, lats in sorted(by_kind.items()):
        report.append(f"  {kind:16s} n={len(lats):5d} p50={quantile(lats, .5) * 1e3:9.3f} ms "
                      f"p90={quantile(lats, .9) * 1e3:9.3f} ms total={sum(lats):8.3f} s")
    details = {
        "setup_samples_s": setups,
        "samples": {name: values[name][1] for name, _ in END_TO_END},
        "latency_ms_by_stratum": {k: {"n": len(v), "p50": quantile(v, .5) * 1e3, "p90": quantile(v, .9) * 1e3}
                                  for k, v in sorted(by_stratum.items())},
    }
    return {name: (values[name][0], unit) for name, unit in END_TO_END}, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rankforge" / "__init__.py").is_file():
        print(f"no rankforge sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    threads = len(os.sched_getaffinity(0))
    os.environ["RANKFORGE_THREADS"] = str(threads)

    deck, own_setup = setup(args)
    try:
        if args.setup_only:
            print(own_setup)
            return 0
        if args.write_expected:
            return write_expected(args, deck)
        return measure(args, deck, own_setup, threads)
    finally:
        # the inputs are regenerated from the seed; deleting them is not part of set-up
        shutil.rmtree(inputs_dir(args), ignore_errors=True)


def measure(args, deck, own_setup, threads) -> int:
    """Run the workload, print the report and the result line, and write the result file."""
    runner = Runner(load_expected(args))
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **machine(threads)}
    report = ["machine " + json.dumps(info, sort_keys=True)]
    if args.trace:
        values, details = trace_run(args, deck, runner, report), {}
    else:
        values, details = timed_run(args, deck, own_setup, runner, report)
    samples = details.get("samples", {})
    for name, (value, unit) in values.items():
        report.append(f"{name} {value:.6g} {unit}" + (f" samples={samples[name]}" if name in samples else ""))
    report.append(f"digest {runner.digest()} over {len(runner.first)}/{len(deck)} deck entries"
                  + (" (checked against perfbench/expected)" if runner.expected is not None else ""))
    report.extend(f"FAILED {e}" for e in runner.errors)

    result = {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}}
    out = workdir(args) / f"result-trace{args.trace}.json"
    out.unlink(missing_ok=True)  # a new file: truncating a fresh one can wait for a flush
    with open(out, "w") as fh:
        json.dump({**info, **details, "digest": runner.digest(), "errors": runner.errors, **result},
                  fh, indent=1, sort_keys=True)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
