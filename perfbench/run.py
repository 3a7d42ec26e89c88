"""polyzeta benchmark: a single-process, single-thread closed loop with one
client, over three seeded workloads (see BENCHMARK.json and README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run cycles through the workload's
ops until their summed time reaches ``--seconds``, checks every op's
output against an oracle, and prints one JSON object as its last line of
standard output. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it records spans around every call into a
layer for half of ``--seconds``, reruns the same ops untraced in one
worker process to measure the tracing overhead, writes the spans to
``perfbench/traces/`` and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checks
import workloads
from spans import Recorder, per_layer_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"

SETUP_REPEATS = 9
LAYER_MODULES = ("words", "products", "hopf", "zeta", "numeric", "serialize",
                 "cli")
WORKER_TIMEOUT_S = 150

# (metric, unit, better) of every end-to-end metric, in report order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("converged_ratio", "ratio", "higher"),
    ("err_digits_p50", "digits", "higher"),
    ("err_digits_min", "digits", "higher"),
]


class BenchError(Exception):
    """The checkout cannot be benchmarked (no sources, wrong package)."""


def import_library() -> SimpleNamespace:
    """Import polyzeta afresh from the checkout's src/ and return its layer
    modules; earlier imports are dropped, so module memos start cold."""
    for mod in [m for m in sys.modules
                if m == "polyzeta" or m.startswith("polyzeta.")]:
        del sys.modules[mod]
    pkg = importlib.import_module("polyzeta")
    if Path(pkg.__file__).resolve().parent != SRC / "polyzeta":
        raise BenchError(f"polyzeta imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"polyzeta.{name}")
                              for name in LAYER_MODULES})


def setup(workload: str, seed: int):
    """Import the library and build the inputs SETUP_REPEATS times; the
    last set is used, and the median time is reported as set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = import_library()
        ops = workloads.build(lib, workload, seed)
        times.append(time.perf_counter() - start)
    return lib, ops, statistics.median(times)


def measure(lib, ops: list, rec, seconds: float, n_ops=None):
    """Cycle through ``ops`` until the timed ops sum to ``seconds`` and each
    has run at least once (or for exactly ``n_ops`` ops), checking every op
    after its timer stops.

    Returns, keyed by each executed op's index in ``ops``, the list of its
    times and the list of its oracle outcomes (``None`` where it raised).
    """
    times: dict = {}
    outcomes: dict = {}
    busy = 0.0
    op = 0
    while (op < n_ops if n_ops is not None
           else busy < seconds or op < len(ops)):
        idx = op % len(ops)
        spec = ops[idx]
        rec.begin_op(op)
        start = time.perf_counter()
        try:
            out = workloads.run(lib, rec, spec)
        except Exception as exc:  # a failing op is counted, not fatal
            out = exc
        finally:
            elapsed = time.perf_counter() - start
            rec.end_op()
        times.setdefault(idx, []).append(elapsed)
        busy += elapsed
        if isinstance(out, Exception):
            print(f"op {op}: {type(out).__name__}: {out}", file=sys.stderr)
            outcome = None
        else:
            outcome = workloads.check(spec, out)
            for span, reason in outcome.failures:
                rec.fail(span)
                print(f"op {op}: {span}: {reason}", file=sys.stderr)
        outcomes.setdefault(idx, []).append(outcome)
        op += 1
    return times, outcomes


def end_to_end(setup_s, times: dict, outcomes: dict) -> dict:
    """Every metric is taken over distinct ops, so a partial last pass over
    the list does not tilt the mix. An op's latency is the least of its
    executions' times: the work is identical each time, so a burst of
    contention on the host lengthens some executions but not the least one.
    An op is ok or converged when every execution was; its error is the
    largest any execution had."""
    latencies = [min(ts) for ts in times.values()]
    ok = converged = 0
    digits = []
    for runs in outcomes.values():
        done = [o for o in runs if o is not None]
        ok += len(done) == len(runs) and not any(o.failures for o in done)
        converged += len(done) == len(runs) and all(o.converged for o in done)
        if done:
            worst = max(done, key=lambda o: o.err)
            digits.append(checks.error_digits(worst.err, worst.scale))
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": deciles[8],
        "ok_ratio": ok / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "converged_ratio": converged / len(outcomes),
        "err_digits_p50": statistics.median(digits) if digits else 0.0,
        "err_digits_min": min(digits) if digits else 0.0,
    }


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def untraced_worker(args, n_ops: int) -> float:
    """Summed least op times of the same ops run untraced in a fresh
    process, which inherits POLYZETA_THREADS=1."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0",
           "--ops", str(n_ops)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"untraced worker failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-2])["least_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "polyzeta" / "__init__.py").is_file():
        print(f"error: no polyzeta sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["POLYZETA_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    try:
        lib, ops, setup_s = setup(args.workload, args.seed)
    except (ImportError, BenchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rec = Recorder(spans_on=bool(args.trace))
    # A traced run spends half its time traced and half in the untraced
    # worker, so it costs about as much as an untraced run.
    seconds = args.seconds / 2 if args.trace else args.seconds
    times, outcomes = measure(lib, ops, rec, seconds, args.ops)
    least_s = sum(map(min, times.values()))
    executions = [o for runs in outcomes.values() for o in runs]
    failed = sum(o is None or bool(o.failures) for o in executions)
    info = {"workload": args.workload, "seed": args.seed,
            "ops": len(executions), "distinct_ops": len(times),
            "timed_s": sum(map(sum, times.values())), "least_s": least_s,
            "src_lines": src_lines()}

    if args.trace:
        try:
            untraced = untraced_worker(args, len(executions))
        except (BenchError, subprocess.SubprocessError, ValueError,
                KeyError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        values = rec.layer_metrics((least_s - untraced) / untraced)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        info["untraced_s"] = untraced
        rec.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl", info)
    else:
        values = end_to_end(setup_s, times, outcomes)
        units = {name: unit for name, unit, _ in END_TO_END}

    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
