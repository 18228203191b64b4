"""corecover benchmark: workloads through the public API and the CLI.

    python3 perfbench/run.py --workload {report,preflight} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; it benchmarks the checkout's
``src/corecover``. Single process, single thread, closed loop: one instance
at a time, the next one starting when the previous verdict is in.

Each run first generates the workload's inputs from the seed in a process of
its own, under ``.perfbench/`` at the root of the checkout, and removes them
at the end. Then:

* ``--trace 0`` starts the loading part of the timed process eight times on
  its own and once more as the timed process, which runs instances for
  ``--seconds`` seconds, or until its population is used up. End-to-end
  metrics: ``setup_s`` (median over the nine starts of the CPU time from
  process start to the first timed instance: interpreter,
  ``import corecover``, loading the inputs; scaled as below by samples
  taken right after), ``throughput_per_s``
  (instances per second of time to verdict), ``latency_ms_p50`` and
  ``latency_ms_p90`` (time to verdict of one instance) and ``peak_rss_mb``
  (``ru_maxrss`` of the timed process). Time to verdict is the CPU time of
  the timed process, scaled to a host of fixed speed: it is single-threaded
  and reads only small files, and on a shared host CPU time leaves out the
  time spent waiting for a CPU. It does not leave out the slowdown from
  other tenants sharing the core and its caches, which moves CPU time by a
  third or more between runs minutes apart. So the timed process takes a
  host-speed sample of fixed work after every instance (``calibrate.py``),
  and each instance's CPU time is multiplied by ``calibrate.REFERENCE_S``
  over the median of the 17 samples around it. The summary shows the
  unscaled throughput and the factors next to the scaled figures.
* ``--trace 1`` runs the workload's first instances untraced, then the same
  instances in a fresh process with every public function of the layer
  modules wrapped (see ``tracing.py``), and reports the per-layer metrics of
  the traced process plus ``trace.overhead_ratio``, traced over untraced time
  to verdict, both scaled as above. A layer the workload never reaches
  reports 0 calls; a cache hit ratio with no lookups is 0, and ``null`` if
  the cache no longer exists.

Every answer is checked (see ``workloads.py``); a failed check, an exception
or an unexpected exit code counts against ``failed_ratio``, which is printed
with the other metrics and carried by ``failed`` and ``attempted`` in the
result line. The SHA-256 of all answers, which for ``report`` is
all captured stdout, is printed too, so two commits can be compared for
identical output. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``. The exit code is 0 when every check
passed, 1 when some failed and 2 when the benchmark could not run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_STARTS = 9
# Instances in the traced run: about a third of a 50 s run, untraced.
TRACE_INSTANCES = {"report": 60, "preflight": 60}
GENERATE_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _worker(mode, workload, inputs, *extra, timeout):
    """Run one worker process to completion and return its JSON line."""
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload, "--inputs", str(inputs), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{mode} worker printed no result") from None


def _started(mode, workload, inputs, *extra, timeout):
    """Like ``_worker``, adding ``setup_s``: process start to inputs loaded, scaled."""
    out = _worker(mode, workload, inputs, *extra, timeout=timeout)
    out["setup_s"] = out["ready"] * calibrate.REFERENCE_S / statistics.median(out["setup_samples"])
    return out


def _untraced(args, inputs):
    timeout = args.seconds + 120
    setups = [
        _started("setup", args.workload, inputs, timeout=timeout)["setup_s"]
        for _ in range(SETUP_STARTS - 1)
    ]
    run = _started("measure", args.workload, inputs, "--seconds", str(args.seconds), timeout=timeout)
    setups.append(run["setup_s"])
    latencies = run["latencies"]
    if len(latencies) < 2:
        raise BenchError("fewer than two instances completed")
    factors = calibrate.scale(run["samples"])
    ms = sorted(x * f * 1000 for x, f in zip(latencies, factors))
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": len(ms) * 1000 / sum(ms),
        "latency_ms_p50": statistics.median(ms),
        "latency_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
    }
    beyond = sum(1 for x in ms if x > metrics["latency_ms_p90"])
    notes = {
        "setup_s": f"median of {len(setups)} starts",
        "throughput_per_s": (
            f"unscaled {len(latencies) / sum(latencies):.6g}/s, host speed factor"
            f" median {statistics.median(factors):.4g}, range {min(factors):.4g}-{max(factors):.4g}"
        ),
        "latency_ms_p50": f"n={len(ms)}",
        "latency_ms_p90": f"n={len(ms)}, {beyond} beyond",
    }
    return metrics, notes, [run]


def _traced(args, inputs):
    timeout = args.seconds + 120
    limit = str(TRACE_INSTANCES[args.workload])
    base = _worker("measure", args.workload, inputs, "--seconds", str(args.seconds), "--limit", limit, timeout=timeout)
    done = str(len(base["latencies"]))
    traced = _worker(
        "measure", args.workload, inputs, "--seconds", str(args.seconds), "--limit", done, "--trace",
        timeout=timeout,
    )
    n = len(traced["latencies"])
    if n == 0:
        raise BenchError("no instance completed")
    metrics = dict(traced["trace"])

    def scaled(run):
        return sum(x * f for x, f in zip(run["latencies"][:n], calibrate.scale(run["samples"][:n])))

    metrics["trace.overhead_ratio"] = scaled(traced) / scaled(base)
    return metrics, {}, [base, traced]


def _print_summary(args, spec_metrics, metrics, notes, runs, attempted, failed):
    print(f"corecover benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for m in spec_metrics:
        value = metrics[m["name"]]
        shown = "null" if value is None else f"{value:.6g}"
        note = notes.get(m["name"])
        print(f"  {m['name']:<42} {shown:>12} {m['unit']}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_ratio':<42} {failed / attempted:>12.6g} ratio  ({failed} of {attempted})")
    for run in runs:
        print(f"  answers_sha256 {run['answers_sha256']}")
        for index, reason in run["failures"]:
            print(f"  FAILED instance {index}: {reason}")


def main() -> int:
    # A terminated run still stops its worker and removes its inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_INSTANCES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "corecover" / "__init__.py").is_file():
        print(f"error: no corecover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    inputs = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs.mkdir(parents=True)
    try:
        _worker("generate", args.workload, inputs, "--seed", str(args.seed), timeout=GENERATE_TIMEOUT_S)
        measure = _traced if args.trace else _untraced
        metrics, notes, runs = measure(args, inputs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            inputs.parent.rmdir()
        except OSError:
            pass
    attempted = sum(len(run["latencies"]) for run in runs)
    failed = sum(len(run["failures"]) for run in runs)
    _print_summary(args, spec_metrics, metrics, notes, runs, attempted, failed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec_metrics
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
