"""One benchmark process: generates inputs, or loads them and runs instances.

    worker.py generate --workload W --seed N --inputs DIR
    worker.py setup    --workload W --inputs DIR
    worker.py measure  --workload W --inputs DIR --seconds S [--limit K] [--trace]

``run.py`` starts each mode in a fresh process, so the timed process never
sees generation's caches. ``setup`` and ``measure`` print, as their last
line, a JSON object holding ``ready``: the process CPU time, counted from
process start, once corecover is imported and the inputs are loaded, and
``setup_samples``: host-speed samples taken right after. ``measure`` adds the
per-instance latencies, the correctness checks and one host-speed sample
(``calibrate.sample``) taken after each instance. An instance's latency
is the process CPU time of the call that produces its answer, not of the
check of that answer or of the sample.
"""

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import corecover  # noqa: E402

if not Path(corecover.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"corecover imported from {corecover.__file__}, not from {SRC}")

import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _measure(workload, inputs, args) -> dict:
    if args.limit is not None:
        inputs = inputs[: args.limit]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        caches_before = tracing.cache_counts()
    latencies, failures, samples = [], [], []
    digest = hashlib.sha256()
    stdout_bytes = 0
    start = time.monotonic()
    for index, instance in enumerate(inputs):
        if time.monotonic() - start >= args.seconds:
            break
        try:
            t0 = time.process_time()
            try:
                result = workload.run(instance)
            finally:
                latencies.append(time.process_time() - t0)
            answer = workload.answer(result).encode("utf-8")
            digest.update(answer)
            if workload.through_cli:
                stdout_bytes += len(answer)
            reason = workload.check(instance, result)
        except Exception:
            traceback.print_exc()
            reason = "raised an exception"
        if reason is not None:
            failures.append([index, reason])
        samples.append(calibrate.sample())
    out = {
        "latencies": latencies,
        "samples": samples,
        "failures": failures,
        "answers_sha256": digest.hexdigest(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": None,
    }
    if tracer is not None:
        out["trace"] = tracer.metrics(len(latencies), caches_before, tracing.cache_counts())
        out["trace"]["cli.stdout_bytes"] = stdout_bytes
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("generate", "setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "generate":
        workload.generate(random.Random(args.seed), args.inputs)
        out = {}
    else:
        inputs = workload.load(args.inputs)
        out = {"ready": time.process_time()}
        out["setup_samples"] = [calibrate.sample() for _ in range(calibrate.SETUP_SAMPLES)]
        if args.mode == "measure":
            out.update(_measure(workload, inputs, args))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
