#!/usr/bin/env python3
"""Check the result line of a benchmark run.

Reads the captured stdout of ``perfbench/run.py`` and fails unless its last
line is a JSON result whose every metric value is a finite number. A run can
exit 0 with a last line that is no result, or with a ``null`` metric: the
traced run prints ``null`` for a cache hit ratio whose cache lost its
``cache_info()``.

Usage: python scripts/check_bench_line.py FILE
"""

import json
import math
import sys


def is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python scripts/check_bench_line.py FILE", file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    last = next((line for line in reversed(lines) if line.strip()), "")
    try:
        metrics = json.loads(last)["metrics"]
        bad = [name for name, metric in metrics.items() if not is_finite_number(metric["value"])]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"last line is not a benchmark result: {exc!r}", file=sys.stderr)
        return 1
    if bad:
        print(f"metrics that are not finite numbers: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(f"{len(metrics)} metrics, all finite numbers")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
