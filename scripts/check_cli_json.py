#!/usr/bin/env python3
"""Check that the command line prints exactly ``json.dumps(..., indent=2)``.

Runs ``check``, ``core``, ``cover``, ``density`` and ``report --chart`` on
every bundled fixture through ``python -m corecover``, each in a process of
its own, and fails unless every stdout equals
``json.dumps(json.loads(stdout), indent=2) + "\\n"`` on the running Python.
The chart is the first component that ``core`` lists. A command that exits
2 (an input error, such as ``cover`` on an empty core) must print nothing.

Usage: PYTHONPATH=src python scripts/check_cli_json.py
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "corecover", *args], capture_output=True, text=True, check=False
    )


def main() -> int:
    failures = checked = 0
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        core = json.loads(run("core", str(path)).stdout)
        chart = core["components"][0]["eps"]
        commands = [["check"], ["core"], ["cover"], ["density"], ["report", "--chart", chart]]
        for command in commands:
            proc = run(command[0], str(path), *command[1:])
            if proc.returncode == 2:
                ok = proc.stdout == ""
            else:
                ok = proc.stdout == json.dumps(json.loads(proc.stdout), indent=2) + "\n"
                checked += 1
            if not ok:
                failures += 1
                print(f"FAIL {path.name}: {' '.join(command)} (exit {proc.returncode})")
    print(f"{checked} outputs checked, {failures} failures, Python {sys.version.split()[0]}")
    return 1 if failures or not checked else 0


if __name__ == "__main__":
    sys.exit(main())
