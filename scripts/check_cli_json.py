#!/usr/bin/env python3
"""Check that the command line prints exactly ``json.dumps(..., indent=2)``.

Runs ``check``, ``core``, ``cover``, ``density``, ``complement --chart=EPS``,
``stability --pattern=`` with all ``*`` and ``report --chart=EPS`` on every
bundled fixture through ``python -m corecover``, each in a process of its
own, and fails unless every stdout equals
``json.dumps(json.loads(stdout), indent=2) + "\\n"`` on the running Python.
The chart EPS is the first component that ``core`` lists. Exit 2 (an input
error) with empty stdout is accepted only from ``cover`` on a fixture whose
core has no bounded component; any other exit 2, a usage error included,
fails.

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
        pattern = "*" * len(chart)
        commands = [
            ["check"], ["core"], ["cover"], ["density"], ["complement", f"--chart={chart}"],
            ["stability", f"--pattern={pattern}"], ["report", f"--chart={chart}"],
        ]
        for command in commands:
            proc = run(command[0], str(path), *command[1:])
            if proc.returncode == 2:
                ok = command == ["cover"] and not core["theta_cpt_count"] and proc.stdout == ""
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
