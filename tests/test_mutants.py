"""The mutation catalogue of ``scripts/mutants.py`` still applies to the
source: each entry's line is found once in its file, and its replacement
differs from it, so a change to ``src/`` that moves a line is caught here
rather than when the probe is next run."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _catalogue():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CATALOGUE


def test_every_entry_applies():
    catalogue = _catalogue()
    names = [m.name for m in catalogue]
    assert len(names) == len(set(names))
    for mutant in catalogue:
        lines = (ROOT / "src" / "corecover" / mutant.file).read_text(encoding="utf-8").splitlines()
        assert [line.strip() for line in lines].count(mutant.old) == 1, mutant.name
        assert mutant.new.strip() != mutant.old and mutant.new == mutant.new.strip(), mutant.name
        assert mutant.why, mutant.name
