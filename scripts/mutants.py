#!/usr/bin/env python3
"""Mutation probe: does tier-1 catch each single-line change in the catalogue?

Each entry of ``CATALOGUE`` names a file under ``src/corecover``, a line of
it (compared without its indentation, and found exactly once), the line
that replaces it, keeping the indentation, and why the change matters. The
script copies the repository once into a temporary directory (``git
archive`` of ``--ref``, or with ``--worktree`` the tracked and untracked,
not ignored, files of the working tree); for each entry it applies that one
change, runs the tier-1 command with ``-x``, less ``tests/test_mutants.py``
(which checks that every entry's line is in the source, so any mutant
fails it), and restores the file. A mutant is killed when the command
fails. Bytecode is not written, so no stale ``.pyc`` can stand in for a
mutated module.

An entry with ``equivalent`` set changes no behaviour, for the reason it
states, so it is expected to survive. The script prints one line per
mutant, with the first failing test of each killed one, and exits 1 if a
mutant that is not marked equivalent survives, or one that is marked
equivalent is killed (its mark is wrong, or a test reads more than
behaviour), and 2 if an entry does not apply. Run it after a change to
``src/``, with an entry for each line the change rewrites; a survivor is
killed by a new test, never by dropping or weakening its entry. At 10-60
s a mutant on 2 CPUs it is not a CI step.

Usage: python scripts/mutants.py [--ref REF | --worktree] [--only NAME ...]
"""

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
# tests/test_mutants.py checks that each entry's line is in the source, so
# it fails on every mutant; left in, it would kill each survivor
TIER1 = [
    sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
    "--ignore=tests/test_mutants.py",
]
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    why: str
    equivalent: str | None = None


CATALOGUE = (
    Mutant(
        "max-state-dim-max",
        "quotient.py",
        "max_dim = arr.n - min(zeros) if zeros else -1",
        "max_dim = arr.n - max(zeros) if zeros else -1",
        "the complement's largest state set comes from the fewest ZERO letters",
    ),
    Mutant(
        "breakdown-order",
        "quotient.py",
        "breakdown = {k: tuple(v) for k, v in sorted(breakdown.items(), reverse=True)}",
        "breakdown = {k: tuple(v) for k, v in sorted(breakdown.items())}",
        "the component breakdown is listed with +1 before -1, as the CLI prints it",
    ),
    Mutant(
        "closed-orbit-non-strict",
        "stability.py",
        "return _refutation(td._rebuilt[0], check_pattern(pattern, td.d), strict=True) is None",
        "return _refutation(td._rebuilt[0], check_pattern(pattern, td.d), strict=False) is None",
        "hk_closed_orbit is the strict variant of the semistability system",
    ),
    Mutant(
        "scan-sum-non-negative",
        "stability.py",
        "return total < 0 or strict and total == 0 and any(side for (_, side, _), _ in chosen)",
        "return total <= 0 or strict and total == 0 and any(side for (_, side, _), _ in chosen)",
        "a circuit refutes the closed system only if sum(c_i * lift_i) < 0",
    ),
    Mutant(
        "scan-zero-no-lower-bound",
        "stability.py",
        "if side >= 0 and (lower is None or (t, side) > lower[:2]):",
        "if side > 0 and (lower is None or (t, side) > lower[:2]):",
        "a ZERO letter bounds its class both ways, so c_i may take either sign on it",
    ),
    Mutant(
        "scan-side-unoriented",
        "stability.py",
        "side = _SIGN[pattern[i]] * planes[i][1]",
        "side = _SIGN[pattern[i]]",
        "a letter bounds <r_k, y> below or above by its sign times the normal's orientation",
    ),
    Mutant(
        "strict-tie-dropped",
        "stability.py",
        "return total < 0 or strict and total == 0 and any(side for (_, side, _), _ in chosen)",
        "return total < 0",
        "the strict system is also refuted by a zero sum with a Z or W letter (Motzkin)",
    ),
    Mutant(
        "strict-tie-any-letter",
        "stability.py",
        "return total < 0 or strict and total == 0 and any(side for (_, side, _), _ in chosen)",
        "return total < 0 or strict and total == 0",
        "a zero sum over ZERO letters alone refutes nothing: their rows stay equalities",
    ),
    Mutant(
        "pair-lower-least",
        "stability.py",
        "if side >= 0 and (lower is None or (t, side) > lower[:2]):",
        "if side >= 0 and (lower is None or (t, side) < lower[:2]):",
        "per class the scan takes the lower bound with the greatest offset",
    ),
    Mutant(
        "pair-upper-greatest",
        "stability.py",
        "if side <= 0 and (upper is None or (t, side) < upper[:2]):",
        "if side <= 0 and (upper is None or (t, side) > upper[:2]):",
        "per class the scan takes the upper bound with the least offset",
    ),
    Mutant(
        "equality-multipliers-unsigned",
        "stability.py",
        "multipliers = (*(-x for x in mu), *_letter_multipliers(pattern, circuit))",
        "multipliers = (*mu, *_letter_multipliers(pattern, circuit))",
        "the equality rows take -mu, so they cancel the letter rows' sum c",
    ),
    Mutant(
        "zero-row-multiplier-dropped",
        "stability.py",
        "Fraction(circuit.get(i, 0) * (_SIGN[status] or 1))",
        "Fraction(circuit.get(i, 0) * _SIGN[status])",
        "a ZERO letter's equality row carries c_i too",
    ),
    Mutant(
        "witness-times-scale",
        "stability.py",
        "(sum(map(mul, u, y)) + lift) / scale",
        "(sum(map(mul, u, y)) + lift) * scale",
        "x_i is the rebuilt hyperplane's function over its positive scale",
    ),
    Mutant(
        "conforming-one-sided",
        "stability.py",
        "_CONFORMING = {1: (1,), -1: (-1,), 0: (1, -1)}",
        "_CONFORMING = {1: (1,), -1: (-1,), 0: (1,)}",
        "a zero coordinate conforms to both signs",
    ),
    Mutant(
        "exchange-largest-size-dropped",
        "stability.py",
        "for r in range(min(td.m, len(entering)) + 1):",
        "for r in range(min(td.m, len(entering))):",
        "the numeric chambers need exchange blocks of every size up to min(m, n)",
    ),
    Mutant(
        "cramer-numerators-swapped",
        "stability.py",
        "nums = (t1 * a22 - a12 * t2, a11 * t2 - t1 * a21)",
        "nums = (a11 * t2 - t1 * a21, t1 * a22 - a12 * t2)",
        "each Cramer numerator belongs to its own entering column",
    ),
    Mutant(
        "core-walk-ray-and-dropped",
        "quotient.py",
        "tuple((e, letters[_LETTER[e]] | rays[k][e * s < 0] << shift) for e in (-1, 1))",
        "tuple((e, letters[_LETTER[e]] | (rays[k][e * s < 0] if e > 0 else -1) << shift) for e in (-1, 1))",
        "a chamber's rays in its recession cone are the AND of all its letters' ray masks, W's as Z's",
    ),
    Mutant(
        "core-walk-leaf-ray-dropped",
        "quotient.py",
        "if mask >> shift:",
        "if mask >> shift + 1:",
        "every ray bit a leaf keeps above its vertex bits, the first too, takes part in its classification",
    ),
    Mutant(
        "complement-keeps-leaves-in-chamber",
        "quotient.py",
        "excluded.extend(p for p, _ in _pattern_masks(arr, rows, outside, chamber))",
        "excluded.extend(p for p, _ in _pattern_masks(arr, rows, chamber, outside))",
        "the complement lists the leaves whose vertex mask misses the chamber's",
    ),
    Mutant(
        "cover-count-empty-leaves",
        "quotient.py",
        "leaves = sum(2 ** len(s) * prod(sizes[k] for k in s) for s in independent)",
        "leaves = sum(3 ** len(s) * prod(sizes[k] for k in s) for s in independent)",
        "the covering count counts the nonempty leaves alone: a face in the flat of T has 2^|T| signs off it",
    ),
    Mutant(
        "cover-count-top-size-dropped",
        "quotient.py",
        "for size in range(arr.n + 1)",
        "for size in range(arr.n)",
        "the independent class sets of the face count include the bases themselves, whose faces are the vertices",
    ),
    Mutant(
        "cover-count-class-sizes-dropped",
        "quotient.py",
        "leaves = sum(2 ** len(s) * prod(sizes[k] for k in s) for s in independent)",
        "leaves = sum(2 ** len(s) for s in independent)",
        "an independent class set stands for one hyperplane set per choice of a hyperplane in each class",
    ),
    Mutant(
        "counterexamples-within-core",
        "quotient.py",
        "counterexamples = tuple(p for p, _ in _pattern_masks(arr, within=off, avoid=compact))",
        "counterexamples = tuple(p for p, _ in _pattern_masks(arr, within=compact, avoid=compact))",
        "a counterexample's vertices all lie off every compact chamber",
    ),
    Mutant(
        "walk-avoid-ignored",
        "stability.py",
        "if mask & within and not mask & avoid:",
        "if mask & within:",
        "the pattern walk drops the leaves whose mask meets avoid",
    ),
    Mutant(
        "row-combination-common-dropped",
        "stability.py",
        "mu[k] = Fraction(sum(map(mul, row, nums)), den * common)",
        "mu[k] = Fraction(sum(map(mul, row, nums)), den)",
        "the target is cleared to integers over its common denominator before the product",
    ),
    Mutant(
        "witness-first-vertex",
        "quotient.py",
        "pattern: chambers[min(map(first.__getitem__, _indices(kept)))]",
        "pattern: chambers[next(j for j in map(first.__getitem__, _indices(kept)) if j < len(chambers))]",
        "a covering witness is the compact chamber of least index among the leaf's vertices",
    ),
    Mutant(
        "witness-index-last-chamber",
        "quotient.py",
        "for j in reversed(range(len(chambers))):",
        "for j in range(len(chambers)):",
        "a vertex's index is the first compact chamber holding it, not the last",
    ),
    Mutant(
        "witness-walk-everywhere",
        "quotient.py",
        "for pattern, kept in _pattern_masks(arr, within=compact)",
        "for pattern, kept in _pattern_masks(arr)",
        "the witness walk reaches only the leaves that meet a compact chamber",
    ),
    Mutant(
        "counterexamples-avoid-dropped",
        "quotient.py",
        "counterexamples = tuple(p for p, _ in _pattern_masks(arr, within=off, avoid=compact))",
        "counterexamples = tuple(p for p, _ in _pattern_masks(arr, within=off))",
        "a counterexample's mask misses every compact chamber, not only meets a vertex off them",
    ),
    Mutant(
        "exchange-inverse-transposed",
        "stability.py",
        "nums = [sum(map(mul, row, [t[i] for i in leave])) for row in inverse]",
        "nums = [sum(map(mul, row, [t[i] for i in leave])) for row in zip(*inverse)]",
        "a block of size 3 or more is solved by the rows of its scaled inverse against t_L",
    ),
    Mutant(
        "smooth-without-regular",
        "arrangement.py",
        "return is_regular(arr) and is_simple(arr)",
        "return is_simple(arr)",
        "smoothness is regularity and simplicity",
    ),
    Mutant(
        "cover-limit-13",
        "quotient.py",
        "DEFAULT_MAX_COVER_D = 12",
        "DEFAULT_MAX_COVER_D = 13",
        "README documents d = 12 as the largest sweep run without --force",
    ),
    Mutant(
        "complement-limit-10",
        "quotient.py",
        "DEFAULT_MAX_COMPLEMENT_D = 9",
        "DEFAULT_MAX_COMPLEMENT_D = 10",
        "README documents d = 9 as the largest complement run without --force",
    ),
    Mutant(
        "guard-non-strict",
        "quotient.py",
        "if arr.d > limit and not force:",
        "if arr.d >= limit and not force:",
        "d equal to the limit runs without --force",
    ),
    Mutant(
        "criterion-always-agrees",
        "quotient.py",
        "agree = (not bounded_exists) == (len(trivial) > 0)",
        "agree = True",
        "a disagreement between the two sides must be reported",
    ),
    Mutant(
        "trivial-factors-independent-negated",
        "arrangement.py",
        "return tuple(sorted(i for k, i in singles if arr._matroid.independent((k,))))",
        "return tuple(sorted(i for k, i in singles if not arr._matroid.independent((k,))))",
        "a trivial factor is a singleton class outside the span of the others",
    ),
    Mutant(
        "level-drops-own-lift",
        "arrangement.py",
        "alpha.append(Fraction(level + nums[p], common))",
        "alpha.append(Fraction(level, common))",
        "row p of the read-off kernel is 1 at p, so its level adds the lift of p",
    ),
    Mutant(
        "split-right-sign",
        "arrangement.py",
        "right = {s - c * t for s in right for t in offsets[k]}",
        "right = {s + c * t for s in right for t in offsets[k]}",
        "the halves meet where the sum over A is minus the sum over B",
    ),
    Mutant(
        "split-at-zero",
        "arrangement.py",
        "half = len(support) // 2",
        "half = 0",
        "the split point sets only the cost",
        equivalent=(
            "with A empty the left set is {0}, so the test reads whether 0 is among the "
            "negated sums over the whole support, which is the same condition"
        ),
    ),
    Mutant(
        "classes-member-sign",
        "arrangement.py",
        "u, member = (u, (i, -num)) if u > zero else (tuple(map(neg, u)), (i, num))",
        "u, member = (u, (i, -num)) if u > zero else (tuple(map(neg, u)), (i, -num))",
        "a negated normal reads its offset with the opposite sign",
    ),
    Mutant(
        "row-lengths-strict",
        "arrangement.py",
        "if not set(map(len, basis)) <= {len(lifts)}:",
        "if not set(map(len, basis)) < {len(lifts)}:",
        "rows of length d are the ones the torus data accepts",
    ),
    Mutant(
        "hnf-level-over-one",
        "arrangement.py",
        "return TorusData._read_off(basis, arr.lifts, _level(basis, arr._cleared))",
        "return TorusData._read_off(basis, arr.lifts, _level(basis, (1, arr._cleared[1])))",
        "the HNF path's level is summed over the lifts' common denominator",
    ),
    Mutant(
        "cleared-lifts-over-one",
        "arrangement.py",
        "return common, tuple(nums)",
        "return 1, tuple(nums)",
        "the cleared lifts keep their common denominator",
    ),
    Mutant(
        "record-not-stored",
        "arrangement.py",
        "value = instance.__dict__[self.attrname] = self.func(instance)",
        "value = self.func(instance)",
        "a record is built once, and later reads find it in the instance dict",
    ),
    Mutant(
        "record-unnamed-unchecked",
        "arrangement.py",
        "if instance is None or self.attrname is None:",
        "if instance is None:",
        "a record without a name raises cached_property's TypeError",
    ),
    Mutant(
        "scale-by-numerator",
        "linalg.py",
        "return common, [p * (common // q) for p, q in pairs]",
        "return common, [p * (common // p) for p, q in pairs]",
        "each numerator is scaled by the common denominator over its own denominator",
    ),
    Mutant(
        "fractions-guard-any-sequence",
        "linalg.py",
        "if type(values) is tuple and set(map(type, values)) <= {Fraction}:",
        "if set(map(type, values)) <= {Fraction}:",
        "only a tuple is kept as it is; a list of Fractions becomes a tuple",
    ),
    Mutant(
        "fractions-guard-ints",
        "linalg.py",
        "if type(values) is tuple and set(map(type, values)) <= {Fraction}:",
        "if type(values) is tuple and set(map(type, values)) <= _EXACT:",
        "a tuple that holds an int is converted to Fractions",
    ),
    Mutant(
        "rational-leading-zeros",
        "formats.py",
        '_RATIONAL_RE = re.compile(r"(0|-?[1-9][0-9]*)(?:/([2-9]|[1-9][0-9]+))?")',
        '_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([2-9]|[1-9][0-9]+))?")',
        "format_rational writes no leading zero and no -0",
    ),
    Mutant(
        "rational-denominator-one",
        "formats.py",
        '_RATIONAL_RE = re.compile(r"(0|-?[1-9][0-9]*)(?:/([2-9]|[1-9][0-9]+))?")',
        '_RATIONAL_RE = re.compile(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")',
        "format_rational writes an integer without a denominator",
    ),
    Mutant(
        "render-vertex-index-shifted",
        "render.py",
        "vertices = [crossings[j] for j in _indices(mask)]",
        "vertices = [crossings[j - 1] for j in _indices(mask)]",
        "bit j of a chamber's mask is the j-th vertex of the face record",
    ),
    Mutant(
        "render-first-chamber-dropped",
        "render.py",
        "for mask in _extended_core_cached(arr).masks:",
        "for mask in _extended_core_cached(arr).masks[1:]:",
        "every bounded chamber with three or more vertices is shaded",
    ),
    Mutant(
        "pattern-mask-last-vertex-dropped",
        "stability.py",
        "tables, kept = arr._faces.masks",
        "tables, kept = arr._faces.masks[0], arr._faces.masks[1] >> 1",
        "a pattern's mask starts from every vertex of the face record",
    ),
    Mutant(
        "reconstruction-rebuilt-afresh",
        "arrangement.py",
        "return td._rebuilt[0]",
        "return _rebuild(td)[0]",
        "the API returns the arrangement the verdicts read, rebuilt once per torus",
    ),
    Mutant(
        "pattern-walk-root-vertices",
        "stability.py",
        "stack = [((), -1)] if within else []",
        "stack = [((), faces.masks[1])] if within else []",
        "the pattern walk's root keeps every bit, so the core walk's ray bits above the vertices ride down it",
    ),
    Mutant(
        "core-walk-shift-short",
        "quotient.py",
        "shift = every.bit_length()",
        "shift = every.bit_length() - 1",
        "a letter's ray mask sits above all V vertex bits, clear of the last vertex",
    ),
    Mutant(
        "indices-off-by-one",
        "stability.py",
        "yield low.bit_length() - 1",
        "yield low.bit_length()",
        "bit j of a mask is the j-th vertex, counted from 0",
    ),
    Mutant(
        "class-factor-not-kept",
        "arrangement.py",
        "found = self._factors[basis] = _scaled_inverse([self.reps[k] for k in basis]) or (0, None)",
        "found = _scaled_inverse([self.reps[k] for k in basis]) or (0, None)",
        "each class n-subset is factored once per record, whichever part reads it",
    ),
    Mutant(
        "class-regular-det-two",
        "arrangement.py",
        "return all(self.factor(chosen)[0] <= 1 for chosen in subsets)",
        "return all(self.factor(chosen)[0] <= 2 for chosen in subsets)",
        "a class basis of |det| 2 makes the arrangement irregular",
    ),
    Mutant(
        "ray-cofactor-sign-kept",
        "arrangement.py",
        "max(c, tuple(map(neg, c))) for _, _, inverse in self.bases for c in zip(*inverse)",
        "c for _, _, inverse in self.bases for c in zip(*inverse)",
        "two bases can give one cofactor with opposite signs; it is one ray pair",
    ),
    Mutant(
        "bases-dependent-kept",
        "arrangement.py",
        "return tuple(entry for entry in factored if entry[1] > 0)",
        "return tuple(entry for entry in factored if entry[1] >= 0)",
        "a dependent class n-subset is no basis and has no inverse",
    ),
    Mutant(
        "greedy-basis-unimodular",
        "arrangement.py",
        "chosen = next(c for c in subsets if record.coordinates(c)[0])",
        "chosen = next(c for c in subsets if record.coordinates(c)[1])",
        "the greedy class basis is the first independent one, unimodular or not",
    ),
    Mutant(
        "certificate-length-unchecked",
        "feasibility.py",
        "if y is None or len(y) != len(poly.constraints):",
        "if y is None:",
        "a multiplier vector of the wrong length proves nothing, even with a trailing 0",
    ),
    Mutant(
        "certificate-combination-any",
        "feasibility.py",
        "if any(v != 0 for v in combo):",
        "if all(v != 0 for v in combo):",
        "the multipliers must cancel every coordinate, not just one",
    ),
    Mutant(
        "certificate-sign-unchecked",
        "feasibility.py",
        "if con.relation is not Relation.EQ and mult < 0:",
        "if con.relation is Relation.GT and mult < 0:",
        "a negative multiplier on a non-strict inequality reverses it",
    ),
    Mutant(
        "render-line-rows-short",
        "render.py",
        "extra = 14 * max(arr.d - 8, 0)",
        "extra = 14 * max(arr.d - 9, 0)",
        "eight arrow rows fit above the axis, and the ninth needs a row more",
    ),
)


def _copy(dest: pathlib.Path, ref: str, worktree: bool) -> None:
    archive = dest / "tree.tar"
    with open(archive, "wb") as out:
        if worktree:
            listed = subprocess.run(
                ["git", "ls-files", "-z", "-co", "--exclude-standard"],
                cwd=ROOT, check=True, capture_output=True,
            ).stdout.split(b"\0")
            files = b"\0".join(name for name in listed if name and (ROOT / name.decode()).is_file())
            subprocess.run(["tar", "-cf", "-", "--null", "-T", "-"], cwd=ROOT, check=True, input=files, stdout=out)
        else:
            subprocess.run(["git", "archive", ref], cwd=ROOT, check=True, stdout=out)
    subprocess.run(["tar", "-xf", archive.name], cwd=dest, check=True)
    archive.unlink()


def _apply(tree: pathlib.Path, mutant: Mutant) -> str:
    """Apply the mutant in ``tree``; return the original text of its file."""
    path = tree / "src" / "corecover" / mutant.file
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.old]
    if len(hits) != 1:
        raise LookupError(f"{mutant.name}: {len(hits)} lines of {mutant.file} read {mutant.old!r}")
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + mutant.new + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--ref", default="HEAD", help="commit to copy (default HEAD)")
    source.add_argument("--worktree", action="store_true", help="copy the working tree instead")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run these entries alone")
    args = parser.parse_args(argv)
    names = {m.name for m in CATALOGUE}
    unknown = set(args.only or ()) - names
    if unknown:
        parser.error(f"no such entries: {', '.join(sorted(unknown))}")
    chosen = [m for m in CATALOGUE if not args.only or m.name in args.only]
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    wrong = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = pathlib.Path(tmp)
        _copy(tree, args.ref, args.worktree)
        for mutant in chosen:
            try:
                original = _apply(tree, mutant)
            except LookupError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            start = time.monotonic()
            try:
                run = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
                failures = [line for line in run.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
                killed = run.returncode != 0
                note = f"by {failures[0].split(' - ')[0].split(' ', 1)[1]}" if failures else f"exit {run.returncode}"
            except subprocess.TimeoutExpired:
                killed, note = True, f"by the {TIMEOUT_S} s timeout"
            finally:
                (tree / "src" / "corecover" / mutant.file).write_text(original, encoding="utf-8")
            if not killed:
                note = f"equivalent: {mutant.equivalent}" if mutant.equivalent else mutant.why
            verdict = "killed" if killed else "survived"
            print(f"{verdict:8} {mutant.name:30} {time.monotonic() - start:6.1f} s  {note}", flush=True)
            if killed == bool(mutant.equivalent):
                wrong.append(mutant.name)
    print(f"{len(chosen)} mutants, {len(wrong)} unexpected: {', '.join(wrong) or 'none'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
