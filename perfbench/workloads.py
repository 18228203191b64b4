"""The benchmark's workloads: how each population is generated, loaded, run
and checked.

Every population is built from blocks. A block holds each size class in a
fixed proportion and is shuffled by the seed, so any prefix of the
population has nearly the same class mix whatever the seed. The timed phase
runs a prefix, so its median and 90th percentile stay inside one size class
instead of moving with the luck of the draw.

``generate`` runs in a process of its own and writes plain files; the timed
process only reads them. For ``report`` this matters: generation runs
``extended_core`` on arrangements equal to the ones the timed phase parses,
and its ``lru_cache`` would otherwise serve the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import corecover as cc
import corecover.cli
from corecover.randgen import DIRECTIONS, random_smooth_arrangement


MANIFEST = "manifest.json"


def _write_manifest(out: Path, instances: list) -> None:
    (out / MANIFEST).write_text(json.dumps(instances), encoding="utf-8")


def _read_manifest(inputs: Path) -> list:
    return json.loads((inputs / MANIFEST).read_text(encoding="utf-8"))


def _blocks(rng: random.Random, block: list, count: int) -> list:
    """``count`` entries drawn as whole shuffled copies of ``block``."""
    out = []
    while len(out) < count:
        copy = list(block)
        rng.shuffle(copy)
        out.extend(copy)
    return out[:count]


class Report:
    """``corecover report FILE --chart=EPS`` through the in-process CLI.

    Random smooth arrangements with nonempty core, n in {1, 2, 3}. EPS is a
    compact-core sign vector. One instance is the user's whole path: the
    extended core with vertices, the 3^d covering sweep, the 2^d density
    checks and the 4^d complement sweep with realizability filtering.
    d = 4 and d = 5 in proportion 3 : 1, so the median falls among the d = 4
    instances and the 90th percentile among the d = 5 ones. d = 6 is left
    out: at about 2 s an instance, a handful of them would take a fifth of a
    run and make its throughput hinge on how many fall into it.
    """

    name = "report"
    through_cli = True
    population = 360
    BLOCK = [(n, 4) for n in (1, 2, 3) for _ in range(3)] + [(n, 5) for n in (1, 2, 3)]

    @staticmethod
    def generate(rng: random.Random, out: Path) -> None:
        seen = set()
        instances = []
        for n, d in _blocks(rng, Report.BLOCK, Report.population):
            # Same draw as require_core=True, but arrangements with a split
            # flat factor, whose core is empty, are rejected before the
            # 2^d chamber classification.
            while True:
                arr = random_smooth_arrangement(rng, n=n, d=d)
                if arr not in seen and not cc.trivial_factors(arr) and cc.core(arr):
                    break
            seen.add(arr)
            eps = rng.choice(cc.theta_cpt(arr))
            name = f"{len(instances):04d}.json"
            (out / name).write_text(cc.serialize_arrangement(arr), encoding="utf-8")
            instances.append({"file": name, "chart": cc.format_sign_vector(eps), "d": d})
        _write_manifest(out, instances)

    @staticmethod
    def load(inputs: Path) -> list:
        return [
            (str(inputs / inst["file"]), inst["chart"], inst["d"])
            for inst in _read_manifest(inputs)
        ]

    @staticmethod
    def run(instance):
        path, chart, _ = instance
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = corecover.cli.main(["report", path, f"--chart={chart}"])
        return code, out.getvalue()

    @staticmethod
    def answer(result) -> str:
        return result[1]

    @staticmethod
    def check(instance, result) -> str | None:
        _, chart, d = instance
        code, out = result
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(out)
        if payload["smooth"] != {"regular": True, "simple": True}:
            return "arrangement reported not smooth"
        cover = payload["covering"]
        if cover is None or cover["covered"] is not True:
            return "covering not verified"
        density = payload["density"]
        if len(density) != 2**d or not all(v is True for v in density.values()):
            return "density dichotomy failed"
        if payload["complement"]["chart"] != chart:
            return "complement is for another chart"
        return None


class Preflight:
    """The checks every command runs before any sweep, on large arrangements.

    One instance calls ``is_regular``, ``is_simple``, ``torus_data`` and
    ``trivial_factors``. Normals come from the unimodular direction families
    of ``corecover.randgen`` with one sign drawn per normal, so every draw is
    regular; each direction is used at least twice, so there is no trivial
    factor. Lifts have mixed denominators and are drawn so that no n + 1
    hyperplanes of distinct directions meet, which makes every draw simple:
    ``is_simple`` scans all its subsets instead of stopping at the first
    violation. Cost grows with d, so the mix uses four separated sizes:
    n = 3, d = 12 and n = 2, d = 24 (30% each, about 0.14 and 0.22 s on a
    2 GHz Xeon) put the median inside the second; n = 3, d = 15 and d = 17
    (20% each, about 0.31 and 0.58 s) put the 90th percentile inside the
    last.
    """

    name = "preflight"
    through_cli = False
    population = 400
    BLOCK = [(3, 12)] * 3 + [(2, 24)] * 3 + [(3, 15)] * 2 + [(3, 17)] * 2
    DENOMINATORS = (1, 2, 3, 4, 5, 6, 7)

    @staticmethod
    def _values(rng, count, avoid=frozenset()):
        values = set()
        while len(values) < count:
            v = Fraction(rng.randint(-30, 30), rng.choice(Preflight.DENOMINATORS))
            if v not in avoid:
                values.add(v)
        return sorted(values)

    @staticmethod
    def _arrangement(rng, n, d):
        dirs = DIRECTIONS[n]
        # Hyperplane <dir, x> = v for each drawn value v of each direction.
        per_dir = [d // len(dirs) + (k < d % len(dirs)) for k in range(len(dirs))]
        axis_values = [Preflight._values(rng, c) for c in per_dir[:-1]]
        # The last direction is the all-ones vector: n + 1 hyperplanes of
        # distinct directions meet exactly when its value is a sum of one
        # value per axis, so those sums are excluded.
        sums = {Fraction(0)}
        for vals in axis_values:
            sums = {s + v for s in sums for v in vals}
        values = axis_values + [Preflight._values(rng, per_dir[-1], frozenset(sums))]
        planes = [(u, v) for u, vals in zip(dirs, values) for v in vals]
        rng.shuffle(planes)
        normals, lifts = [], []
        for u, v in planes:
            sign = rng.choice((1, -1))
            normals.append([sign * x for x in u])
            lifts.append(cc.format_rational(-sign * v))
        return {"dim": n, "normals": normals, "lifts": lifts}

    @staticmethod
    def generate(rng: random.Random, out: Path) -> None:
        instances = []
        for n, d in _blocks(rng, Preflight.BLOCK, Preflight.population):
            name = f"{len(instances):04d}.json"
            doc = Preflight._arrangement(rng, n, d)
            (out / name).write_text(json.dumps(doc), encoding="utf-8")
            instances.append(name)
        _write_manifest(out, instances)

    @staticmethod
    def load(inputs: Path) -> list:
        return [
            cc.parse_arrangement((inputs / name).read_bytes())
            for name in _read_manifest(inputs)
        ]

    @staticmethod
    def run(arr):
        return (
            cc.is_regular(arr),
            cc.is_simple(arr),
            cc.torus_data(arr),
            cc.trivial_factors(arr),
        )

    @staticmethod
    def answer(result) -> str:
        regular, simple, td, trivial = result
        return f"{regular} {simple} {td.basis} {td.alpha} {trivial}\n"

    @staticmethod
    def check(arr, result) -> str | None:
        regular, simple, td, trivial = result
        if not regular:
            return "regular by construction, reported not regular"
        if not simple:
            return "simple by construction, reported not simple"
        if trivial:
            return "no trivial factor by construction, reported some"
        if td.m != arr.d - arr.n or len(td.basis) != td.m:
            return f"kernel rank {td.m}, expected {arr.d - arr.n}"
        for row in td.basis:
            for k in range(arr.n):
                if sum(b * u[k] for b, u in zip(row, arr.normals)) != 0:
                    return "kernel basis row does not annihilate the normals"
        return None


WORKLOADS = {w.name: w for w in (Report, Preflight)}
