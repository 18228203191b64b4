import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from corecover import (
    Certificate,
    ParseError,
    format_pattern,
    format_rational,
    format_sign_vector,
    parse_arrangement,
    parse_pattern,
    parse_rational,
    parse_sign_vector,
    serialize_arrangement,
    theta_cpt,
    torus_data,
    verify_certificate,
)
import corecover.cli as cli
import corecover.feasibility as feasibility
import corecover.quotient as quotient
import corecover.stability as stability
from corecover.cli import main
from corecover.randgen import random_smooth_arrangement
from corecover.stability import Status
from util import (
    chamber_vertices,
    cycling_family,
    pattern_string_by_value,
    random_integer_arrangement,
    rational_string_via_fraction,
    sign_string_by_comparison,
)

F = Fraction
# SHA-256 of the CLI's stdout on a seeded population, recorded before the
# report path read its walk rows off the face record and counted the cover
REPORT_POPULATION_DIGEST = "c000a618c5c257b213698fc6dda5a9f69e1f23988f18234b16ca8f6e6cf32d33"
Z, W, O, B = Status.Z, Status.W, Status.ZERO, Status.BOTH

A2_DOC = {
    "dim": 1,
    "normals": [[-1], [1], [1]],
    "lifts": ["1", "-1/2", "0"],
}
HIRZ_DOC = {
    "dim": 2,
    "normals": [[1, 0], [0, 1], [-1, -1], [0, -1]],
    "lifts": ["1", "1", "1", "1"],
}
# x = 0, y = 0 and x + y = 0 meet at one point, and (1, 1) and (1, -1)
# have determinant -2: neither simple nor regular, so not smooth
NOT_SMOOTH_DOC = {
    "dim": 2,
    "normals": [[1, 0], [0, 1], [1, 1], [1, -1]],
    "lifts": ["0", "0", "0", "1"],
}
# x_i >= 0 and x_1 + ... + x_5 <= 1: a smooth arrangement in 5-D
SIMPLEX5_DOC = {
    "dim": 5,
    "normals": [[int(k == i) for k in range(5)] for i in range(5)] + [[-1] * 5],
    "lifts": ["0"] * 5 + ["1"],
}


def write(tmp_path, doc, name="arr.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _long_rational(text):
    """A printed rational with any number of digits, read 500 digits at a
    time, so no digit limit applies."""
    def read(digits):
        value = 0
        for start in range(0, len(digits), 500):
            piece = digits[start:start + 500]
            value = value * 10 ** len(piece) + int(piece)
        return value

    num, _, den = text.partition("/")
    sign = -1 if num.startswith("-") else 1
    return F(sign * read(num.lstrip("-")), read(den) if den else 1)


class TestRationals:
    def test_parse(self):
        assert parse_rational("-1/2") == F(-1, 2)
        assert parse_rational("7") == F(7)

    @pytest.mark.parametrize(
        "bad", ["1/0", "1/-2", "2/4", "0.5", "", "1 /2", "+3", "1\n", "\u0661/2"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    @pytest.mark.parametrize(
        "text, value",
        [("0", F(0)), ("-3", F(-3)), ("10", F(10)), ("1/10", F(1, 10)), ("-20/3", F(-20, 3))],
    )
    def test_accepts_what_format_writes(self, text, value):
        assert parse_rational(text) == value and format_rational(value) == text

    @pytest.mark.parametrize(
        "other, canonical",
        [("007", "7"), ("-0", "0"), ("3/1", "3"), ("1/01", "1"), ("+3", "3"), ("0/5", "0"), ("-07/2", "-7/2")],
    )
    def test_rejects_what_format_does_not_write(self, other, canonical):
        # each names a value that format_rational spells another way
        assert format_rational(Fraction(other)) == canonical != other
        with pytest.raises(ParseError):
            parse_rational(other)
        doc = dict(A2_DOC, lifts=["1", other, "0"])
        with pytest.raises(ParseError, match="bad lift 2"):
            parse_arrangement(json.dumps(doc))

    def test_accepts_exactly_the_round_trips(self):
        # every string of up to four characters over -0123456789/: accepted
        # exactly when it is how format_rational writes the value that
        # Fraction reads from it
        accepted = 0
        for size in range(1, 5):
            for chars in itertools.product("-0123456789/", repeat=size):
                text = "".join(chars)
                try:
                    value = Fraction(text)
                except (ValueError, ZeroDivisionError):
                    value = None
                try:
                    parsed = parse_rational(text)
                except ParseError:
                    assert value is None or format_rational(value) != text, text
                    continue
                assert parsed == value and format_rational(parsed) == text
                accepted += 1
        # 10,999 integers and 1,050 fractions
        assert accepted == 12049

    def test_format(self):
        assert format_rational(F(-1, 2)) == "-1/2"
        assert format_rational(F(4, 2)) == "2"


# Integers with about 4,400 to 4,800 digits: over the default limit of
# ``str`` where there is one.
_HUGE = st.builds(
    lambda sign, k, low: sign * (10**4400 * k + low),
    st.sampled_from((1, -1)),
    st.integers(1, 10**400),
    st.integers(0, 10**6),
)


class TestFormatHelpers:
    """The formatting helpers write what the plain definitions write."""

    @given(st.lists(st.sampled_from(list(Status)), max_size=40))
    def test_pattern(self, pattern):
        assert format_pattern(tuple(pattern)) == pattern_string_by_value(pattern)
        assert format_pattern(iter(pattern)) == pattern_string_by_value(pattern)

    @given(st.lists(st.sampled_from((1, -1)), max_size=40))
    def test_sign_vector(self, eps):
        assert format_sign_vector(tuple(eps)) == sign_string_by_comparison(eps)
        assert format_sign_vector(iter(eps)) == sign_string_by_comparison(eps)

    @given(
        st.one_of(
            st.integers(),
            st.fractions(),
            _HUGE,
            st.builds(Fraction, _HUGE, st.integers(2, 10**9)),
            st.builds(Fraction, st.integers(-(10**9), 10**9), _HUGE.map(abs)),
        )
    )
    def test_rational(self, value):
        assert format_rational(value) == rational_string_via_fraction(value)


class TestArrangementFile:
    def test_parse_a2(self):
        arr = parse_arrangement(json.dumps(A2_DOC))
        assert arr.n == 1 and arr.d == 3
        assert arr.lifts == (F(1), F(-1, 2), F(0))

    def test_parse_trapezoid(self):
        arr = parse_arrangement(json.dumps(HIRZ_DOC).encode("utf-8"))
        assert arr.normals == ((1, 0), (0, 1), (-1, -1), (0, -1))

    def test_non_primitive_message(self):
        doc = dict(HIRZ_DOC, normals=[[2, 0], [0, 1], [-1, -1], [0, -1]])
        with pytest.raises(ParseError, match="normal 1 not primitive"):
            parse_arrangement(json.dumps(doc))

    def test_rank_message(self):
        doc = {"dim": 2, "normals": [[1, 0], [-1, 0]], "lifts": ["0", "1"]}
        with pytest.raises(ParseError, match="normals do not span"):
            parse_arrangement(json.dumps(doc))

    def test_bad_lift_message(self):
        doc = dict(A2_DOC, lifts=["1", "2/4", "0"])
        with pytest.raises(ParseError, match="bad lift 2"):
            parse_arrangement(json.dumps(doc))

    def test_missing_key(self):
        with pytest.raises(ParseError, match="missing key: lifts"):
            parse_arrangement(json.dumps({"dim": 1, "normals": [[1]]}))

    def test_unexpected_key(self):
        with pytest.raises(ParseError, match="unexpected key"):
            parse_arrangement(json.dumps(dict(A2_DOC, extra=1)))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"normals": [[-1], [1.5], [1]]}, "normal 2 has a non-integer entry"),
            ({"normals": [[-1], [1], [True]]}, "normal 3 has a non-integer entry"),
            ({"normals": [["1"], [1], [1]]}, "normal 1 has a non-integer entry"),
            ({"normals": [[True], [1], [1]]}, "normal 1 has a non-integer entry"),
            ({"normals": [[-1], [], [1]]}, "normal 2 has length 0, expected 1"),
            ({"normals": [[-1], [1], [1, 0]]}, "normal 3 has length 2, expected 1"),
            ({"lifts": ["1", "-1/2"]}, "lifts length does not match normals"),
            ({"lifts": ["1", "-1/2", "0", "0"]}, "lifts length does not match normals"),
            ({"name": 5}, "name must be a string"),
        ],
        ids=[
            "float entry",
            "bool entry",
            "string entry",
            "leading bool entry",
            "normal shorter",
            "normal longer",
            "lifts shorter",
            "lifts longer",
            "name not a string",
        ],
    )
    def test_single_fault_message(self, change, message):
        with pytest.raises(ParseError) as info:
            parse_arrangement(json.dumps(dict(A2_DOC, **change)))
        assert str(info.value) == message

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_arrangement(b"{nope")

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_arrangement("[" * 100000 + "]" * 100000)

    def test_bytes_not_utf8_is_a_parse_error(self):
        with pytest.raises(ParseError, match="not valid UTF-8: invalid start byte at byte 0"):
            parse_arrangement(b"\xff\xfe{}")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    def test_too_many_digits_is_a_parse_error(self):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        doc = '{"dim": 1, "normals": [[%s], [1]], "lifts": ["0", "0"]}' % digits
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_arrangement(doc)
        for lift in (digits, "1/" + digits):
            with pytest.raises(ParseError, match="bad lift 2"):
                parse_arrangement(json.dumps(dict(A2_DOC, lifts=["1", lift, "0"])))

    def test_roundtrip_identity(self):
        arr = parse_arrangement(json.dumps(dict(A2_DOC, name="a2")))
        again = parse_arrangement(serialize_arrangement(arr))
        assert again == arr and again.name == "a2"

    def test_serialize_canonical(self):
        arr = parse_arrangement(json.dumps(A2_DOC))
        text = serialize_arrangement(arr)
        assert text == serialize_arrangement(parse_arrangement(text))
        assert list(json.loads(text)) == ["dim", "normals", "lifts"]

    def test_random_roundtrip(self):
        import random

        from corecover.randgen import random_smooth_arrangement

        rng = random.Random(13)
        for _ in range(25):
            arr = random_smooth_arrangement(rng, max_d=6)
            assert parse_arrangement(serialize_arrangement(arr)) == arr


class TestPatternCodec:
    def test_roundtrip(self):
        assert parse_pattern("zw0*", 4) == (Z, W, O, B)
        assert format_pattern((Z, W, O, B)) == "zw0*"

    def test_bad_char_position(self):
        with pytest.raises(ParseError, match="position 3"):
            parse_pattern("zwx0", 4)

    def test_bad_length(self):
        with pytest.raises(ParseError):
            parse_pattern("zw", 4)

    def test_signs(self):
        assert parse_sign_vector("+-+", 3) == (1, -1, 1)
        assert format_sign_vector((1, -1, 1)) == "+-+"
        with pytest.raises(ParseError, match="position 2"):
            parse_sign_vector("+x-", 3)

    @pytest.mark.parametrize("text", [None, 123, ["z", "w"], b"zw", ("z", "w")])
    def test_parsers_refuse_what_is_not_a_str(self, text):
        with pytest.raises(ParseError, match="^pattern must be a string$"):
            parse_pattern(text, 2)
        with pytest.raises(ParseError, match="^sign string must be a string$"):
            parse_sign_vector(text, 2)

    def test_formatters_name_the_bad_entry(self):
        with pytest.raises(ValueError, match="^cannot format sign vector entry 0 at position 2$"):
            format_sign_vector((1, 0))
        with pytest.raises(ValueError, match="^cannot format sign vector entry 2 at position 3$"):
            format_sign_vector(iter((-1, 1, 2, 0)))
        with pytest.raises(ValueError, match="^cannot format pattern entry 'z' at position 1$"):
            format_pattern("zw")
        with pytest.raises(ValueError, match="^cannot format pattern entry 1 at position 2$"):
            format_pattern((Z, 1))


class TestCli:
    def test_check_smooth(self, tmp_path, capsys):
        code = main(["check", write(tmp_path, HIRZ_DOC)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out == {"regular": True, "simple": True, "smooth": True}

    def test_check_not_smooth(self, tmp_path, capsys):
        doc = {"dim": 1, "normals": [[-1], [1], [1]], "lifts": ["1", "-1", "0"]}
        code = main(["check", write(tmp_path, doc)])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["simple"] is False

    @pytest.mark.parametrize(
        "args, code",
        [
            (["check"], 1),
            (["report"], 1),
            (["core"], 2),
            (["cover"], 2),
            (["density"], 2),
            (["complement", "--chart=++++"], 2),
        ],
        ids=["check", "report", "core", "cover", "density", "complement"],
    )
    def test_not_smooth_exit_code(self, tmp_path, capsys, args, code):
        # check and report answer a file that is not smooth with a verdict;
        # the commands that need a smooth one reject it as input
        path = write(tmp_path, NOT_SMOOTH_DOC)
        assert main([args[0], path] + args[1:]) == code
        captured = capsys.readouterr()
        if code == 1:
            out = json.loads(captured.out)
            assert captured.err == ""
            assert out["smooth"] in (False, {"regular": False, "simple": False})
        else:
            assert captured.out == "" and captured.err == "error: arrangement is not smooth\n"

    def test_stability_semistable(self, tmp_path, capsys):
        code = main(["stability", write(tmp_path, A2_DOC), "--pattern", "zw0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["semistable"] is True
        assert out["witness"] == ["1", "-1/2", "0"]

    def test_stability_unstable_exit_1(self, tmp_path, capsys):
        code = main(["stability", write(tmp_path, A2_DOC), "--pattern", "000"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["semistable"] is False and "farkas" in out

    def test_stability_trapezoid_bottom(self, tmp_path, capsys):
        code = main(["stability", write(tmp_path, HIRZ_DOC), "--pattern", "z0zz"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["semistable"] is True

    def test_printed_certificates_verify(self, tmp_path, capsys):
        # every printed witness or Farkas vector re-proves its verdict on
        # the numeric system, on the fixtures and on 40 seeded draws per n,
        # simple or not
        rng = random.Random(4605)
        cases = [(parse_arrangement(p.read_bytes()), p) for p in sorted(FIXTURE_DIR.glob("*.json"))]
        for index, n in enumerate((1, 2, 3) * 40):
            arr = random_integer_arrangement(rng, n)
            path = tmp_path / f"draw{index}.json"
            path.write_text(serialize_arrangement(arr))
            cases.append((arr, path))
        verdicts = set()
        for arr, path in cases:
            for _ in range(4):
                text = "".join(rng.choice("zw0*") for _ in range(arr.d))
                code = main(["stability", str(path), "--pattern", text])
                out = json.loads(capsys.readouterr().out)
                system = stability._sign_system(torus_data(arr), parse_pattern(text, arr.d))
                key = "witness" if out["semistable"] else "farkas"
                values = tuple(parse_rational(x) for x in out[key])
                certificate = Certificate(out["semistable"], **{
                    "point" if out["semistable"] else "multipliers": values
                })
                assert verify_certificate(system, certificate) and code == (0 if out["semistable"] else 1)
                verdicts.add(out["semistable"])
        assert verdicts == {True, False}

    def test_stability_bad_pattern_exit_2(self, tmp_path, capsys):
        code = main(["stability", write(tmp_path, A2_DOC), "--pattern", "zq0"])
        err = capsys.readouterr().err
        assert code == 2 and "position 2" in err

    def test_star_pattern_realizability(self, tmp_path, capsys):
        code = main(["stability", write(tmp_path, A2_DOC), "--pattern", "*zz"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["realizable"] is False
        assert out["semistable"] is True

    def test_cover(self, tmp_path, capsys):
        code = main(["cover", write(tmp_path, A2_DOC)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out == {"covered": True, "witness_count": 7, "counterexamples": []}

    def test_deeply_nested_file_exit_2(self, tmp_path, capsys):
        # malformed input, not a verified negative result (exit 1)
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code = main(["check", str(path)])
        assert code == 2 and "invalid JSON" in capsys.readouterr().err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
    )
    def test_answer_over_the_digit_limit(self, tmp_path, capsys):
        # each lift fits the limit, but the level 1/p + 1/q does not: the
        # answer is printed in full and the limit is left as it was
        limit = sys.get_int_max_str_digits()
        digits = limit * 3 // 4
        p, q = 10 ** (digits - 1) + 1, 10 ** (digits - 1) + 3
        doc = {"dim": 1, "normals": [[1], [1], [-1]], "lifts": ["0", f"1/{p}", f"1/{q}"]}
        path = write(tmp_path, doc)
        code = main(["report", path])
        captured = capsys.readouterr()
        assert code == 0 and sys.get_int_max_str_digits() == limit, captured.err
        out = json.loads(captured.out)
        expected = torus_data(parse_arrangement(pathlib.Path(path).read_text())).alpha
        assert max(len(text) for text in out["torus"]["alpha"]) > limit
        assert [_long_rational(text) for text in out["torus"]["alpha"]] == list(expected)

    def test_kernel_basis_over_the_digit_limit(self, tmp_path, capsys):
        # each input integer has 3,001 digits, so it parses, but the kernel
        # basis has integers of about 6,000: they are printed in full. With
        # no digit limit (Python 3.10) nothing changes.
        big, small = 10**3000 + 7, 10**2999 + 3
        doc = {"dim": 2, "normals": [[big, small], [small, big], [1, 0]], "lifts": ["0", "1", "2"]}
        path = write(tmp_path, doc)
        code = main(["report", path])
        captured = capsys.readouterr()
        assert code == 1 and "Traceback" not in captured.err, captured.err
        out = json.loads(captured.out, parse_int=lambda text: int(_long_rational(text)))
        basis = out["torus"]["kernel_basis"]
        expected = torus_data(parse_arrangement(pathlib.Path(path).read_text())).basis
        assert basis == [list(row) for row in expected]
        assert max(abs(x) for row in basis for x in row) > 10**4400
        assert out["core"] is None

    def test_not_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "arr.json"
        path.write_bytes(b"\xff\xfe{}")
        code = main(["check", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and err == "error: not valid UTF-8: invalid start byte at byte 0\n"

    def test_cover_empty_core_exit_2(self, tmp_path, capsys):
        doc = {"dim": 2, "normals": [[1, 0], [1, 0], [0, 1]], "lifts": ["0", "-1", "0"]}
        code = main(["cover", write(tmp_path, doc)])
        assert code == 2
        assert "hypothesis" in capsys.readouterr().err

    def test_core(self, tmp_path, capsys):
        code = main(["core", write(tmp_path, A2_DOC)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["theta_cpt_count"] == 2
        kinds = {c["eps"]: c["classification"] for c in out["components"]}
        assert kinds == {
            "-++": "unbounded",
            "+++": "bounded",
            "+-+": "bounded",
            "+--": "unbounded",
        }
        bounded = [c for c in out["components"] if c["classification"] == "bounded"]
        assert bounded[0]["vertices"] == [["1/2"], ["1"]]

    def test_core_vertex_lists_match_the_chamber_masks(self, tmp_path, capsys):
        # d = 24 of the cycling family, past the guard: every bounded
        # component lists the vertices of its chamber's own mask, in
        # vertex order, formatted as the CLI formats points
        arr = cycling_family(random.Random(1), 24)
        path = tmp_path / "d24.json"
        path.write_text(serialize_arrangement(arr))
        assert main(["core", str(path), "--force"]) == 0
        out = json.loads(capsys.readouterr().out)
        bounded = [c for c in out["components"] if c["classification"] == "bounded"]
        assert len(bounded) == out["theta_cpt_count"] > 100
        for component in bounded:
            eps = parse_sign_vector(component["eps"], arr.d)
            expected = chamber_vertices(arr, eps)
            assert component["vertices"] == [[format_rational(x) for x in p] for p in expected]

    def test_density(self, tmp_path, capsys):
        code = main(["density", write(tmp_path, A2_DOC)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["all_hold"] is True
        assert len(out["density"]) == 8

    def test_complement(self, tmp_path, capsys):
        code = main(["complement", write(tmp_path, A2_DOC), "--chart=+++"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["excluded_patterns"] == ["zww", "zw0"]
        assert out["all_in_extended_core"] is True
        assert out["max_state_dim"] == 1
        assert out["component_breakdown"] == {
            "+-+": ["zw0"],
            "+--": ["zww", "zw0"],
        }

    def test_report(self, tmp_path, capsys):
        code = main(["report", write(tmp_path, A2_DOC)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert list(out) == ["smooth", "torus", "core", "covering", "density"]
        assert out["torus"]["m"] == 2
        assert out["torus"]["alpha"] == ["1", "-1/2"]
        assert out["covering"]["covered"] is True

    def test_report_with_chart(self, tmp_path, capsys):
        code = main(["report", write(tmp_path, A2_DOC), "--chart", "+++"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and "complement" in out

    def test_tracer_reads_both_cache_counts(self, tmp_path, capsys):
        # the benchmark's tracer reports a hit ratio from the cache_info()
        # of _cone_contains and _extended_core_cached; a lost one reads
        # null, which its line checker refuses
        path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        before = tracing.cache_counts()
        assert main(["report", write(tmp_path, A2_DOC), "--chart=+++"]) == 0
        after = tracing.cache_counts()
        capsys.readouterr()
        assert set(after) == set(before) == {
            "stability.cone_cache_hit_ratio", "quotient.extended_core_cache_hit_ratio"
        }
        assert None not in before.values() and None not in after.values()
        key = "quotient.extended_core_cache_hit_ratio"
        assert after[key][1] > before[key][1]

    @pytest.mark.parametrize(
        "chart, complement_limit, message",
        [
            ("++", None, "length 2"),
            ("+++", 2, "complement sweep"),
            ("++-", None, "nonempty chamber"),
        ],
        ids=["chart length", "complement guard", "empty chamber"],
    )
    def test_report_checks_chart_before_sweeping(
        self, tmp_path, capsys, monkeypatch, chart, complement_limit, message
    ):
        # the file is parsed afresh, so a sweep would build the core walk
        # and show as a miss
        if complement_limit is not None:
            monkeypatch.setattr(quotient, "DEFAULT_MAX_COMPLEMENT_D", complement_limit)
        before = quotient._extended_core_cached.cache_info()
        code = main(["report", write(tmp_path, A2_DOC), f"--chart={chart}"])
        after = quotient._extended_core_cached.cache_info()
        assert code == 2 and message in capsys.readouterr().err
        assert after == before

    @pytest.mark.parametrize(
        "chart, code, message",
        [("xxx", 2, "position 1"), ("+", 2, "length 1"), ("+++", 1, "")],
        ids=["bad character", "wrong length", "valid"],
    )
    def test_report_non_smooth_reads_chart(self, tmp_path, capsys, chart, code, message):
        # two coincident points: regular but not simple
        doc = {"dim": 1, "normals": [[-1], [1], [1]], "lifts": ["1", "-1", "0"]}
        path = write(tmp_path, doc)
        assert main(["report", path, f"--chart={chart}"]) == code
        captured = capsys.readouterr()
        assert message in captured.err
        if code == 1:
            assert json.loads(captured.out)["smooth"] == {"regular": True, "simple": False}
        else:
            assert main(["complement", path, f"--chart={chart}"]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc",
        [
            (["report", "--chart", "++++"], HIRZ_DOC),
            (["check"], {"dim": 1, "normals": [[-1], [1], [1]], "lifts": ["1", "-1", "0"]}),
        ],
        ids=["positive", "negative"],
    )
    def test_closed_stdout_exit_3(self, tmp_path, capsys, monkeypatch, command, doc):
        # a reader that closed standard output, as ``| head -n 1`` does:
        # one documented code whatever the verdict, no traceback, and
        # standard output left on the null device for the final flush
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        code = main(command + [write(tmp_path, doc)])
        devnull = sys.stdout
        monkeypatch.undo()
        assert code == 3 and devnull.name == os.devnull
        devnull.write("{}\n")
        devnull.flush()
        devnull.close()
        assert capsys.readouterr().err == ""

    def test_report_empty_core(self, tmp_path, capsys):
        doc = {"dim": 2, "normals": [[1, 0], [1, 0], [0, 1]], "lifts": ["0", "-1", "0"]}
        code = main(["report", write(tmp_path, doc)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["covering"] is None
        assert out["core"]["theta_cpt_count"] == 0

    def test_cover_guard_and_force(self, tmp_path, capsys, monkeypatch):
        # the limits are fixed; lower the module constant to trip the guard
        monkeypatch.setattr(quotient, "DEFAULT_MAX_COVER_D", 2)
        code = main(["cover", write(tmp_path, A2_DOC)])
        assert code == 2
        capsys.readouterr()
        code = main(["cover", write(tmp_path, A2_DOC), "--force"])
        assert code == 0

    def test_seed_flag_rejected(self, tmp_path, capsys):
        code = main(["cover", write(tmp_path, A2_DOC), "--seed", "7"])
        assert code == 2

    def test_density_guard(self, tmp_path, capsys, monkeypatch):
        # the density and render guards read the limit from quotient, so
        # one patch there reaches them as it reaches the sweeps' guards
        monkeypatch.setattr(quotient, "DEFAULT_MAX_COVER_D", 2)
        assert main(["density", write(tmp_path, A2_DOC)]) == 2
        assert "density sweep" in capsys.readouterr().err
        assert main(["density", write(tmp_path, A2_DOC), "--force"]) == 0
        svg = str(tmp_path / "out.svg")
        assert main(["render", write(tmp_path, HIRZ_DOC), "-o", svg]) == 2
        assert "rendering" in capsys.readouterr().err

    def test_simplex_dim_5_core(self, tmp_path, capsys):
        code = main(["core", write(tmp_path, SIMPLEX5_DOC)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["theta_cpt_count"] == 1
        (bounded,) = [c for c in out["components"] if c["classification"] == "bounded"]
        assert bounded["eps"] == "+" * 6
        unit = [["1" if k == i else "0" for k in range(5)] for i in range(5)]
        assert bounded["vertices"] == [["0"] * 5] + sorted(unit)

    def test_simplex_dim_5_report(self, tmp_path, capsys):
        code = main(["report", write(tmp_path, SIMPLEX5_DOC)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["covering"]["covered"]
        assert all(out["density"].values()) and len(out["density"]) == 64

    def test_missing_file_exit_2(self, capsys):
        assert main(["check", "/nonexistent/arr.json"]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_path_arguments(self, tmp_path, capsys):
        # a path object reads as its os.fspath, on the reader's path and on
        # argparse's (an abbreviated option): the same stdout as the str
        path = write(tmp_path, HIRZ_DOC)
        for argv in (["check", path], ["report", path, "--ch=++++"]):
            code = main(argv)
            expected = capsys.readouterr().out
            assert main([pathlib.Path(token) if token == path else token for token in argv]) == code
            assert capsys.readouterr().out == expected != ""

    @pytest.mark.parametrize("argv", [
        ["check", None], ["check", 3], [b"check", "arr.json"], ["report", "arr.json", "--chart", 1.5],
    ])
    def test_argument_not_a_string_exit_2(self, argv, tmp_path, capsys, monkeypatch):
        # one error line and no traceback, before any file is read
        monkeypatch.chdir(tmp_path)
        write(tmp_path, HIRZ_DOC)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: argument ") and captured.err.count("\n") == 1

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        # later calls reuse the first call's parser, and a usage error or a
        # help request on the shared parser leaves it intact for the next
        # call: after the first build no ArgumentParser can be made at all
        main(["frobnicate"])

        def no_parser(*args, **kwargs):
            raise AssertionError("a parser was built again")

        monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
        path = write(tmp_path, HIRZ_DOC)
        assert main(["check", "--pattern", "zzzz", path]) == 2
        assert main(["check", "--help"]) == 0
        assert main(["--help"]) == 0
        assert main(["check"]) == 2
        capsys.readouterr()
        assert main(["check", path]) == 0
        assert json.loads(capsys.readouterr().out)["smooth"] is True
        assert cli._parser() is cli._parser()
        # a well-formed call of each command is read off the command table
        cli._parser.cache_clear()
        svg = str(tmp_path / "once.svg")
        for argv in (
            ["check", path],
            ["core", path],
            ["stability", path, "--pattern=zw0*"],
            ["cover", "--force", path],
            ["density", path],
            ["complement", "--chart", "++++", path],
            ["render", path, "-o", svg],
            ["report", path, "--chart=++++"],
        ):
            main(argv)
        capsys.readouterr()
        assert cli._parser.cache_info().misses == 0

    def test_render(self, tmp_path):
        out = tmp_path / "pic.svg"
        code = main(["render", write(tmp_path, HIRZ_DOC), "-o", str(out)])
        assert code == 0
        assert out.read_text().startswith("<?xml")

    def test_render_high_dim_exit_2(self, tmp_path, capsys):
        doc = {
            "dim": 3,
            "normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "lifts": ["0", "0", "0"],
        }
        code = main(["render", write(tmp_path, doc), "-o", str(tmp_path / "x.svg")])
        assert code == 2
        assert "n <= 2" in capsys.readouterr().err

    def test_render_unwritable_output_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.svg"
        code = main(["render", write(tmp_path, HIRZ_DOC), "-o", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"

    def test_fixture_files_parse(self):
        import pathlib

        for path in sorted(pathlib.Path("fixtures").glob("*.json")):
            arr = parse_arrangement(path.read_bytes())
            assert arr.d >= arr.n


FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _fixture_runs(d):
    """Every command with its options; three charts for complement and report."""
    charts = ("+" * d, "-" * d, "+-" * (d // 2) + "+" * (d % 2))
    runs = [["check"], ["core"], ["cover"], ["density"], ["render"]]
    runs += [["stability", "--pattern", c * d] for c in "zw0*"]
    runs += [["complement", "--chart", c] for c in charts]
    runs += [["report", "--chart", c] for c in charts]
    return runs


_ARGV_VALUES = ("++", "-+", "", "zw0*")
# Pieces of an argv after the command name: FILE tokens, --force and its
# misspellings, help, unknown options and each option spelled every way
# argparse reads it; a piece of two tokens keeps an option next to its value.
_ARGV_PIECES = [
    *[(token,) for token in ("a.json", "", "-", "--", "x=y", "a b")],
    *[(token,) for token in ("--force", "--forc", "--force=1", "-h", "--help", "--seed")],
    ("-x", "1"),
    *[
        piece
        for option, abbreviation in (("--chart", "--ch"), ("--pattern", "--pat"), ("--output", "--out"))
        for value in _ARGV_VALUES
        for piece in (
            (f"{option}={value}",), (option, value), (f"{abbreviation}={value}",),
            (abbreviation, value), (option,), (value,),
        )
    ],
    *[piece for value in _ARGV_VALUES for piece in (("-o", value), (f"-o={value}",), (f"-o{value}",))],
]


class TestArgvReader:
    @settings(max_examples=2000)
    @given(
        st.sampled_from([*cli._COMMANDS, "frobnicate"]),
        st.sampled_from(["a.json", "", "x=y", "a b"]),
        st.integers(0, 4),
        st.lists(st.sampled_from(_ARGV_PIECES), max_size=4),
    )
    @example("report", "a.json", 0, [("--chart=++",), ("--chart", "zw0*")])
    @example("render", "a.json", 1, [("-o", "++"), ("--output=-+",), ("--force",)])
    def test_agrees_with_argparse(self, name, file, at, pieces):
        # wherever the reader answers, argparse gives the same namespace,
        # a repeated option's last value included; a FILE token is put in
        # at a drawn place so that more of the lists are well formed
        pieces = [*pieces[:at], (file,), *pieces[at:]]
        argv = [name, *(token for piece in pieces for token in piece)]
        read = cli._read_argv(argv)
        if read is not None:
            assert vars(read) == vars(cli._parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["frobnicate", "a.json"], ["check", "a.json", "-h"], ["check", "--help"],
            ["check", "--", "a.json"], ["report", "a.json", "--ch=++"], ["cover", "a.json", "--forc"],
            ["render", "a.json", "-o=x.svg"], ["render", "a.json", "-ox.svg"],
            ["cover", "a.json", "--force=1"], ["check", "a.json", "--seed", "7"],
            ["stability", "a.json"], ["check", "a.json", "b.json"], ["check"],
            ["report", "a.json", "--chart", "-+"], ["report", "a.json", "--chart"],
            [b"check", "a.json"],
        ],
    )
    def test_declines(self, argv):
        assert cli._read_argv(argv) is None

    def test_well_formed_call_imports_no_argparse(self):
        script = (
            "import sys\n"
            "from corecover.cli import main\n"
            f"code = main(['report', '--chart=++++', {str(FIXTURE_DIR / 'hirzebruch.json')!r}])\n"
            "assert 'argparse' not in sys.modules, 'argparse imported'\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_DIR.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=False
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["covering"]["covered"] is True

    def test_reader_and_argparse_print_the_same(self):
        compared = 0
        for path in sorted(FIXTURE_DIR.glob("*.json")):
            arr = parse_arrangement(path.read_bytes())
            for _, _, chart in _fixture_runs(arr.d)[-3:]:
                runs = []
                # --chart= is read off the command table, the abbreviation by argparse
                for spelling, read in ((f"--chart={chart}", True), (f"--ch={chart}", False)):
                    argv = ["report", str(path), spelling]
                    assert (cli._read_argv(argv) is not None) == read
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        runs.append((main(argv), out.getvalue()))
                assert runs[0] == runs[1]
                compared += runs[0][1] != ""
        assert compared >= 5


class TestReportBuildsNoPolyhedron:
    def test_fixture_reports(self, monkeypatch):
        # the report reads vertex masks and numeric vertices; a core
        # component is its sign vector and classification, no polyhedron
        built = []
        real = feasibility.Polyhedron.__post_init__
        monkeypatch.setattr(
            feasibility.Polyhedron, "__post_init__", lambda self: built.append(self) or real(self)
        )
        reports = 0
        for path in sorted(FIXTURE_DIR.glob("*.json")):
            arr = parse_arrangement(path.read_bytes())
            for _, _, chart in _fixture_runs(arr.d)[-3:]:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    main(["report", str(path), "--chart", chart])
                reports += "complement" in out.getvalue()
        assert built == [] and reports >= 5


class TestPinnedOutput:
    # SHA-256 of stdout and exit code (and the SVG file for render) for every
    # command but stability on every fixture, recorded on the Fourier-Motzkin
    # engine's last production tree with the stability runs left out of the
    # same loop.
    DIGEST = "ee5a904371741870d8895df37e152bf79b7c59e0b72e8d8f52ddc941f7c6ef64"
    # The same over the stability runs alone: their witnesses are vertices
    # and their Farkas vectors signed circuits.
    STABILITY_DIGEST = "09a7c2e20085d14153ef0a24e0a9b81ce248f6a31440363d46422bb43cecfa6f"

    @staticmethod
    def fixture_digest(tmp_path, stability: bool) -> str:
        svg = tmp_path / "pin.svg"
        digest = hashlib.sha256()
        for path in sorted(FIXTURE_DIR.glob("*.json")):
            arr = parse_arrangement(path.read_bytes())
            for command, *options in _fixture_runs(arr.d):
                if (command == "stability") != stability:
                    continue
                if command == "render":
                    options = ["-o", str(svg)]
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main([command, str(path), *options])
                if command == "render":
                    options = [svg.read_text()]
                digest.update(repr((path.name, command, options, code, out.getvalue())).encode())
        return digest.hexdigest()

    def test_fixture_stdout_digest(self, tmp_path):
        assert self.fixture_digest(tmp_path, stability=False) == self.DIGEST

    def test_stability_stdout_digest(self, tmp_path):
        assert self.fixture_digest(tmp_path, stability=True) == self.STABILITY_DIGEST

    def test_report_population_digest(self, tmp_path):
        # SHA-256 of stdout and exit code of report --chart=EPS, core, cover
        # and density on 60 seeded smooth draws with a core, n = 1-3 and
        # d = 4-7, EPS the first compact chart of each draw
        rng = random.Random(4101)
        path = tmp_path / "draw.json"
        digest = hashlib.sha256()
        for _ in range(5):
            for n in (1, 2, 3):
                for d in range(4, 8):
                    arr = random_smooth_arrangement(rng, n=n, d=d, require_core=True)
                    path.write_text(serialize_arrangement(arr))
                    chart = format_sign_vector(theta_cpt(arr)[0])
                    for argv in (["report", f"--chart={chart}"], ["core"], ["cover"], ["density"]):
                        out = io.StringIO()
                        with contextlib.redirect_stdout(out):
                            code = main([argv[0], str(path), *argv[1:]])
                        digest.update(repr((argv, code, out.getvalue())).encode())
        assert digest.hexdigest() == REPORT_POPULATION_DIGEST


# Strings that exercise every escape of the encoder: quotes, backslashes,
# control characters, non-ASCII letters and characters outside the BMP.
_JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€😀'), st.characters())
)
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


class TestEmitter:
    @given(_PAYLOADS)
    def test_matches_json_dumps(self, payload):
        assert cli._dumps(payload) == json.dumps(payload, indent=2)

    def test_fixture_payloads(self, tmp_path, monkeypatch):
        # every command's payload on every fixture, and its stdout
        emitted = []
        real = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda payload: emitted.append(payload) or real(payload))
        svg = tmp_path / "emit.svg"
        checked = 0
        for path in sorted(FIXTURE_DIR.glob("*.json")):
            arr = parse_arrangement(path.read_bytes())
            for command, *options in _fixture_runs(arr.d):
                if command == "render":
                    options = ["-o", str(svg)]
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    main([command, str(path), *options])
                if emitted:
                    payload = emitted.pop()
                    expected = json.dumps(payload, indent=2)
                    assert cli._dumps(payload) == expected
                    assert out.getvalue() == expected + "\n"
                    checked += 1
                else:
                    assert out.getvalue() == ""
        assert checked >= 50

    @pytest.mark.parametrize(
        "payload",
        [(1, 2), 0.5, F(1, 2), {1: "a"}, {"a": (1,)}, [{"a": {None: 1}}], {"a", "b"}],
        ids=["tuple", "float", "Fraction", "int key", "nested tuple", "None key", "set"],
    )
    def test_rejects_other_types(self, payload):
        with pytest.raises(TypeError):
            cli._dumps(payload)
