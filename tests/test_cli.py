import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildcomp import Decomposition, field_new, format_poly
from wildcomp.census import PAIR_LIMIT
from wildcomp.cli import main

from conftest import planted_with_tops

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


class TestCount:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "count", "--p", "2", "--q", "4")
        assert code == 0
        assert out == "c1=7 c2=3 c3=1 D=11"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--json", "count", "--p", "3", "--q", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"p": 3, "q": 3,
                           "c": {"1": 57, "2": 12, "4": 0}, "D": 69}


class TestClassify:
    def test_simply(self, capsys):
        code, out, _ = run(capsys, "classify", "--field", "3^1",
                           "--poly", "x^9+x^5+x")
        assert code == 0
        assert out == "S k=2 u=2 s=1 eps=0 m=2 w=0"

    def test_none_exits_2(self, capsys):
        code, out, _ = run(capsys, "classify", "--field", "2^1", "--poly", "x^4")
        assert code == 2
        assert out == "no 2-collision"

    def test_frobenius(self, capsys):
        code, out, _ = run(capsys, "classify", "--field", "2^1",
                           "--poly", "x^4+x^2")
        assert code == 0 and out == "F"


class TestConstructRoundTrips:
    @pytest.mark.parametrize("args,field", [
        (["construct", "S", "--field", "3^1", "--u", "2", "--s", "1",
          "--eps", "0", "--m", "2", "--w", "1"], "3^1"),
        (["construct", "S", "--field", "2^3:1,0,1,1", "--u", "3", "--s", "5",
          "--eps", "1", "--m", "7", "--r", "8", "--w", "6"], "2^3:1,0,1,1"),
        (["construct", "M", "--field", "5^1", "--a", "2", "--b", "1",
          "--m", "2", "--w", "3"], "5^1"),
    ])
    def test_construct_then_identify(self, capsys, args, field):
        code, f_text, _ = run(capsys, *args)
        assert code == 0
        r = [a for a in ("--r" in args and args[args.index("--r") + 1],)
             if a] or []
        code, out, _ = run(capsys, "identify", "--field", field,
                           "--poly", f_text, *(["--r", r[0]] if r else []))
        assert code == 0
        assert out.startswith(args[1] + " ")

    def test_construct_then_classify(self, capsys):
        code, f_text, _ = run(capsys, "construct", "M", "--field", "5^1",
                              "--a", "2", "--b", "1", "--m", "2", "--w", "3")
        assert code == 0
        code, out, _ = run(capsys, "classify", "--field", "5^1",
                           "--poly", f_text)
        assert code == 0
        assert out == "M a=2 b=1 m=2 w=3"

    def test_construct_frobenius(self, capsys):
        code, out, _ = run(capsys, "construct", "frobenius", "--field", "2^2",
                           "--poly", "x^2+2*x")
        assert code == 0
        assert out == "x^4+3*x^2"


class TestIdentify:
    def test_failure_exit_2(self, capsys):
        code, out, _ = run(capsys, "identify", "--field", "2^1", "--poly", "x^4")
        assert code == 2 and out == "failure"

    def test_json_keys(self, capsys):
        code, out, _ = run(capsys, "--json", "identify", "--field", "3^1",
                           "--poly", "x^9+x^5+x")
        assert code == 0
        assert json.loads(out) == {"family": "S", "k": 2, "u": 2, "s": 1,
                                   "eps": 0, "m": 2, "w": 0}


class TestDecompose:
    def test_two_pairs(self, capsys):
        code, out, _ = run(capsys, "decompose", "--field", "3^1",
                           "--poly", "x^9+x^5+x")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "2 decomposition(s)"
        assert set(lines[1:]) == {"g=x^3+2*x^2+x h=x^3+x^2+x",
                                  "g=x^3+x^2+x h=x^3+2*x^2+x"}

    def test_none_exits_2(self, capsys):
        code, out, _ = run(capsys, "decompose", "--field", "2^1",
                           "--poly", "x^4+x^2+x")
        assert code == 2

    def test_unclassified_found_by_search(self, capsys):
        # (x^2+7x)(x^2+11x) over F_256 is unclassified; for p = 2 each of
        # the at most 3 roots of P_f gives at most one right component
        code, out, _ = run(capsys, "decompose", "--field", "2^8",
                           "--poly", "x^4+66*x^2+49*x")
        assert code == 0
        assert out.splitlines() == ["1 decomposition(s)", "g=x^2+7*x h=x^2+11*x"]

    def test_determined_branch_complete(self, capsys):
        # (x^5+2x^4+7x^3+3x) o (x^5+9x^4+4x^2+x) over F_25 is unclassified;
        # its x^19 coefficient is nonzero, so one right component per root
        # of P_f is divided and the answer is complete
        f = ("x^25+20*x^20+17*x^19+20*x^18+16*x^17+19*x^16+13*x^15+4*x^14"
             "+15*x^13+14*x^12+22*x^11+4*x^10+17*x^9+3*x^8+8*x^7+21*x^6"
             "+17*x^5+3*x^4+7*x^3+2*x^2+3*x")
        code, out, _ = run(capsys, "--json", "decompose", "--field", "5^2",
                           "--poly", f)
        assert code == 0
        assert json.loads(out) == {
            "count": 1, "complete": True,
            "pairs": [["x^5+2*x^4+7*x^3+3*x", "x^5+9*x^4+4*x^2+x"]]}

    def test_zero_y_complete(self, capsys):
        # (x^3+77x^2+1234x) o (x^3+4321x) over F_3^8 has x^5 coefficient 0,
        # so P_f = y(y^3 - f_6); the pair is the right component at y = 0,
        # and the root with y^3 = f_6 gives no candidate (i = p - 1)
        code, out, _ = run(capsys, "--json", "decompose", "--field", "3^8",
                           "--poly", "x^9+77*x^6+5732*x^4+1478*x^3+2364*x^2"
                           "+637*x")
        assert code == 0
        assert json.loads(out) == {
            "count": 1, "complete": True,
            "pairs": [["x^3+77*x^2+1234*x", "x^3+4321*x"]]}

    def test_x25_over_f25_complete(self, capsys):
        # x^25 over F_25: P_f = y^6 has the one root 0, where g_4 = 0 and f
        # is in F[x^5]; its one pair is x^5 o x^5
        code, out, err = run(capsys, "--json", "decompose", "--field", "5^2",
                             "--poly", "x^25")
        assert code == 0 and err == ""
        assert json.loads(out) == {"count": 1, "pairs": [["x^5", "x^5"]],
                                   "complete": True}

    @pytest.mark.parametrize("zero", ["h", "g", "both"])
    @pytest.mark.parametrize("p,d", [(3, 10), (2, 16), (5, 3), (7, 2),
                                     (13, 2)])
    def test_planted_zero_top_coefficients(self, capsys, p, d, zero):
        # planted g o h with h_(p-1) = 0, g_(p-1) = 0 or both, at fields
        # whose q^(p-2) candidates per root a scan could not afford
        spec = field_new(p, d)
        g, h = planted_with_tops(random.Random(p * d), spec,
                                 p - 1 - (zero != "h"), p - 1 - (zero != "g"))
        f = Decomposition(g, h).compose()
        code, out, _ = run(capsys, "--json", "decompose", "--field",
                           f"{p}^{d}", "--poly", format_poly(f.poly))
        assert code == 0
        payload = json.loads(out)
        assert payload["complete"] is True
        assert [format_poly(g.poly), format_poly(h.poly)] in payload["pairs"]


class TestNu:
    def test_exact_rational(self, capsys):
        code, out, _ = run(capsys, "nu", "--p", "2", "--q", "2")
        assert code == 0 and out == "3/4"


class TestCensus:
    def test_run_and_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "census", "--p", "2", "--q", "4",
                           "--out", str(out_path))
        assert code == 0
        assert "verify: ok" in out
        payload = json.loads(out_path.read_text())
        assert payload["verified"] and payload["class_partition_ok"]
        assert payload["spectrum_observed"] == {"1": "7", "2": "3", "3": "1"} \
            or payload["spectrum_observed"] == {"1": 7, "2": 3, "3": 1}

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "--json", "census", "--p", "2", "--q", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["decomposable_observed"] == 3

    @pytest.mark.parametrize("p,q,lines", [
        (2, 4, ["census p=2 q=4: c1=7 c2=3 c3=1",
                "classes F=3 S=1 M=0",
                "decomposable=11"]),
        (3, 9, ["census p=3 q=9: c1=6001 c2=240 c4=20",
                "classes F=80 S=180 M=0",
                "decomposable=6261"]),
    ])
    def test_human_lines(self, capsys, p, q, lines):
        code = main(["census", "--p", str(p), "--q", str(q)])
        assert code == 0
        assert capsys.readouterr().out == "\n".join(
            lines + ["verify: ok", "class partition: ok", ""])

    def test_3_81_verifies(self, capsys):
        code, out, _ = run(capsys, "census", "--p", "3", "--q", "81")
        assert code == 0
        assert "verify: ok" in out and "class partition: ok" in out

    def test_3_243_verifies(self, capsys):
        code, out, _ = run(capsys, "census", "--p", "3", "--q", "243")
        assert code == 0
        assert "verify: ok" in out and "class partition: ok" in out

    # the sum over the census parts: 2q^2 + (e+3)q - 1 for p = 3, and for
    # p >= 5 shard 0's t = 0 parts, (1 + 2G) q^(2p-6) + (q-1 + G(q-2))
    # q^(2p-7) with G = 2 scaling cosets, shard 1's y = 0 parts, the t != 0
    # parts and shard 1's y^p = 1 parts.  (3, 6561) has e = gcd(4, 6560) = 4,
    # (5, 25) e = 6 and (7, 7) e = 2
    @pytest.mark.parametrize("p,q,pairs", [
        (3, 6561, 2 * 6561 ** 2 + 7 * 6561 - 1),
        (5, 25, 5 * 25 ** 4 + (24 + 2 * 23) * 25 ** 3
         + (25 ** 2 + 24 * 25) * 25 ** 3 + 29 * 25 ** 5 + 25 ** 5 + 24 * 25 ** 4),
        (7, 7, 5 * 7 ** 8 + (6 + 2 * 5) * 7 ** 7
         + (7 ** 4 + 6 * 7 ** 3) * 7 ** 5 + 7 * 7 ** 9 + 7 ** 9 + 6 * 7 ** 8),
    ])
    def test_beyond_pair_limit_exits_1_at_once(self, p, q, pairs):
        res = run_child(["census", "--p", str(p), "--q", str(q)], timeout=10)
        assert res.returncode == 1 and not res.stdout
        assert f"{pairs} composition pairs" in res.stderr
        assert f"exceed {PAIR_LIMIT}" in res.stderr
        assert "Traceback" not in res.stderr


class TestJsonFlag:
    @pytest.mark.parametrize("argv", [
        ["--json", "decompose", "--field", "3^1", "--poly", "x^9+x^5+x"],
        ["decompose", "--field", "3^1", "--poly", "x^9+x^5+x", "--json"],
    ])
    def test_before_or_after_subcommand(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2 and payload["complete"] is True


class TestUsageErrors:
    def test_missing_argument_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--p", "2"])
        assert exc.value.code == 1

    def test_bad_field_exits_1(self, capsys):
        code, _, err = run(capsys, "classify", "--field", "6^1", "--poly", "x^4")
        assert code == 1

    def test_bad_poly_exits_1(self, capsys):
        code, _, err = run(capsys, "classify", "--field", "2^1",
                           "--poly", "x^4+junk")
        assert code == 1

    def test_huge_exponent_exits_1(self, capsys):
        code, _, err = run(capsys, "classify", "--field", "2^1",
                           "--poly", "x^1000000000000000")
        assert code == 1
        assert "parse limit" in err and "Traceback" not in err

    @pytest.mark.parametrize("poly,message", [
        ("x^" + "9" * 5000, "above the parse limit 65536"),
        ("9" * 5000 + "*x^4", "out of range"),
    ])
    def test_overlong_digit_strings_exit_1(self, capsys, poly, message):
        code, out, err = run(capsys, "classify", "--field", "2^1", "--poly", poly)
        assert code == 1 and not out
        assert message in err
        assert "Traceback" not in err and "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("argv", [
        ["identify", "--field", "5^1", "--poly", "x^25"],
        ["construct", "S", "--field", "5^1", "--u", "1", "--s", "1",
         "--eps", "0", "--m", "1"],
        ["construct", "M", "--field", "5^1", "--a", "1", "--b", "2", "--m", "2"],
        ["construct", "frobenius", "--field", "5^1", "--poly", "x^5+x"],
    ])
    def test_r_zero_is_not_the_default(self, capsys, argv):
        # --r 0 is a given r, not a missing one that falls back to p
        code, out, err = run(capsys, *argv, "--r", "0")
        assert code == 1 and not out
        assert "0 is not a positive power of 5" in err


# a planted g o h over F_27 that classify leaves unclassified, so decompose
# divides f by every candidate right component
F27_PLANTED = "x^9+22*x^6+25*x^5+23*x^4+15*x^3+6*x^2+2*x"


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("argv", [
        ["census", "--p", "3", "--q", "9"],
        ["decompose", "--field", "3^3", "--poly", F27_PLANTED],
    ])
    def test_repeat_call_leaves_nothing_for_the_collector(self, capsys, argv):
        # the first call builds the parser, which is kept for the process
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            code = main(argv)
            garbage = gc.collect()
        finally:
            gc.enable()
        capsys.readouterr()
        assert (code, garbage) == (0, 0)


def run_child(argv, flags=(), timeout=120):
    """The CLI in a child process, with this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *flags, "-m", "wildcomp.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=timeout)


class TestFieldLimit:
    @pytest.mark.parametrize("argv", [
        ["classify", "--field", "2^48", "--poly", "x^4+x"],
        ["classify", "--field", "1000000000000000003^1", "--poly", "x^4+x"],
        ["census", "--p", "2", "--q", "8388608"],
        ["census", "--p", "1000000000000000003", "--q", "1000000000000000003"],
    ])
    def test_oversized_field_exits_1_at_once(self, argv):
        res = run_child(argv, timeout=10)
        assert res.returncode == 1 and not res.stdout
        assert "field limit of 65536" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("argv", [
        ["construct", "S", "--field", "2^1", "--u", "1", "--s", "1",
         "--eps", "0", "--m", "1", "--r", "1024"],
        ["construct", "M", "--field", "2^1", "--a", "1", "--b", "1",
         "--m", "3", "--r", "1000000000000000000"],
    ])
    def test_oversized_r_exits_1_at_once(self, argv):
        res = run_child(argv, timeout=10)
        assert res.returncode == 1 and not res.stdout
        assert "above the parse limit 65536" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("p,q", [
        (1000000000000000003, 1000000000000000003),
        (1000003, 1000003),
        (65521, 65521),
    ])
    @pytest.mark.parametrize("command", ["count", "nu"])
    def test_unprintable_count_exits_1_at_once(self, command, p, q):
        res = run_child([command, "--p", str(p), "--q", str(q)], timeout=10)
        assert res.returncode == 1 and not res.stdout
        assert "more than 4300 decimal digits" in res.stderr
        assert "Traceback" not in res.stderr

    def test_long_count_still_prints(self, capsys):
        q = 2 ** 100
        code, out, _ = run(capsys, "count", "--p", "2", "--q", str(q))
        c2, c3 = q - 1, (q - 1) * (q - 2) // 6
        assert code == 0
        assert out == (f"c1={q * q - 2 * c2 - 3 * c3} c2={c2} c3={c3} "
                       f"D={q * q - c2 - 2 * c3}")


# M(3, 2, 3) over F_7 shifted by w = 4: identify_multiply splits its right
# components' derivatives, probes and rebuilds it
F7_M_MEMBER = ("x^49+5*x^42+x^41+5*x^40+6*x^39+6*x^38+6*x^37+5*x^36+5*x^35"
               "+5*x^34+6*x^33+6*x^32+2*x^31+2*x^30+5*x^28+4*x^26+3*x^24"
               "+5*x^22+4*x^21+5*x^20+4*x^18+6*x^17+6*x^16+6*x^15+x^13"
               "+4*x^12+x^11+2*x^10+2*x^9+6*x^8+2*x^7+4*x^6+6*x^5+5*x^4"
               "+3*x^3+6*x")


class TestIdentifyMatchesClassify:
    """identify and classify print the same S or M line; their JSON differs
    only in the key naming the family."""

    @pytest.mark.parametrize("field,poly,line,params", [
        ("3^1", "x^9+x^5+x", "S k=2 u=2 s=1 eps=0 m=2 w=0",
         {"k": 2, "u": 2, "s": 1, "eps": 0, "m": 2, "w": 0}),
        ("7^1", F7_M_MEMBER, "M a=3 b=2 m=3 w=4",
         {"a": 3, "b": 2, "m": 3, "w": 4}),
    ])
    def test_same_line_and_payload(self, capsys, field, poly, line, params):
        for command, key in (("identify", "family"), ("classify", "tag")):
            code, out, _ = run(capsys, command, "--field", field, "--poly", poly)
            assert code == 0 and out == line
            code, out, _ = run(capsys, "--json", command, "--field", field,
                               "--poly", poly)
            assert code == 0
            assert out == json.dumps({key: line[0], **params})


class TestOptimizeFlag:
    @pytest.mark.parametrize("argv", [
        ["--json", "census", "--p", "3", "--q", "9"],
        ["classify", "--field", "3^1", "--poly", "x^9+x^5+x"],
        ["--json", "census", "--p", "5", "--q", "5"],
        ["classify", "--field", "7^1", "--poly", F7_M_MEMBER],
        ["decompose", "--field", "3^3", "--poly", F27_PLANTED],
        ["decompose", "--field", "7^1", "--poly", F7_M_MEMBER],
    ])
    def test_same_output_under_dash_O(self, argv):
        plain, optimized = [run_child(argv, flags) for flags in ([], ["-O"])]
        assert plain.returncode == optimized.returncode == 0, \
            (plain.stderr, optimized.stderr)
        assert plain.stdout == optimized.stdout

    def test_m_member_classified_under_dash_O(self):
        out = run_child(["classify", "--field", "7^1", "--poly", F7_M_MEMBER], ["-O"])
        assert (out.returncode, out.stdout.strip()) == (0, "M a=3 b=2 m=3 w=4")


# Bounded argv grammar for the exit-code contract: every field has q <= 49,
# every r^2 and census stays small or is refused at once, and --threads is
# never set.  Most draws are well formed, so the answers 0 and 2 show up
# beside the usage errors.
FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
          (5, 1), (5, 2), (7, 1), (7, 2)]
BAD_FIELDS = ["3^2:1,1,1", "4^1", "2^0", "0^1", "2^", "^2", "x", "", "-3^1",
              "2^99"]
NUMBERS = [-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 25, 49, 10 ** 20]


@st.composite
def field_and_poly(draw):
    """A field argument and a --poly text: mostly a monic original of
    degree p^2 over that field, else loose terms or arbitrary text."""
    if draw(st.integers(0, 4)):
        p, d = draw(st.sampled_from(FIELDS))
        field = f"{p}^{d}"
    else:
        p, d = 2, 1
        field = draw(st.sampled_from(BAD_FIELDS))
    q, n = p ** d, p * p
    kind = draw(st.integers(0, 5))
    if kind <= 3:
        terms = draw(st.lists(st.tuples(st.integers(1, n - 1),
                                        st.integers(1, q - 1)), max_size=6))
        poly = "+".join([f"x^{n}"] + [f"{c}*x^{e}" for e, c in terms])
    elif kind == 4:
        terms = draw(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)),
                              min_size=1, max_size=5))
        poly = "+".join(f"{c}*x^{e}" if e else str(c) for e, c in terms)
    else:
        poly = draw(st.text("x^*+0123456789- a", max_size=12))
    return field, q, poly


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["construct", "identify", "classify",
                                    "decompose", "count", "nu", "census"]))
    field, q, poly = draw(field_and_poly())
    number = st.one_of(st.integers(0, q - 1), st.sampled_from(NUMBERS)).map(str)
    argv = [command]
    if command == "construct":
        argv += [draw(st.sampled_from(["S", "M", "frobenius", "T"])),
                 "--field", field]
        for flag in ("--u", "--s", "--eps", "--m", "--a", "--b", "--w"):
            if draw(st.integers(0, 3)):
                argv += [flag, draw(number)]
        if draw(st.booleans()):
            argv += ["--r", draw(st.sampled_from(["-1", "0", "1", "2", "3", "4",
                                                  "5", "9", "25", str(10 ** 6)]))]
        if draw(st.booleans()):
            argv += ["--poly", poly]
    elif command in ("identify", "classify", "decompose"):
        argv += ["--field", field, "--poly", poly]
        if command == "identify" and draw(st.booleans()):
            argv += ["--r", draw(number)]
    else:
        if draw(st.integers(0, 3)):
            pq = draw(st.sampled_from([(2, 2), (2, 4), (2, 8), (2, 16), (2, 32),
                                       (3, 3), (3, 9), (5, 5), (7, 7), (5, 25)]))
        else:
            pq = (draw(st.sampled_from(NUMBERS)), draw(st.sampled_from(NUMBERS)))
        argv += ["--p", str(pq[0]), "--q", str(pq[1])]
    if draw(st.integers(0, 5)) == 0:
        # drop one token: a missing value, flag or subcommand
        del argv[draw(st.integers(0, len(argv) - 1))]
    if draw(st.booleans()):
        argv.insert(draw(st.sampled_from([0, len(argv)])), "--json")
    if draw(st.integers(0, 9)) == 0:
        argv.append("--bogus")
    return argv


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(argvs())
    def test_fuzzed_argv(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
