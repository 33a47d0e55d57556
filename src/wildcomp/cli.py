"""Command-line frontend.

Exit codes: 0 on success, 1 on usage errors and on requests beyond the
exhaustive-search limits (a census above PAIR_LIMIT, a field above
FIELD_LIMIT, a count too long to print, a construct degree r^2 above
MAX_PARSE_EXPONENT), 2 on mathematically valid "no"/failure answers (no
parameters recovered, no collision, census mismatch), so scripts can tell
the two apart.  All numeric output is exact: integers in decimal,
rationals as "num/den", field elements as their integer encodings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence, Union

from .census import run_census
from .constructions import (MultiplyParams, SimplyParams, build_M,
                            decompositions_S, frobenius_collision)
from .counting import nu, spectrum
from .decomp_core import Collision, MonicOriginal, original_shift
from .gf import FieldSpec, parse_field
from .identify import (CollisionTag, MultiplyMatch, SimplyMatch, classify,
                       enumerate_decompositions, identify_multiply,
                       identify_simply)
from .polyring import MAX_PARSE_EXPONENT, format_poly, parse_poly

USAGE_ERROR = 1
FAILURE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _field(args) -> FieldSpec:
    return parse_field(args.field)


def _poly_arg(spec: FieldSpec, text: str) -> MonicOriginal:
    return MonicOriginal(parse_poly(spec, text))


def _emit(args, payload: dict, lines: Sequence[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=False))
    else:
        for line in lines:
            print(line)


def _pairs_json(col: Collision) -> list[list[str]]:
    return sorted([format_poly(d.g.poly), format_poly(d.h.poly)] for d in col)


def _cmd_construct(args) -> int:
    if args.r is not None and args.r * args.r > MAX_PARSE_EXPONENT:
        return _usage(f"--r {args.r}: degree r^2 above the parse limit "
                      f"{MAX_PARSE_EXPONENT}")
    spec = _field(args)
    r = spec.p if args.r is None else args.r
    w = spec.elem(args.w) if args.w is not None else spec.zero
    if args.family == "S":
        if args.u is None or args.s is None or args.eps is None or args.m is None:
            raise SystemExit(_usage("construct S needs --u --s --eps --m"))
        params = SimplyParams(spec.elem(args.u), spec.elem(args.s),
                              args.eps, args.m, r)
        col = decompositions_S(params)
    elif args.family == "M":
        if args.a is None or args.b is None or args.m is None:
            raise SystemExit(_usage("construct M needs --a --b --m"))
        params = MultiplyParams(spec.elem(args.a), spec.elem(args.b),
                                args.m, r)
        _, col = build_M(params)
    else:
        if args.poly is None:
            raise SystemExit(_usage("construct frobenius needs --poly (the right component h)"))
        h = _poly_arg(spec, args.poly)
        col = frobenius_collision(h, r)
    f = original_shift(col.f, w)
    payload = {
        "f": format_poly(f.poly),
        "k": col.k,
        "pairs_unshifted": _pairs_json(col),
        "shift": w.val,
    }
    _emit(args, payload, [format_poly(f.poly)])
    return 0


def _usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


def _emit_match(args, key: str,
                match: Union[SimplyMatch, MultiplyMatch]) -> None:
    """Print recovered S or M parameters; the payload names the family
    under ``key``, "family" for identify and "tag" for classify."""
    if isinstance(match, SimplyMatch):
        sm = match
        payload = {key: "S", "k": sm.k, "u": sm.u.val, "s": sm.s.val,
                   "eps": sm.eps, "m": sm.m, "w": sm.w.val}
        line = f"S k={sm.k} u={sm.u} s={sm.s} eps={sm.eps} m={sm.m} w={sm.w}"
    else:
        mm = match
        payload = {key: "M", "a": mm.a.val, "b": mm.b.val,
                   "m": mm.m, "w": mm.w.val}
        line = f"M a={mm.a} b={mm.b} m={mm.m} w={mm.w}"
    _emit(args, payload, [line])


def _cmd_identify(args) -> int:
    spec = _field(args)
    f = _poly_arg(spec, args.poly)
    r = spec.p if args.r is None else args.r
    match = identify_simply(f, r)
    if match is None:
        match = identify_multiply(f, r)
    if match is None:
        _emit(args, {"family": None}, ["failure"])
        return FAILURE
    _emit_match(args, "family", match)
    return 0


def _cmd_classify(args) -> int:
    spec = _field(args)
    f = _poly_arg(spec, args.poly)
    cls = classify(f)
    if cls.tag is CollisionTag.NONE:
        _emit(args, {"tag": "none"}, ["no 2-collision"])
        return FAILURE
    if cls.tag is CollisionTag.FROBENIUS:
        _emit(args, {"tag": "F"}, ["F"])
    else:
        _emit_match(args, "tag", cls.simply or cls.multiply)
    return 0


def _cmd_decompose(args) -> int:
    spec = _field(args)
    f = _poly_arg(spec, args.poly)
    res = enumerate_decompositions(f)
    pairs = _pairs_json(res.collision)
    payload = {"count": len(pairs), "pairs": pairs, "complete": res.complete}
    lines = [f"{len(pairs)} decomposition(s)"]
    lines += [f"g={g} h={h}" for g, h in pairs]
    _emit(args, payload, lines)
    return 0 if pairs else FAILURE


def _cmd_count(args) -> int:
    spec_counts = spectrum(args.p, args.q)
    payload = {"p": args.p, "q": args.q,
               "c": {str(k): v for k, v in sorted(spec_counts.counts.items())},
               "D": spec_counts.d_total}
    line = " ".join(f"c{k}={v}" for k, v in sorted(spec_counts.counts.items()))
    _emit(args, payload, [f"{line} D={spec_counts.d_total}"])
    return 0


def _cmd_nu(args) -> int:
    value = nu(args.p, args.q)
    _emit(args, {"p": args.p, "q": args.q, "nu": str(value)}, [str(value)])
    return 0


def _cmd_census(args) -> int:
    report = run_census(args.p, args.q, threads=args.threads)
    payload = report.to_json()
    ok, partition_ok = payload["verified"], payload["class_partition_ok"]
    lines = [
        f"census p={args.p} q={args.q}: "
        + " ".join(f"c{k}={v}" for k, v in sorted(report.spectrum_observed.items())),
        "classes " + " ".join(f"{t}={report.class_counts.get(t, 0)}" for t in "FSM"),
        f"decomposable={report.decomposable_observed}",
        f"verify: {'ok' if ok else 'MISMATCH'}",
        f"class partition: {'ok' if partition_ok else 'MISMATCH'}",
    ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        lines.append(f"report written to {args.out}")
    _emit(args, payload, lines)
    return 0 if ok and partition_ok else FAILURE


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="wildcomp",
                     description="Composition collisions of polynomials of "
                                 "degree p^2 over finite fields")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    # --json is accepted after the subcommand too; SUPPRESS keeps a flag
    # given before it from being reset by the subcommand's default.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_poly(sp, poly_required=True):
        sp.add_argument("--field", required=True,
                        help="field as p^d or p^d:c0,c1,...,cd")
        sp.add_argument("--poly", required=poly_required,
                        help="polynomial in the term grammar, e.g. x^9+x^5+x")

    sp = sub.add_parser("construct", parents=[common],
                        help="build a collision family member")
    sp.add_argument("family", choices=["S", "M", "frobenius"])
    sp.add_argument("--field", required=True)
    sp.add_argument("--poly", help="right component h (frobenius only)")
    sp.add_argument("--r", type=int, help="degree parameter r (default: p)")
    sp.add_argument("--u", type=int, help="S parameter u (encoding)")
    sp.add_argument("--s", type=int, help="S parameter s (encoding)")
    sp.add_argument("--eps", type=int, choices=[0, 1], help="S parameter eps")
    sp.add_argument("--m", type=int, help="multiplicity parameter m")
    sp.add_argument("--a", type=int, help="M parameter a (encoding)")
    sp.add_argument("--b", type=int, help="M parameter b (encoding)")
    sp.add_argument("--w", type=int, help="original shift (encoding)")
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("identify", parents=[common],
                        help="recover construction parameters")
    add_field_poly(sp)
    sp.add_argument("--r", type=int, help="degree parameter r (default: p)")
    sp.set_defaults(func=_cmd_identify)

    sp = sub.add_parser("classify", parents=[common],
                        help="collision class at degree p^2")
    add_field_poly(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("decompose", parents=[common],
                        help="list all degree-p decompositions")
    add_field_poly(sp)
    sp.set_defaults(func=_cmd_decompose)

    for name, fn in (("count", _cmd_count), ("nu", _cmd_nu)):
        sp = sub.add_parser(name, parents=[common],
                            help=f"exact {name} at degree p^2")
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--q", type=int, required=True)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("census", parents=[common],
                        help="exhaustive composition census")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--out", help="write the JSON report to this path")
    sp.add_argument("--threads", type=int, default=1,
                    help="worker processes, one per enumerated shard, so at "
                         "most two and capped at the CPU count; 1 or less "
                         "runs in this process; shard 0 holds few of the "
                         "pairs, so two workers run slower than one")
    sp.set_defaults(func=_cmd_census)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # domain errors: bad params, degree mismatch, ...
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
