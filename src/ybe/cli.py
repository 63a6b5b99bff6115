"""Command-line front end.

Exit codes: 0 success, 1 a checked property fails, 2 usage or parse
error, 3 size cap exceeded. All output is deterministic: identical
inputs produce byte-identical stdout and files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
import sys
from pathlib import Path

from . import brace as br
from . import files
from . import perm as pm
from . import power as pw
from . import solution as sol
from .errors import AxiomError, ParseError, SizeCapExceeded

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from e


def _write(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e.strerror}") from e


def _print_report(report):
    for name in report.properties:
        witness = report.failures.get(name)
        if name not in report.failures:
            print(f"{name}: pass")
        elif witness is None:
            print(f"{name}: FAIL")
        else:
            print(f"{name}: FAIL at {witness}")


def cmd_verify(args):
    # accepts by from_sigma's gate; only a rejection runs verify_tables
    try:
        files.parse_solution(_read(args.file))
    except AxiomError as e:
        _print_report(e.report)
        return EXIT_PROPERTY
    _print_report(sol.VerifyReport(sol.AXIOMS, {}))
    return EXIT_OK


def cmd_permgroup(args):
    s = files.parse_solution(_read(args.file))
    pm.group_order(s.sigma, cap=args.cap)  # declines past the cap before listing
    g = sol.permutation_group(s, cap=args.cap)
    print(f"order: {g.order}")
    print("generators:")
    for gen in g.generators:
        print("  " + " ".join(str(v) for v in gen))
    multiset = g.element_order_multiset()
    print("element orders: " + " ".join(str(v) for v in multiset))
    return EXIT_OK


def cmd_power(args):
    s = files.parse_solution(_read(args.file))
    if args.n < 2:
        raise ParseError(f"exponent must be at least 2, got {args.n}")
    # decline before building; no power group is larger than the base
    pw.check_degree(s.m, args.n, args.cap)
    base_order = pm.group_order(s.sigma, cap=args.cap)
    ps = pw.power_solution(s, args.n, cap=args.cap)
    a_order, b_order, isomorphic = pw.power_perm_group(ps, cap=args.cap)
    cond = pw.iso_condition(s, base_order, args.n)
    print(f"base group order: {base_order}")
    print(f"power group order: {a_order}")
    print(f"product subgroup order: {b_order}")
    print(f"classification: {cond.value}")
    print(f"isomorphic: {'yes' if isomorphic else 'no'}")
    if args.out:
        header = f"power m={s.m} n={args.n} encoding=lex-msb-first"
        _write(args.out, files.emit_solution(ps.result, header=header))
        print(f"wrote: {args.out}")
    return EXIT_OK


def cmd_enumerate(args):
    found = sol.enumerate_solutions(args.m)
    print(f"count: {len(found)}")
    if args.dedup:
        print(f"count up to isomorphism: {len(set(map(sol.canonical_form, found)))}")
    if args.outdir:
        outdir = Path(args.outdir)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ParseError(f"cannot create {outdir}: {e.strerror}") from e
        for i, s in enumerate(found):
            _write(outdir / f"solution_m{args.m}_{i:03d}.txt", files.emit_solution(s))
        print(f"wrote {len(found)} files to {outdir}")
    return EXIT_OK


def cmd_present(args):
    s = files.parse_solution(_read(args.file))
    print(f"generators: {' '.join(f'g{i}' for i in range(s.m))}")
    print("relations:")
    count = 0
    for x in range(s.m):
        for y in range(s.m):
            z, t = sol.r_apply(s, x, y)
            if (x, y) < (z, t):  # not trivial, nor the partner of a printed one
                print(f"  g{x} g{y} = g{z} g{t}")
                count += 1
    print(f"relation count: {count}")
    return EXIT_OK


def cmd_brace_verify(args):
    files.parse_brace(_read(args.file))  # raises on any axiom failure
    print("valid left brace")
    return EXIT_OK


def cmd_brace_solution(args):
    b = files.parse_brace(_read(args.file))
    s = br.associated_solution(b)
    text = files.emit_solution(s)
    if args.out:
        _write(args.out, text)
        print(f"wrote: {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_brace_find(args):
    found = br.find_braces(args.k)
    print(f"braces of order {args.k}: {len(found)}")
    for i, b in enumerate(found):
        print(f"brace {i}:")
        for line in files.emit_brace(b).splitlines():
            print("  " + line)
        lt = br.lambda_table(b)
        report = br.check_lambda_properties(lt)
        print(f"  lambda properties: {'pass' if report.all_ok else 'FAIL'}")
        s = sol.from_sigma(lt.table)  # the associated solution
        # under the default cap: a λ-group of order k ≤ 6 has at most 6! = 720 elements
        print(f"  associated solution verifies: yes (group order {pm.group_order(s.sigma)})")
    return EXIT_OK


def cmd_brace_lambda_check(args):
    b = files.parse_brace(_read(args.file))
    report = br.check_lambda_properties(br.lambda_table(b))
    _print_report(report)
    return EXIT_OK if report.all_ok else EXIT_PROPERTY


def cmd_brace_eq31_check(args):
    b = files.parse_brace(_read(args.file))
    n = args.n
    if n < 2:
        raise ParseError(f"tuple length must be at least 2, got {n}")
    if args.samples < 0:
        raise ParseError(f"sample count must not be negative, got {args.samples}")
    # checks kⁿ ≤ cap first, so past both caps the degree is reported
    table = br.eq_3_1_failing_sets(br.lambda_table(b), n, cap=args.cap)
    if args.samples > args.cap**2:
        # the exhaustive mode checks at most (kⁿ)² ≤ cap² pairs
        raise SizeCapExceeded(f"sample count {args.samples} exceeds cap² = {args.cap**2}")
    if args.samples == 0:
        failures = sum(map(len, table.values()))
        print(f"checked all {b.k ** (2 * n)} tuple pairs (n={n})")
    else:
        rng = random.Random(args.seed)
        # n draws a tuple and x̄ is drawn before ȳ, with no Python frame per tuple
        tuples = zip(*[map(rng.randrange, itertools.repeat(b.k))] * n)
        pairs = itertools.islice(zip(tuples, tuples), args.samples)
        failures = sum(ybar in table[xbar] for xbar, ybar in pairs)
        print(f"checked {args.samples} sampled tuple pairs (n={n}, seed={args.seed})")
    print(f"failures: {failures}")
    return EXIT_OK if failures == 0 else EXIT_PROPERTY


@functools.cache
def build_parser():
    """The argument parser, built on first use and then shared: its
    actions and sub-parsers refer to one another, so a parser per call
    would leave cyclic garbage that only a full collection frees."""
    parser = argparse.ArgumentParser(
        prog="ybe",
        description="Finite involutive Yang-Baxter solutions, power solutions, and left braces.",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=pm.DEFAULT_CAP,
        help="size cap on constructed degrees and closures (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the five solution axioms of a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("power", help="build the power solution and compare groups")
    p.add_argument("file")
    p.add_argument("n", type=int)
    p.add_argument("-o", "--out", help="write the power solution file here")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("permgroup", help="permutation group of a solution")
    p.add_argument("file")
    p.set_defaults(func=cmd_permgroup)

    p = sub.add_parser("enumerate", help="exhaustively enumerate all solutions of size m")
    p.add_argument("m", type=int)
    p.add_argument("--dedup", action="store_true", help="also count up to isomorphism")
    p.add_argument("--outdir", help="write one canonical file per solution")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("present", help="emit the structure-group presentation")
    p.add_argument("file")
    p.set_defaults(func=cmd_present)

    pb = sub.add_parser("brace", help="left-brace operations")
    bsub = pb.add_subparsers(dest="brace_command", required=True)

    p = bsub.add_parser("verify", help="validate a brace file")
    p.add_argument("file")
    p.set_defaults(func=cmd_brace_verify)

    p = bsub.add_parser("solution", help="associated solution of a brace")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_brace_solution)

    p = bsub.add_parser("find", help="search all braces of a given order")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_brace_find)

    p = bsub.add_parser("lambda-check", help="verify the six lambda-map properties")
    p.add_argument("file")
    p.set_defaults(func=cmd_brace_lambda_check)

    p = bsub.add_parser("eq31-check", help="check the product identity for the h recursion")
    p.add_argument("file")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--samples", type=int, default=0, help="0 = exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_brace_eq31_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cap < 1:
            raise ParseError(f"--cap must be positive, got {args.cap}")
        return args.func(args)
    except SizeCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except AxiomError as e:
        print(f"error: {e}", file=sys.stderr)
        if e.report is not None:
            _print_report(e.report)
        if e.witness is not None:
            print(f"witness: {e.witness}")
        return EXIT_PROPERTY
    except ValueError as e:  # ParseError too
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
