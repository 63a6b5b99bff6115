"""Property-based regression tests of the file formats and the CLI.

parse∘emit is the identity on solution and brace files, also under the
comments, blank lines and extra whitespace the parsers accept; the CLI
answers generated malformed files and argument lists with an exit code
in {0, 1, 2, 3} and never lets an exception escape. The runs are
derandomized, so every run checks the same examples.
"""

import io
import itertools
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybe import brace as br
from ybe import files
from ybe import perm as pm
from ybe import solution as sol
from ybe.cli import main

SOLUTIONS = [s for m in (1, 2, 3, 4) for s in sol.enumerate_solutions(m)]
BRACES = [b for k in range(1, 7) for b in br.find_braces(k)]

fuzz = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def relabel_solution(s, phi):
    """The solution with σ_{φ(x)} = φ∘σ_x∘φ⁻¹."""
    phi_inv = pm.inverse(phi)
    sigma = [None] * s.m
    for x in range(s.m):
        sigma[phi[x]] = pm.compose(phi, pm.compose(s.sigma[x], phi_inv))
    return sol.from_sigma(sigma)


def relabel_brace(b, phi):
    """The brace with both tables carried along φ (φ fixes 0)."""
    def carry(table):
        out = [[0] * b.k for _ in range(b.k)]
        for a in range(b.k):
            for c in range(b.k):
                out[phi[a]][phi[c]] = phi[table[a][c]]
        return out
    return br.brace_from_tables(carry(b.add), carry(b.mul))


@st.composite
def noisy(draw, text):
    """``text`` with comments, blank lines and extra whitespace added."""
    blank = st.sampled_from(["", "   ", "\t", "# comment", "  # 0 1 2"])
    pad = st.sampled_from(["", " ", "  ", "\t"])
    lines = []
    for line in text.splitlines():
        lines.extend(draw(st.lists(blank, max_size=2)))
        tokens = line.split(" ")
        sep = draw(pad) + " "
        comment = draw(st.sampled_from(["", "#", "  # trailing 1 2"]))
        lines.append(draw(pad) + sep.join(tokens) + draw(pad) + comment)
    lines.extend(draw(st.lists(blank, max_size=2)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@fuzz
@given(st.data())
def test_solution_round_trip(data):
    s = data.draw(st.sampled_from(SOLUTIONS))
    s = relabel_solution(s, data.draw(st.permutations(range(s.m))))
    text = files.emit_solution(s)
    assert files.parse_solution(text).sigma == s.sigma
    assert files.parse_solution(data.draw(noisy(text))).sigma == s.sigma
    headed = files.emit_solution(s, header="power m=2 n=2 encoding=lex-msb-first")
    assert files.emit_solution(files.parse_solution(headed)) == text


@fuzz
@given(st.data())
def test_brace_round_trip(data):
    b = data.draw(st.sampled_from(BRACES))
    phi = (0,) + tuple(data.draw(st.permutations(range(1, b.k))))
    b = relabel_brace(b, phi)
    text = files.emit_brace(b)
    again = files.parse_brace(data.draw(noisy(text)))
    assert (again.add, again.mul) == (b.add, b.mul)
    assert files.emit_brace(again) == text


@fuzz
@given(st.data())
def test_canonical_form_is_least_and_invariant_under_relabeling(data):
    # relabel_solution is written with compose, apart from the package's
    # own relabeling action
    s = data.draw(st.sampled_from(SOLUTIONS))
    phi = tuple(data.draw(st.permutations(range(s.m))))
    relabelled = relabel_solution(s, phi)
    form = sol.canonical_form(s)
    assert sol.canonical_form(relabelled) == form
    assert form <= relabelled.sigma  # the least table of the class


@fuzz
@given(
    st.integers(1, 7).flatmap(
        lambda m: st.lists(st.permutations(range(m)).map(tuple), min_size=1, max_size=4)
    )
)
def test_group_order_is_the_closure_order(gens):
    # degree 7 reaches S₇, past the default cap
    assert pm.group_order(gens, cap=5040) == pm.close_group(gens, cap=5040).order


@fuzz
@given(st.data())
def test_eq_3_1_counts_on_random_lambda_rows(data):
    # four permutation rows of degree 4 as λ over an order-4 brace: no
    # brace identity holds, and both counts off the table must equal the
    # per-pair sums. The λ-rows of the braces of order ≤ 6 commute; rows
    # like these also tell apart the orders of the compositions the walk
    # carries
    b = data.draw(st.sampled_from([b for b in BRACES if b.k == 4]))
    rows = tuple(tuple(data.draw(st.permutations(range(4)))) for _ in range(4))
    lt = br.LambdaTable(owner=b, table=rows)
    n = data.draw(st.integers(1, 3))
    table = br.eq_3_1_failing_sets(lt, n)
    tuples = list(itertools.product(range(4), repeat=n))
    expected = sum(not br.check_eq_3_1(lt, x, y) for x in tuples for y in tuples)
    assert sum(map(len, table.values())) == expected
    ntuple = st.tuples(*[st.integers(0, 3)] * n)
    pairs = data.draw(st.lists(st.tuples(ntuple, ntuple), max_size=40))
    expected = sum(not br.check_eq_3_1(lt, x, y) for x, y in pairs)
    assert sum(y in table[x] for x, y in pairs) == expected


def exit_code(argv):
    """``cli.main``'s exit code; argparse's own exits count as exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as e:  # argparse: 0 after --help, 2 on bad usage
            return e.code


@st.composite
def mutated(draw, text):
    """``text`` after one to three single-character edits."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert" or at == len(chars):
            chars.insert(at, draw(st.sampled_from("0123456789 -#x\n\t")))
        elif op == "delete":
            del chars[at]
        else:
            chars[at] = draw(st.sampled_from("0123456789"))
    return "".join(chars)


SOLUTION_COMMANDS = (["verify"], ["permgroup"], ["power"], ["present"])
BRACE_COMMANDS = (
    ["brace", "verify"],
    ["brace", "solution"],
    ["brace", "lambda-check"],
    ["brace", "eq31-check"],
)
NUMBERS = st.sampled_from(["-1", "0", "1", "2", "3", "4", "7", "x", "1.5", "", str(10**20)])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "swap2.txt").write_text("2\n1 0\n1 0\n", encoding="utf-8")
    (path / "z4.txt").write_text(files.emit_brace(BRACES[3]), encoding="utf-8")
    (path / "taken").write_text("", encoding="utf-8")
    return path


@fuzz
@given(data=st.data())
def test_cli_on_malformed_files(workdir, data):
    if data.draw(st.booleans()):
        source = files.emit_solution(data.draw(st.sampled_from(SOLUTIONS)))
        command = data.draw(st.sampled_from(SOLUTION_COMMANDS))
    else:
        source = files.emit_brace(data.draw(st.sampled_from(BRACES[:9])))
        command = data.draw(st.sampled_from(BRACE_COMMANDS))
    text = data.draw(st.one_of(mutated(source), mutated(source), st.text(max_size=40)))
    path = workdir / "input.txt"
    path.write_text(text, encoding="utf-8")
    extra = ["2"] if command == ["power"] else []
    argv = ["--cap", "32", *command, str(path), *extra]
    assert exit_code(argv) in {0, 1, 2, 3}, argv


@fuzz
@given(data=st.data())
def test_cli_on_generated_argv(workdir, data):
    def pick(*options):
        return data.draw(st.sampled_from(options))

    def maybe(*tokens):
        return list(tokens) if data.draw(st.booleans()) else []

    def number():
        return data.draw(NUMBERS)

    # inputs are only read; outputs include paths that cannot be written
    def path():
        return str(workdir / pick("swap2.txt", "z4.txt", "missing.txt", ".", "out"))

    def out():
        return str(workdir / pick("out", ".", "taken", "missing/out", "taken/out"))

    argv = pick(
        lambda: ["verify", path()],
        lambda: ["power", path(), number(), *maybe("-o", out())],
        lambda: ["permgroup", path()],
        lambda: ["enumerate", pick("-1", "0", "1", "2", "3", "5", "x"),
                 *maybe("--dedup"), *maybe("--outdir", out())],
        lambda: ["present", path()],
        lambda: ["brace", "verify", path()],
        lambda: ["brace", "solution", path(), *maybe("-o", out())],
        lambda: ["brace", "find", number()],
        lambda: ["brace", "lambda-check", path()],
        lambda: ["brace", "eq31-check", path(), *maybe("--n", number()),
                 *maybe("--samples", number()), *maybe("--seed", number())],
    )()
    if data.draw(st.integers(0, 3)) == 0:  # one stray or missing token
        at = data.draw(st.integers(0, len(argv)))
        if data.draw(st.booleans()) and at < len(argv):
            del argv[at]
        else:
            argv.insert(at, pick("--help", "-", "--", "--dedup", "-o", "--n", "x"))
    cap = pick("32", "32", "32", "8", "1", "0", "-1", "x")
    assert exit_code(["--cap", cap, *argv]) in {0, 1, 2, 3}, argv
