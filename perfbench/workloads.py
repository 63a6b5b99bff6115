"""Seeded inputs, job lists and output checks of the four workloads.

Importing this module imports the program under test from the
checkout's ``src/`` directory (never an installed copy) and exits with
an error when it is missing.

Every input file is a relabelling of a fixed solution or brace by a
permutation drawn from the seed (braces keep 0 fixed, since 0 must be
both identities; the ``groups`` powers draw theirs from GROUPS_POOL),
so the program only sees the generated files. Each
job's check compares the output lines that a relabelling cannot change
(orders, classification, counts, ``failures: 0``) and the exit code with
frozen expectations; the lines that do depend on the labels (``-o``
files, generators, ``brace solution``) are recomputed from the input by
code in this module. Why each workload exists and which layer it loads
is recorded in DESIGN.md.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "ybe" / "cli.py").is_file():
    sys.exit(f"perfbench: program source not found under {SRC}")
sys.path.insert(0, str(SRC))
import ybe.cli  # noqa: E402  (needs the path set above)

if not Path(ybe.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: imported ybe from {ybe.__file__}, not from {SRC}")

WORKLOADS = ("power", "enumerate", "groups", "brace")

SWAP = ((1, 0), (1, 0))
# the order-8 four-point solution; its permutation group is dihedral
O8 = ((0, 1, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1), (1, 0, 2, 3))
CYCLE3 = ((1, 2, 0),) * 3

# Four-point Lyubashenko solution σ_x = (0 1 2 3) for every x: group C4.
CYCLE4 = ((1, 2, 3, 0),) * 4

# groups: a round powers GROUPS_MIX relabellings of each union at n=2.
# O8 ⊔ CYCLE3 (degree 49, group of order 24) is the small-degree,
# large-group case, but its isomorphism search is only about a quarter
# of the job; O8 ⊔ CYCLE4 (degree 64, order 32) spends over half in it.
# The search's time depends on the labelling, with a long tail (over 25
# labellings, 0.11-0.33 s a job for the first; 0.46-0.74 s for the
# second, but 2.1-2.6 s for one labelling in eight), so labellings drawn
# from the run's seed would make the round's time a lottery between
# seeds. These relabellings are drawn instead from GROUPS_POOL, a fixed
# stream whose first draws are taken as they come; the seed relabels
# the permgroup inputs and orders the round.
GROUPS_MIX = (("o8c3", (O8, CYCLE3), 8, (24, 24, 24)),
              ("o8c4", (O8, CYCLE4), 3, (32, 16, 16)))
GROUPS_POOL = "groups:pool"
EQ31_SAMPLES = 20000

LAMBDA_PROPERTIES = (
    "inverse_is_lambda_of_inverse",
    "additive_automorphism",
    "multiplicative_homomorphism",
    "sum_via_lambda",
    "symmetric_product",
    "sigma_condition",
)
# sha256 of `ybe brace find K` stdout at the seed commit; the output has
# no input, so the whole of it is invariant
BRACE_FIND_SHA256 = {
    1: "53eeee2b2eebf3d6aea0be721d7dc65817ecd8e08a4b9237957bf7b00df335dc",
    2: "09e968818a03d5c9b8053349e491b7a8b3104e49245b4ada87a361fd72f12a32",
    3: "b0837e993d6b40ec398489a98f98cc135512297e337a9fa46f020484522d1281",
    4: "00647455991924b5a404b696e5c7db0933e6a23ab66d29a3127124dc2a81ad61",
    5: "d9d7ca45de95baf7e77e72291631b59b046338c3039bac8bb3ba8f9a778e0b8c",
    6: "3bf29315c5310150be38955a46938b204ef94693b9eb186fed7ef59b0460ddf1",
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation. ``check(exit_code, stdout)`` returns None when
    the job's results are right, else a one-line reason. ``outputs`` are
    the files the job writes; they are removed before every run of the
    job, so its check reads what that run wrote."""

    argv: tuple[str, ...]
    check: Callable[[object, str], str | None]
    limit_s: float
    outputs: tuple[Path, ...] = ()


# --- inputs ---------------------------------------------------------------

def union(*parts):
    """σ-table of the disjoint union of solutions given as σ-tables."""
    total = sum(len(p) for p in parts)
    rows, offset = [], 0
    for part in parts:
        for row in part:
            full = list(range(total))
            for j, image in enumerate(row):
                full[offset + j] = offset + image
            rows.append(tuple(full))
        offset += len(part)
    return tuple(rows)


def relabelling(rng, m, fix_zero=False):
    phi = list(range(m))
    if fix_zero:
        rest = phi[1:]
        rng.shuffle(rest)
        return tuple([0] + rest)
    rng.shuffle(phi)
    return tuple(phi)


def relabel_solution(rows, phi):
    """σ'_{φ(x)} = φ∘σ_x∘φ⁻¹."""
    out = [None] * len(rows)
    for x, row in enumerate(rows):
        image = [0] * len(row)
        for y, v in enumerate(row):
            image[phi[y]] = phi[v]
        out[phi[x]] = tuple(image)
    return tuple(out)


def relabel_table(table, phi):
    """Cayley table under the bijection φ: t'[φa][φb] = φ(t[a][b])."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            out[phi[a]][phi[b]] = phi[v]
    return tuple(tuple(r) for r in out)


def _rows_text(rows):
    return "".join(" ".join(map(str, r)) + "\n" for r in rows)


def solution_text(rows):
    return f"{len(rows)}\n" + _rows_text(rows)


def brace_text(add, mul):
    return f"{len(add)}\n" + _rows_text(add) + "\n" + _rows_text(mul)


def lambda_rows(add, mul):
    """λ_a(x) = a·x − a, the σ-table of a brace's associated solution."""
    k = len(add)
    neg = [next(c for c in range(k) if add[b][c] == 0) for b in range(k)]
    return tuple(tuple(add[mul[a][x]][neg[a]] for x in range(k)) for a in range(k))


# --- checks ---------------------------------------------------------------

def expect(code, stdout):
    def check(got_code, got_stdout):
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        if got_stdout != stdout:
            return f"stdout {got_stdout[:120]!r}, expected {stdout[:120]!r}"
        return None
    return check


def expect_sha256(code, digest):
    def check(got_code, got_stdout):
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        if hashlib.sha256(got_stdout.encode()).hexdigest() != digest:
            return "stdout differs from the frozen output"
        return None
    return check


def all_of(*checks):
    def check(got_code, got_stdout):
        for c in checks:
            reason = c(got_code, got_stdout)
            if reason is not None:
                return reason
        return None
    return check


def power_stdout(base, power, product, classification, out=None):
    lines = [
        f"base group order: {base}",
        f"power group order: {power}",
        f"product subgroup order: {product}",
        f"classification: {classification}",
        "isomorphic: yes",
    ]
    if out is not None:
        lines.append(f"wrote: {out}")
    return "\n".join(lines) + "\n"


def check_power_file(path, sigma, n):
    """Row x̄ of the written power solution must be ψ(σ_{x₁}∘⋯∘σ_{xₙ}),
    the embedded product, rather than the f-recursion the CLI uses."""
    compose, psi_perm = ybe.perm.compose, ybe.power.psi_perm
    m = len(sigma)

    def check(got_code, got_stdout):
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError as e:
            return f"cannot read {path}: {e.strerror}"
        if lines[:2] != [f"# power m={m} n={n} encoding=lex-msb-first", str(m**n)]:
            return f"{path}: wrong header {lines[:2]}"
        if len(lines) != 2 + m**n:
            return f"{path}: {len(lines) - 2} rows, expected {m**n}"
        rows = {}
        for code in range(m**n):
            xbar, rest = [], code
            for _ in range(n):
                rest, d = divmod(rest, m)
                xbar.append(d)
            xbar.reverse()
            tau = sigma[xbar[0]]
            for x in xbar[1:]:
                tau = compose(tau, sigma[x])
            if tau not in rows:
                rows[tau] = " ".join(map(str, psi_perm(sigma, tau, n)))
            if lines[2 + code] != rows[tau]:
                return f"{path}: row {code} is not the embedded product"
        return None
    return check


def check_permgroup(rows, copies):
    """`permgroup` on `copies` copies of O8: the group is D4^copies, whose
    elements have orders 1, 2 (6^c − 1 of them: D4 has 6 elements with
    g² = 1) and 4 (the rest). Generators must be σ-rows of the input."""
    allowed = {"  " + " ".join(map(str, r)) for r in rows}
    order = 8**copies
    twos = 6**copies - 1
    orders = ["1"] + ["2"] * twos + ["4"] * (order - 1 - twos)
    head = [f"order: {order}", "generators:"]
    tail = "element orders: " + " ".join(orders)

    def check(got_code, got_stdout):
        if got_code != 0:
            return f"exit code {got_code}, expected 0"
        lines = got_stdout.splitlines()
        if lines[:2] != head or lines[-1:] != [tail] or not got_stdout.endswith("\n"):
            return f"stdout {got_stdout[:120]!r} lacks {head} or the element orders"
        gens = lines[2:-1]
        if not gens or any(g not in allowed for g in gens):
            return "a generator is not a σ-row of the input"
        return None
    return check


# --- workloads ------------------------------------------------------------

def _power(rng, workdir):
    swapfix = union(SWAP, ((0,),))
    specs = [  # (name, base, n, -o?, limit_s, expected stdout fields)
        ("swap", SWAP, 6, False, 20, (2, 1, 1, "NoGuarantee")),
        ("swap", SWAP, 7, True, 60, (2, 2, 2, "CoprimeOrder")),
        ("swapfix", swapfix, 4, False, 20, (2, 2, 2, "FixedPointPresent")),
        ("o8", O8, 3, True, 20, (8, 8, 8, "CoprimeOrder")),
    ]
    jobs = []
    for name, base, n, write, limit, fields in specs:
        sigma = relabel_solution(base, relabelling(rng, len(base)))
        path = workdir / f"{name}_n{n}.txt"
        path.write_text(solution_text(sigma), encoding="utf-8")
        argv = ["power", str(path), str(n)]
        if write:
            out = workdir / f"{name}_n{n}.out.txt"
            argv += ["-o", str(out)]
            check = all_of(expect(0, power_stdout(*fields, out=out)),
                           check_power_file(out, sigma, n))
        else:
            check = expect(0, power_stdout(*fields))
        jobs.append(Job(tuple(argv), check, limit, (out,) if write else ()))
    return jobs


def _enumerate(rng, workdir):
    return [
        Job(("enumerate", "4", "--dedup"),
            expect(0, "count: 168\ncount up to isomorphism: 23\n"), 120),
        Job(("enumerate", "3", "--dedup"),
            expect(0, "count: 12\ncount up to isomorphism: 5\n"), 10),
        Job(("enumerate", "5"), expect(3, ""), 10),
    ]


def _groups(rng, workdir):
    jobs = []
    for copies in (3, 4, 5):
        rows = union(*[O8] * copies)
        rows = relabel_solution(rows, relabelling(rng, len(rows)))
        path = workdir / f"o8x{copies}.txt"
        path.write_text(solution_text(rows), encoding="utf-8")
        check = check_permgroup(rows, copies) if copies < 5 else expect(3, "")
        jobs.append(Job(("permgroup", str(path)), check, 10))
    pool = random.Random(GROUPS_POOL)
    for name, parts, count, orders in GROUPS_MIX:
        base = union(*parts)
        for i in range(count):
            rows = relabel_solution(base, relabelling(pool, len(base)))
            path = workdir / f"{name}_{i}.txt"
            path.write_text(solution_text(rows), encoding="utf-8")
            jobs.append(Job(("power", str(path), "2"),
                            expect(0, power_stdout(*orders, "NoGuarantee")), 20))
    return jobs


def _brace(rng, workdir):
    jobs = []
    files = []
    for k in range(1, 7):
        jobs.append(Job(("brace", "find", str(k)),
                        expect_sha256(0, BRACE_FIND_SHA256[k]), 10))
        for i, b in enumerate(ybe.brace.find_braces(k)):
            phi = relabelling(rng, k, fix_zero=True)
            add, mul = relabel_table(b.add, phi), relabel_table(b.mul, phi)
            path = workdir / f"brace{k}_{i}.txt"
            path.write_text(brace_text(add, mul), encoding="utf-8")
            files.append((k, str(path)))
            jobs.append(Job(("brace", "lambda-check", str(path)),
                            expect(0, "".join(f"{p}: pass\n" for p in LAMBDA_PROPERTIES)), 10))
            jobs.append(Job(("brace", "solution", str(path)),
                            expect(0, solution_text(lambda_rows(add, mul))), 10))
    for k, path in files:
        if k in (4, 6):
            jobs.append(Job(("brace", "eq31-check", path, "--n", "3"),
                            expect(0, f"checked all {k**6} tuple pairs (n=3)\nfailures: 0\n"),
                            30))
    k, path = rng.choice([f for f in files if f[0] in (4, 6)])
    seed = rng.randrange(10**6)
    jobs.append(Job(
        ("brace", "eq31-check", path, "--n", "4", "--samples", str(EQ31_SAMPLES),
         "--seed", str(seed)),
        expect(0, f"checked {EQ31_SAMPLES} sampled tuple pairs (n=4, seed={seed})\n"
                  "failures: 0\n"),
        30))
    return jobs


_BUILDERS = {"power": _power, "enumerate": _enumerate, "groups": _groups, "brace": _brace}


def prepare(workload, seed, workdir):
    """Write the workload's seeded input files into ``workdir`` and
    return its round: the list of jobs, in a seeded order, that every
    round of a run repeats. The same seed writes byte-identical files."""
    rng = random.Random(f"{workload}:{seed}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = _BUILDERS[workload](rng, workdir)
    rng.shuffle(jobs)
    return jobs
