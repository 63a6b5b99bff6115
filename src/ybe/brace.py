"""Finite left braces and their associated solutions.

A left brace is a set with an abelian group (G, +) and a group (G, ·)
sharing identity 0 and satisfying a(b+c)+a = ab+ac for all a, b, c.
The maps λ_a(b) = ab − a bridge brace multiplication and solution σ-maps.
Element 0 must be both identities; tables not normalized this way are
rejected rather than relabeled.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import perm as pm
from . import power as pw
from . import solution as sol
from .errors import AxiomError, SizeCapExceeded
from .perm import Perm
from .solution import Solution

LAMBDA_PROPERTIES = (
    "inverse_is_lambda_of_inverse",   # λ_a bijective, λ_a⁻¹ = λ_{a⁻¹}
    "additive_automorphism",          # λ_a(x+y) = λ_a(x) + λ_a(y)
    "multiplicative_homomorphism",    # λ_a∘λ_b = λ_{a·b}
    "sum_via_lambda",                 # a+b = a·λ⁻¹_a(b)
    "symmetric_product",              # a·λ⁻¹_a(b) = b·λ⁻¹_b(a)
    "sigma_condition",                # λ_aλ_{λ⁻¹_a(b)} = λ_bλ_{λ⁻¹_b(a)}
)

# largest order k, in brace elements, that find_braces searches; fixed,
# --cap does not reach it
BRACE_SEARCH_BOUND = 6


@dataclass(frozen=True)
class Brace:
    k: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]   # additive inverses
    inv: tuple[int, ...]   # multiplicative inverses

    def sub(self, a: int, b: int) -> int:
        """a − b in the additive group."""
        return self.add[a][self.neg[b]]


@dataclass(frozen=True)
class LambdaTable:
    owner: Brace
    table: tuple[Perm, ...]   # table[a] is λ_a


def _group_inverses(table, what, commutative):
    """Validate a Cayley table as a group with identity 0; return inverses."""
    k = len(table)
    for a in range(k):
        if table[a][0] != a or table[0][a] != a:
            raise AxiomError(f"{what}: 0 is not an identity", witness=(a,))
    for a in range(k):
        for b in range(k):
            if commutative and table[a][b] != table[b][a]:
                raise AxiomError(f"{what}: not commutative", witness=(a, b))
            for c in range(k):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise AxiomError(f"{what}: not associative", witness=(a, b, c))
    inv = [None] * k
    for a in range(k):
        for b in range(k):
            if table[a][b] == 0 and table[b][a] == 0:
                inv[a] = b
                break
        if inv[a] is None:
            raise AxiomError(f"{what}: element {a} has no inverse", witness=(a,))
    return tuple(inv)


def brace_from_tables(add, mul) -> Brace:
    """Validate the two Cayley tables and the brace property exhaustively."""
    k = len(add)
    if k < 1:
        raise AxiomError("empty brace is not allowed")
    add = pm.square_table(add, k, "add", AxiomError)
    mul = pm.square_table(mul, k, "mul", AxiomError)
    neg = _group_inverses(add, "add", commutative=True)
    inv = _group_inverses(mul, "mul", commutative=False)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                lhs = add[mul[a][add[b][c]]][a]
                rhs = add[mul[a][b]][mul[a][c]]
                if lhs != rhs:
                    raise AxiomError(
                        "brace property a(b+c)+a = ab+ac fails",
                        witness=(a, b, c),
                    )
    return Brace(k=k, add=add, mul=mul, neg=neg, inv=inv)


def trivial_brace(add_table) -> Brace:
    """The brace with a·b = a+b; every λ_a is the identity."""
    return brace_from_tables(add_table, add_table)


def lambda_table(b: Brace) -> LambdaTable:
    """λ_a(x) = a·x − a for every a."""
    rows = []
    for a in range(b.k):
        row = tuple(b.sub(b.mul[a][x], a) for x in range(b.k))
        if not pm.is_perm(row):
            raise AxiomError(f"lambda map of element {a} is not a bijection")
        rows.append(row)
    return LambdaTable(owner=b, table=tuple(rows))


def check_lambda_properties(lam: LambdaTable) -> sol.VerifyReport:
    """Exhaustively verify the six λ-map identities of the brace
    ``lam.owner``, with ``lam = lambda_table(b)``; the report holds the
    first witness in lex order of each failed identity."""
    b = lam.owner
    lt = lam.table
    lt_inv = [pm.inverse(p) for p in lt]
    elems = range(b.k)
    pairs = [(a, c) for a in elems for c in elems]
    witnesses = {
        "inverse_is_lambda_of_inverse": next(
            ((a,) for a in elems if lt_inv[a] != lt[b.inv[a]]), None
        ),
        "additive_automorphism": next(
            (
                (a, x, y)
                for a in elems
                for x, y in pairs
                if lt[a][b.add[x][y]] != b.add[lt[a][x]][lt[a][y]]
            ),
            None,
        ),
        "multiplicative_homomorphism": next(
            ((a, c) for a, c in pairs if pm.compose(lt[a], lt[c]) != lt[b.mul[a][c]]), None
        ),
        "sum_via_lambda": next(
            ((a, c) for a, c in pairs if b.add[a][c] != b.mul[a][lt_inv[a][c]]), None
        ),
        "symmetric_product": next(
            ((a, c) for a, c in pairs if b.mul[a][lt_inv[a][c]] != b.mul[c][lt_inv[c][a]]),
            None,
        ),
        "sigma_condition": sol._sigma_condition_witness(lt),
    }
    failures = {name: w for name, w in witnesses.items() if w is not None}
    return sol.VerifyReport(LAMBDA_PROPERTIES, failures)


def associated_solution(b: Brace) -> Solution:
    """The solution on the brace's underlying set with σ_x = λ_x."""
    return sol.from_sigma(lambda_table(b).table)


def check_eq_3_1(lt: LambdaTable, xbar, ybar) -> bool:
    """Inside the multiplicative group of the brace ``lt.owner``, with
    σ = λ over the whole brace: the product h₁⋯h_j must equal
    λ_{x₁⋯xₙ}(y₁⋯y_j) for every j. By cancellation that makes each h_j
    (j ≥ 2) the quotient λ_{x₁⋯xₙ}(y₁⋯y_{j-1})⁻¹ · λ_{x₁⋯xₙ}(y₁⋯y_j).
    The per-pair oracle of ``eq_3_1_failing_sets``: it folds x̄ into
    λ_{x₁}⋯λ_{xₙ} and x₁⋯xₙ itself, and takes h̄ = ψ(λ_{x₁}⋯λ_{xₙ})(ȳ)
    from ``power.psi_apply``, the oracle of the power rows, not from the
    h-recursion."""
    if len(ybar) != len(xbar):
        raise ValueError("tuples must have equal length")
    b, lam = lt.owner, lt.table
    pw.check_tuple(b.k, xbar)
    lam_x = functools.reduce(pm.compose, [lam[x] for x in xbar])
    big_x = functools.reduce(lambda acc, x: b.mul[acc][x], xbar, 0)
    h = pw.psi_apply(lam, lam_x, ybar)
    y_prod = h_prod = 0   # y₁⋯y_j and h₁⋯h_j
    for y, hj in zip(ybar, h):
        y_prod = b.mul[y_prod][y]
        h_prod = b.mul[h_prod][hj]
        if lam[big_x][y_prod] != h_prod:
            return False
    return True


def eq_3_1_failing_sets(lt: LambdaTable, n: int, cap: int = pm.DEFAULT_CAP) -> dict:
    """Each n-tuple x̄, in code order, to the frozenset of n-tuples ȳ that
    fail eq. 3.1 with it, under the cap on kⁿ. x̄ is read only through its
    key (λ_{x₁}⋯λ_{xₙ}, x₁⋯xₙ): the first from ``power._products``, the
    second the last prefix product of x̄. Each distinct key reads h̄ off
    the power row of λ_{x₁}⋯λ_{xₙ} (``power._f_row``), and ȳ fails when
    the prefix products of h̄ differ from λ_{x₁⋯xₙ} of those of ȳ."""
    b = lt.owner
    pw.check_degree(b.k, n, cap)
    codes = pw._codes(b.k, n)
    prefixes = [tuple(itertools.accumulate(t, lambda p, y: b.mul[p][y])) for t in codes]
    keys = list(zip(pw._products(lt.table, n), [p[-1] for p in prefixes]))
    inv = [pm.inverse(p) for p in lt.table]
    failing = {}
    for lam_x, big_x in dict.fromkeys(keys):
        target = lt.table[big_x]
        row = pw._f_row(lt.table, inv, lam_x, codes)
        failing[lam_x, big_x] = frozenset(
            ybar
            for ybar, ys, h in zip(codes, prefixes, row)
            if prefixes[h] != tuple([target[v] for v in ys])
        )
    return {xbar: failing[key] for xbar, key in zip(codes, keys)}


def _abelian_tables(k: int):
    """The abelian group structures on {0,...,k-1} used by the search:
    cyclic for every k, plus the Klein four-group at k=4."""
    tables = [tuple(tuple((a + c) % k for c in range(k)) for a in range(k))]
    if k == 4:
        tables.append(tuple(tuple(a ^ c for c in range(4)) for a in range(4)))
    return tables


def _automorphisms(add):
    """The permutations fixing 0 that respect the addition table, in
    lexicographic order; the identity comes first."""
    k = len(add)
    auts = []
    for rest in itertools.permutations(range(1, k)):
        p = (0,) + rest
        if all(p[add[a][c]] == add[p[a]][p[c]] for a in range(k) for c in range(k)):
            auts.append(p)
    return auts


def _closes_under_product(add, auts, comp, lams) -> bool:
    """λ_{x+λ_x(y)} = λ_x∘λ_y on every pair x, y whose three elements
    x, y and x+λ_x(y) are placed (indices ≤ d, the last placed) and
    include d: the pairs that λ_d completes. Each pair is checked at
    exactly one d; pairs with x or y = 0 hold, as λ₀ = id."""
    d = len(lams) - 1
    for x in range(1, d + 1):
        lam_x, row = auts[lams[x]], comp[lams[x]]
        for y in range(1, d + 1):
            c = add[x][lam_x[y]]
            if c <= d and d in (x, y, c) and lams[c] != row[lams[y]]:
                return False
    return True


def find_braces(k: int) -> list[Brace]:
    """All left braces of order k with identity 0, by a pruned search.

    A labelled brace with additive group A is a map a ↦ λ_a into
    Aut(A, +) with λ₀ = id and a·b = a + λ_a(b): its set {(a, λ_a)} is
    a regular subgroup of the holomorph Hol(A) = A ⋊ Aut(A)
    (Guarnieri–Vendramin 2017), and the closure of that set under the
    product is λ_{a+λ_a(b)} = λ_a∘λ_b. That condition makes · associative,
    with identity 0 and a bijective λ_a in each row, so a group, and
    gives a(b+c)+a = ab+ac; conversely λ_{ab} = λ_aλ_b holds in every
    brace. So the assignments that satisfy it are exactly the braces.

    For each abelian structure, ``solution._place`` puts down λ₁, λ₂, …
    after λ₀ = id, in ``_automorphisms`` order, as interned indices with
    one |Aut|² composition table, and drops a branch as soon as a pair
    fails the condition (``_closes_under_product``); every pair is
    completed by λ_{k−1}, so the assignments come in the order of the
    scan of [id] × Aut(A)^(k−1). Each survivor is built by
    the validating ``brace_from_tables``, so an error there is a bug.
    No brace is found twice: the additive tables differ, and the row
    a·b = a + λ_a(b) fixes λ_a.
    """
    if k < 1:
        raise ValueError("order must be at least 1")
    if k > BRACE_SEARCH_BOUND:
        raise SizeCapExceeded(f"brace search bound {BRACE_SEARCH_BOUND} exceeded (k={k})")
    found = []
    for add in _abelian_tables(k):
        auts = _automorphisms(add)
        index = {p: i for i, p in enumerate(auts)}
        comp = [[index[pm.compose(p, q)] for q in auts] for p in auts]
        closes = functools.partial(_closes_under_product, add, auts, comp)
        assignments = []
        sol._place(range(len(auts)), k, closes, [0], assignments)
        for lams in assignments:
            mul = tuple(
                tuple(add[a][auts[i][c]] for c in range(k)) for a, i in enumerate(lams)
            )
            found.append(brace_from_tables(add, mul))
    return found
