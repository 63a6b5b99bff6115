"""Finite involutive non-degenerate set-theoretic solutions (X, r).

X is always {0,...,m-1}. A solution is stored as the table of left
actions sigma[x] = σ_x alone; the right actions gamma[y] = γ_y are
derived on first read, never user-supplied, via γ_y(x) = σ⁻¹_{σ_x(y)}(x)
(forced by involutivity). r(x, y) = (σ_x(y), γ_y(x)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import perm as pm
from .errors import AxiomError, SizeCapExceeded
from .perm import Perm, GeneratedGroup

AXIOMS = (
    "involutive",
    "left_nondegenerate",
    "right_nondegenerate",
    "braid_direct",
    "braid_sigma_condition",
)

# Fixed bounds in points m; --cap does not reach them
ENUMERATION_BOUND = 4  # largest m that enumerate_solutions searches
REPORT_BOUND_M = 256  # largest m whose rejection from_sigma reports, in O(m³)
ISOMORPHISM_CAP_M = 8  # largest m whose m! relabelings are tried


@dataclass(frozen=True)
class VerifyReport:
    """The report of every checked property: the property names in
    print order, and each failed one mapped to its first witness in lex
    order, or to None when the failure has no witness."""

    properties: tuple[str, ...]
    failures: dict

    @property
    def all_ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Solution:
    """A verified solution on m points; σ is its only stored table."""

    sigma: tuple[Perm, ...]

    def __post_init__(self):
        if not self.sigma:
            raise ValueError("empty set is not allowed")

    @property
    def m(self) -> int:
        return len(self.sigma)

    @cached_property
    def gamma(self) -> tuple[Perm, ...]:
        return derive_gamma(self.sigma)


def derive_gamma(sigma) -> tuple[tuple[int, ...], ...]:
    """gamma[y][x] = σ⁻¹_{σ_x(y)}(x). Rows need not be bijections for a
    bad candidate; verification checks that separately."""
    m = len(sigma)
    inv = [pm.inverse(s) for s in sigma]
    return tuple(
        tuple(inv[sigma[x][y]][x] for x in range(m)) for y in range(m)
    )


def _r(sigma, gamma, x, y):
    return sigma[x][y], gamma[y][x]


def verify_tables(sigma) -> VerifyReport:
    """Check all five axioms, γ derived from σ, by exhaustive loops.

    ``sigma`` holds m ≥ 1 rows of m integer entries each, all in
    {0,...,m-1}; the rows need not be bijections. Any other table raises
    ValueError, from ``perm.square_table``. For every such table a report
    is returned. The braid relation is checked directly in O(N³), apart
    from the σ-condition search that ``from_sigma`` accepts by."""
    if not sigma:
        raise ValueError("empty sigma table")
    m = len(sigma)
    sigma = pm.square_table(sigma, m, "sigma")
    gamma = derive_gamma(sigma)
    points = range(m)
    pairs = itertools.product(points, repeat=2)
    witnesses = {
        "involutive": next(
            (w for w in pairs if _r(sigma, gamma, *_r(sigma, gamma, *w)) != w), None
        ),
        "left_nondegenerate": next(((x,) for x in points if not pm.is_perm(sigma[x])), None),
        "right_nondegenerate": next(((y,) for y in points if not pm.is_perm(gamma[y])), None),
        "braid_direct": _braid_direct_witness(sigma, gamma),
    }
    failures = {name: w for name, w in witnesses.items() if w is not None}
    if "left_nondegenerate" not in failures:
        witness = _sigma_condition_witness(sigma)
        if witness is not None:
            failures["braid_sigma_condition"] = witness
    elif "braid_direct" in failures:
        # the sigma condition needs σ⁻¹; without left non-degeneracy it
        # takes the direct check's verdict, with no witness of its own
        failures["braid_sigma_condition"] = None
    return VerifyReport(AXIOMS, failures)


def _braid_direct_witness(sigma, gamma):
    """The first (x, y, z) in lex order with r12 r23 r12 ≠ r23 r12 r23."""
    m = len(sigma)
    for x in range(m):
        for y in range(m):
            for z in range(m):
                a, b = _r(sigma, gamma, x, y)
                b2, c = _r(sigma, gamma, b, z)
                a2, b3 = _r(sigma, gamma, a, b2)
                lhs = (a2, b3, c)
                b4, c2 = _r(sigma, gamma, y, z)
                a3, b5 = _r(sigma, gamma, x, b4)
                b6, c3 = _r(sigma, gamma, b5, c2)
                rhs = (a3, b6, c3)
                if lhs != rhs:
                    return x, y, z
    return None


def _sigma_condition_witness(rows):
    """The first (x, y) in lex order with σ_x∘σ_{σ_x⁻¹(y)} ≠
    σ_y∘σ_{σ_y⁻¹(x)} (Rump 2005), or None, for a table of bijections.
    The one σ-condition search: ``from_sigma`` accepts on None, and
    ``verify_tables`` and ``brace.check_lambda_properties`` report it.

    O(N²) steps plus d² compositions and d inversions for d distinct
    rows. The condition is compared on interned ids: row x of the matrix
    below holds the id of σ_x∘σ_{σ_x⁻¹(y)} at column y, and the
    condition says that the matrix is symmetric.
    """
    ids = {}
    row_id = [ids.setdefault(tuple(row), len(ids)) for row in rows]
    products = {}
    condition_rows = []
    for p in ids:
        # ids of p∘σ_j for each distinct row j, then per column y the
        # one with j = id of σ_{p⁻¹(y)}
        by_id = [products.setdefault(pm.compose(p, q), len(products)) for q in ids]
        condition_rows.append(tuple(by_id[row_id[u]] for u in pm.inverse(p)))
    matrix = [condition_rows[i] for i in row_id]
    if matrix == list(zip(*matrix)):
        return None
    pairs = itertools.product(range(len(matrix)), repeat=2)
    return next((x, y) for x, y in pairs if matrix[x][y] != matrix[y][x])


def from_sigma(sigmas) -> Solution:
    """Build a Solution from its σ-table. Accepts when every row is a
    bijection and ``_sigma_condition_witness`` finds no witness.

    Bijective rows make r left non-degenerate and the derived γ makes it
    involutive, so by Rump (2005) r is a solution iff the σ-condition
    holds; with it X is a cycle set, and finite cycle sets are
    non-degenerate, so every γ-row is a bijection with no check of its
    own. On failure raises AxiomError carrying the five-axiom
    VerifyReport of ``verify_tables``, which takes up to N³ steps, so
    above REPORT_BOUND_M it raises SizeCapExceeded instead."""
    m = len(sigmas)
    sigma = []
    for x, row in enumerate(sigmas):
        row = pm.integers(row, f"sigma[{x}]", AxiomError)
        if len(row) != m or not pm.is_perm(row):
            raise AxiomError(
                f"sigma[{x}] = {list(row)} is not a bijection of degree {m}",
                witness=(x,),
            )
        sigma.append(row)
    sigma = tuple(sigma)
    if _sigma_condition_witness(sigma) is not None:
        if m > REPORT_BOUND_M:
            raise SizeCapExceeded(
                f"not a solution; report bound {REPORT_BOUND_M} exceeded (m={m})"
            )
        report = verify_tables(sigma)
        failed = [a for a in AXIOMS if a in report.failures]
        raise AxiomError(
            "not a solution; failed axioms: " + ", ".join(failed),
            report=report,
        )
    return Solution(sigma)


def r_apply(s: Solution, x: int, y: int) -> tuple[int, int]:
    """r(x, y) = (σ_x(y), γ_y(x))."""
    if not (0 <= x < s.m and 0 <= y < s.m):
        raise ValueError(f"index out of range for m={s.m}: ({x}, {y})")
    return s.sigma[x][y], s.gamma[y][x]


def trivial(m: int) -> Solution:
    """r(x, y) = (y, x): every σ_x is the identity."""
    if m < 1:
        raise ValueError("empty set is not allowed")
    return Solution((pm.identity(m),) * m)


def disjoint_union(parts) -> Solution:
    """Concatenate solutions; within a part r is that part's r, across
    parts r(x, y) = (y, x)."""
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one part")
    total = sum(p.m for p in parts)
    sigma = []
    off = 0
    for p in parts:
        head, tail = tuple(range(off)), tuple(range(off + p.m, total))
        sigma.extend(head + tuple(off + v for v in row) + tail for row in p.sigma)
        off += p.m
    return from_sigma(sigma)


def adjoin_fixed_point(s: Solution) -> Solution:
    """Add one point z with σ_z = id; the permutation group is preserved."""
    return disjoint_union([s, trivial(1)])


def permutation_group(s: Solution, cap: int = pm.DEFAULT_CAP) -> GeneratedGroup:
    """The subgroup of Sym_m generated by the distinct σ_x."""
    gens = list(dict.fromkeys(s.sigma))
    return pm.close_group(gens, cap=cap)


def _completes_sigma_condition(rows) -> bool:
    """σ_x∘σ_{σ_x⁻¹(y)} = σ_y∘σ_{σ_y⁻¹(x)} on every pair x < y whose four
    rows are placed (indices ≤ k, the newest row) and include row k: the
    pairs that row k completes. ``rows`` holds the placed (σ_x, σ_x⁻¹)
    pairs. Each pair is checked at exactly one k."""
    k = len(rows) - 1
    for y in range(k + 1):
        for x in range(y):
            u, v = rows[x][1][y], rows[y][1][x]
            if u > k or v > k or k not in (y, u, v):
                continue
            if pm.compose(rows[x][0], rows[u][0]) != pm.compose(rows[y][0], rows[v][0]):
                return False
    return True


def _place(candidates, size, completes, prefix, out) -> None:
    """Depth-first extension of ``prefix`` to ``size`` entries, each new
    entry in ``candidates`` order, so the full tuples reach ``out`` in
    lexicographic order. A branch is dropped as soon as
    ``completes(prefix)`` fails on the newest entry. The one placement
    search: σ-rows for ``enumerate_solutions`` and λ-rows for
    ``brace.find_braces``."""
    if len(prefix) == size:
        out.append(tuple(prefix))
        return
    for c in candidates:
        prefix.append(c)
        if completes(prefix):
            _place(candidates, size, completes, prefix, out)
        prefix.pop()


def enumerate_solutions(m: int) -> list[Solution]:
    """Every solution on m points, in lexicographic order of σ-tables.

    ``_place`` puts down σ-rows, as (σ, σ⁻¹) pairs in ``pm.all_perms``
    order, and drops a branch as soon as the σ-condition fails on a
    pair whose four rows are placed; the last row completes every pair,
    so each full table left is a solution. The tests check it against
    the brute-force scan of all (m!)^m tables.
    """
    if m < 1:
        raise ValueError("empty set is not allowed")
    if m > ENUMERATION_BOUND:
        raise SizeCapExceeded(f"enumeration bound {ENUMERATION_BOUND} exceeded (m={m})")
    pairs = [(p, pm.inverse(p)) for p in pm.all_perms(m)]
    tables = []
    _place(pairs, m, _completes_sigma_condition, [], tables)
    return [Solution(tuple(p for p, _ in rows)) for rows in tables]


def _relabelled(sigma, phi) -> tuple[Perm, ...]:
    """The σ-table carried along the relabeling φ: row φ(x) is
    φ∘σ_x∘φ⁻¹. The one place the relabeling action is written."""
    phi_inv = pm.inverse(phi)
    return tuple(pm.compose(phi, pm.compose(sigma[x], phi_inv)) for x in phi_inv)


def _relabelings(m: int):
    """The m! relabelings in lexicographic order; declined above ISOMORPHISM_CAP_M."""
    if m > ISOMORPHISM_CAP_M:
        raise SizeCapExceeded(f"isomorphism search declined above m={ISOMORPHISM_CAP_M}")
    return itertools.permutations(range(m))


def canonical_form(s: Solution) -> tuple[Perm, ...]:
    """The lexicographically least σ-table among the m! relabelings of
    s: two solutions are isomorphic iff their canonical forms are equal."""
    return min(_relabelled(s.sigma, phi) for phi in _relabelings(s.m))


def solutions_isomorphic(a: Solution, b: Solution):
    """The lexicographically first relabeling φ with
    σ_{φ(x)} = φ∘σ_x∘φ⁻¹ for all x, or None; the tests' oracle for
    ``canonical_form``. Declined above ISOMORPHISM_CAP_M."""
    if a.m != b.m:
        return None
    found = (phi for phi in _relabelings(a.m) if _relabelled(a.sigma, phi) == b.sigma)
    return next(found, None)
