"""The power construction: from (X, r) on m points to (Xⁿ, r⁽ⁿ⁾) on mⁿ.

The σ-maps of the power solution are the maps f_x̄ given by a recursion
in h_1, ..., h_n; they coincide with the image of the product
σ_{x₁}⋯σ_{xₙ} under an embedding ψ: Sym_X → Sym_{Xⁿ}. ``_f_row`` runs
the package's one copy of the recursion and ``_products`` builds the
products; the ψ route is an independent code path, cross-checked in
tests and never used to build the table.

Xⁿ is identified with {0,...,mⁿ-1} in one place, ``_codes``: lex order
with x₁ most significant. Every n-tuple passed in is checked by
``check_tuple``, and every exponent by ``check_degree``.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

from . import perm as pm
from . import solution as sol
from .errors import SizeCapExceeded
from .perm import Perm
from .solution import Solution


class IsoCondition(enum.Enum):
    """Predicted reason the power group matches the base group, if any."""

    FIXED_POINT_PRESENT = "FixedPointPresent"
    COPRIME_ORDER = "CoprimeOrder"
    NO_GUARANTEE = "NoGuarantee"


@dataclass(frozen=True)
class PowerSolution:
    result: Solution  # row c is f_x̄ for x̄ the tuple with code c in _codes
    products: tuple[Perm, ...]  # entry c is σ_{x₁}⋯σ_{xₙ} for the same x̄, by _products


def check_degree(m: int, n: int, cap: int) -> None:
    """Raise ValueError when the exponent n is below 1, and
    SizeCapExceeded when the degree mⁿ exceeds ``cap``: the one check of
    an exponent passed in from outside.

    The product stops as soon as it passes the cap, so a huge n is
    declined without building mⁿ. The degree counts as max(m, 2)ⁿ, so
    that a 1-point base also bounds n.
    """
    if n < 1:
        raise ValueError(f"exponent must be at least 1, got {n}")
    size = 1
    for _ in range(n):
        if size > cap:
            break
        size *= max(m, 2)
    if size > cap:
        raise SizeCapExceeded(f"degree {m}^{n} exceeds cap {cap}")


def check_tuple(m: int, tup) -> None:
    """Raise ValueError unless ``tup`` is a nonempty tuple of points of
    {0,...,m-1}, integers or bools: the one check of an n-tuple passed
    in from outside."""
    if not tup:
        raise ValueError("tuples must not be empty")
    for x in pm.integers(tup, "tuple"):
        if not 0 <= x < m:
            raise ValueError(f"tuple entry {x} out of range for m={m}")


def psi_apply(sigma_table, tau: Perm, ybar) -> tuple[int, ...]:
    """Image of ȳ under the embedded permutation for τ.

    First component τ(y₁); component j+1 is
    σ(t_j)⁻¹⋯σ(t_1)⁻¹ τ σ(y₁)⋯σ(y_j) applied to y_{j+1}.
    """
    tau = pm.perm(tau)
    m = len(tau)
    if len(sigma_table) != m:
        raise ValueError(f"tau has degree {m}, expected {len(sigma_table)}")
    check_tuple(m, ybar)
    sigma = [tuple(s) for s in sigma_table]
    t = [tau[ybar[0]]]
    acc_t = sigma[t[0]]  # σ(t_1)∘⋯∘σ(t_j), leftmost acts last
    acc_y = sigma[ybar[0]]  # σ(y_1)∘⋯∘σ(y_j)
    for j in range(1, len(ybar)):
        v = pm.inverse(acc_t)[tau[acc_y[ybar[j]]]]
        t.append(v)
        if j + 1 < len(ybar):
            acc_t = pm.compose(acc_t, sigma[v])
            acc_y = pm.compose(acc_y, sigma[ybar[j]])
    return tuple(t)


def psi_perm(sigma_table, tau: Perm, n: int) -> Perm:
    """The embedded permutation as a Perm of degree mⁿ, under the
    default cap ``perm.DEFAULT_CAP`` on the degree."""
    m = len(tau)
    check_degree(m, n, pm.DEFAULT_CAP)
    codes = _codes(m, n)
    return tuple(codes[psi_apply(sigma_table, tau, ybar)] for ybar in codes)


def _f_tuple(sigma, inv, sig_x, ybar) -> tuple[int, ...]:
    """f_x̄(ȳ) = (h₁,…,hₙ) via the h_j recursion (independent of
    psi_apply), run only by ``_f_row``. ``inv`` holds the inverses of the
    σ-rows and ``sig_x`` the product σ_{x₁}⋯σ_{xₙ}, both built once per
    x̄ by the caller."""
    h = [sig_x[ybar[0]]]
    for j in range(1, len(ybar)):
        # v = σ_{y_1}⋯σ_{y_{j-1}}(y_j), then the x-product, then the
        # inverses σ⁻¹_{h_1} up through σ⁻¹_{h_{j-1}}
        v = ybar[j]
        for i in range(j - 1, -1, -1):
            v = sigma[ybar[i]][v]
        v = sig_x[v]
        for hi in h:
            v = inv[hi][v]
        h.append(v)
    return tuple(h)


def _codes(m: int, n: int) -> dict:
    """Each tuple of Xⁿ to its code: the one identification of Xⁿ with
    {0,...,mⁿ-1}, in lex order with x₁ most significant, so that
    (x₁,...,xₙ) has code Σ x_j · m^(n-j). Its keys are Xⁿ in code order."""
    return {t: c for c, t in enumerate(itertools.product(range(m), repeat=n))}


def _f_row(sigma, inv, sig_x, codes) -> Perm:
    """f_x̄ of degree mⁿ: the h-recursion on each ȳ, encoded by lookup."""
    return tuple(codes[_f_tuple(sigma, inv, sig_x, ybar)] for ybar in codes)


def _products(rows, n: int) -> tuple[Perm, ...]:
    """All mⁿ products rows[x₁]∘⋯∘rows[xₙ], in code order: each is its
    prefix's product composed on the right with one row, as in
    ``perm.close_group``."""
    steps = [pm._right_multiplier(row) for row in rows]
    products = tuple(rows)
    for _ in range(n - 1):
        products = tuple([step(p) for p in products for step in steps])
    return products


def f_map(s: Solution, xbar) -> Perm:
    """The permutation f_x̄ of degree mⁿ, n = len(x̄), from the h_j
    recursion, under the default cap ``perm.DEFAULT_CAP`` on the degree."""
    n = len(xbar)
    check_tuple(s.m, xbar)
    check_degree(s.m, n, pm.DEFAULT_CAP)
    inv = [pm.inverse(p) for p in s.sigma]
    product = functools.reduce(pm.compose, [s.sigma[x] for x in xbar])
    return _f_row(s.sigma, inv, product, _codes(s.m, n))


def power_solution(s: Solution, n: int, cap: int = pm.DEFAULT_CAP) -> PowerSolution:
    """Build (Xⁿ, r⁽ⁿ⁾) with σ-table {f_x̄}, fully verified; x-products by ``_products``."""
    if n < 2:
        raise ValueError("exponent must be at least 2")
    check_degree(s.m, n, cap)
    codes = _codes(s.m, n)
    inv = [pm.inverse(p) for p in s.sigma]
    products = _products(s.sigma, n)
    sigma = tuple(_f_row(s.sigma, inv, p, codes) for p in products)
    return PowerSolution(sol.from_sigma(sigma), products)


def power_perm_group(ps: PowerSolution, cap: int = pm.DEFAULT_CAP):
    """(|A|, |B|, isomorphic): A the permutation group of the power
    solution, B the subgroup of Sym_m generated by all products
    σ_{x₁}⋯σ_{xₙ}, and whether the pairing f_x̄ ↦ σ_{x₁}⋯σ_{xₙ} extends
    to an isomorphism A -> B.

    The pairs (f_x̄, σ_{x₁}⋯σ_{xₙ}) generate a subgroup D of A × B whose
    projections are A and B, so D is the graph of an isomorphism exactly
    when |D| = |A| = |B|; three orders check the paper's claim. Raises
    SizeCapExceeded when an order exceeds ``cap``."""
    deg = ps.result.m
    pairs = dict.fromkeys(zip(ps.result.sigma, ps.products))
    d_order = pm.group_order([f + tuple(deg + v for v in p) for f, p in pairs], cap)
    a_order = pm.group_order((f for f, _ in pairs), cap)
    b_order = pm.group_order((p for _, p in pairs), cap)
    return a_order, b_order, d_order == a_order == b_order


def iso_condition(s: Solution, order: int, n: int) -> IsoCondition:
    """Predict whether the power group must match the base group, from
    the base solution and the order of its permutation group: a fixed
    point is a σ-row equal to the identity."""
    if pm.identity(s.m) in s.sigma:
        return IsoCondition.FIXED_POINT_PRESENT
    if math.gcd(order, n) == 1:
        return IsoCondition.COPRIME_ORDER
    return IsoCondition.NO_GUARANTEE
