import dataclasses
import functools
import itertools
import re

import pytest

from ybe import brace as br
from ybe import perm as pm
from ybe import power as pw
from ybe import solution as sol
from ybe.errors import SizeCapExceeded

from oracles import braid_words, power_solution_n2_direct


class TestPsiApply:
    def test_identity_sigma_gives_diagonal_action(self):
        sigma = (pm.identity(3),) * 3
        tau = (1, 2, 0)
        for ybar in itertools.product(range(3), repeat=2):
            assert pw.psi_apply(sigma, tau, ybar) == tuple(tau[y] for y in ybar)

    def test_identity_tau_fixes_everything(self, corpus):
        for s in corpus:
            tau = pm.identity(s.m)
            for ybar in itertools.product(range(s.m), repeat=2):
                assert pw.psi_apply(s.sigma, tau, ybar) == ybar

    def test_hand_computed_swap_case(self, swap2):
        # t1 = 1, t2 = sigma_1^{-1} tau sigma_0 (0) = 1
        assert pw.psi_apply(swap2.sigma, (1, 0), (0, 0)) == (1, 1)

    def test_out_of_range(self, swap2):
        with pytest.raises(ValueError):
            pw.psi_apply(swap2.sigma, (1, 0), (0, 2))
        with pytest.raises(ValueError):
            pw.psi_apply(swap2.sigma, (1, 0), (0, -1))
        with pytest.raises(ValueError):
            pw.psi_apply(swap2.sigma, (1, 0), ())
        with pytest.raises(ValueError):
            pw.psi_apply(swap2.sigma, (1, 0, 2), (0, 0))

    def test_tau_not_a_permutation(self, swap2):
        with pytest.raises(ValueError):
            pw.psi_apply(swap2.sigma, (1, 1), (0, 0))
        with pytest.raises(ValueError):
            pw.psi_perm(swap2.sigma, (1, 1), 2)

    def test_tau_with_non_integer_images(self, swap2):
        message = r"^image list contains a non-integer entry: \[1\.0, 0\]$"
        with pytest.raises(ValueError, match=message):
            pw.psi_apply(swap2.sigma, (1.0, 0), (0, 0))


class TestPsiInverse:
    # ψ is a homomorphism, so ψ(τ⁻¹) must undo ψ(τ)
    def test_identity_tau(self, swap2):
        for ybar in itertools.product(range(2), repeat=3):
            assert pw.psi_apply(swap2.sigma, pm.identity(2), ybar) == ybar

    def test_round_trip_swap(self, swap2):
        tau = (1, 0)
        for ybar in itertools.product(range(2), repeat=2):
            fwd = pw.psi_apply(swap2.sigma, tau, ybar)
            assert pw.psi_apply(swap2.sigma, pm.inverse(tau), fwd) == ybar

    def test_identity_sigma_componentwise_inverse(self):
        sigma = (pm.identity(3),) * 3
        tau = (1, 2, 0)
        tau_inv = pm.inverse(tau)
        for ybar in itertools.product(range(3), repeat=2):
            assert pw.psi_apply(sigma, tau_inv, ybar) == tuple(
                tau_inv[y] for y in ybar
            )

    def test_round_trip_corpus(self, corpus):
        for s in corpus:
            for n in (2, 3):
                for tau in pm.all_perms(s.m):
                    for ybar in itertools.product(range(s.m), repeat=n):
                        fwd = pw.psi_apply(s.sigma, tau, ybar)
                        assert pw.psi_apply(s.sigma, pm.inverse(tau), fwd) == ybar


class TestPsiPerm:
    def test_identity_tau(self, swap2):
        assert pw.psi_perm(swap2.sigma, pm.identity(2), 3) == pm.identity(8)

    def test_homomorphism_on_swap_group(self, swap2):
        group = sol.permutation_group(swap2)
        for tau, xi in itertools.product(group.elements, repeat=2):
            lhs = pw.psi_perm(swap2.sigma, pm.compose(tau, xi), 2)
            rhs = pm.compose(
                pw.psi_perm(swap2.sigma, tau, 2), pw.psi_perm(swap2.sigma, xi, 2)
            )
            assert lhs == rhs

    def test_injective_over_full_symmetric_group(self, corpus):
        for s in corpus:
            if s.m > 3:
                continue
            images = {pw.psi_perm(s.sigma, tau, 2) for tau in pm.all_perms(s.m)}
            assert len(images) == len(pm.all_perms(s.m))

    def test_cap(self, swap2):
        with pytest.raises(SizeCapExceeded):
            pw.psi_perm(swap2.sigma, (1, 0), 13)

    def test_out_of_range(self, swap2):
        # check_degree declines the exponent before any tuple is built
        for n in (0, -1, -2):
            with pytest.raises(ValueError, match=f"^exponent must be at least 1, got {n}$"):
                pw.psi_perm(swap2.sigma, (1, 0), n)


class TestFMap:
    def test_trivial_base(self):
        s = sol.trivial(3)
        for xbar in itertools.product(range(3), repeat=2):
            assert pw.f_map(s, xbar) == pm.identity(9)

    def test_swap_products_collapse(self, swap2):
        for xbar in itertools.product(range(2), repeat=2):
            assert pw.f_map(swap2, xbar) == pm.identity(4)

    def test_adjoined_matches_psi(self, adjoined3):
        f = pw.f_map(adjoined3, (0, 2))
        tau = pm.compose(adjoined3.sigma[0], adjoined3.sigma[2])
        assert tau == (1, 0, 2)
        assert f == pw.psi_perm(adjoined3.sigma, tau, 2)

    def test_out_of_range(self, swap2):
        with pytest.raises(ValueError):
            pw.f_map(swap2, ())
        with pytest.raises(ValueError):
            pw.f_map(swap2, (0, 2))
        with pytest.raises(ValueError):
            pw.f_map(swap2, (-1, 0))

    def test_non_integer_entry(self, swap2):
        # checked before the entry is compared or used as an index
        for xbar in ((1.0,), (0, "1")):
            message = f"^tuple contains a non-integer entry: {re.escape(str(list(xbar)))}$"
            with pytest.raises(ValueError, match=message):
                pw.check_tuple(2, xbar)
            with pytest.raises(ValueError, match=message):
                pw.f_map(swap2, xbar)
        pw.check_tuple(2, (True, False))

    def test_equals_psi_of_product_everywhere(self, corpus):
        for s in corpus:
            for n in (2, 3):
                for xbar in itertools.product(range(s.m), repeat=n):
                    prod = s.sigma[xbar[0]]
                    for x in xbar[1:]:
                        prod = pm.compose(prod, s.sigma[x])
                    assert pw.f_map(s, xbar) == pw.psi_perm(s.sigma, prod, n)


class TestPowerSolution:
    def test_trivial_base(self):
        ps = pw.power_solution(sol.trivial(2), 3)
        assert ps.result.sigma == sol.trivial(8).sigma

    def test_swap_squared_is_trivial_on_four(self, swap2):
        ps = pw.power_solution(swap2, 2)
        assert ps.result.sigma == sol.trivial(4).sigma

    def test_adjoined_nine_points(self, adjoined3):
        ps = pw.power_solution(adjoined3, 2)
        assert ps.result.m == 9
        assert sol.verify_tables(ps.result.sigma).all_ok
        assert sol.permutation_group(ps.result).order == 2

    def test_rejects_n1(self, swap2):
        with pytest.raises(ValueError):
            pw.power_solution(swap2, 1)

    def test_cap(self, swap2):
        with pytest.raises(SizeCapExceeded):
            pw.power_solution(swap2, 13)

    def test_full_verify_over_corpus(self, corpus):
        for s in corpus:
            for n in (2, 3):
                ps = pw.power_solution(s, n)
                assert sol.verify_tables(ps.result.sigma).all_ok

    def test_rows_are_psi_of_products(self, corpus):
        # each row against the ψ route, and each stored product against
        # the product of the c-th tuple x̄, not the loop that built them
        for s in corpus:
            for n in (2, 3):
                ps = pw.power_solution(s, n)
                pairs = _pairs(ps, s, n)
                assert [p for _, p in pairs] == list(ps.products)
                for f, p in pairs:
                    assert f == pw.psi_perm(s.sigma, p, n)

    def test_build_does_not_run_verify_tables(self, corpus, monkeypatch):
        # from_sigma accepts by its O(N²) gate; the O(N³) five-axiom
        # check runs only to report a rejection
        calls = []
        real = sol.verify_tables
        monkeypatch.setattr(
            sol, "verify_tables", lambda *a: calls.append(a) or real(*a)
        )
        for s in corpus:
            for n in (2, 3):
                pw.power_solution(s, n)
        assert calls == []


class TestProducts:
    def test_code_order(self, corpus):
        # entry c is the left compose fold over the c-th tuple of _codes,
        # on every m ≤ 3 σ-table and on the λ- and mul-tables of the 12
        # braces of order ≤ 6 (degree 1 included, where the right
        # multiplier is ``tuple``)
        braces = [b for k in range(1, 7) for b in br.find_braces(k)]
        tables = [s.sigma for s in corpus]
        tables += [t for b in braces for t in (br.lambda_table(b).table, b.mul)]
        assert len(braces) == 12 and any(len(t) == 1 for t in tables)
        for rows in tables:
            for n in (1, 2, 3):
                expected = [
                    functools.reduce(pm.compose, [rows[x] for x in xbar])
                    for xbar in pw._codes(len(rows), n)
                ]
                assert list(pw._products(rows, n)) == expected, (rows, n)


class TestN2Direct:
    def test_trivial(self):
        s = sol.trivial(3)
        assert power_solution_n2_direct(s, 0, 1, 2, 1) == (2, 1)

    def test_swap(self, swap2):
        for x1, x2, y1, y2 in itertools.product(range(2), repeat=4):
            assert power_solution_n2_direct(swap2, x1, x2, y1, y2) == (y1, y2)

    def test_agrees_with_f_map(self, corpus):
        # (y₁, y₂) has code y₁·m + y₂: lex order, y₁ most significant
        for s in corpus:
            for x1, x2 in itertools.product(range(s.m), repeat=2):
                f = pw.f_map(s, (x1, x2))
                for y1, y2 in itertools.product(range(s.m), repeat=2):
                    z1, z2 = power_solution_n2_direct(s, x1, x2, y1, y2)
                    assert z1 * s.m + z2 == f[y1 * s.m + y2]

    def test_out_of_range(self, swap2):
        with pytest.raises(ValueError):
            power_solution_n2_direct(swap2, 0, 0, 0, 2)
        with pytest.raises(ValueError):
            power_solution_n2_direct(swap2, 0, -1, 0, 0)


class TestBraidedWords:
    def test_braid_by_hand(self, swap2):
        # on the swap solution r(x, y) = (1 − y, 1 − x): four moves flip
        # every letter twice and exchange the words
        assert braid_words(swap2, (0, 0), (0, 1)) == ((0, 1), (0, 0))
        assert braid_words(sol.trivial(3), (0, 1), (2, 1)) == ((2, 1), (0, 1))

    def test_power_is_the_braiding_of_words(self, corpus):
        # r⁽ⁿ⁾(x̄, ȳ), σ-part and derived γ-part, is x̄ braided past ȳ by
        # n² moves of r: every m ≤ 3 solution at n = 2, 3, every m = 4
        # solution at n = 2, and at n = 3 the m = 4 solutions whose σ-rows
        # do not commute, the first to tell apart the order in which the
        # h-recursion applies σ⁻¹_{h₁}, σ⁻¹_{h₂}
        four = sol.enumerate_solutions(4)
        cases = [(s, n) for s in corpus for n in (2, 3)] + [(s, 2) for s in four]
        cases += [
            (s, 3)
            for s in four
            if any(pm.compose(a, b) != pm.compose(b, a) for a in s.sigma for b in s.sigma)
        ]
        for s, n in cases:
            ps = pw.power_solution(s, n).result
            codes = {t: c for c, t in enumerate(itertools.product(range(s.m), repeat=n))}
            for (xbar, cx), (ybar, cy) in itertools.product(codes.items(), repeat=2):
                u, v = braid_words(s, xbar, ybar)
                assert sol.r_apply(ps, cx, cy) == (codes[u], codes[v]), (s.sigma, xbar, ybar)

    def test_powers_compose(self, corpus):
        # (Xᵃ)ᵇ = X^{ab} as σ-tables: a b-tuple of codes of a-tuples has
        # the code of their concatenation, both lex with the first most
        # significant
        cases = [(s, 2, 2) for s in corpus]
        cases += [(s, a, b) for s in corpus if s.m <= 2 for a, b in ((2, 3), (3, 2))]
        for s, a, b in cases:
            nested = pw.power_solution(pw.power_solution(s, a).result, b).result
            assert nested.sigma == pw.power_solution(s, a * b).result.sigma, (s.sigma, a, b)
        assert len(cases) == 21


class TestPowerPermGroup:
    def test_swap_n2(self, swap2):
        a_order, b_order, iso = pw.power_perm_group(pw.power_solution(swap2, 2))
        assert a_order == 1 and b_order == 1
        assert iso

    def test_swap_n3(self, swap2):
        a_order, b_order, iso = pw.power_perm_group(pw.power_solution(swap2, 3))
        assert a_order == 2 and b_order == 2
        assert iso

    def test_adjoined_n2(self, adjoined3):
        a_order, b_order, iso = pw.power_perm_group(pw.power_solution(adjoined3, 2))
        assert a_order == 2 and b_order == 2
        assert iso

    def test_cap_on_every_order(self, adjoined3):
        # raises iff the largest of |D|, |A|, |B| exceeds the cap. O8 at
        # n=3: all three are 8. A mismatched pairing: |A| = |B| = 2, |D| = 4
        o8 = sol.from_sigma([(0, 1, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1), (1, 0, 2, 3)])
        other = sol.from_sigma([(0, 1, 2), (0, 2, 1), (0, 2, 1)])
        mixed = _paired_with(pw.power_solution(adjoined3, 2), other, 2)
        for ps, largest, orders in (
            (pw.power_solution(o8, 3), 8, (8, 8, True)),
            (mixed, 4, (2, 2, False)),
        ):
            message = f"^group closure exceeded cap of {largest - 1} elements$"
            with pytest.raises(SizeCapExceeded, match=message):
                pw.power_perm_group(ps, cap=largest - 1)
            assert pw.power_perm_group(ps, cap=largest) == orders

    def test_always_isomorphic_over_corpus(self, corpus):
        # the orders are those of A and B closed on their own; the
        # pairing f_x̄ -> σ_{x₁}⋯σ_{xₙ} extends to an isomorphism φ: A -> B,
        # and the general search agrees that A and B are isomorphic
        for s in corpus:
            for n in (2, 3):
                ps = pw.power_solution(s, n)
                a, b = _oracle_groups(ps)
                a_order, b_order, iso = pw.power_perm_group(ps)
                assert (a_order, b_order) == (a.order, b.order)
                assert iso
                phi = _pairing_phi(ps, s, n)
                assert _is_isomorphism(a, b, phi)
                assert all(phi[f] == p for f, p in _pairs(ps, s, n))
                assert pm.groups_isomorphic(a, b) is not None

    def test_makes_no_isomorphism_search(self, corpus, monkeypatch):
        calls = []
        real = pm.groups_isomorphic
        monkeypatch.setattr(
            pm, "groups_isomorphic", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        for s in corpus:
            for n in (2, 3):
                pw.power_perm_group(pw.power_solution(s, n))
        assert calls == []

    def test_mismatched_pairing_matches_brute_force(self, corpus, adjoined3):
        # the power solution of one base paired with the products of
        # another: the orders must be those of A and B closed on their
        # own, and the answer whether the pairing extends to an
        # isomorphism (brute force over all bijections A -> B)
        other = sol.from_sigma([(0, 1, 2), (0, 2, 1), (0, 2, 1)])
        ps = pw.power_solution(adjoined3, 2)
        a_order, b_order, iso = pw.power_perm_group(_paired_with(ps, other, 2))
        assert a_order == b_order == 2
        assert not iso
        noes = {True: 0, False: 0}
        for s, t in itertools.permutations(corpus, 2):
            if s.m != t.m:
                continue
            for n in (2, 3):
                mixed = _paired_with(pw.power_solution(s, n), t, n)
                a, b = _oracle_groups(mixed)
                a_order, b_order, iso = pw.power_perm_group(mixed)
                assert (a_order, b_order) == (a.order, b.order)
                pairs = _pairs(mixed, t, n)
                assert iso == _pairing_extends(a, b, pairs)
                if iso:
                    phi = _pairing_phi(mixed, t, n)
                    assert _is_isomorphism(a, b, phi)
                    assert all(phi[f] == p for f, p in pairs)
                else:
                    noes[a.order == b.order] += 1
        assert noes[True] and noes[False]


def _paired_with(ps, other, n):
    """ps, the power solution at n, with the x-products of ``other``."""
    return dataclasses.replace(ps, products=pw.power_solution(other, n).products)


def _oracle_groups(ps):
    """A and B, each closed on its own: the group of the power solution
    and the group of the x-products."""
    return sol.permutation_group(ps.result), pm.close_group(dict.fromkeys(ps.products))


def _pairs(ps, base, n):
    """(f_x̄, σ_{x₁}⋯σ_{xₙ}) for every n-tuple x̄, with the products of
    ``base``; row c is f_x̄ for the c-th tuple x̄ in lex order."""
    out = []
    xbars = itertools.product(range(base.m), repeat=n)
    for f, xbar in zip(ps.result.sigma, xbars, strict=True):
        prod = base.sigma[xbar[0]]
        for x in xbar[1:]:
            prod = pm.compose(prod, base.sigma[x])
        out.append((f, prod))
    return out


def _pairing_phi(ps, base, n):
    """The pairing f_x̄ -> σ_{x₁}⋯σ_{xₙ} of ``_pairs(ps, base, n)``
    extended over A: close the pairs as permutations of the disjoint
    union of Xⁿ and X, and read each element of the closure as a -> b.
    When the closure is not the graph of a function, a later entry
    overwrites an earlier one."""
    deg = ps.result.m
    d = pm.close_group([f + tuple(deg + v for v in p) for f, p in _pairs(ps, base, n)])
    return {e[:deg]: tuple(v - deg for v in e[deg:]) for e in d.elements}


def _is_isomorphism(a, b, phi) -> bool:
    """phi is a bijection A -> B with φ(xy) = φ(x)φ(y) on all of A × A."""
    return (
        set(phi) == set(a.elements)
        and sorted(phi.values()) == sorted(b.elements)
        and all(
            phi[pm.compose(x, y)] == pm.compose(phi[x], phi[y])
            for x, y in itertools.product(a.elements, repeat=2)
        )
    )


def _pairing_extends(a, b, pairs) -> bool:
    """Some isomorphism A -> B sends every f_x̄ to its product."""
    if a.order != b.order:
        return False
    for images in itertools.permutations(b.elements):
        phi = dict(zip(a.elements, images))
        if all(phi[f] == p for f, p in pairs) and _is_isomorphism(a, b, phi):
            return True
    return False


class TestIsoCondition:
    def test_fixed_point(self, adjoined3):
        base = sol.permutation_group(adjoined3)
        for n in (2, 3, 4):
            assert (
                pw.iso_condition(adjoined3, base.order, n)
                is pw.IsoCondition.FIXED_POINT_PRESENT
            )

    def test_coprime(self, swap2):
        base = sol.permutation_group(swap2)
        assert pw.iso_condition(swap2, base.order, 3) is pw.IsoCondition.COPRIME_ORDER

    def test_no_guarantee_and_witness(self, swap2):
        base = sol.permutation_group(swap2)
        assert pw.iso_condition(swap2, base.order, 2) is pw.IsoCondition.NO_GUARANTEE
        a_order, _, _ = pw.power_perm_group(pw.power_solution(swap2, 2))
        assert a_order == 1
        assert base.order == 2

    def test_guarantee_implies_base_isomorphism(self, corpus):
        for s in corpus:
            base = sol.permutation_group(s)
            for n in (2, 3):
                if pw.iso_condition(s, base.order, n) is pw.IsoCondition.NO_GUARANTEE:
                    continue
                ps = pw.power_solution(s, n)
                _, b = _oracle_groups(ps)
                assert pw.power_perm_group(ps)[1] == b.order
                assert pm.groups_isomorphic(b, base) is not None
