import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ybe import perm as pm
from ybe import power as pw
from ybe import solution as sol
from ybe.errors import SizeCapExceeded


def perms(max_degree=6):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
        lambda m: st.permutations(list(range(m))).map(tuple)
    )


class TestBasics:
    def test_identity(self):
        assert pm.identity(3) == (0, 1, 2)

    def test_identity_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            pm.identity(0)

    def test_compose_with_identity(self):
        p = (1, 0)
        assert pm.compose(pm.identity(2), p) == p
        assert pm.compose(p, pm.identity(2)) == p

    def test_identity_self_inverse(self):
        assert pm.inverse(pm.identity(4)) == pm.identity(4)

    def test_involution_squared(self):
        assert pm.compose((1, 0), (1, 0)) == (0, 1)

    def test_three_cycle_squared(self):
        assert pm.compose((1, 2, 0), (1, 2, 0)) == (2, 0, 1)

    def test_compose_inverse_is_identity(self):
        p = (2, 0, 1)
        assert pm.compose(p, pm.inverse(p)) == pm.identity(3)

    def test_inverse_of_cycle(self):
        assert pm.inverse((1, 2, 0)) == (2, 0, 1)

    def test_transposition_self_inverse(self):
        assert pm.inverse((1, 0)) == (1, 0)

    def test_double_inverse(self):
        p = (3, 0, 1, 2)
        assert pm.inverse(pm.inverse(p)) == p

    def test_compose_degree_mismatch(self):
        with pytest.raises(ValueError):
            pm.compose((1, 0), (1, 2, 0))

    def test_perm_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            pm.perm((0, 0, 1))
        with pytest.raises(ValueError, match="^empty image list"):
            pm.perm([])

    @given(perms(), st.data())
    def test_inverse_law(self, p, data):
        q = data.draw(st.permutations(list(range(len(p)))).map(tuple))
        assert pm.compose(p, pm.inverse(p)) == pm.identity(len(p))
        assert pm.inverse(pm.compose(p, q)) == pm.compose(pm.inverse(q), pm.inverse(p))

    @given(perms())
    def test_convention_q_first(self, p):
        # (p∘q)(i) = p(q(i))
        q = pm.inverse(p)
        for i in range(len(p)):
            assert pm.compose(p, q)[i] == p[q[i]]


def pointwise(p, q):
    """p∘q by its definition, one point at a time: the kernel's oracle."""
    return tuple(p[q[i]] for i in range(len(q)))


def pointwise_closure(gens):
    """The group generated by ``gens``, closed under ``pointwise``."""
    ident = pm.identity(len(gens[0]))
    elements, frontier = {ident}, {ident}
    while frontier:
        frontier = {pointwise(e, g) for e in frontier for g in gens} - elements
        elements |= frontier
    return elements


class TestComposeKernel:
    # perms() stops at degree 6; these reach past it, across the 255
    # arguments that once bounded a call, on seeded permutations

    @pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 1000])
    def test_matches_pointwise_definition(self, m):
        rng = random.Random(m)
        for _ in range(10):
            p, q = (tuple(rng.sample(range(m), m)) for _ in range(2))
            want = pointwise(p, q)
            for a, b in itertools.product((p, list(p)), (q, list(q))):
                got = pm.compose(a, b)
                assert type(got) is tuple and got == want

    @pytest.mark.parametrize("p, q", [((0,), (1, 0)), ((1, 0), (1, 2, 0)), ([1, 0], [0])])
    def test_degree_mismatch(self, p, q):
        with pytest.raises(ValueError, match=f"^degree mismatch: {len(p)} vs {len(q)}$"):
            pm.compose(p, q)


class TestNonIntegerImages:
    # an image that is not an integer is rejected by perm() at each entry
    # point, rather than failing as an index inside the composition kernel
    message = r"^image list contains a non-integer entry: \[1\.0, 0\]$"

    def test_perm(self):
        with pytest.raises(ValueError, match=self.message):
            pm.perm((1.0, 0))
        assert pm.perm([True, False]) == (1, 0)

    def test_close_group(self):
        with pytest.raises(ValueError, match=self.message):
            pm.close_group([(1.0, 0)])

    def test_group_order(self):
        with pytest.raises(ValueError, match=self.message):
            pm.group_order([(1.0, 0)])


class TestCloseGroup:
    def test_cyclic_three(self):
        g = pm.close_group([(1, 2, 0)])
        assert g.order == 3

    def test_two_commuting_involutions(self):
        # expected order computed by brute-force closure over Sym_4
        g = pm.close_group([(1, 0, 3, 2), (0, 1, 3, 2)])
        assert g.order == 4

    def test_trivial_group(self):
        g = pm.close_group([pm.identity(5)])
        assert g.order == 1
        assert g.elements == (pm.identity(5),)

    def test_contains_identity_and_generators(self):
        g = pm.close_group([(1, 2, 3, 0)])
        assert pm.identity(4) in g.elements
        assert (1, 2, 3, 0) in g.elements

    def test_lagrange(self):
        for gens in [[(1, 0, 2)], [(1, 2, 0)], [(1, 0, 2), (0, 2, 1)]]:
            g = pm.close_group(gens)
            assert math.factorial(len(g.generators[0])) % g.order == 0

    def test_closure_idempotent(self):
        g = pm.close_group([(1, 2, 0), (1, 0, 2)])
        again = pm.close_group(list(g.elements))
        assert set(again.elements) == set(g.elements)

    def test_closed_under_composition_and_inverse(self):
        g = pm.close_group([(1, 2, 3, 0)])
        for a in g.elements:
            assert pm.inverse(a) in g.elements
            for b in g.elements:
                assert pm.compose(a, b) in g.elements

    def test_associativity_exhaustive_small(self):
        g = pm.close_group([(1, 0, 2), (0, 2, 1)])  # all of Sym_3
        assert g.order == 6
        for a, b, c in itertools.product(g.elements, repeat=3):
            assert pm.compose(pm.compose(a, b), c) == pm.compose(a, pm.compose(b, c))

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            pm.close_group([(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)], cap=5)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            pm.close_group([(1, 0), (1, 2, 0)])

    def test_empty_generators(self):
        with pytest.raises(ValueError):
            pm.close_group([])

    def test_deterministic_order(self):
        a = pm.close_group([(1, 2, 0), (1, 0, 2)])
        b = pm.close_group([(1, 2, 0), (1, 0, 2)])
        assert a.elements == b.elements

    def test_degree_one(self):
        # itemgetter of a single index returns an item, not a tuple
        assert pm.close_group([(0,)]).elements == ((0,),)
        assert pm.perm_order((0,)) == 1

    def test_discovery_order_pinned(self):
        # the group of the first generator from the identity on, then
        # each element listed so far times the second
        g = pm.close_group([(1, 2, 0), (1, 0, 2)])
        assert g.elements == (
            (0, 1, 2),
            (1, 2, 0),
            (2, 0, 1),
            (1, 0, 2),
            (2, 1, 0),
            (0, 2, 1),
        )


@pytest.fixture(scope="module")
def solutions_m4():
    """All 183 labelled solutions on at most four points."""
    return [s for m in (1, 2, 3, 4) for s in sol.enumerate_solutions(m)]


class TestGroupOrder:
    # close_group lists the group; its order is the oracle throughout

    def test_sigma_rows_of_every_small_solution(self, solutions_m4):
        # the 168 solutions on four points among them; both counts share
        # the composition kernel, so the pointwise closure checks it too
        assert len(solutions_m4) == 183
        for s in solutions_m4:
            order = len(pointwise_closure(s.sigma))
            assert pm.group_order(s.sigma) == pm.close_group(s.sigma).order == order, s.sigma

    def test_power_generators(self, solutions_m4):
        # D, A and B of power_perm_group, at degree mⁿ ≤ 64
        for s in solutions_m4:
            for n in (2, 3):
                ps = pw.power_solution(s, n)
                deg = ps.result.m
                pairs = dict.fromkeys(zip(ps.result.sigma, ps.products))
                for gens in (
                    [f + tuple(deg + v for v in p) for f, p in pairs],
                    [f for f, _ in pairs],
                    [p for _, p in pairs],
                ):
                    assert pm.group_order(gens) == pm.close_group(gens).order

    def test_cap_boundary(self):
        for gens in (
            [(1, 0)],
            [(1, 2, 3, 0), (1, 0, 2, 3)],  # Sym_4
            [(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)],
            [(0, 1, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1), (1, 0, 2, 3)],
        ):
            order = pm.close_group(gens).order
            assert pm.group_order(gens, cap=order) == order
            with pytest.raises(SizeCapExceeded) as closure:
                pm.close_group(gens, cap=order - 1)
            with pytest.raises(SizeCapExceeded) as sims:
                pm.group_order(gens, cap=order - 1)
            assert str(sims.value) == str(closure.value)
            assert str(sims.value) == f"group closure exceeded cap of {order - 1} elements"

    def test_cap_below_one(self):
        # every group holds its identity, so both decline a cap below 1
        for cap in (0, -1):
            for count in (pm.close_group, pm.group_order):
                for gens in ([(0,)], [(1, 0)]):
                    message = f"^group closure exceeded cap of {cap} elements$"
                    with pytest.raises(SizeCapExceeded, match=message):
                        count(gens, cap=cap)

    def test_degree_one_and_identity(self):
        assert pm.group_order([(0,)]) == 1
        assert pm.group_order([pm.identity(5), pm.identity(5)]) == 1

    def test_symmetric_group_past_the_closure(self):
        # Sym_12 has 479,001,600 elements, far past what close_group lists
        cycle = tuple(range(1, 12)) + (0,)
        swap = (1, 0) + tuple(range(2, 12))
        assert pm.group_order([cycle, swap], cap=10**9) == math.factorial(12)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            pm.group_order([(1, 0), (1, 2, 0)])

    def test_empty_generators(self):
        with pytest.raises(ValueError):
            pm.group_order([])


def generator_lists():
    """Nonempty lists of up to six permutations of one degree ≤ 6."""
    return perms().flatmap(
        lambda p: st.lists(st.permutations(list(range(len(p)))).map(tuple), max_size=5)
        .map(lambda rest: [p, *rest])
    )


def listed_with_steps(gens):
    """close_group(gens) and the generators it took a step by, one
    ``_right_multiplier`` call each."""
    stepped = []
    real = pm._right_multiplier
    with mock.patch.object(pm, "_right_multiplier", lambda g: stepped.append(g) or real(g)):
        return pm.close_group(gens), stepped


def check_irredundant(gens):
    """close_group's listing against the all-generator closure, and the
    generators it extends the group by against group_order; returns
    those generators."""
    g, stepped = listed_with_steps(gens)
    elements = pointwise_closure(gens)
    assert set(g.elements) == elements and g.order == len(elements)
    assert g.generators == tuple(gens)
    # each element after the identity is an earlier one times a generator
    assert g.elements[0] == pm.identity(len(gens[0]))
    index = {e: i for i, e in enumerate(g.elements)}
    for i, e in enumerate(g.elements[1:], start=1):
        assert any(index[pm.compose(e, pm.inverse(x))] < i for x in gens), e
    # one step per generator outside the group of those before it
    orders = [1] + [pm.group_order(gens[: i + 1]) for i in range(len(gens))]
    assert stepped == [x for i, x in enumerate(gens) if orders[i + 1] > orders[i]]
    assert 2 ** len(stepped) <= g.order == pm.group_order(gens)
    return stepped


class TestIrredundantGenerators:
    # close_group extends the group only by the generators outside the
    # group of those before it, and lists the same group as a walk over all

    @given(generator_lists())
    def test_random_generators(self, gens):
        check_irredundant(gens)

    @pytest.mark.parametrize("degree", [16, 32])
    def test_seeded_unions(self, solutions_m4, degree):
        # the σ-rows of relabelled disjoint unions of small solutions,
        # kept to groups that close_group lists quickly
        rng = random.Random(degree)
        checked = 0
        while checked < 4:
            parts = []
            while sum(s.m for s in parts) < degree:
                room = degree - sum(s.m for s in parts)
                parts.append(rng.choice([s for s in solutions_m4 if s.m <= room]))
            phi = tuple(rng.sample(range(degree), degree))
            rows = sol._relabelled(sol.disjoint_union(parts).sigma, phi)
            try:
                pm.group_order(rows, cap=4096)
            except SizeCapExceeded:
                continue
            check_irredundant(rows)
            checked += 1

    def test_identity_and_repeats(self):
        for gens, stepped in (
            ([pm.identity(5)] * 3, []),
            ([(0,)], []),
            ([(1, 0), (1, 0), (0, 1)], [(1, 0)]),
            # a generator of the group before it is skipped, later ones kept
            ([(1, 2, 0), (2, 0, 1), (1, 0, 2)], [(1, 2, 0), (1, 0, 2)]),
        ):
            assert check_irredundant(gens) == stepped

    def test_o8x4_steps_by_eight_of_sixteen_rows(self):
        o8 = sol.from_sigma([(0, 1, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1), (1, 0, 2, 3)])
        rows = sol.disjoint_union([o8] * 4).sigma
        g, stepped = listed_with_steps(rows)
        assert (len(rows), len(stepped), g.order) == (16, 8, 4096)


def q8_left_regular(a):
    """Left multiplication by a in the quaternion group Q8, with ±1, ±i,
    ±j, ±k numbered 4s + u for the sign (−1)^s and the unit u of 1, i, j, k."""
    units = {(1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
             (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
             (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0)}

    def mul(x, y):
        (sx, ux), (sy, uy) = divmod(x, 4), divmod(y, 4)
        s, u = units.get((ux, uy), (0, ux + uy))  # 1 is the identity unit
        return 4 * (sx ^ sy ^ s) + u

    return tuple(mul(a, x) for x in range(8))


class TestGroupsIsomorphic:
    def test_two_transpositions_on_degree_four(self):
        g = pm.close_group([(1, 0, 2, 3)])
        h = pm.close_group([(0, 1, 3, 2)])
        phi = pm.groups_isomorphic(g, h)
        assert phi is not None
        for a in g.elements:
            for b in g.elements:
                assert phi[pm.compose(a, b)] == pm.compose(phi[a], phi[b])

    def test_cyclic_four_vs_klein(self):
        c4 = pm.close_group([(1, 2, 3, 0)])
        klein = pm.close_group([(1, 0, 2, 3), (0, 1, 3, 2)])
        assert c4.order == klein.order == 4
        assert pm.groups_isomorphic(c4, klein) is None

    def test_same_invariants_not_isomorphic(self):
        # C4×C4 and Q8×C2 share the order 16 and the element orders (one
        # of order 1, three of order 2, twelve of order 4), so only the
        # search over generator images, run to its end, tells them apart
        c4_c4 = pm.close_group([(1, 2, 3, 0, 4, 5, 6, 7), (0, 1, 2, 3, 5, 6, 7, 4)])
        q8_c2 = pm.close_group(
            [q8_left_regular(1) + (8, 9), q8_left_regular(2) + (8, 9), tuple(range(8)) + (9, 8)]
        )
        assert c4_c4.order == q8_c2.order == 16
        assert c4_c4.element_order_multiset() == q8_c2.element_order_multiset()
        assert pm.groups_isomorphic(c4_c4, q8_c2) is None
        assert pm.groups_isomorphic(q8_c2, c4_c4) is None

    def test_injective_non_morphism_rejected(self):
        # S4 from its Coxeter generators (0 1), (1 2), (2 3) into S4 from
        # (0 1 2) and (2 3): the search meets generator images whose
        # extension is injective but not a morphism, and only the
        # morphism check keeps that map from being returned
        g = pm.close_group([(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)])
        h = pm.close_group([(1, 2, 0, 3), (0, 1, 3, 2)])
        phi = pm.groups_isomorphic(g, h)
        assert all(
            phi[pm.compose(a, b)] == pm.compose(phi[a], phi[b])
            for a in g.elements
            for b in g.elements
        )

    def test_trivial_groups(self):
        g = pm.close_group([pm.identity(2)])
        h = pm.close_group([pm.identity(7)])
        assert pm.groups_isomorphic(g, h) is not None

    def test_reflexive_and_symmetric(self):
        groups = [
            pm.close_group([(1, 2, 0)]),
            pm.close_group([(1, 0, 2), (0, 2, 1)]),
            pm.close_group([(1, 2, 3, 0)]),
        ]
        for g in groups:
            assert pm.groups_isomorphic(g, g) is not None
        for g, h in itertools.combinations(groups, 2):
            assert (pm.groups_isomorphic(g, h) is None) == (
                pm.groups_isomorphic(h, g) is None
            )

    def test_isomorphic_groups_share_invariants(self):
        g = pm.close_group([(1, 0, 3, 2)])
        h = pm.close_group([(3, 2, 1, 0)])
        assert pm.groups_isomorphic(g, h) is not None
        assert g.order == h.order
        assert g.element_order_multiset() == h.element_order_multiset()
