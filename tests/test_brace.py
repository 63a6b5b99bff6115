import dataclasses
import functools
import itertools
import random
import re

import pytest

from ybe import brace as br
from ybe import perm as pm
from ybe import solution as sol
from ybe.errors import AxiomError, SizeCapExceeded


def z_table(k):
    return [[(a + c) % k for c in range(k)] for a in range(k)]


def c2_c4_table():
    """C₂ × C₄ on {0,…,7}, a = 4i + j for (i, j): an additive group that
    ``_abelian_tables`` leaves out, and whose automorphism group (the
    dihedral group of order 8) is not abelian."""
    return tuple(
        tuple(((a >> 2 ^ c >> 2) << 2) | ((a & 3) + (c & 3)) % 4 for c in range(8))
        for a in range(8)
    )


# tables that no brace has as its addition, each with the message and
# witness of the first check that rejects it
MALFORMED_TABLES = [
    ([], "empty brace is not allowed", None),
    ([[0, 1], [1]], "add row 1 has length 1, expected 2", None),
    ([[0, 2], [1, 0]], "add[0] contains out-of-range entry 2", None),
    ([[0, 1], [1, "0"]], "add[1] contains a non-integer entry: [1, '0']", None),
    ([[1, 0], [0, 1]], "add: 0 is not an identity", (0,)),
    ([[0, 1, 2], [1, 2, 2], [2, 2, 0]], "add: not associative", (1, 1, 2)),
    ([[0, 1], [1, 1]], "add: element 1 has no inverse", (1,)),
]


def _scan_braces(k):
    """The oracle of the pruned search: every assignment in
    [id] × Aut(A)^(k−1), in ``itertools.product`` order, that
    ``brace_from_tables`` accepts."""
    found = []
    for add in br._abelian_tables(k):
        auts = br._automorphisms(add)
        for lams in itertools.product([pm.identity(k)], *[auts] * (k - 1)):
            mul = [[add[a][lams[a][c]] for c in range(k)] for a in range(k)]
            try:
                found.append(br.brace_from_tables(add, mul))
            except AxiomError:
                continue
    return found


def swapped_lambda_tables():
    """The λ-table of each brace of order 4 with rows 1 and 2 swapped."""
    for b in br.find_braces(4):
        rows = list(br.lambda_table(b).table)
        rows[1], rows[2] = rows[2], rows[1]
        yield br.LambdaTable(owner=b, table=tuple(rows))


def non_commuting_lambda_table():
    """Rows id, (1 2), (2 3), (1 3) of S₄ over the first brace of order 4:
    no brace, and unlike every brace of order ≤ 6 its rows do not
    commute pairwise, so it tells apart the order of compositions."""
    rows = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (0, 3, 2, 1))
    return br.LambdaTable(owner=br.find_braces(4)[0], table=rows)


def eq_3_1_key(lt, xbar):
    """All that eq. 3.1 reads of x̄: (λ_{x₁}⋯λ_{xₙ}, x₁⋯xₙ), each folded
    left; pairs whose x̄ share it share a verdict for every ȳ."""
    lam_x = functools.reduce(pm.compose, [lt.table[x] for x in xbar])
    return lam_x, functools.reduce(lambda acc, x: lt.owner.mul[acc][x], xbar, 0)


class TestBraceFromTables:
    def test_z2_trivial(self):
        b = br.brace_from_tables(z_table(2), z_table(2))
        assert b.k == 2
        assert b.neg == (0, 1)
        assert b.inv == (0, 1)

    def test_z4_nontrivial(self, brace_z4):
        # multiplicative group is Klein four: every element squares to 0
        for a in range(4):
            assert brace_z4.mul[a][a] == 0

    def test_rejects_table_without_inverses(self):
        mul = [[0, 1], [1, 1]]
        with pytest.raises(AxiomError):
            br.brace_from_tables(z_table(2), mul)

    def test_rejects_brace_property_failure(self):
        # mul is the cyclic group of order 4 relabeled by swapping 1 and 2:
        # a genuine group with identity 0, but a(b+c)+a = ab+ac fails
        relabel = (0, 2, 1, 3)
        mul = [
            [relabel[(relabel[a] + relabel[c]) % 4] for c in range(4)]
            for a in range(4)
        ]
        with pytest.raises(AxiomError) as exc:
            br.brace_from_tables(z_table(4), mul)
        assert "brace property" in str(exc.value)
        assert exc.value.witness is not None

    def test_rejects_malformed_tables(self):
        # trivial_brace(t) is brace_from_tables(t, t) and raises the same
        for table, message, witness in MALFORMED_TABLES:
            pattern = f"^{re.escape(message)}$"
            with pytest.raises(AxiomError, match=pattern) as direct:
                br.brace_from_tables(table, table)
            with pytest.raises(AxiomError, match=pattern) as trivial:
                br.trivial_brace(table)
            assert direct.value.witness == trivial.value.witness == witness

    def test_rejects_non_integer_entries(self):
        # an entry is never truncated to an integer, even a whole float
        for entry in (1.5, 1.0):
            pattern = f"^{re.escape(f'mul[0] contains a non-integer entry: [0, {entry}]')}$"
            with pytest.raises(AxiomError, match=pattern):
                br.brace_from_tables(z_table(2), [[0, entry], [1, 0]])

    def test_rejects_mul_with_wrong_row_count(self):
        with pytest.raises(AxiomError, match="^mul has 1 rows, expected 2$"):
            br.brace_from_tables(z_table(2), [[0, 1]])

    def test_rejects_non_commutative_add(self):
        s3 = pm.close_group([(1, 0, 2), (0, 2, 1)])
        table = [
            [s3.elements.index(pm.compose(a, c)) for c in s3.elements]
            for a in s3.elements
        ]
        with pytest.raises(AxiomError):
            br.brace_from_tables(table, table)


class TestTrivialBrace:
    def test_z3_all_lambda_identity(self):
        b = br.trivial_brace(z_table(3))
        lt = br.lambda_table(b)
        assert all(row == pm.identity(3) for row in lt.table)

    def test_associated_solution_is_trivial(self):
        b = br.trivial_brace(z_table(5))
        s = br.associated_solution(b)
        assert s.sigma == sol.trivial(5).sigma

    def test_brace_property_holds(self):
        b = br.trivial_brace(z_table(4))
        assert br.check_lambda_properties(br.lambda_table(b)).all_ok


class TestLambdaTable:
    def test_z4_lambda_one(self, brace_z4):
        # lambda_1(x) = (1 + x + 2x) - 1 = 3x mod 4
        assert br.lambda_table(brace_z4).table[1] == (0, 3, 2, 1)

    def test_lambda_zero_is_identity(self, brace_z4):
        assert br.lambda_table(brace_z4).table[0] == pm.identity(4)

    def test_rejects_non_bijective_row(self):
        # a Brace built directly is not validated; lambda_table checks its rows
        b = br.Brace(k=2, add=((0, 1), (1, 0)), mul=((0, 1), (0, 0)), neg=(0, 1), inv=(0, 1))
        with pytest.raises(AxiomError, match="^lambda map of element 1 is not a bijection$"):
            br.lambda_table(b)

    def test_all_rows_bijective(self):
        for k in (2, 3, 4):
            for b in br.find_braces(k):
                lt = br.lambda_table(b)
                assert all(pm.is_perm(row) for row in lt.table)


class TestLambdaProperties:
    def test_trivial_z5(self):
        b = br.trivial_brace(z_table(5))
        assert br.check_lambda_properties(br.lambda_table(b)).all_ok

    def test_z4_brace(self, brace_z4):
        report = br.check_lambda_properties(br.lambda_table(brace_z4))
        assert report.all_ok
        assert set(report.properties) == set(br.LAMBDA_PROPERTIES)

    def test_tampered_mul_fails(self, brace_z4):
        # swap two rows of mul: rows stay bijections, identities break
        mul = list(brace_z4.mul)
        mul[1], mul[3] = mul[3], mul[1]
        tampered = dataclasses.replace(brace_z4, mul=tuple(mul))
        try:
            report = br.check_lambda_properties(br.lambda_table(tampered))
        except AxiomError:
            return  # lambda rows degenerated; also an acceptable detection
        assert not report.all_ok
        assert report.failures

    def test_tampered_failures_in_full(self, brace_z4):
        # swapping mul rows 1 and 2 breaks four of the six identities
        mul = list(brace_z4.mul)
        mul[1], mul[2] = mul[2], mul[1]
        tampered = dataclasses.replace(brace_z4, mul=tuple(mul))
        report = br.check_lambda_properties(br.lambda_table(tampered))
        assert report.properties == br.LAMBDA_PROPERTIES
        assert report.failures == {
            "inverse_is_lambda_of_inverse": (1,),
            "additive_automorphism": (1, 0, 0),
            "multiplicative_homomorphism": (1, 0),
            "sigma_condition": (0, 1),
        }


class TestAssociatedSolution:
    def test_trivial_brace_gives_trivial_solution(self):
        b = br.trivial_brace(z_table(3))
        assert br.associated_solution(b).sigma == sol.trivial(3).sigma

    def test_z4_brace_sigma_and_group(self, brace_z4):
        s = br.associated_solution(brace_z4)
        swap13 = (0, 3, 2, 1)
        ident = pm.identity(4)
        assert s.sigma == (ident, swap13, ident, swap13)
        assert sol.permutation_group(s).order == 2

    def test_all_found_braces_verify(self):
        for k in (1, 2, 3, 4):
            for b in br.find_braces(k):
                s = br.associated_solution(b)
                assert sol.verify_tables(s.sigma).all_ok

    def test_group_order_divides_multiplicative_order(self):
        # the permutation group is the image of a homomorphism from (G,.)
        for b in br.find_braces(4):
            s = br.associated_solution(b)
            assert b.k % sol.permutation_group(s).order == 0


class TestEq31:
    def test_trivial_brace(self):
        b = br.trivial_brace(z_table(4))
        assert br.check_eq_3_1(br.lambda_table(b), (1, 2), (3, 0))

    def test_z4_exhaustive_n2(self, brace_z4):
        for xbar in itertools.product(range(4), repeat=2):
            for ybar in itertools.product(range(4), repeat=2):
                assert br.check_eq_3_1(br.lambda_table(brace_z4), xbar, ybar)

    def test_z4_sampled_n3(self, brace_z4):
        rng = random.Random(7)
        for _ in range(100):
            xbar = tuple(rng.randrange(4) for _ in range(3))
            ybar = tuple(rng.randrange(4) for _ in range(3))
            assert br.check_eq_3_1(br.lambda_table(brace_z4), xbar, ybar)

    def test_swapped_lambda_rows_fail_by_frozen_counts(self):
        # λ-rows 1 and 2 swapped: failing pairs of the 256 at n=2, frozen
        # from the check that also compared each h_j with its quotient
        tuples = list(itertools.product(range(4), repeat=2))
        counts = [
            sum(not br.check_eq_3_1(lt, xbar, ybar) for xbar in tuples for ybar in tuples)
            for lt in swapped_lambda_tables()
        ]
        assert counts == [0, 32, 0, 72, 0, 72]

    def test_keyed_count_equals_per_pair_sum(self):
        # the table against the per-pair oracle, on every brace of order
        # ≤ 6 and on the swapped-λ mutants, which are no braces: each x̄,
        # in code order, maps to exactly the ȳ that fail with it, so the
        # exhaustive count, the sum of the set sizes, is the per-pair sum
        braces = [br.lambda_table(b) for k in range(1, 7) for b in br.find_braces(k)]
        mutants = list(swapped_lambda_tables())
        for n in (2, 3):
            for lt in braces + mutants:
                tuples = list(itertools.product(range(lt.owner.k), repeat=n))
                expected = {
                    xbar: {ybar for ybar in tuples if not br.check_eq_3_1(lt, xbar, ybar)}
                    for xbar in tuples
                }
                table = br.eq_3_1_failing_sets(lt, n)
                assert list(table) == tuples
                assert table == expected, (lt.owner.k, n)
        counts = [sum(map(len, br.eq_3_1_failing_sets(lt, 2).values())) for lt in mutants]
        assert counts == [0, 32, 0, 72, 0, 72]

    def test_sampled_count_equals_per_pair_sum(self):
        # the sampled count, one table lookup per pair
        rng = random.Random(3)
        total = 0
        for n in (2, 3):
            for lt in swapped_lambda_tables():
                table = br.eq_3_1_failing_sets(lt, n)
                pairs = [
                    tuple(tuple(rng.randrange(4) for _ in range(n)) for _ in range(2))
                    for _ in range(500)
                ]
                expected = sum(not br.check_eq_3_1(lt, xbar, ybar) for xbar, ybar in pairs)
                assert sum(ybar in table[xbar] for xbar, ybar in pairs) == expected
                total += expected
        assert total > 0

    def test_walk_equals_per_pair_oracle(self):
        # the failing set of the first x̄ of each key, read off one power
        # row per key, against the per-pair check, on every brace of
        # order ≤ 6 and on the swapped-λ and non-commuting mutants, which
        # are no braces; only the last tells apart the order of compositions
        braces = [br.lambda_table(b) for k in range(1, 7) for b in br.find_braces(k)]
        mutants = list(swapped_lambda_tables()) + [non_commuting_lambda_table()]
        for lt in braces + mutants:
            k = lt.owner.k
            for n in (1, 2, 3, 4) if k <= 4 else (1, 2, 3):
                tuples = list(itertools.product(range(k), repeat=n))
                firsts = {}  # key -> the first x̄ with it
                for xbar in tuples:
                    firsts.setdefault(eq_3_1_key(lt, xbar), xbar)
                table = br.eq_3_1_failing_sets(lt, n)
                for xbar in firsts.values():
                    expected = {ybar for ybar in tuples if not br.check_eq_3_1(lt, xbar, ybar)}
                    assert table[xbar] == expected, (k, n, xbar)
        lt = non_commuting_lambda_table()
        counts = [sum(map(len, br.eq_3_1_failing_sets(lt, n).values())) for n in (2, 3)]
        assert counts == [144, 3359]

    def test_length_mismatch(self, brace_z4):
        lt = br.lambda_table(brace_z4)
        with pytest.raises(ValueError):
            br.check_eq_3_1(lt, (0, 1), (0, 1, 2))
        with pytest.raises(ValueError):
            br.check_eq_3_1(lt, (), ())

    def test_out_of_range(self, brace_z4):
        lt = br.lambda_table(brace_z4)
        with pytest.raises(ValueError):
            br.check_eq_3_1(lt, (0, 4), (0, 0))
        with pytest.raises(ValueError):
            br.check_eq_3_1(lt, (0, 0), (0, 4))
        with pytest.raises(ValueError):
            br.check_eq_3_1(lt, (-1, 0), (0, 0))
        with pytest.raises(ValueError):
            br.check_eq_3_1(lt, (0, 0), (0, -1))

    def test_cap(self, brace_z4):
        # the table keys and checks kⁿ tuples: 4⁷ exceeds the default cap
        # of 4096, and 4³ = 64 needs a cap of at least 64
        lt = br.lambda_table(brace_z4)
        with pytest.raises(SizeCapExceeded):
            br.eq_3_1_failing_sets(lt, 7)
        with pytest.raises(SizeCapExceeded):
            br.eq_3_1_failing_sets(lt, 3, cap=63)
        assert sum(map(len, br.eq_3_1_failing_sets(lt, 3, cap=64).values())) == 0

    def test_exponent_below_one(self, brace_z4):
        # power.check_degree declines n < 1 before any tuple is built
        lt = br.lambda_table(brace_z4)
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"^exponent must be at least 1, got {n}$"):
                br.eq_3_1_failing_sets(lt, n)


class TestFindBraces:
    def test_k2_exactly_one(self):
        assert len(br.find_braces(2)) == 1

    def test_k3_all_validate(self):
        found = br.find_braces(3)
        assert found  # at least the trivial brace
        for b in found:
            br.brace_from_tables(b.add, b.mul)  # revalidates, must not raise

    def test_k4_recovers_2ab_brace(self, brace_z4):
        found = br.find_braces(4)
        assert any(b.add == brace_z4.add and b.mul == brace_z4.mul for b in found)

    def test_k4_frozen_count(self):
        # literal-table dedup over the cyclic and Klein additive structures
        assert len(br.find_braces(4)) == 6

    def test_lambda_properties_hold_for_all_found(self, sigma_witness_reference):
        # on all 12 braces of order ≤ 6; on the λ-tables that are no
        # braces, the σ-condition's first witness is the reference's
        for k in range(1, 7):
            for b in br.find_braces(k):
                lt = br.lambda_table(b)
                assert br.check_lambda_properties(lt).all_ok
                assert sigma_witness_reference(lt.table) is None
        mutants = list(swapped_lambda_tables()) + [non_commuting_lambda_table()]
        witnesses = [
            br.check_lambda_properties(lt).failures.get("sigma_condition") for lt in mutants
        ]
        assert witnesses == [sigma_witness_reference(lt.table) for lt in mutants]
        assert witnesses == [None, (1, 2), None, (1, 2), None, (1, 2), (1, 2)]

    def test_sum_and_symmetry_identities(self):
        # a+b = a.lambda_a^{-1}(b) and a.lambda_a^{-1}(b) = b.lambda_b^{-1}(a)
        for b in br.find_braces(4):
            lt = br.lambda_table(b).table
            lt_inv = [pm.inverse(p) for p in lt]
            for x in range(b.k):
                for y in range(b.k):
                    assert b.add[x][y] == b.mul[x][lt_inv[x][y]]
                    assert b.mul[x][lt_inv[x][y]] == b.mul[y][lt_inv[y][x]]

    def test_bound(self):
        with pytest.raises(SizeCapExceeded):
            br.find_braces(7)
        with pytest.raises(ValueError, match="^order must be at least 1$"):
            br.find_braces(0)

    def test_labelled_counts_without_repeats(self):
        # the scan finds no brace twice, so it keeps no dedup set
        counts = []
        for k in range(1, 7):
            found = [(b.add, b.mul) for b in br.find_braces(k)]
            assert len(set(found)) == len(found)
            counts.append(len(found))
        assert counts == [1, 1, 1, 6, 1, 2]

    def test_search_equals_scan(self):
        # the same braces in the same order as the scan of Aut(A)^(k−1)
        for k in range(1, 7):
            assert br.find_braces(k) == _scan_braces(k)

    def test_validates_only_the_braces(self, monkeypatch):
        # the pruning is exact: every survivor is a brace, so
        # brace_from_tables runs once per brace found
        calls = []
        validate = br.brace_from_tables

        def counted(add, mul):
            calls.append(None)
            return validate(add, mul)

        monkeypatch.setattr(br, "brace_from_tables", counted)
        for k in range(1, 7):
            calls.clear()
            found = br.find_braces(k)
            assert len(calls) == len(found)

    def test_each_pair_checked_where_completed(self):
        # the prefix check tests exactly the pairs (x, y) whose last
        # placed element among x, y and x+λ_x(y) is the newest, d
        for k in range(1, 7):
            for add in br._abelian_tables(k):
                auts = br._automorphisms(add)
                comp = [[auts.index(pm.compose(p, q)) for q in auts] for p in auts]
                for d in range(1, k):
                    for lams in itertools.product([0], *[range(len(auts))] * d):
                        lam = [auts[i] for i in lams]
                        cells = [
                            (x, y, add[x][lam[x][y]]) for x in range(d + 1) for y in range(d + 1)
                        ]
                        expected = all(
                            lam[c] == pm.compose(lam[x], lam[y])
                            for x, y, c in cells
                            if c <= d and max(x, y, c) == d
                        )
                        assert br._closes_under_product(add, auts, comp, list(lams)) == expected

    def test_order_8_on_c2_c4(self, monkeypatch):
        # past the bound, on an additive group with a non-abelian Aut,
        # where λ_a∘λ_b and λ_b∘λ_a differ; a scan of all 8⁷ assignments
        # (associativity, then brace_from_tables) kept the same 28 braces
        # in the same order
        add = c2_c4_table()
        monkeypatch.setattr(br, "BRACE_SEARCH_BOUND", 8)
        monkeypatch.setattr(br, "_abelian_tables", lambda k: [add])
        found = br.find_braces(8)
        assert len(found) == 28
        assert len({b.mul for b in found}) == 28
        assert sum(b.mul == add for b in found) == 1   # the trivial brace

    def test_automorphisms_fix_zero_in_order(self):
        # the (k−1)! permutations fixing 0 give the same list, in the
        # same order, as filtering all k! permutations
        for k in range(1, 7):
            for add in br._abelian_tables(k):
                scan = [
                    p
                    for p in itertools.permutations(range(k))
                    if p[0] == 0
                    and all(p[add[a][c]] == add[p[a]][p[c]] for a in range(k) for c in range(k))
                ]
                assert br._automorphisms(add) == scan
                assert scan[0] == pm.identity(k)

    def test_deterministic_order(self):
        a = [(b.add, b.mul) for b in br.find_braces(4)]
        b = [(x.add, x.mul) for x in br.find_braces(4)]
        assert a == b
