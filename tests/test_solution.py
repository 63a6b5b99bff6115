import dataclasses
import gc
import itertools
import re

import pytest

from ybe import files
from ybe import perm as pm
from ybe import power as pw
from ybe import solution as sol
from ybe.cli import main
from ybe.errors import AxiomError, SizeCapExceeded


class TestFromSigma:
    def test_trivial_on_two_points(self):
        s = sol.from_sigma([(0, 1), (0, 1)])
        assert s.m == 2
        assert sol.r_apply(s, 0, 1) == (1, 0)

    def test_swap_solution_gamma(self):
        s = sol.from_sigma([(1, 0), (1, 0)])
        # gamma_y(x) = sigma_{sigma_x(y)}^{-1}(x) = (0 1)(x) here
        assert s.gamma == ((1, 0), (1, 0))

    def test_sigma_condition_rejection(self):
        with pytest.raises(AxiomError) as exc:
            sol.from_sigma([(0, 1), (1, 0)])
        report = exc.value.report
        assert report is not None
        assert "braid_direct" in report.failures
        assert "braid_sigma_condition" in report.failures
        assert report.failures.get("braid_sigma_condition") == (0, 1)

    def test_rejection_carries_the_verify_tables_report(self):
        # from_sigma accepts by its O(N²) gate; a rejected table still
        # gets the five-axiom report, so error output does not change
        rejected = 0
        for m in (1, 2, 3):
            for table in itertools.product(pm.all_perms(m), repeat=m):
                report = sol.verify_tables(table)
                if report.all_ok:
                    assert sol.from_sigma(table).sigma == table
                    continue
                with pytest.raises(AxiomError) as exc:
                    sol.from_sigma(table)
                assert exc.value.report == report
                rejected += 1
        assert rejected == (4 - 2) + (216 - 12)

    def test_report_bound(self, monkeypatch):
        # past the bound a rejection is declined, not reported: the
        # report costs up to m³ steps; an accepted table is unaffected
        monkeypatch.setattr(sol, "REPORT_BOUND_M", 3)
        bad = [(0, 1, 2), (0, 1, 2), (0, 2, 1)]
        with pytest.raises(AxiomError):
            sol.from_sigma(bad)
        with pytest.raises(SizeCapExceeded):
            sol.from_sigma([row + (3,) for row in bad] + [(0, 1, 3, 2)])
        assert sol.from_sigma([(1, 0, 2, 3)] * 4).m == 4

    def test_non_bijective_row_rejected(self):
        with pytest.raises(AxiomError):
            sol.from_sigma([(0, 0), (0, 1)])

    def test_non_integer_entries(self):
        # bools are frozen into ints, so the table emits and parses back;
        # a float or string entry is an axiom error, not a TypeError
        s = sol.from_sigma([[1, 0], [True, False]])
        assert s.sigma == ((1, 0), (1, 0)) and type(s.sigma[1][0]) is int
        assert files.parse_solution(files.emit_solution(s)) == s
        for row, shown in (((1.0, 0), "[1.0, 0]"), ([0, "1"], "[0, '1']")):
            message = f"sigma[1] contains a non-integer entry: {shown}"
            with pytest.raises(AxiomError, match=f"^{re.escape(message)}$"):
                sol.from_sigma([(1, 0), row])

    def test_empty_rejected(self):
        # an empty table passes the gate and the Solution constructor raises
        with pytest.raises(ValueError, match="^empty set is not allowed$"):
            sol.from_sigma([])


def union_by_offsets(parts):
    """The σ-table of the disjoint union by an offsets pass and then an
    identity row patched entry by entry: the reference for
    ``disjoint_union``'s one-pass rows."""
    offsets = []
    total = 0
    for p in parts:
        offsets.append(total)
        total += p.m
    sigma = []
    for p, off in zip(parts, offsets):
        for row in p.sigma:
            full = list(range(total))
            for j, img in enumerate(row):
                full[off + j] = off + img
            sigma.append(tuple(full))
    return tuple(sigma)


class TestSigmaOnly:
    def test_empty_solution_rejected(self):
        with pytest.raises(ValueError, match="^empty set is not allowed$"):
            sol.Solution(())

    def test_sigma_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(sol.Solution)] == ["sigma"]

    def test_m_and_gamma_are_derived(self):
        for m in (1, 2, 3, 4):
            for s in sol.enumerate_solutions(m):
                assert s.m == len(s.sigma) == m
                assert s.gamma == sol.derive_gamma(s.sigma)

    def test_accept_paths_run_neither_gamma_nor_verify_tables(
        self, corpus, monkeypatch, tmp_path, capsys
    ):
        # acceptance has one path, the σ-condition gate; γ is derived
        # only when read, and verify_tables only reports a rejection
        calls = []
        for name in ("derive_gamma", "verify_tables"):
            real = getattr(sol, name)
            monkeypatch.setattr(
                sol, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
            )
        for s in corpus:
            sol.from_sigma(s.sigma)
            for n in (2, 3):
                pw.power_solution(s, n)
        for m in (1, 2, 3, 4):
            sol.enumerate_solutions(m)
        valid = tmp_path / "valid.txt"
        valid.write_text("3\n1 0 2\n1 0 2\n0 1 2\n")
        assert main(["verify", str(valid)]) == 0
        assert capsys.readouterr().out.count(": pass\n") == 5
        assert calls == []


class TestVerify:
    def test_trivial_all_flags(self):
        for m in (1, 2, 4):
            s = sol.trivial(m)
            report = sol.verify_tables(s.sigma)
            assert report.all_ok

    def test_swap_all_flags(self):
        sigma = ((1, 0), (1, 0))
        report = sol.verify_tables(sigma)
        assert report.all_ok

    def test_braid_failure_flags(self):
        sigma = ((0, 1), (1, 0))
        report = sol.verify_tables(sigma)
        assert "involutive" not in report.failures
        assert "left_nondegenerate" not in report.failures
        # derived gamma_0 = (0, 0) here, so the right action degenerates too
        assert "right_nondegenerate" in report.failures
        assert "braid_direct" in report.failures
        assert "braid_sigma_condition" in report.failures
        # rows may be any sequences, not only tuples
        assert sol.verify_tables([list(row) for row in sigma]) == report

    def test_report_always_produced(self):
        sigma = ((1, 2, 0), (0, 1, 2), (0, 1, 2))
        report = sol.verify_tables(sigma)
        assert not report.all_ok
        assert report.failures

    def test_empty_table_raises(self):
        with pytest.raises(ValueError):
            sol.verify_tables([])

    def test_row_of_wrong_length_raises(self):
        with pytest.raises(ValueError, match=r"^sigma row 0 has length 2, expected 1$"):
            sol.verify_tables([(0, 1)])
        with pytest.raises(ValueError, match=r"^sigma row 1 has length 1, expected 2$"):
            sol.verify_tables([(0, 1), (0,)])

    def test_non_integer_entry_raises(self):
        message = "sigma[0] contains a non-integer entry: [1.0, 0.0]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as e:
            sol.verify_tables([(1.0, 0.0), (1, 0)])
        assert not isinstance(e.value, AxiomError)
        assert sol.verify_tables([(True, False), (1, 0)]).all_ok

    def test_entry_out_of_range_raises(self):
        with pytest.raises(ValueError, match=r"^sigma\[0\] contains out-of-range entry 5$"):
            sol.verify_tables([(5, 0), (0, 1)])
        with pytest.raises(ValueError, match=r"^sigma\[1\] contains out-of-range entry -1$"):
            sol.verify_tables([(0, 1), (-1, 0)])


class TestAcceptanceGate:
    def test_agrees_with_verify_tables_on_transposition_mutants(
        self, corpus, sigma_witness_reference
    ):
        # every table one transposition in one row away from a solution:
        # the n=2 powers of the corpus and all 168 solutions on 4 points;
        # the first witness also against the per-pair reference
        solutions = [pw.power_solution(s, 2).result for s in corpus]
        solutions += sol.enumerate_solutions(4)
        assert len(solutions) == 15 + 168
        verdicts = {True: 0, False: 0}
        for s in solutions:
            for x, row in enumerate(s.sigma):
                for i, j in itertools.combinations(range(s.m), 2):
                    mutant = list(row)
                    mutant[i], mutant[j] = row[j], row[i]
                    table = s.sigma[:x] + (tuple(mutant),) + s.sigma[x + 1:]
                    ok = sol.verify_tables(table).all_ok
                    witness = sol._sigma_condition_witness(table)
                    assert (witness is None) == ok, table
                    assert witness == sigma_witness_reference(table), table
                    verdicts[ok] += 1
        assert verdicts[True] and verdicts[False]


class TestRApply:
    def test_trivial(self):
        s = sol.trivial(2)
        assert sol.r_apply(s, 0, 1) == (1, 0)

    def test_swap_diagonal(self):
        s = sol.from_sigma([(1, 0), (1, 0)])
        assert sol.r_apply(s, 0, 0) == (1, 1)

    def test_involutive_everywhere(self, corpus):
        for s in corpus:
            for x in range(s.m):
                for y in range(s.m):
                    u, v = sol.r_apply(s, x, y)
                    assert sol.r_apply(s, u, v) == (x, y)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sol.r_apply(sol.trivial(2), 0, 2)


class TestConstructions:
    def test_trivial_sizes(self):
        assert sol.trivial(1).m == 1
        s = sol.trivial(3)
        assert s.sigma == (pm.identity(3),) * 3
        assert sol.permutation_group(s).order == 1

    def test_trivial_rejects_zero(self):
        with pytest.raises(ValueError):
            sol.trivial(0)

    def test_union_of_trivials(self):
        u = sol.disjoint_union([sol.trivial(1), sol.trivial(1)])
        assert u.sigma == sol.trivial(2).sigma

    def test_union_swap_with_point(self, swap2):
        u = sol.disjoint_union([swap2, sol.trivial(1)])
        assert u.sigma == ((1, 0, 2), (1, 0, 2), (0, 1, 2))

    def test_union_group_order_product(self, swap2):
        u = sol.disjoint_union([swap2, swap2])
        assert sol.permutation_group(u).order == 4

    def test_union_across_parts_swaps(self, swap2):
        u = sol.disjoint_union([swap2, sol.trivial(2)])
        for x in range(2):
            for y in range(2, 4):
                assert sol.r_apply(u, x, y) == (y, x)
                assert sol.r_apply(u, y, x) == (x, y)

    def test_union_equals_offsets_construction(self, corpus):
        for a, b in itertools.product(corpus, repeat=2):
            assert sol.disjoint_union([a, b]).sigma == union_by_offsets([a, b])

    def test_union_of_nothing_rejected(self):
        with pytest.raises(ValueError, match="^need at least one part$"):
            sol.disjoint_union([])

    def test_adjoin_fixed_point_trivial(self):
        s = sol.adjoin_fixed_point(sol.trivial(2))
        assert s.sigma == sol.trivial(3).sigma

    def test_adjoin_fixed_point_swap(self, swap2, adjoined3):
        assert adjoined3.sigma[2] == pm.identity(3)
        g = sol.permutation_group(adjoined3)
        assert g.order == 2
        phi = pm.groups_isomorphic(g, sol.permutation_group(swap2))
        assert phi is not None


class TestPermutationGroup:
    def test_trivial(self):
        assert sol.permutation_group(sol.trivial(4)).order == 1

    def test_swap(self, swap2):
        assert sol.permutation_group(swap2).order == 2

    def test_brace_derived_four_point(self):
        s = sol.from_sigma([(0, 1, 2, 3), (0, 3, 2, 1), (0, 1, 2, 3), (0, 3, 2, 1)])
        assert sol.permutation_group(s).order == 2


class TestEnumerate:
    def test_m1(self):
        assert len(sol.enumerate_solutions(1)) == 1

    def test_m2_exactly_trivial_and_swap(self):
        found = sol.enumerate_solutions(2)
        tables = [s.sigma for s in found]
        assert tables == [((0, 1), (0, 1)), ((1, 0), (1, 0))]

    def test_m3_frozen_count(self):
        # frozen from the exhaustive oracle scan of all 6^3 = 216 tables
        assert len(sol.enumerate_solutions(3)) == 12

    def test_all_enumerated_verify(self, corpus):
        for s in corpus:
            assert sol.verify_tables(s.sigma).all_ok

    def test_lexicographic_order(self):
        found = sol.enumerate_solutions(3)
        tables = [s.sigma for s in found]
        assert tables == sorted(tables)

    def test_bound(self):
        with pytest.raises(SizeCapExceeded):
            sol.enumerate_solutions(5)
        with pytest.raises(ValueError, match="^empty set is not allowed$"):
            sol.enumerate_solutions(0)

    def test_leaves_no_cyclic_garbage(self):
        # a reference cycle would keep every found Solution alive until
        # the next full collection
        gc.collect()
        gc.disable()
        try:
            sol.enumerate_solutions(3)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPlace:
    def test_accepting_predicate_gives_every_extension_in_order(self):
        candidates = "abc"
        for prefix in ([], ["b"], ["a", "c"], ["c", "a", "b"]):
            given = list(prefix)
            out = []
            sol._place(candidates, 3, lambda placed: True, given, out)
            rest = itertools.product(candidates, repeat=3 - len(prefix))
            assert out == [tuple(prefix) + t for t in rest]
            assert given == prefix

    def test_rejected_prefix_prunes_its_subtree(self):
        # a prefix whose newest entry is 1 is dropped, so none of its
        # extensions is offered to the predicate or reaches out
        offered = []

        def completes(placed):
            offered.append(tuple(placed))
            return placed[-1] != 1

        out = []
        sol._place(range(3), 3, completes, [], out)
        assert out == [t for t in itertools.product(range(3), repeat=3) if 1 not in t]
        assert all(1 not in placed[:-1] for placed in offered)
        assert len(offered) == 3 + 2 * 3 + 4 * 3

    def test_each_sigma_pair_checked_where_completed(self):
        # the σ predicate tests exactly the pairs x < y whose last placed
        # row among x, y, σ_x⁻¹(y) and σ_y⁻¹(x) is the newest, k
        for m in range(1, 4):
            perms = pm.all_perms(m)
            for k in range(m):
                for rows in itertools.product(perms, repeat=k + 1):
                    inverses = [pm.inverse(p) for p in rows]
                    expected = all(
                        pm.compose(rows[x], rows[u]) == pm.compose(rows[y], rows[v])
                        for y in range(k + 1)
                        for x in range(y)
                        for u, v in [(inverses[x][y], inverses[y][x])]
                        if max(y, u, v) == k
                    )
                    placed = list(zip(rows, inverses))
                    assert sol._completes_sigma_condition(placed) == expected


class TestSolutionsIsomorphic:
    def test_trivial_vs_swap(self, swap2):
        assert sol.solutions_isomorphic(sol.trivial(2), swap2) is None

    def test_relabeled_swap(self, swap2):
        assert sol.solutions_isomorphic(swap2, swap2) is not None

    def test_self_isomorphic(self, corpus):
        for s in corpus:
            assert sol.solutions_isomorphic(s, s) is not None

    def test_different_sizes(self, swap2):
        assert sol.solutions_isomorphic(swap2, sol.trivial(3)) is None

    def test_m3_classes_frozen(self):
        # 12 labeled solutions fall into 5 classes (oracle-derived fixture)
        found = sol.enumerate_solutions(3)
        classes = []
        for s in found:
            if not any(sol.solutions_isomorphic(s, r) is not None for r in classes):
                classes.append(s)
        assert len(classes) == 5

    def test_cap(self, swap2):
        big = sol.trivial(9)
        with pytest.raises(SizeCapExceeded):
            sol.solutions_isomorphic(big, big)

    def test_conjugation_property(self):
        found = sol.enumerate_solutions(3)
        a, b = found[1], found[2]
        phi = sol.solutions_isomorphic(a, b)
        if phi is not None:
            inv = pm.inverse(phi)
            for x in range(3):
                assert b.sigma[phi[x]] == pm.compose(phi, pm.compose(a.sigma[x], inv))


class TestCanonicalForm:
    @staticmethod
    def _pairwise_classes(found):
        # the oracle: each solution joins the first class whose
        # representative solutions_isomorphic matches, else opens one
        classes = []
        for i, s in enumerate(found):
            for cls in classes:
                if sol.solutions_isomorphic(s, found[cls[0]]) is not None:
                    cls.append(i)
                    break
            else:
                classes.append([i])
        return {frozenset(cls) for cls in classes}

    @pytest.mark.parametrize("m, count", [(1, 1), (2, 2), (3, 5), (4, 23)])
    def test_partition_matches_pairwise_search(self, m, count):
        # class counts from Etingof-Schedler-Soloviev (1999)
        found = sol.enumerate_solutions(m)
        by_form = {}
        for i, s in enumerate(found):
            by_form.setdefault(sol.canonical_form(s), set()).add(i)
        partition = {frozenset(cls) for cls in by_form.values()}
        assert partition == self._pairwise_classes(found)
        assert len(partition) == count

    def test_form_is_an_isomorphic_solution(self):
        for m in (1, 2, 3, 4):
            for s in sol.enumerate_solutions(m):
                form = sol.canonical_form(s)
                assert sol.solutions_isomorphic(s, sol.from_sigma(form)) is not None

    def test_relabelling_is_the_pointwise_action(self):
        # all 168 solutions on four points under all 24 relabelings φ:
        # the relabelled row φ(x) sends φ(y) to φ(σ_x(y)), written point
        # by point here rather than through the composition kernel; the
        # canonical form is the least of them, and solutions_isomorphic
        # finds a relabeling onto each
        found = sol.enumerate_solutions(4)
        assert len(found) == 168
        for s in found:
            tables = set()
            for phi in itertools.permutations(range(4)):
                rows = [[None] * 4 for _ in range(4)]
                for x, y in itertools.product(range(4), repeat=2):
                    rows[phi[x]][phi[y]] = phi[s.sigma[x][y]]
                table = tuple(map(tuple, rows))
                assert sol._relabelled(s.sigma, phi) == table
                tables.add(table)
            assert sol.canonical_form(s) == min(tables)
            for table in tables:
                phi = sol.solutions_isomorphic(s, sol.Solution(table))
                assert phi is not None and sol._relabelled(s.sigma, phi) == table

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            sol.canonical_form(sol.trivial(9))
