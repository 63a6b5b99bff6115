"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line. Run with ``pytest -s tests/test_acceptance.py`` to see
the lines."""

import itertools
import random
import time

import pytest

from ybe import brace as br
from ybe import files
from ybe import perm as pm
from ybe import power as pw
from ybe import solution as sol
from ybe.cli import main

from oracles import power_solution_n2_direct

EXPECTED_COUNTS = {1: 1, 2: 2, 3: 12}


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_oracle_closure(sigma_witness_reference):
    start = time.monotonic()
    for m in (1, 2, 3):
        found = sol.enumerate_solutions(m)
        assert len(found) == EXPECTED_COUNTS[m]
        for s in found:
            assert sol.verify_tables(s.sigma).all_ok
        # the braid/sigma-condition equivalence, from_sigma's O(N²) gate
        # against all five axioms and its first witness against the
        # per-pair reference on every candidate table, and the pruned
        # search against the brute-force scan, in order
        brute_force = []
        for table in itertools.product(pm.all_perms(m), repeat=m):
            r = sol.verify_tables(table)
            if not {"involutive", "left_nondegenerate"} & r.failures.keys():
                assert ("braid_direct" in r.failures) == ("braid_sigma_condition" in r.failures)
            witness = sol._sigma_condition_witness(table)
            assert (witness is None) == r.all_ok
            assert witness == sigma_witness_reference(table)
            if r.all_ok:
                brute_force.append(table)
        assert [s.sigma for s in found] == brute_force
    m2 = [s.sigma for s in sol.enumerate_solutions(2)]
    assert m2 == [((0, 1), (0, 1)), ((1, 0), (1, 0))]
    elapsed = time.monotonic() - start
    assert elapsed <= 1.0, f"oracle closure took {elapsed:.2f}s"
    report("criterion 1: oracle closure (m <= 3, counts, equivalence, gate, search = scan)", True)


def test_criterion_2_power_construction_verifies(corpus):
    start = time.monotonic()
    for s in corpus:
        for n in (2, 3):
            ps = pw.power_solution(s, n)
            r = sol.verify_tables(ps.result.sigma)
            assert r.all_ok, (s.sigma, n)
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0, f"power corpus took {elapsed:.2f}s"
    report("criterion 2: power solutions fully verify (corpus, n in {2,3})", True)


def test_criterion_3_embedding_monomorphism(corpus):
    for s in corpus:
        perms = pm.all_perms(s.m)
        for n in (2, 3):
            images = {}
            for tau in perms:
                p = pw.psi_perm(s.sigma, tau, n)
                assert p not in images.values() or images.get(tau) == p
                images[tau] = p
            # injectivity
            assert len(set(images.values())) == len(perms)
            # homomorphism, exhaustive over Sym_m x Sym_m
            for tau, xi in itertools.product(perms, repeat=2):
                assert images[pm.compose(tau, xi)] == pm.compose(
                    images[tau], images[xi]
                )
            # inverse round-trips on all tuples
            for tau in perms:
                for ybar in itertools.product(range(s.m), repeat=n):
                    fwd = pw.psi_apply(s.sigma, tau, ybar)
                    assert pw.psi_apply(s.sigma, pm.inverse(tau), fwd) == ybar
    report("criterion 3: psi homomorphism + injectivity + round-trip", True)


def test_criterion_4_recursion_equals_embedded_product(corpus):
    for s in corpus:
        for n in (2, 3):
            for xbar in itertools.product(range(s.m), repeat=n):
                prod = s.sigma[xbar[0]]
                for x in xbar[1:]:
                    prod = pm.compose(prod, s.sigma[x])
                assert pw.f_map(s, xbar) == pw.psi_perm(s.sigma, prod, n)
    report("criterion 4: h-recursion f equals embedded sigma-product", True)


def test_criterion_5_closed_n2_formula(corpus):
    for s in corpus:
        for x1, x2 in itertools.product(range(s.m), repeat=2):
            f = pw.f_map(s, (x1, x2))
            for y1, y2 in itertools.product(range(s.m), repeat=2):
                z1, z2 = power_solution_n2_direct(s, x1, x2, y1, y2)
                assert z1 * s.m + z2 == f[y1 * s.m + y2]  # lex, y₁ first
    report("criterion 5: closed n=2 formula agrees with general recursion", True)


def test_criterion_6_power_group_comparison(corpus, swap2, adjoined3):
    for s in corpus:
        for n in (2, 3):
            _, _, iso = pw.power_perm_group(pw.power_solution(s, n))
            assert iso, (s.sigma, n)
    # case 1: a fixed point forces the base group at every exponent
    base_adj = sol.permutation_group(adjoined3)
    for n in (2, 3):
        ps = pw.power_solution(adjoined3, n)
        a = sol.permutation_group(ps.result)
        assert pw.power_perm_group(ps)[0] == a.order == 2
        assert pm.groups_isomorphic(a, base_adj) is not None
    # case 2: coprime exponent
    ps = pw.power_solution(swap2, 3)
    a = sol.permutation_group(ps.result)
    assert pw.power_perm_group(ps)[0] == a.order == 2
    assert pm.groups_isomorphic(a, sol.permutation_group(swap2)) is not None
    # negative witness: swap2 at n=2 collapses
    a_order, _, _ = pw.power_perm_group(pw.power_solution(swap2, 2))
    assert a_order == 1
    base_swap = sol.permutation_group(swap2)
    assert base_swap.order == 2
    assert pw.iso_condition(swap2, base_swap.order, 2) is pw.IsoCondition.NO_GUARANTEE
    report("criterion 6: power group isomorphic to product subgroup + cases", True)


def test_criterion_7_disjoint_union_group_orders(corpus, swap2):
    for a, b in itertools.product(corpus, repeat=2):
        u = sol.disjoint_union([a, b])
        assert (
            sol.permutation_group(u).order
            == sol.permutation_group(a).order * sol.permutation_group(b).order
        )
    g = sol.permutation_group(sol.disjoint_union([swap2, swap2]))
    assert g.order == 4
    assert g.element_order_multiset() == (1, 2, 2, 2)
    report("criterion 7: disjoint-union group order is the product", True)


def test_criterion_8_brace_suite(brace_z4):
    start = time.monotonic()
    all_braces = []
    for k in (1, 2, 3, 4):
        all_braces.extend(br.find_braces(k))
    elapsed = time.monotonic() - start
    assert elapsed <= 1.0, f"brace search took {elapsed:.2f}s"
    for b in all_braces:
        br.brace_from_tables(b.add, b.mul)  # Definition axioms, exhaustive
        assert br.check_lambda_properties(br.lambda_table(b)).all_ok
        s = br.associated_solution(b)
        assert sol.verify_tables(s.sigma).all_ok
        for xbar in itertools.product(range(b.k), repeat=2):
            for ybar in itertools.product(range(b.k), repeat=2):
                assert br.check_eq_3_1(br.lambda_table(b), xbar, ybar)
        rng = random.Random(0)
        for _ in range(100):
            xbar = tuple(rng.randrange(b.k) for _ in range(3))
            ybar = tuple(rng.randrange(b.k) for _ in range(3))
            assert br.check_eq_3_1(br.lambda_table(b), xbar, ybar)
    assert any(
        b.add == brace_z4.add and b.mul == brace_z4.mul for b in br.find_braces(4)
    )
    report("criterion 8: brace search, lambda properties, product identity", True)


def test_criterion_9_round_trips_and_cli_determinism(
    corpus, tmp_path, capsys, brace_z4
):
    for s in corpus:
        assert files.parse_solution(files.emit_solution(s)).sigma == s.sigma
    for k in (2, 3, 4):
        for b in br.find_braces(k):
            again = files.parse_brace(files.emit_brace(b))
            assert (again.add, again.mul) == (b.add, b.mul)

    swap_file = tmp_path / "swap2.txt"
    swap_file.write_text("2\n1 0\n1 0\n")
    adj_file = tmp_path / "adj3.txt"
    adj_file.write_text("3\n1 0 2\n1 0 2\n0 1 2\n")
    brace_file = tmp_path / "z4.txt"
    brace_file.write_text(files.emit_brace(brace_z4))
    matrix = [
        ["verify", str(swap_file)],
        ["verify", str(adj_file)],
        ["power", str(swap_file), "2"],
        ["power", str(swap_file), "3"],
        ["power", str(adj_file), "2"],
        ["permgroup", str(swap_file)],
        ["permgroup", str(adj_file)],
        ["enumerate", "2", "--dedup"],
        ["enumerate", "3", "--dedup"],
        ["present", str(swap_file)],
        ["present", str(adj_file)],
        ["brace", "verify", str(brace_file)],
        ["brace", "solution", str(brace_file)],
        ["brace", "find", "4"],
        ["brace", "lambda-check", str(brace_file)],
        ["brace", "eq31-check", str(brace_file), "--n", "2"],
        ["brace", "eq31-check", str(brace_file), "--n", "3", "--samples", "100"],
    ]
    for argv in matrix:
        code1 = main(argv)
        out1 = capsys.readouterr()
        code2 = main(argv)
        out2 = capsys.readouterr()
        assert code1 == code2
        assert out1.out.encode() == out2.out.encode(), argv
    report("criterion 9: round-trip identity and byte-identical CLI reruns", True)
