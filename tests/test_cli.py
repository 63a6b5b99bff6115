import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ybe import brace as br
from ybe import cli
from ybe import files
from ybe import perm as pm
from ybe import power as pw
from ybe import solution as sol
from ybe.cli import main
from ybe.errors import SizeCapExceeded


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def trivial2_file(tmp_path):
    p = tmp_path / "trivial2.txt"
    p.write_text(files.emit_solution(sol.trivial(2)))
    return str(p)


@pytest.fixture
def swap2_file(tmp_path):
    p = tmp_path / "swap2.txt"
    p.write_text("2\n1 0\n1 0\n")
    return str(p)


@pytest.fixture
def adjoined3_file(tmp_path, swap2):
    p = tmp_path / "adjoined3.txt"
    p.write_text(files.emit_solution(sol.adjoin_fixed_point(swap2)))
    return str(p)


@pytest.fixture
def o8():
    """The order-8 solution on four points."""
    return sol.from_sigma([(0, 1, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1), (1, 0, 2, 3)])


@pytest.fixture
def one_point_file(tmp_path):
    p = tmp_path / "one_point.txt"
    p.write_text("1\n0\n")
    return str(p)


def present_reference(s):
    """``ybe present``'s stdout by the two-branch rule: a relation is
    skipped when it is trivial, r(x, y) = (x, y), and when it is the
    involutive partner of a printed one, (x, y) > r(x, y)."""
    lines = [f"generators: {' '.join(f'g{i}' for i in range(s.m))}", "relations:"]
    for x, y in itertools.product(range(s.m), repeat=2):
        z, t = sol.r_apply(s, x, y)
        if (z, t) == (x, y):
            continue
        if (x, y) > (z, t):
            continue
        lines.append(f"  g{x} g{y} = g{z} g{t}")
    lines.append(f"relation count: {len(lines) - 2}")
    return "\n".join(lines) + "\n"



def permgroup_reference(s):
    """``ybe permgroup``'s stdout from the group listed over every
    distinct σ-row by ``permutation_group``."""
    g = sol.permutation_group(s)
    rows = "".join("  " + " ".join(map(str, gen)) + "\n" for gen in g.generators)
    orders = " ".join(map(str, g.element_order_multiset()))
    return f"order: {g.order}\ngenerators:\n{rows}element orders: {orders}\n"

def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` made from now on."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


@pytest.fixture
def brace_z4_file(tmp_path, brace_z4):
    p = tmp_path / "brace_z4.txt"
    p.write_text(files.emit_brace(brace_z4))
    return str(p)


# sha256 of the stdout of `ybe brace eq31-check` on each brace that
# find_braces(1…6) returns, in order, joined, at each (n, samples); with
# samples, the seed is 0
EQ31_CHECK_SHA256 = {
    (2, 0): "0bb4dcfad0960b8da24b00b9c5e30318881dba6ff1b9fb4b7cc6d1dcf54a32f0",
    (2, 300): "527ef7bc2846f6d705af1958b3eec35d9c0ecb3076585052021943e447dce8ec",
    (3, 0): "c15bfe7e12adecc58f6c7e5147cbea3e73854ddea663c347b6962c959460819f",
    (3, 300): "8ec6dee9f33c8391d4cc1244d70246eab6627da1ee4372c5e851743da3d40fc8",
}


class TestVerify:
    def test_trivial_passes(self, capsys, trivial2_file):
        code, out, _ = run(capsys, "verify", trivial2_file)
        assert code == 0
        assert out.count("pass") == 5

    def test_braid_failure(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2\n0 1\n1 0\n")
        code, out, _ = run(capsys, "verify", str(p))
        assert code == 1
        assert "braid_direct: FAIL" in out
        assert "(0, 1)" in out

    def test_garbage_is_usage_error(self, capsys, tmp_path, swap2_file, brace_z4_file):
        p = tmp_path / "garbage.txt"
        p.write_text("not a file format\n")
        errors = []
        for argv in (
            ("verify", str(p)),
            ("--cap", "-1", "permgroup", swap2_file),
            ("--cap", "0", "power", swap2_file, "2"),
            ("brace", "eq31-check", brace_z4_file, "--samples", "-5"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert "error" in err
            errors.append(err)
        # a ParseError is a ValueError, and takes its handler
        assert errors[0] == "error: line 1: expected a single size on the first line\n"

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "verify", "/nonexistent/path.txt")
        assert code == 2

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, swap2_file, brace_z4_file):
        for argv in (
            ("power", swap2_file, "2", "-o", str(tmp_path)),
            ("enumerate", "2", "--outdir", swap2_file),
            ("brace", "solution", brace_z4_file, "-o", str(tmp_path / "missing" / "out")),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            assert "cannot" in err


def _one_swap_table(n):
    """Every σ-row the identity but the last, which swaps the last two
    points: rejected, with its first braid counterexample late."""
    rows = [list(range(n)) for _ in range(n)]
    rows[-1][-2:] = [n - 1, n - 2]
    return f"{n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


class TestRejectionReport:
    def test_printed_line_forms(self, capsys):
        # a failure with a witness, a witness-less failure, and passes
        cli._print_report(sol.verify_tables(((0, 0), (0, 1))))
        assert capsys.readouterr().out == (
            "involutive: FAIL at (0, 0)\n"
            "left_nondegenerate: FAIL at (0,)\n"
            "right_nondegenerate: FAIL at (1,)\n"
            "braid_direct: FAIL at (0, 0, 0)\n"
            "braid_sigma_condition: FAIL\n"
        )
        cli._print_report(sol.VerifyReport(sol.AXIOMS, {}))
        assert capsys.readouterr().out == "".join(f"{a}: pass\n" for a in sol.AXIOMS)

    def test_other_commands_print_the_report_from_main(self, capsys, tmp_path):
        # a command other than verify lets the AxiomError reach main
        p = tmp_path / "bad.txt"
        p.write_text("2\n0 1\n1 0\n")
        assert run(capsys, "power", str(p), "2") == (
            1,
            "involutive: pass\n"
            "left_nondegenerate: pass\n"
            "right_nondegenerate: FAIL at (0,)\n"
            "braid_direct: FAIL at (0, 0, 1)\n"
            "braid_sigma_condition: FAIL at (0, 1)\n",
            "error: not a solution; failed axioms: "
            "right_nondegenerate, braid_direct, braid_sigma_condition\n",
        )

    def test_report_within_bound(self, capsys, tmp_path):
        p = tmp_path / "bad64.txt"
        p.write_text(_one_swap_table(64))
        assert run(capsys, "verify", str(p)) == (
            1,
            "involutive: pass\n"
            "left_nondegenerate: pass\n"
            "right_nondegenerate: FAIL at (62,)\n"
            "braid_direct: FAIL at (62, 62, 63)\n"
            "braid_sigma_condition: FAIL at (62, 63)\n",
            "",
        )

    def test_past_bound_exits_3_without_report(self, capsys, monkeypatch, tmp_path):
        p = tmp_path / "bad257.txt"
        p.write_text(_one_swap_table(257))
        calls = []
        monkeypatch.setattr(sol, "verify_tables", lambda *a: calls.append(a))
        err = "error: not a solution; report bound 256 exceeded (m=257)\n"
        for command in ("verify", "permgroup"):
            start = time.perf_counter()
            assert run(capsys, command, str(p)) == (3, "", err)
            assert time.perf_counter() - start < 1.0
        assert calls == []


class TestPower:
    def test_swap_n2_no_guarantee(self, capsys, swap2_file):
        code, out, _ = run(capsys, "power", swap2_file, "2")
        assert code == 0
        assert "power group order: 1" in out
        assert "classification: NoGuarantee" in out

    def test_swap_n3_coprime(self, capsys, swap2_file):
        code, out, _ = run(capsys, "power", swap2_file, "3")
        assert code == 0
        assert "power group order: 2" in out
        assert "classification: CoprimeOrder" in out
        assert "isomorphic: yes" in out

    def test_adjoined_n2_fixed_point(self, capsys, adjoined3_file):
        code, out, _ = run(capsys, "power", adjoined3_file, "2")
        assert code == 0
        assert "power group order: 2" in out
        assert "classification: FixedPointPresent" in out
        assert "isomorphic: yes" in out

    def test_not_isomorphic_prints_no(self, capsys, monkeypatch, swap2_file):
        monkeypatch.setattr(pw, "power_perm_group", lambda ps, cap: (2, 1, False))
        code, out, _ = run(capsys, "power", swap2_file, "3")
        assert code == 0
        assert "isomorphic: no" in out

    def test_writes_file_with_header(self, capsys, swap2_file, tmp_path):
        out_path = tmp_path / "power.txt"
        code, _, _ = run(capsys, "power", swap2_file, "2", "-o", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("# power m=2 n=2 encoding=lex-msb-first\n")
        assert files.parse_solution(text).m == 4

    def test_o8_unions_n2(self, capsys, tmp_path, o8):
        # degree 64: a search over generator images for φ does not
        # finish on these
        c3 = sol.from_sigma([(1, 2, 0)] * 3)
        for parts, orders, cond in (
            ((o8, o8), (64, 32, 32), "NoGuarantee"),
            ((o8, c3, sol.trivial(1)), (24, 24, 24), "FixedPointPresent"),
        ):
            p = tmp_path / "union.txt"
            p.write_text(files.emit_solution(sol.disjoint_union(parts)))
            code, out, _ = run(capsys, "power", str(p), "2")
            assert code == 0
            assert out == (
                f"base group order: {orders[0]}\n"
                f"power group order: {orders[1]}\n"
                f"product subgroup order: {orders[2]}\n"
                f"classification: {cond}\n"
                "isomorphic: yes\n"
            )

    def test_o8x4_n2_by_orders(self, capsys, monkeypatch, tmp_path, o8):
        # degree 256 + 16 and |D| = 2048: the orders come from stabilizer
        # chains, and no group is listed
        closures = count_calls(monkeypatch, pm, "close_group")
        p = tmp_path / "o8x4.txt"
        p.write_text(files.emit_solution(sol.disjoint_union([o8] * 4)))
        start = time.process_time()
        code, out, _ = run(capsys, "power", str(p), "2")
        assert time.process_time() - start < 2
        assert (code, out) == (
            0,
            "base group order: 4096\n"
            "power group order: 2048\n"
            "product subgroup order: 2048\n"
            "classification: NoGuarantee\n"
            "isomorphic: yes\n",
        )
        assert closures == []

    def test_one_point(self, capsys, one_point_file):
        for n in ("2", "3"):
            assert run(capsys, "power", one_point_file, n) == (
                0,
                "base group order: 1\n"
                "power group order: 1\n"
                "product subgroup order: 1\n"
                "classification: FixedPointPresent\n"
                "isomorphic: yes\n",
                "",
            )

    def test_cap_exceeded(self, capsys, tmp_path, swap2_file, brace_z4_file):
        # the degree cap of power and brace eq31-check; the huge exponents
        # must be declined at once, without building m**n
        c3 = tmp_path / "c3.txt"
        c3.write_text("3\n1 2 0\n1 2 0\n1 2 0\n")
        one_point = tmp_path / "one_point.txt"
        one_point.write_text("1\n0\n")
        brace1 = tmp_path / "brace1.txt"
        brace1.write_text("1\n0\n\n0\n")
        for argv in (
            ("--cap", "4", "power", swap2_file, "3"),
            ("power", str(c3), "30000000"),
            ("power", str(one_point), "100000000"),
            ("brace", "eq31-check", brace_z4_file, "--n", "8"),
            ("brace", "eq31-check", brace_z4_file, "--n", "8", "--samples", "10"),
            ("brace", "eq31-check", str(brace1), "--n", "100000000"),
            ("brace", "eq31-check", str(brace1), "--n", "100000000", "--samples", "10"),
            ("brace", "eq31-check", brace_z4_file, "--samples", "1000000000"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 3, argv
            assert out == ""
            assert "error" in err
        # a cap past kⁿ lets the sampled walk run at n = 7
        assert run(
            capsys, "--cap", "100000000000000000000",
            "brace", "eq31-check", brace_z4_file, "--n", "7", "--samples", "5",
        ) == (0, "checked 5 sampled tuple pairs (n=7, seed=0)\nfailures: 0\n", "")

    def test_eq31_degree_reported_before_sample_count(self, capsys, brace_z4_file):
        # past both caps (kⁿ = 16 > 3 and 10 samples > 3²) eq31-check
        # reports the degree, which the failing-set table checks first
        assert run(
            capsys, "--cap", "3", "brace", "eq31-check", brace_z4_file,
            "--n", "2", "--samples", "10",
        ) == (3, "", "error: degree 4^2 exceeds cap 3\n")

    def test_length_below_two_is_usage_error(self, capsys, swap2_file, brace_z4_file):
        assert run(capsys, "power", swap2_file, "1") == (
            2, "", "error: exponent must be at least 2, got 1\n"
        )
        assert run(capsys, "brace", "eq31-check", brace_z4_file, "--n", "1") == (
            2, "", "error: tuple length must be at least 2, got 1\n"
        )

    def test_cap_declines_before_building(self, capsys, monkeypatch, tmp_path, o8):
        # O8⁵ at n=2 has degree 400, under the cap, but its base group
        # has order 8⁵; the degree is checked first, so O8 at n=2 under
        # --cap 4 still reports the degree
        calls = []
        real = pw.power_solution
        monkeypatch.setattr(
            pw, "power_solution", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        o8x5 = tmp_path / "o8x5.txt"
        o8x5.write_text(files.emit_solution(sol.disjoint_union([o8] * 5)))
        o8_file = tmp_path / "o8.txt"
        o8_file.write_text(files.emit_solution(o8))
        for argv, err in (
            (("power", str(o8x5), "2"), "error: group closure exceeded cap of 4096 elements\n"),
            (("--cap", "4", "power", str(o8_file), "2"), "error: degree 4^2 exceeds cap 4\n"),
        ):
            assert run(capsys, *argv) == (3, "", err)
        assert calls == []

    def test_power_groups_counted_under_cap(self, capsys, tmp_path, o8):
        # O8⁴ ⊔ C3 at n=2: base and power groups of order 12288, past the
        # default cap; --cap 12288 reaches all four counts
        path = tmp_path / "o8x4c3.txt"
        c3 = sol.from_sigma([(1, 2, 0)] * 3)
        path.write_text(files.emit_solution(sol.disjoint_union([o8] * 4 + [c3])))
        stdout = (
            "base group order: 12288\npower group order: 12288\n"
            "product subgroup order: 12288\nclassification: NoGuarantee\nisomorphic: yes\n"
        )
        assert run(capsys, "--cap", "12288", "power", str(path), "2") == (0, stdout, "")


class TestPermgroup:
    def test_trivial(self, capsys, tmp_path):
        # every σ-row is the identity, so the sift keeps none; the one
        # distinct row is printed once
        for m in (3, 4):
            p = tmp_path / "trivial.txt"
            p.write_text(files.emit_solution(sol.trivial(m)))
            row = " ".join(map(str, range(m)))
            assert run(capsys, "permgroup", str(p)) == (
                0, f"order: 1\ngenerators:\n  {row}\nelement orders: 1\n", ""
            )

    def test_swap(self, capsys, swap2_file):
        code, out, _ = run(capsys, "permgroup", swap2_file)
        assert code == 0
        assert "order: 2" in out
        assert "element orders: 1 2" in out

    def test_double_swap_union(self, capsys, tmp_path, swap2):
        p = tmp_path / "union.txt"
        p.write_text(files.emit_solution(sol.disjoint_union([swap2, swap2])))
        code, out, _ = run(capsys, "permgroup", str(p))
        assert code == 0
        assert "order: 4" in out

    def test_one_point(self, capsys, one_point_file):
        assert run(capsys, "permgroup", one_point_file) == (
            0, "order: 1\ngenerators:\n  0\nelement orders: 1\n", ""
        )

    def test_matches_the_listing_over_every_row(self, capsys, tmp_path, o8):
        # every labelled solution on at most four points, and seeded
        # relabellings of O8ᵏ (k ≤ 4), O8⊔C3 and O8⊔C4; at --cap |G| and,
        # with permutation_group's message, at --cap |G| − 1
        rng = random.Random(26)
        cases = [s for m in (1, 2, 3, 4) for s in sol.enumerate_solutions(m)]
        c3 = sol.from_sigma([(1, 2, 0)] * 3)
        c4 = sol.from_sigma([(1, 2, 3, 0)] * 4)
        for parts in ([o8], [o8] * 2, [o8] * 3, [o8] * 4, [o8, c3], [o8, c4]):
            union = sol.disjoint_union(parts)
            phi = tuple(rng.sample(range(union.m), union.m))
            cases.append(sol.from_sigma(sol._relabelled(union.sigma, phi)))
        assert len(cases) == 189
        p = tmp_path / "s.txt"
        for s in cases:
            p.write_text(files.emit_solution(s))
            order = pm.group_order(s.sigma)
            assert run(capsys, "--cap", str(order), "permgroup", str(p)) == (
                0, permgroup_reference(s), ""
            ), s.sigma
            if order > 1:
                with pytest.raises(SizeCapExceeded) as e:
                    sol.permutation_group(s, cap=order - 1)
                assert run(capsys, "--cap", str(order - 1), "permgroup", str(p)) == (
                    3, "", f"error: {e.value}\n"
                ), s.sigma

    def test_o8x4_lists_over_the_kept_rows(self, capsys, monkeypatch, tmp_path, o8):
        # group_order checks the cap, and one closure over the 16 distinct
        # σ-rows lists the group; it steps by only the 8 that enlarge it
        # (TestIrredundantGenerators in test_perm.py)
        closures = count_calls(monkeypatch, pm, "close_group")
        orders = count_calls(monkeypatch, pm, "group_order")
        listings = count_calls(monkeypatch, sol, "permutation_group")
        p = tmp_path / "o8x4.txt"
        p.write_text(files.emit_solution(sol.disjoint_union([o8] * 4)))
        code, out, _ = run(capsys, "permgroup", str(p))
        assert (code, out.splitlines()[:2]) == (0, ["order: 4096", "generators:"])
        assert len(out.splitlines()) == 19  # the 16 distinct rows
        assert [len(gens) for gens, *_ in closures] == [16]
        assert len(orders) == len(listings) == 1

    def test_past_cap_declines_before_listing(self, capsys, monkeypatch, tmp_path, o8):
        # O8⁵ has order 8⁵, past the default cap of 4096
        closures = count_calls(monkeypatch, pm, "close_group")
        p = tmp_path / "o8x5.txt"
        p.write_text(files.emit_solution(sol.disjoint_union([o8] * 5)))
        assert run(capsys, "permgroup", str(p)) == (
            3, "", "error: group closure exceeded cap of 4096 elements\n"
        )
        assert closures == []


class TestEnumerate:
    def test_m1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1")
        assert code == 0
        assert "count: 1" in out

    def test_m2(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2")
        assert code == 0
        assert "count: 2" in out

    def test_m3_with_dedup(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3", "--dedup")
        assert code == 0
        assert "count: 12" in out
        assert "count up to isomorphism: 5" in out

    def test_m4_with_dedup(self, capsys):
        # Etingof-Schedler-Soloviev: 23 classes on four points
        code, out, _ = run(capsys, "enumerate", "4", "--dedup")
        assert code == 0
        assert "count: 168" in out
        assert "count up to isomorphism: 23" in out

    def test_dedup_makes_no_isomorphism_search(self, capsys, monkeypatch):
        # --dedup counts canonical forms; the pairwise search is an oracle
        calls = []
        monkeypatch.setattr(sol, "solutions_isomorphic", lambda *a: calls.append(a))
        code, out, _ = run(capsys, "enumerate", "4", "--dedup")
        assert code == 0
        assert "count up to isomorphism: 23" in out
        assert calls == []

    def test_writes_canonical_files(self, capsys, tmp_path):
        outdir = tmp_path / "sols"
        code, _, _ = run(capsys, "enumerate", "2", "--outdir", str(outdir))
        assert code == 0
        written = sorted(outdir.iterdir())
        assert len(written) == 2
        assert files.parse_solution(written[0].read_text()).m == 2

    def test_bound(self, capsys):
        code, _, _ = run(capsys, "enumerate", "5")
        assert code == 3


class TestPresent:
    def test_trivial(self, capsys, trivial2_file):
        code, out, _ = run(capsys, "present", trivial2_file)
        assert code == 0
        assert "g0 g1 = g1 g0" in out
        assert "relation count: 1" in out

    def test_swap(self, capsys, swap2_file):
        # r fixes (0,1) and (1,0), so the only nontrivial relation comes
        # from the orbit {(0,0), (1,1)}
        code, out, _ = run(capsys, "present", swap2_file)
        assert code == 0
        assert "g0 g0 = g1 g1" in out
        assert "relation count: 1" in out

    def test_relation_count_bound(self, capsys, adjoined3_file):
        code, out, _ = run(capsys, "present", adjoined3_file)
        assert code == 0
        count = int(out.splitlines()[-1].split(":")[1])
        assert count <= 9

    def test_every_small_solution_matches_two_branch_rule(self, capsys, tmp_path):
        p = tmp_path / "s.txt"
        for m in range(1, 5):
            for s in sol.enumerate_solutions(m):
                p.write_text(files.emit_solution(s))
                assert run(capsys, "present", str(p)) == (0, present_reference(s), "")


class TestBraceCommands:
    def test_verify(self, capsys, brace_z4_file):
        code, out, _ = run(capsys, "brace", "verify", brace_z4_file)
        assert code == 0
        assert "valid left brace" in out

    def test_verify_rejects(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2\n0 1\n1 0\n\n0 1\n1 1\n")
        code, _, err = run(capsys, "brace", "verify", str(p))
        assert code == 1
        assert "error" in err

    def test_solution_writes_file(self, capsys, tmp_path):
        p = tmp_path / "z3.txt"
        z3 = [[(a + c) % 3 for c in range(3)] for a in range(3)]
        p.write_text(files.emit_brace(br.trivial_brace(z3)))
        outp = tmp_path / "sol.txt"
        code, _, _ = run(capsys, "brace", "solution", str(p), "-o", str(outp))
        assert code == 0
        s = files.parse_solution(outp.read_text())
        assert s.sigma == sol.trivial(3).sigma

    def test_find(self, capsys):
        code, out, _ = run(capsys, "brace", "find", "4")
        assert code == 0
        assert "braces of order 4: 6" in out
        assert "FAIL" not in out

    def test_lambda_check(self, capsys, brace_z4_file):
        code, out, _ = run(capsys, "brace", "lambda-check", brace_z4_file)
        assert code == 0
        assert out.count("pass") == 6

    def test_lambda_check_output(self, capsys, brace_z4_file):
        code, out, err = run(capsys, "brace", "lambda-check", brace_z4_file)
        assert (code, err) == (0, "")
        assert out == (
            "inverse_is_lambda_of_inverse: pass\n"
            "additive_automorphism: pass\n"
            "multiplicative_homomorphism: pass\n"
            "sum_via_lambda: pass\n"
            "symmetric_product: pass\n"
            "sigma_condition: pass\n"
        )

    def test_eq31_exhaustive(self, capsys, brace_z4_file):
        code, out, _ = run(capsys, "brace", "eq31-check", brace_z4_file, "--n", "2")
        assert code == 0
        assert "checked all 256 tuple pairs" in out
        assert "failures: 0" in out

    def test_eq31_sampled(self, capsys, brace_z4_file):
        code, out, _ = run(
            capsys, "brace", "eq31-check", brace_z4_file,
            "--n", "3", "--samples", "100", "--seed", "42",
        )
        assert code == 0
        assert "failures: 0" in out

    def test_eq31_frozen_output(self, capsys, tmp_path):
        paths = []
        for k in range(1, 7):
            for i, b in enumerate(br.find_braces(k)):
                path = tmp_path / f"brace{k}_{i}.txt"
                path.write_text(files.emit_brace(b))
                paths.append(str(path))
        assert len(paths) == 12
        for (n, samples), digest in EQ31_CHECK_SHA256.items():
            outs = []
            for path in paths:
                code, out, err = run(
                    capsys, "brace", "eq31-check", path,
                    "--n", str(n), "--samples", str(samples), "--seed", "0",
                )
                assert (code, err) == (0, ""), (path, n, samples)
                outs.append(out)
            assert hashlib.sha256("".join(outs).encode()).hexdigest() == digest, (n, samples)

    def test_eq31_sample_stream(self, capsys, monkeypatch, brace_z4_file):
        # the pairs are drawn as n randrange(k) calls per tuple, x̄ then ȳ:
        # a recording table sees each x̄ looked up, then its ȳ tested
        drawn = []

        class Recording:
            def __getitem__(self, xbar):
                drawn.append(xbar)
                return self

            def __contains__(self, ybar):
                drawn[-1] = (drawn[-1], ybar)
                return False

        monkeypatch.setattr(br, "eq_3_1_failing_sets", lambda lt, n, cap: Recording())
        code, _, _ = run(
            capsys, "brace", "eq31-check", brace_z4_file,
            "--n", "3", "--samples", "100", "--seed", "42",
        )
        assert code == 0
        rng = random.Random(42)

        def draw():
            return tuple(rng.randrange(4) for _ in range(3))

        assert drawn == [(draw(), draw()) for _ in range(100)]


class TestSingleBuild:
    def test_power_and_eq31_build_once(
        self, capsys, monkeypatch, tmp_path, swap2_file, brace_z4_file
    ):
        calls = {"power_solution": 0, "lambda_table": 0, "close_group": 0}
        for module, name in (
            (pw, "power_solution"), (br, "lambda_table"), (pm, "close_group")
        ):
            def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        out_path = tmp_path / "power.txt"
        code, _, _ = run(capsys, "power", swap2_file, "3", "-o", str(out_path))
        assert code == 0
        assert calls["power_solution"] == 1
        # every order is counted by group_order; nothing is listed
        assert calls["close_group"] == 0
        code, _, _ = run(capsys, "brace", "eq31-check", brace_z4_file, "--n", "2")
        assert code == 0
        assert calls["lambda_table"] == 1
        # brace find builds λ once per brace: 2 braces of order 6, 6 of order 4
        for k, braces in (("6", 2), ("4", 6)):
            calls["lambda_table"] = 0
            code, _, _ = run(capsys, "brace", "find", k)
            assert code == 0
            assert calls["lambda_table"] == braces

    def test_eq31_keys_each_x_product_once(self, capsys, monkeypatch, tmp_path):
        # exhaustive n=3 on an order-6 brace: the 216 λ-products come from
        # one _products call and the group products from the prefix
        # table, and each of the at most 6 distinct keys reads its h̄ off
        # one power row, instead of one product and one recursion for
        # each of the 216² pairs
        p = tmp_path / "brace6.txt"
        p.write_text(files.emit_brace(br.find_braces(6)[-1]))
        calls = {"_products": 0, "_f_row": 0}
        for name in calls:
            def counted(*args, _real=getattr(pw, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(pw, name, counted)
        code, out, _ = run(capsys, "brace", "eq31-check", str(p), "--n", "3")
        assert (code, out) == (0, "checked all 46656 tuple pairs (n=3)\nfailures: 0\n")
        assert calls["_products"] == 1
        assert 1 <= calls["_f_row"] <= 6
        calls.update(_products=0, _f_row=0)
        code, out, _ = run(
            capsys, "brace", "eq31-check", str(p), "--n", "3", "--samples", "2000"
        )
        assert (code, out) == (0, "checked 2000 sampled tuple pairs (n=3, seed=0)\nfailures: 0\n")
        assert calls["_products"] == 1
        assert 1 <= calls["_f_row"] <= 6


class TestMain:
    def test_leaves_no_cyclic_garbage(self, capsys, tmp_path, swap2_file, brace_z4_file):
        # each call of a long-lived process must free what it made
        # without a full collection; the first call builds the parser
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n0 1\n1 0\n")
        for argv in (
            ("verify", swap2_file),
            ("verify", str(bad)),
            ("power", swap2_file, "2", "-o", str(tmp_path / "out.txt")),
            ("power", str(bad), "2"),
            ("enumerate", "3", "--dedup"),
            ("permgroup", swap2_file),
            ("brace", "eq31-check", brace_z4_file, "--samples", "20"),
        ):
            run(capsys, *argv)
            gc.collect()
            gc.disable()
            try:
                main(list(argv))
                assert gc.collect() == 0, argv
            finally:
                gc.enable()
            capsys.readouterr()

    def test_module_run_exits_with_main_code(self, capsys, tmp_path, swap2_file):
        # python -m ybe.cli runs entry(), which exits with main's return
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n0 1\n1 0\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        codes = []
        for path in (swap2_file, str(bad)):
            proc = subprocess.run(
                [sys.executable, "-m", "ybe.cli", "verify", path],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, "verify", path)
            codes.append(proc.returncode)
        assert codes == [0, 1]


class TestDeterminism:
    def test_reruns_are_byte_identical(self, capsys, swap2_file, adjoined3_file, brace_z4_file):
        matrix = [
            ("verify", swap2_file),
            ("power", swap2_file, "3"),
            ("permgroup", adjoined3_file),
            ("enumerate", "2", "--dedup"),
            ("present", swap2_file),
            ("brace", "verify", brace_z4_file),
            ("brace", "lambda-check", brace_z4_file),
            ("brace", "eq31-check", brace_z4_file, "--samples", "50", "--seed", "1"),
        ]
        for argv in matrix:
            first = run(capsys, *argv)
            second = run(capsys, *argv)
            assert first == second
