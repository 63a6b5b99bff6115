"""Rules on the package source itself."""

import ast
import importlib
import sys
import types
from pathlib import Path

import ybe

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ybe"

# The independent oracles the tests compare against; no command calls one
ORACLES = {
    "solutions_isomorphic",
    "groups_isomorphic",
    "verify_tables",
    "psi_apply",
    "psi_perm",
    "f_map",
    "check_eq_3_1",
}


def references(path):
    """The (top-level definition, name) pairs of a module: every Name id,
    Attribute attr, import alias, def name and class name inside each
    top-level statement, its own included, paired with that statement's
    name, or with "<module>" for a statement that has none. A definition
    thus references itself, so a rule on a name also catches a def of it
    whose body names nothing. Names in the syntax tree only, so comments
    and strings do not count."""
    found = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                found.add((owner, node.attr))
            elif isinstance(node, ast.alias):
                found.add((owner, node.name))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.add((owner, node.name))
    return found


def test_no_assert_in_package():
    # python -O strips assert statements, so no invariant may rely on one
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_stdlib():
    # the package declares no dependencies: every absolute import must
    # name a standard-library module (relative imports stay in ybe)
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.extend(
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            )
    assert found == []


def test_all_names_exactly_the_public_api():
    # a name half removed (dropped from the imports but left in
    # __all__, or the reverse) fails here rather than at a user's import
    namespace = {}
    exec("from ybe import *", namespace)
    assert all(hasattr(ybe, name) for name in ybe.__all__)
    assert len(set(ybe.__all__)) == len(ybe.__all__)
    public = {
        name
        for name, value in vars(ybe).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(ybe.__all__)


def test_every_attribute_is_read():
    # every dataclass field and every self.<name> attribute of a package
    # class is read somewhere in the package as an attribute load. The
    # match is by name, so a field counts as read wherever its name is
    # (PowerSolution.n would hide behind args.n); Brace.neg is read by
    # Brace.sub
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert trees
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }

    found = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            # the annotated names of a class body: a dataclass's fields
            fields = [
                node.target.id
                for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            ]
            fields += [
                node.attr
                for node in ast.walk(cls)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "id", None) == "self"
            ]
            found += [f"{module}:{cls.name}.{name}" for name in fields if name not in read]
    assert found == []


def test_cli_calls_no_oracle():
    found = {(top, name) for top, name in references(SRC / "cli.py") if name in ORACLES}
    assert found == set()


def test_cli_reads_solutions_only_through_parse_solution():
    # every command takes a solution file through files.parse_solution,
    # so none parses the raw σ-table and builds the solution itself
    found = {top for top, name in references(SRC / "cli.py") if name == "parse_sigma_table"}
    assert found == set()


def test_test_oracles_stay_in_tests():
    # the oracles of tests/oracles.py have no copy in the package
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = {
        (path.name, top)
        for path in sorted(SRC.glob("*.py"))
        for top, name in references(path)
        if name in names
    }
    assert names and found == set()


def test_only_power_checks_the_degree_in_cli():
    # brace eq31-check leaves its degree cap to brace.eq_3_1_failing_sets,
    # so only cmd_power, which checks before building, calls check_degree
    found = {top for top, name in references(SRC / "cli.py") if name == "check_degree"}
    assert found == {"cmd_power"}


def test_one_h_recursion():
    # the h-recursion and the n-fold product builder have one copy each,
    # defined in power.py (its self-pair) and shared by the power build
    # and the eq. 3.1 table; the second walk and product builders they
    # replaced stay deleted
    users = {"_f_tuple": set(), "_f_row": set(), "_products": set()}
    gone = {"_eq_3_1_failing", "_sigma_product", "mul_many", "eq_3_1_key"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top, name in references(path):
            if name in users:
                users[name].add((path.name, top))
            elif name in gone:
                found.add((path.name, top, name))
    assert users == {
        "_f_tuple": {("power.py", "_f_tuple"), ("power.py", "_f_row")},
        "_f_row": {
            ("power.py", "_f_row"),
            ("power.py", "f_map"),
            ("power.py", "power_solution"),
            ("brace.py", "eq_3_1_failing_sets"),
        },
        "_products": {
            ("power.py", "_products"),
            ("power.py", "power_solution"),
            ("brace.py", "eq_3_1_failing_sets"),
        },
    }
    assert found == set()


def test_one_composition_kernel():
    # every permutation product goes through perm.compose, whose C-speed
    # map perm._right_multiplier is the one itemgetter in the package; a
    # hand-written product by __getitem__ fails here
    found = {
        (path.name, top, name)
        for path in sorted(SRC.glob("*.py"))
        for top, name in references(path)
        if name in ("itemgetter", "__getitem__")
    }
    assert found == {("perm.py", "_right_multiplier", "itemgetter")}


def test_only_permgroup_lists_a_group():
    # every other order is counted by perm.group_order; permgroup lists
    # the group for its element-order multiset
    listing = {"permutation_group", "close_group"}
    found = {
        (module, top)
        for module in ("cli.py", "power.py")
        for top, name in references(SRC / module)
        if name in listing
    }
    assert found == {("cli.py", "cmd_permgroup")}


def test_listing_picks_its_own_generators():
    # close_group skips a generator that it has already listed, so the
    # Schreier–Sims sift that picked the generators for it stays deleted
    gone = {"irredundant_generators", "_sift"}
    found = {
        (path.name, top, name)
        for path in sorted(SRC.glob("*.py"))
        for top, name in references(path)
        if name in gone
    }
    assert found == set()


def test_one_entry_check():
    # every entry passed in from outside is frozen to an int by
    # perm.integers, the one operator.index in the package, whether
    # called as an attribute or imported by name
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "index"
                    and getattr(node.value, "id", None) == "operator"
                ) or (isinstance(node, ast.ImportFrom) and node.module == "operator"):
                    found.add((path.name, getattr(top, "name", "<module>")))
    assert found == {("perm.py", "integers")}


def test_one_default_cap():
    # one default size cap, perm.DEFAULT_CAP: a second module-level
    # default fails here
    found = [
        (path.name, target.id)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if "DEFAULT" in getattr(target, "id", "")
    ]
    assert found == [("perm.py", "DEFAULT_CAP")]


def test_entry_validators_stay_deleted():
    # perm.integers and perm.square_table replaced the per-module entry
    # checks, and perm.DEFAULT_CAP the power module's own default; none
    # of their names is left, in code or in a comment
    gone = ("_integer_row", "_freeze_table", "DEFAULT_POWER_CAP")
    found = [
        f"{path.name}:{n} {name}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for name in gone
        if name in line
    ]
    assert found == []


def test_one_report_type():
    # every checked property is reported by solution.VerifyReport; a
    # second report type fails here
    found = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name.endswith("Report")
    ]
    assert found == ["solution.py:VerifyReport"]


def test_one_sigma_condition_search():
    # the σ-condition on a whole table is decided by one search, defined
    # once in solution.py: the gate accepts on it and the two reports
    # print its witness
    search = "_sigma_condition_witness"
    found = {
        (path.name, top, name)
        for path in sorted(SRC.glob("*.py"))
        for top, name in references(path)
        if name in (search, "_is_solution")
    }
    assert found == {
        ("solution.py", search, search),
        ("solution.py", "from_sigma", search),
        ("solution.py", "verify_tables", search),
        ("brace.py", "check_lambda_properties", search),
    }


def test_one_placement_search():
    # the σ-row and λ-row searches share one depth-first placement,
    # solution._place, the only function in the package that calls itself
    # (by its name, or as an attribute of a name: a module or self)
    def callee(call):
        if isinstance(call.func, ast.Name):
            return call.func.id
        if isinstance(call.func, ast.Attribute) and isinstance(call.func.value, ast.Name):
            return call.func.attr
        return None

    recursive = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call) and callee(call) == node.name
                for call in ast.walk(node)
            ):
                recursive.add((path.name, node.name))
    users = {
        (path.name, top)
        for path in sorted(SRC.glob("*.py"))
        for top, name in references(path)
        if name == "_place" and top != "_place"
    }
    assert recursive == {("solution.py", "_place")}
    assert users == {("solution.py", "enumerate_solutions"), ("brace.py", "find_braces")}


def test_brace_search_skips_no_candidate():
    # find_braces builds every survivor of its search with the validating
    # brace_from_tables, so brace.py catches no AxiomError (nor a bare
    # except or a base class of it) and a failing survivor surfaces
    catching = {"AxiomError", "YbeError", "ValueError", "Exception", "BaseException"}
    path = SRC / "brace.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None or catching & {
            getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node.type)
        }:
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_brace_scan_oracle_stays_in_tests():
    # the scan of Aut(A)^(k−1) is the tests' oracle of find_braces
    found = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "_scan_braces" in line
    ]
    assert found == []


def test_layer_trace_names_resolve():
    # the benchmark's layer trace wraps these names by module.__dict__
    # lookup; read its WRAPPED tuple from the syntax tree, so a rename in
    # the package fails here rather than in a traced benchmark run
    path = ROOT / "perfbench" / "layertrace.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]
    ]
    assert wrapped
    missing = []
    for module_name, attr, _ in wrapped:
        owner = importlib.import_module(f"ybe.{module_name}")
        *path_parts, leaf = attr.split(".")
        for part in path_parts:
            owner = getattr(owner, part, None)
        if leaf not in getattr(owner, "__dict__", {}):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
