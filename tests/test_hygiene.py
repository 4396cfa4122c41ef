"""Source hygiene: every top-level import of a library module is used there,
no function imports anything, every private top-level function or class,
and every private method, is referenced somewhere, every search
defaults to the one node budget, every JSON document comes from one
encoder, the verify suites share one harness, one helper checks a count
argument, one function in cli.py writes stdout, each CLI command takes
only the flags it reads, ramsey.f_value alone chooses a route for f, no
search enumerates all C(n,p) p-sets, hypercore alone recounts full p-sets,
numbers the touched ones, tests for a graph and builds neighbour sets, the
Hypergraph constructor alone checks and sorts edges, and every library
name and traced method that perfbench refers to exists."""

import argparse
import ast
import importlib
import inspect
from pathlib import Path

from hyperf.cli import build_parser
from hyperf.hypercore import DEFAULT_NODE_BUDGET
from hyperf.orient import orient_from_partition
from hyperf.verify import SUITES

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperf"


def test_top_level_imports_are_used():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.setdefault(path.name, []).append(name)
    assert unused == {}


def _parsed_sources():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def test_no_function_local_imports():
    # a function-local import is how an import cycle gets papered over
    local = [
        f"{name}:{func.name}"
        for name, tree in _parsed_sources().items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


def _referenced_names(trees):
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return referenced


def test_private_top_level_definitions_are_referenced():
    trees = _parsed_sources()
    referenced = _referenced_names(trees)
    orphans = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in referenced
    ]
    assert orphans == []


def test_private_methods_are_referenced():
    trees = _parsed_sources()
    referenced = _referenced_names(trees)
    orphans = [
        f"{name}:{cls.name}.{node.name}"
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in referenced
    ]
    assert orphans == []


def test_one_default_budget():
    # a budget constant lives in hypercore only, and every public budget
    # parameter defaults to it
    stray = [
        f"{name}:{target.id}"
        for name, tree in _parsed_sources().items()
        if name != "hypercore.py"
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith("_BUDGET")
    ]
    for path in sorted(SRC.glob("[!_]*.py")):
        module = importlib.import_module(f"hyperf.{path.stem}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            budget = inspect.signature(obj).parameters.get("budget")
            if budget is not None and budget.default is not inspect.Parameter.empty \
                    and budget.default != DEFAULT_NODE_BUDGET:
                stray.append(f"{path.name}:{attr}")
    assert stray == []


def test_one_json_encoder():
    # reports leave through hypercore.to_json: no hand-written serializer
    # or reader, and no other module encodes JSON
    trees = _parsed_sources()
    serializers = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and ("to_dict" in node.name or "from_dict" in node.name)
    ]
    json_users = sorted(
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name == "json" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "json"
    )
    assert serializers == []
    assert json_users == ["hypercore.py"]


def test_one_verify_harness():
    # every suite is a generator registered by verify._suite, which alone
    # checks the budget and reads the clock
    tree = _parsed_sources()["verify.py"]
    callers = {
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and (ast.unparse(node).startswith("_check_count('budget'")
             or isinstance(node.func, ast.Attribute) and node.func.attr == "perf_counter")
    }
    assert callers == {"_suite"}
    assert list(SUITES) == [
        "hakimi", "via-m", "closed-form", "ramsey-chi", "via-b", "multipartite",
        "perfect-graph", "complement", "mop", "accounting", "join-reduction",
    ]
    for name, suite in SUITES.items():
        # the benchmark's per-suite timings look the suites up by __name__
        assert suite.__name__ == "suite_" + name.replace("-", "_")
        params = inspect.signature(suite).parameters
        assert params["seed"].default == 1
        assert params["budget"].default == DEFAULT_NODE_BUDGET


# names that hold a count argument, or a cap or class size read from one;
# test_hypercore lists the public functions taking an argument so named
_COUNT_NAMES = {"n", "r", "p", "k", "t", "d", "m", "budget", "n_max", "e_max", "cap", "size", "sizes",
                "count"}


def _holders(found):
    """The top-level functions and classes, as "module.py:name", holding a node found(node)."""
    return sorted({
        f"{name}:{func.name}"
        for name, tree in _parsed_sources().items()
        for func in tree.body
        if isinstance(func, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(func)
        if found(node)
    })


def test_one_graph_rule_and_one_neighbour_table():
    # hypercore._check_graph alone refuses a non-graph, and hypercore._neighbours
    # alone builds the per-vertex neighbour sets that graph-only routines read
    assert _holders(lambda node: isinstance(node, ast.Constant)
                    and "is defined for graphs" in str(node.value)) == ["hypercore.py:_check_graph"]
    assert _holders(lambda node: isinstance(node, ast.ListComp)
                    and ast.unparse(node.elt) == "set()") == ["hypercore.py:_neighbours"]


def test_one_level_check():
    # hypercore._check_count and _check_index alone word the refusal of a
    # count or an index argument, and no other module guards a raise by
    # comparing a count with a number or by testing its type
    holders = [
        path.name for path in sorted(SRC.glob("*.py"))
        if "must be an integer" in path.read_text(encoding="utf-8")
    ]
    assert holders == ["hypercore.py"]
    # every range refusal, an edge's vertex included, goes through
    # _check_index (netflow's node check, the flow kernel's own input, says
    # "out of range")
    assert _holders(lambda node: isinstance(node, ast.Constant) and "not in 0.." in str(node.value)) == []

    def count(node):
        return isinstance(node, ast.Name) and node.id in _COUNT_NAMES

    def number(node):
        node = node.operand if isinstance(node, ast.UnaryOp) else node
        return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))

    def domain_test(node):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            return (any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops)
                    and any(map(count, sides)) and any(map(number, sides)))
        return isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" and count(node.args[0])

    guards = [
        f"{name}:{node.lineno}"
        for name, tree in _parsed_sources().items()
        if name != "hypercore.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and any(isinstance(stmt, ast.Raise) for stmt in node.body)
        and any(map(domain_test, ast.walk(node.test)))
    ]
    assert guards == []


def test_partition_orientation_takes_no_remainder():
    # the vertices outside the parts are the function's to compute
    assert list(inspect.signature(orient_from_partition).parameters) == ["h", "k", "parts"]


def test_one_cli_printer():
    # every command returns its exit code, JSON payload and text lines, and
    # cli.main alone prints them; stderr stays open to every command
    def to_stdout(call):
        if isinstance(call.func, ast.Name) and call.func.id == "print":
            return not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                           for kw in call.keywords)
        return ast.unparse(call.func) == "sys.stdout.write"

    writers = {
        func.name
        for func in ast.walk(_parsed_sources()["cli.py"])
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and to_stdout(node)
    }
    assert writers == {"main"}


def test_each_command_takes_the_flags_it_reads():
    # --budget exactly on the commands whose _cmd_* reads args.budget (main
    # resolves HYPERF_BUDGET for those alone), --seed on gen and verify,
    # --json and --quiet everywhere, and no flag taken by a prefix
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    flags = {name: {opt for action in sub._actions for opt in action.option_strings}
             for name, sub in commands.items()}
    reads_budget = {
        name for name, sub in commands.items()
        if any(isinstance(node, ast.Attribute) and ast.unparse(node) == "args.budget"
               for node in ast.walk(ast.parse(inspect.getsource(sub.get_default("func")))))
    }
    assert len(commands) == 12
    assert {name for name in commands if "--budget" in flags[name]} == reads_budget == {
        "f", "chi-r", "b", "m", "bounds", "tset", "pack", "verify"}
    assert {name for name in commands if "--seed" in flags[name]} == {"gen", "verify"}
    assert all({"--json", "--quiet"} <= opts for opts in flags.values())
    assert not build_parser().allow_abbrev
    assert not any(sub.allow_abbrev for sub in commands.values())


# the exact routes for f that ramsey.f_value chooses among
_F_ROUTES = {"closed_form", "closed_form_complete", "closed_form_multipartite",
             "f_via_m", "f_p1_exact", "b_value", "f_bruteforce"}


def test_one_f_router():
    # cli.py reaches f through ramsey.f_value alone, and f_threshold calls
    # no route but f_value and, at p = 1, the complete-hypergraph formula
    trees = _parsed_sources()
    cli_imports = {
        alias.name
        for node in ast.walk(trees["cli.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert cli_imports & _F_ROUTES <= {"b_value"}  # which `hyperf b` prints
    threshold = next(node for node in trees["ramsey.py"].body
                     if isinstance(node, ast.FunctionDef) and node.name == "f_threshold")
    called = {ast.unparse(node.func) for node in ast.walk(threshold) if isinstance(node, ast.Call)}
    assert called & (_F_ROUTES | {"f_value"}) == {"f_value", "closed_form_complete"}


# outputs dense by contract (the degree-vector table, b's witness colouring,
# the complement graph) and verify's reference scans
_DENSE_ENUMERATORS = {
    "hypercore.py:degree_vectors",
    "hypercore.py:complement",
    "ramsey.py:b_value",
    "verify.py:_triangle_hitting_by_scan",
}


def test_no_full_pset_enumeration():
    # work scales with the e*C(r,p) p-sets inside edges, not with C(n,p):
    # combinations(range(x.n), ...) appears only where the output is dense
    def full_scan(call):
        name = ast.unparse(call.func)
        return (name in ("combinations", "itertools.combinations") and call.args
                and isinstance(call.args[0], ast.Call) and ast.unparse(call.args[0].func) == "range"
                and len(call.args[0].args) == 1 and isinstance(call.args[0].args[0], ast.Attribute)
                and call.args[0].args[0].attr == "n")

    scanners = {
        f"{name}:{func.name}"
        for name, tree in _parsed_sources().items()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and full_scan(node)
    }
    assert scanners <= _DENSE_ENUMERATORS, sorted(scanners - _DENSE_ENUMERATORS)


def test_one_recount_and_one_touched_numbering():
    # hypercore._full_psets alone tests degree vectors against the level k
    # (the recount behind f_count and find_tset; f_bruteforce keeps its own
    # search counter), and hypercore._touched_psets alone numbers the
    # touched p-sets: no other module enumerates what it returns
    def level_test(node):
        sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
        return (any(isinstance(side, ast.Call) and ast.unparse(side.func) == "min" for side in sides)
                and any(isinstance(side, ast.Name) and side.id == "k" for side in sides))

    def touched(node, names):
        return (isinstance(node, ast.Call) and ast.unparse(node.func) == "_touched_psets"
                or isinstance(node, ast.Name) and node.id in names)

    strays = []
    for name, tree in _parsed_sources().items():
        if name == "hypercore.py":
            continue
        names = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and touched(node.value, ()) for target in node.targets if isinstance(target, ast.Name)}
        strays += [
            f"{name}:{node.lineno}" for node in ast.walk(tree)
            if level_test(node)
            or isinstance(node, ast.Call) and ast.unparse(node.func) == "enumerate"
            and any(touched(sub, names) for arg in node.args for sub in ast.walk(arg))
        ]
    assert strays == []


def test_one_edge_canonicaliser():
    # Hypergraph.__post_init__ is the one place that checks an edge, nothing
    # builds a Hypergraph around it, and `hyperf gen` reads each family's
    # parameters from its generator instead of naming the family
    def functions(tree):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield node.name, node
            elif isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{f.name}", f) for f in node.body
                            if isinstance(f, ast.FunctionDef))

    trees = _parsed_sources()
    checkers = [
        f"{name}:{qualname}"
        for name, tree in trees.items()
        for qualname, func in functions(tree)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_check_edge"
    ]
    assert checkers == ["hypercore.py:Hypergraph.__post_init__"]
    bypasses = [
        name for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__new__"
    ]
    assert bypasses == []
    gen = next(node for node in trees["cli.py"].body
               if isinstance(node, ast.FunctionDef) and node.name == "_cmd_gen")
    family = {"args.family"} | {
        target.id for node in ast.walk(gen) if isinstance(node, ast.Assign)
        and ast.unparse(node.value) == "args.family"
        for target in node.targets if isinstance(target, ast.Name)
    }

    def names_family(side):
        return ast.unparse(side) in family

    def holds_literal(side):
        return any(isinstance(c, ast.Constant) and isinstance(c.value, str) for c in ast.walk(side))

    by_name = [
        ast.unparse(node) for node in ast.walk(gen)
        if isinstance(node, ast.Compare)
        and any(map(names_family, [node.left, *node.comparators]))
        and any(map(holds_literal, [node.left, *node.comparators]))
        or isinstance(node, ast.Match) and names_family(node.subject)
    ]
    assert by_name == []


def test_perfbench_library_references_resolve():
    # perfbench is outside these tests' paths, so a deleted name it calls would
    # first show when the benchmark runs; its files are read, never imported
    bench = SRC.parent.parent / "perfbench"
    modules = ("hypercore", "extremal", "fcalc", "orient", "ramsey", "verify")
    missing = []
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and not hasattr(importlib.import_module(f"hyperf.{node.value.id}"), node.attr)):
                missing.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    tracer = ast.parse((bench / "tracer.py").read_text(encoding="utf-8"))
    methods = next(ast.literal_eval(node.value) for node in tracer.body if isinstance(node, ast.Assign)
                   and [ast.unparse(t) for t in node.targets] == ["METHODS"])
    assert methods
    for module, cls, method, _ in methods:
        if method not in vars(getattr(importlib.import_module(f"hyperf.{module}"), cls)):
            missing.append(f"tracer.py: METHODS {module}.{cls}.{method}")
    assert missing == []
