"""Every public function and method of the library has a caller, every
defaulted parameter is set by some caller, every parameter is read, every
exported name exists, and decompositions and cubes stay arrays: `Atom`,
`Patch` and `Cube` objects are built only at the sites listed below.

A parameter with a default that no call in `src/varhardy` or `perfbench/`
passes, by position or by keyword, is a setting with one value in use: it
belongs in a module constant.  Calls are matched by the called name alone
(`f(...)` or `obj.f(...)`), so a parameter counts as used when any callable
of that name receives it; for a method the receiver takes no position.
A public function or method that no code there names is reached only by
tests: it belongs in the tests, or nowhere.

Methods are matched by attribute name alone, so a method whose name some
other attribute shares (an array field `values`, a field `cube`) counts as
read although nothing calls it.  `CubeLayout.cube`, `Atom.values` and
`Patch.materialize` hid that way, and were deleted on a line trace of the
tests, the CLI commands and the benchmark workloads, none of which ran them.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "varhardy"
CALLERS = [*sorted(LIBRARY.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]

# parameters that only tests or users set, each with its reason
ALLOWED = {
    "atoms.atomic_decompose(q)": "the paper's atom exponent q; tests check its lower bound",
    "atoms.atomic_decompose(v)": "the paper's sequence exponent v; tests check its bound",
    "weights.reverse_holder_check(q)": "an explicit exponent lets tests force the bound to fail",
    "cli.main(argv)": "the console entry point reads sys.argv; tests pass argv",
}


# public functions that no library or benchmark code names, each with its reason
UNREFERENCED = {
    "atoms.load_decomposition": "reads the files that `varhardy atoms --out` writes",
    "atoms.whitney_decompose": "the benchmark traces it by the string name in its TRACED table",
    "littlewood_paley.square_function": "the benchmark traces it by the string name in its TRACED table",
}


# public methods and properties that no library or benchmark code reads,
# each with its reason
UNREFERENCED_METHODS: dict[str, str] = {}


# parameters that a function never reads, each with its reason
UNREAD = {
    "harness.suite_e3(rng)": "every suite takes (cfg, rng); E3 draws nothing at random",
    "harness.suite_e4(rng)": "every suite takes (cfg, rng); E4 draws nothing at random",
    "cli.cmd_list(args)": "an argparse handler takes the parsed arguments",
    "atoms.validate_atom(p)": "the benchmark's round trips pass it",
}


# functions that build `Atom`, `Patch` or `Cube` objects, each with its reason
OBJECT_SITES = {
    "atoms._Rows.atoms(Atom)": "the `dec.atoms` view, which the benchmark validates atom by atom",
    "atoms._Rows.atoms(Patch)": "the `dec.atoms` view, which the benchmark validates atom by atom",
    "atoms._cube_list(Cube)": "the supports of the `dec.atoms` view and `whitney_decompose`'s list, which the benchmark reads",
}


def _functions_of(path):
    """(name, node, positional parameters without self or cls) of every
    module-level function and method of one module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            scoped = [(f"{path.stem}.{node.name}", node, False)]
        elif isinstance(node, ast.ClassDef):
            scoped = [
                (f"{path.stem}.{node.name}.{fn.name}", fn, True)
                for fn in node.body
                if isinstance(fn, ast.FunctionDef)
            ]
        else:
            continue
        for name, fn, bound in scoped:
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            if bound and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list):
                positional = positional[1:]  # self or cls
            yield name, fn, positional


def _functions():
    """`_functions_of` over every library module."""
    for path in sorted(LIBRARY.glob("*.py")):
        yield from _functions_of(path)


def _defaulted_parameters():
    """(name, called name, parameter, its position or None) per defaulted
    parameter of a module-level function or method."""
    for name, fn, positional in _functions():
        args = fn.args
        for a in positional[len(positional) - len(args.defaults):] if args.defaults else []:
            yield name, fn.name, a, positional.index(a)
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, fn.name, a.arg, None


def _callers():
    """Parsed trees of the library and benchmark modules, tests excluded."""
    return [ast.parse(path.read_text()) for path in CALLERS if not path.name.startswith("test_")]


def _calls():
    """(called name, positional count, keyword names) of every call."""
    for tree in _callers():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                yield called, float("inf") if starred else len(node.args), {k.arg for k in node.keywords}


def test_every_defaulted_parameter_has_a_caller():
    calls = list(_calls())
    dead = {
        f"{name}({param})"
        for name, called, param, pos in _defaulted_parameters()
        if not any(c == called and (param in kw or (pos is not None and n > pos)) for c, n, kw in calls)
    }
    # an allow-list entry that has gained a caller, or names no parameter, is stale
    assert sorted(dead) == sorted(ALLOWED)


def test_every_parameter_is_read():
    unread = set()
    for name, fn, positional in _functions():
        args = fn.args
        params = positional + [a.arg for a in args.kwonlyargs + [args.vararg, args.kwarg] if a is not None]
        names = (n for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name))
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        unread |= {f"{name}({a})" for a in params if a not in read}
    # an allow-list entry whose parameter is now read, or gone, is stale
    assert sorted(unread) == sorted(UNREAD)


def _referenced():
    """Every name or attribute that library or benchmark code reads as a
    value: a call, or an entry of a table such as SUITES; imports and the
    strings of __all__ are not reads."""
    return {
        getattr(node, "id", None) or node.attr
        for tree in _callers()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_function_is_referenced():
    referenced = _referenced()
    unreferenced = {
        f"{path.stem}.{node.name}"
        for path in sorted(LIBRARY.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in referenced
    }
    # an allow-list entry that has gained a reference, or is gone, is stale
    assert sorted(unreferenced) == sorted(UNREFERENCED)


def test_every_public_method_is_referenced():
    referenced = _referenced()
    unreferenced = {
        f"{path.stem}.{node.name}.{fn.name}"
        for path in sorted(LIBRARY.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        for fn in node.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_") and fn.name not in referenced
    }
    # an allow-list entry that has gained a reference, or is gone, is stale
    assert sorted(unreferenced) == sorted(UNREFERENCED_METHODS)


def test_every_export_resolves():
    stale = []
    for path in sorted(LIBRARY.glob("*.py")):
        module = importlib.import_module("varhardy" if path.stem == "__init__" else f"varhardy.{path.stem}")
        stale += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert stale == []


def test_atoms_and_patches_only_at_listed_sites():
    sites = set()
    for path in sorted(LIBRARY.glob("*.py")):
        for name, fn, _ in _functions_of(path):
            sites |= {
                f"{name}({node.func.id})"
                for node in ast.walk(fn)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("Atom", "Patch", "Cube")
            }
    # an allow-list entry whose function no longer builds the object is stale
    assert sorted(sites) == sorted(OBJECT_SITES)
