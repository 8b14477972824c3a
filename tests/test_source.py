"""Checks on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

import hypharm

SOURCE = Path(hypharm.__file__).parent
# The directories whose calls may set a parameter of the package.
CALLERS = tuple(Path(__file__).resolve().parents[1] / d for d in ("src", "tests", "demos", "bench"))

# (module, function, parameter): parameters kept although never read, with the reason
UNREAD_ALLOWED = {
    # the signature mirrors fourier(H, ct, f): the inverse needs only the characters
    ("spectral.py", "inverse_fourier", "H"),
}


def _unread_parameters():
    out = set()
    for path in sorted(SOURCE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = getattr(fn, "name", "<lambda>")
            out |= {(path.name, name, p) for p in params
                    if p not in read and p not in ("self", "cls")}
    return out


def test_every_parameter_is_read():
    # a parameter no function body reads is an option that does no work
    assert _unread_parameters() == UNREAD_ALLOWED


# (module, function, parameter): defaulted parameters that no call sets, with the reason
UNSET_ALLOWED: set = set()


def _defaulted_parameters():
    """``(module, function, parameter) -> (position, method)`` of each defaulted parameter
    of a function whose name the package defines once; keyword-only ones have no position."""
    defs = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {fn for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
        defs += [(path.name, fn, fn in methods) for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    defined = Counter(fn.name for _, fn, _ in defs)
    out = {}
    for module, fn, method in defs:
        if defined[fn.name] > 1:  # a call names no module, so it could be either
            continue
        args = fn.args
        pos = args.posonlyargs + args.args
        out |= {(module, fn.name, a.arg): (j, method)
                for j, a in enumerate(pos) if j >= len(pos) - len(args.defaults)}
        out |= {(module, fn.name, a.arg): (None, method)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    return out


def _calls():
    """``(name, through an attribute, positional arguments, keywords)`` of every call."""
    out = []
    for path in sorted(p for d in CALLERS for p in d.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                attr = isinstance(node.func, ast.Attribute)
                out.append((node.func.attr if attr else getattr(node.func, "id", None), attr,
                            sum(not isinstance(a, ast.Starred) for a in node.args),
                            {k.arg for k in node.keywords}))
    return out


def _sets(call, function, parameter, position, method):
    """Whether ``call`` calls ``function`` and passes ``parameter``, by keyword or by position.

    A method called through an attribute takes self from it, so its
    positional arguments start at parameter 1.
    """
    name, attr, given, keywords = call
    return name == function and (parameter in keywords or (
        position is not None and given > position - (method and attr)))


def test_every_defaulted_parameter_is_set_by_some_call():
    # a default that no call overrides is a constant
    calls = _calls()
    unset = {(module, fn, p) for (module, fn, p), (j, method) in _defaulted_parameters().items()
             if not any(_sets(call, fn, p, j, method) for call in calls)}
    assert unset == UNSET_ALLOWED


def _unread_imports():
    out = set()
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's names
            continue
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out |= {(path.name, name) for name in bound - read}
    return out


def test_every_import_is_read():
    # a name imported and never read is left behind by code that moved away
    assert _unread_imports() == set()


# Modules whose float paths read the view and the table's arrays, never the
# Fraction rows: those are for row-at-a-time readers, the oracles and the file writer.
FLOAT_MODULES = ("spectral.py", "norms.py", "amenability.py")


def _row_reads(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "rows":
            found.append((node.lineno, ".rows"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("row", "coeff")):
            found.append((node.lineno, f".{node.func.attr}("))
    return found


def _fraction_imports(path):
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
            or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))]


def test_float_paths_read_no_fraction_rows():
    assert _fraction_imports(SOURCE / "spectral.py") == []
    for name in FLOAT_MODULES:
        assert _row_reads(SOURCE / name) == [], name


# (module, name): private names that a module reads from another hypharm
# module, with the reason
PRIVATE_READS_ALLOWED = {
    # the finite-number token rule of the files core loads, for the function
    # and fusion-ring files
    ("cli.py", "core._finite"),
    ("quantum.py", "core._finite"),
    # the length check of a function on a table, for every norm
    ("norms.py", "spectral._as_dense"),
    # a fusion ring's entries are a commutative table's, taken once
    ("quantum.py", "builders._commutative_entries"),
}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_reads():
    out = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> hypharm module, from "from . import m [as a]"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    modules |= {a.asname or a.name: a.name for a in node.names}
                else:
                    out |= {(path.name, f"{node.module}.{a.name}")
                            for a in node.names if _private(a.name)}
        out |= {(path.name, f"{modules[node.value.id]}.{node.attr}") for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)}
    return out


def test_modules_read_no_private_names_of_each_other():
    # a rule read from outside its module belongs to its public interface,
    # where callers and the benchmark's tracer see it
    assert _private_reads() == PRIVATE_READS_ALLOWED
