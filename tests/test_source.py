"""Checks on the package source itself."""

import ast
from pathlib import Path

import hypharm

SOURCE = Path(hypharm.__file__).parent

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
