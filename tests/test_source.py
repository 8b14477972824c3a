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
