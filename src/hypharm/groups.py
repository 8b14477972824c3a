"""Finite groups given by Cayley tables, plus the built-in catalogue."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .core import LineFile, int_in
from .errors import FileFormatError, NoIdentity, NotAssociative, NotLatinSquare

# Values in one block of the associativity check (2 MB of int64 per side).
ASSOCIATIVITY_BLOCK = 2**18


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as an index Cayley table (identity at index 0)."""

    name: str
    order: int
    cayley: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    abelian: bool

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes ordered identity first, then by smallest member index."""
        n = self.order
        T = np.array(self.cayley, dtype=np.int64).reshape(n, n)
        # column g of T[T, inv] holds h g h^-1 for every h: the class of g,
        # named by its least member, the one g with least[g] = g
        least = T[T, np.array(self.inverse)[:, None]].min(axis=0)
        classes = [tuple(np.flatnonzero(least == k).tolist())
                   for k in np.flatnonzero(least == np.arange(n)).tolist()]
        classes.sort(key=lambda cl: (self.identity not in cl, cl[0]))
        return tuple(classes)

    def class_of(self) -> tuple[int, ...]:
        """Map element index -> conjugacy class index."""
        out = [0] * self.order
        for k, cl in enumerate(self.conjugacy_classes()):
            for g in cl:
                out[g] = k
        return tuple(out)


def from_cayley_table(table, name: str = "group") -> FiniteGroup:
    """Validate a square index table and wrap it as a group.

    Raises :class:`NotLatinSquare`, :class:`NoIdentity` or
    :class:`NotAssociative` naming the failed axiom, and for associativity
    the first failing triple (a, b, c) in lexicographic order.
    """
    tab = tuple(tuple(int(v) for v in row) for row in table)
    n = len(tab)
    if any(len(row) != n for row in tab):
        raise NotLatinSquare(f"{name}: table is not square")
    # -1 stands for every value out of range, even beyond int64: no permutation holds it
    T = np.array([[v if 0 <= v < n else -1 for v in row] for row in tab],
                 dtype=np.int64).reshape(n, n)
    ids = np.arange(n)
    for line, lines in (("row", T), ("column", T.T)):
        if (bad := np.flatnonzero((np.sort(lines, axis=1) != ids).any(axis=1))).size:
            raise NotLatinSquare(f"{name}: {line} {bad[0]} is not a permutation")
    units = np.flatnonzero((T == ids).all(axis=1) & (T == ids[:, None]).all(axis=0))
    if not units.size:
        raise NoIdentity(f"{name}: no two-sided identity")
    identity = int(units[0])
    # (a.b).c against a.(b.c) for the a of one block at a time
    step = max(1, ASSOCIATIVITY_BLOCK // max(1, n * n))
    for lo in range(0, n, step):
        rows = T[lo:lo + step]
        left, right = T[rows], np.take(rows, T, axis=1)
        if not np.array_equal(left, right):
            a, b, c = np.argwhere(left != right)[0].tolist()
            a += lo
            raise NotAssociative(f"{name}: ({a}.{b}).{c} != {a}.({b}.{c})")
    inverse = (T == identity).argmax(axis=1)
    if (bad := np.flatnonzero(T[inverse, ids] != identity)).size:
        raise NotAssociative(f"{name}: one-sided inverse at {bad[0]}")
    return FiniteGroup(name, n, tab, identity, tuple(inverse.tolist()), bool((T == T.T).all()))


def _from_permutations(perms, name: str) -> FiniteGroup:
    perms = list(perms)
    npts = len(perms[0])
    ident = tuple(range(npts))
    perms.sort()
    perms.remove(ident)
    perms.insert(0, ident)
    index = {p: i for i, p in enumerate(perms)}

    def compose(a, b):
        return tuple(a[b[i]] for i in range(npts))

    table = [[index[compose(a, b)] for b in perms] for a in perms]
    return from_cayley_table(table, name)


@lru_cache(maxsize=None)
def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return from_cayley_table(table, f"Z{n}")


@lru_cache(maxsize=None)
def klein() -> FiniteGroup:
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return from_cayley_table(table, "K4")


@lru_cache(maxsize=None)
def symmetric(n: int) -> FiniteGroup:
    return _from_permutations(permutations(range(n)), f"S{n}")


@lru_cache(maxsize=None)
def alternating(n: int) -> FiniteGroup:
    def parity(p):
        seen = [False] * len(p)
        par = 0
        for i in range(len(p)):
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                ln += 1
            par ^= (ln - 1) & 1
        return par

    return _from_permutations(
        (p for p in permutations(range(n)) if parity(p) == 0), f"A{n}"
    )


@lru_cache(maxsize=None)
def dihedral4() -> FiniteGroup:
    """Symmetries of the square, as permutations of its corners."""
    r = (1, 2, 3, 0)
    s = (1, 0, 3, 2)

    def compose(a, b):
        return tuple(a[b[i]] for i in range(4))

    elems = {tuple(range(4))}
    frontier = [tuple(range(4))]
    while frontier:
        g = frontier.pop()
        for h in (r, s):
            for x in (compose(g, h), compose(h, g)):
                if x not in elems:
                    elems.add(x)
                    frontier.append(x)
    return _from_permutations(elems, "D4")


@lru_cache(maxsize=None)
def quaternion8() -> FiniteGroup:
    """Q8 = {1, -1, i, -i, j, -j, k, -k}."""
    # encode q = (sign, axis) with axis 0 -> 1, 1 -> i, 2 -> j, 3 -> k
    mul_axis = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    elems = [(1, 0), (-1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (-1, 3)]
    index = {q: i for i, q in enumerate(elems)}

    def mul(a, b):
        s, ax = mul_axis[(a[1], b[1])]
        return (s * a[0] * b[0], ax)

    table = [[index[mul(a, b)] for b in elems] for a in elems]
    return from_cayley_table(table, "Q8")


_BUILTINS = {
    "s3": lambda: symmetric(3),
    "s4": lambda: symmetric(4),
    "a4": lambda: alternating(4),
    "d4": dihedral4,
    "q8": quaternion8,
    "klein": klein,
}


def get_group(name: str) -> FiniteGroup:
    """Look up a built-in group by name ('s3', 'd4', 'q8', 'a4', 'z<n>', ...)."""
    key = name.lower()
    if key in _BUILTINS:
        return _BUILTINS[key]()
    if key.startswith("z") and key[1:].isdigit():
        return cyclic(int(key[1:]))
    raise KeyError(f"unknown group {name!r}")


# -- group file format: "cayley <n>" header + n lines of n indices -------


def save_group(G: FiniteGroup, path: str) -> None:
    lines = [f"cayley {G.order}"]
    for row in G.cayley:
        lines.append(" ".join(str(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_group(path: str, name: str | None = None) -> FiniteGroup:
    f = LineFile(path, "cayley")
    n = f.value("cayley", int_in(1))
    if len(f.body) != n:
        raise FileFormatError(
            f"expected {n} table lines, found {len(f.body)}",
            line=f.body[n][0] if len(f.body) > n else f.end,
        )
    table = []
    for ln, toks in f.body:
        with f.at(ln):
            table.append([int(t) for t in toks])
        if len(toks) != n:
            raise FileFormatError(f"row has {len(toks)} entries, expected {n}", line=ln)
    return from_cayley_table(table, name or "group")
