"""The exact convolution calculus: the reference that ``hypharm.convolve`` is tested against.

:class:`HFunction` is a finitely supported function, its values kept as
given, so Fraction values stay exact.  :func:`convolve_point`,
:func:`convolve_functions`, :func:`translate`, :func:`involute` and
:func:`l1_norm` compute with it one row ``H.row(x, y)`` at a time, in
loops, where the library convolves arrays in one ``bincount`` over the
table's entries.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from hypharm.core import HypergroupTable

Value = object  # Fraction or float; complex for function values


class HFunction:
    """Finitely supported function on hypergroup element indices.

    The values are kept as given, so Fraction values stay exact under
    :func:`convolve_functions` and :func:`translate`.
    """

    __slots__ = ("values",)

    def __init__(self, values: Mapping[int, Value] | Iterable[tuple[int, Value]] = ()):
        vals = dict(values.items() if isinstance(values, Mapping) else values)
        self.values = {i: v for i, v in vals.items() if v != 0}

    @classmethod
    def delta(cls, x: int) -> "HFunction":
        return cls({x: 1})

    def __getitem__(self, i: int):
        return self.values.get(i, 0)

    def __iter__(self):
        return iter(sorted(self.values.items()))

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        if not isinstance(other, HFunction):
            return NotImplemented
        return self.values == other.values

    def __repr__(self):
        items = ", ".join(f"{i}: {v}" for i, v in self)
        return f"HFunction({{{items}}})"


def convolve_point(H: HypergroupTable, x: int, y: int) -> HFunction:
    """Probability vector z -> c^z_{x,y} of the point product x . y."""
    return HFunction(H.row(x, y))


def convolve_functions(H: HypergroupTable, f: HFunction, g: HFunction) -> HFunction:
    """Weighted convolution f ._lam g.

    Computed through the adjoint identity lam(y) c^z_{x,y} = lam(z) c^y_{x~,z}
    so that only rows (y, z) with y in supp f, z in supp g are touched:

        (f ._lam g)(x) = (1/lam(x)) sum_{y,z} lam(y) lam(z) f(y) g(z) c^x_{y,z}.
    """
    lam = H.haar
    acc: dict[int, Value] = {}
    for y, fy in f.values.items():
        wy = lam[y] * fy
        for z, gz in g.values.items():
            w = wy * lam[z] * gz
            for (xz, c) in H.row(y, z):
                acc[xz] = acc.get(xz, 0) + w * c
    return HFunction({x: v / lam[x] for x, v in acc.items()})


def translate(H: HypergroupTable, x: int, f: HFunction) -> HFunction:
    """Left translation L_x f(y) = f(x~ . y) = sum_z c^z_{x~,y} f(z)."""
    lam = H.haar
    acc: dict[int, Value] = {}
    for z, fz in f.values.items():
        w = lam[z] * fz
        for (y, c) in H.row(x, z):
            acc[y] = acc.get(y, 0) + w * c / lam[y]
    return HFunction(acc)


def involute(H: HypergroupTable, f: HFunction) -> HFunction:
    """f~(x) = conj(f(x~)); the modular function is 1 (commutative case)."""
    out = {}
    for i, v in f.values.items():
        out[H.involution[i]] = v.conjugate() if isinstance(v, complex) else v
    return HFunction(out)


def l1_norm(H: HypergroupTable, f: HFunction) -> float:
    return float(sum(H.haar[i] * abs(v) for i, v in f.values.items()))
