"""Command-line front end.

Subcommands: verify, characters, norms, amenability, deform, product,
quantum, p2.  Exit codes: 0 all checks pass, 1 a mathematical check
exceeded its tolerance, 2 usage or input error.  With ``--format
structured`` the output follows the report grammar in
:mod:`hypharm.report` and is byte-identical across runs for identical
configurations (including the seed).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

import numpy as np

from . import amenability as am
from . import builders, core, groups, norms, quantum, spectral
from .errors import HypharmError, TruncationOverflow
from .report import ReportDoc

DEFAULT_TOL_ENV = "HYPHARM_TOL"


class UsageError(Exception):
    """Bad combination of command-line arguments."""


def _add_table_args(p: argparse.ArgumentParser, suffix: str = "") -> None:
    p.add_argument(f"--family{suffix}", help="built-in family name")
    p.add_argument(f"--group{suffix}", help="group name for conj/irr families")
    p.add_argument(f"--n{suffix}", type=int, help="order for cyclic")
    p.add_argument(f"--q{suffix}", help="deformation / branching parameter")
    p.add_argument(f"--radius{suffix}", type=int, help="truncation radius")
    p.add_argument(f"--file{suffix}", help="hypergroup or cayley file to load")


def _build_table(args, suffix: str = "") -> core.HypergroupTable:
    get = lambda name: getattr(args, name + suffix)
    if get("file"):
        path = get("file")
        with open(path) as fh:
            first = fh.readline()
        if first.startswith("cayley"):
            return builders.group_hypergroup(groups.load_group(path))
        return core.load_table(path)
    if not get("family"):
        raise UsageError("need --family or --file to define a table")
    spec = builders.FamilySpec(
        get("family"),
        n=get("n"),
        q=core.parse_number(get("q")) if get("q") else None,
        radius=get("radius"),
        group=get("group"),
    )
    return builders.family(spec)


def _emit(args, doc: ReportDoc, text) -> None:
    """Write the report in the requested format; ``text()`` gives the text lines."""
    out = doc.render() if args.format == "structured" else "\n".join(text()) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    sys.stdout.write(out)


def cmd_verify(args) -> int:
    H = _build_table(args)
    rep = core.verify_axioms(H, tol=args.tol)
    doc = ReportDoc("verify", args.seed, args.tol)
    doc.add("table", H.name)
    doc.add("size", H.size)
    doc.add("mode", rep.mode)
    for name, chk in rep.checks.items():
        doc.add(f"axiom.{name}.pass", chk.passed)
        doc.add(f"axiom.{name}.violation", chk.violation)
    haar_ok = True
    try:
        lam = core.haar_weights(H, tol=args.tol)
        doc.add("haar", list(lam))
    except core.ZeroDiagonal as exc:
        haar_ok = False
        doc.add("haar.error", str(exc))
    doc.add("pass", rep.passed and haar_ok)
    _emit(args, doc, lambda: rep.lines() + [f"haar: {'ok' if haar_ok else 'FAIL'}"])
    return 0 if (rep.passed and haar_ok) else 1


def cmd_characters(args) -> int:
    H = _build_table(args)
    if H.truncated:
        raise UsageError("characters needs a finite table; use p2/deform on sections")
    ct = spectral.characters(H, tol=args.tol, seed=args.seed)
    doc = ReportDoc("characters", args.seed, args.tol)
    doc.add("table", H.name)
    doc.add("count", ct.size)
    doc.add("residual", ct.residual)
    for i in range(ct.size):
        doc.add(f"char.{i}.values", [complex(v) for v in ct.chars[i]])
        doc.add(f"char.{i}.plancherel", float(ct.plancherel[i]))
        doc.add(f"char.{i}.positive", ct.positive[i])
    doc.add("pass", True)
    _emit(args, doc, ct.lines)
    return 0


def _random_functions(H, count, seed):
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(H.size) + 1j * rng.standard_normal(H.size)
        for _ in range(count)
    ]


def _load_function(path: str, size: int) -> np.ndarray:
    """A function file: one ``index re [im]`` line per element, others zero."""
    f = core.LineFile(path, None)
    index = core.int_in(0, size)
    u = np.zeros(size, dtype=complex)
    seen = set()
    for ln, toks in f.body:
        with f.at(ln):
            if len(toks) not in (2, 3):
                raise ValueError("function line needs 'index re [im]'")
            i = index(toks[0])
            if i in seen:
                raise core.FileFormatError(f"duplicate index {i}", line=ln)
            seen.add(i)
            im = core._finite(toks[2]) if len(toks) == 3 else 0
            u[i] = complex(float(core._finite(toks[1])), float(im))
    return u


def cmd_norms(args) -> int:
    H = _build_table(args)
    us = []
    if args.u_file:
        us.append(_load_function(args.u_file, H.size))
    elif args.random < 1:
        # a verdict needs at least one function checked
        raise UsageError(f"--random must be at least 1, got {args.random}")
    else:
        us.extend(_random_functions(H, args.random, args.seed))
    glist = tuple(groups.get_group(g) for g in args.groups.split(",")) if args.groups else None
    doc = ReportDoc("norms", args.seed, args.tol)
    doc.add("table", H.name)
    reps = []
    ok = True
    ct = None if H.truncated else spectral.characters(H, seed=args.seed)
    products = {}
    for k, u in enumerate(us):
        rep = norms.compute_norm_report(
            H, u, ct=ct, groups=glist, with_mcb=args.mcb and not H.truncated,
            seed=args.seed, products=products,
        )
        reps.append(rep)
        if rep.finite:
            a, b, ma = rep.norm_A, rep.norm_Blambda, rep.norm_MA
            doc.add(f"u{k}.norm_a", a)
            doc.add(f"u{k}.norm_blambda", b)
            doc.add(f"u{k}.norm_ma", ma)
            if rep.witness is not None:
                doc.add(f"u{k}.witness.xi", rep.witness.xi.tolist())
                doc.add(f"u{k}.witness.eta", rep.witness.eta.tolist())
                doc.add(f"u{k}.witness.product_error", rep.witness.product_error)
            scale = max(1.0, a)
            if abs(a - b) > args.tol * scale or abs(b - ma) > args.tol * scale:
                ok = False
            if rep.norm_Mcb is not None:
                doc.add(f"u{k}.norm_mcb", rep.norm_Mcb)
                if abs(rep.norm_Mcb - ma) > args.tol * scale:
                    ok = False
        else:
            for nm, iv in (
                ("norm_a", rep.norm_A),
                ("norm_blambda", rep.norm_Blambda),
                ("norm_ma", rep.norm_MA),
            ):
                doc.add(f"u{k}.{nm}.lower", iv.lower)
                doc.add(f"u{k}.{nm}.upper", iv.upper)
    doc.add("pass", ok)
    _emit(args, doc, lambda: [line for rep in reps for line in rep.lines()])
    return 0 if ok else 1


def cmd_amenability(args) -> int:
    H = _build_table(args)
    doc = ReportDoc("amenability", args.seed, args.tol)
    doc.add("table", H.name)
    if H.truncated:
        radii = tuple(int(t) for t in args.radii.split(","))
        wa = am.weak_amenability_witness(H, radii=radii, seed=args.seed)
        doc.add("weak_amenability.bound", wa.constant_bound)
        doc.add("weak_amenability.residuals_decreasing", wa.residuals_decreasing)
        for e in wa.entries:
            doc.add(f"radius{e.radius}.ma_bound", e.ma_bound)
            for name, r in sorted(e.residuals.items()):
                doc.add(f"radius{e.radius}.residual.{name}", r)
        ok = wa.constant_bound <= 1 + 1e-6 and wa.residuals_decreasing
        doc.add("pass", ok)
        _emit(args, doc, lambda: [f"weak amenability of {H.name}: bound {wa.constant_bound!r}"]
              + [f"  radius {e.radius}: bound {e.ma_bound!r} residuals {e.residuals}"
                 for e in wa.entries])
        return 0 if ok else 1
    rep = am.amenability_report(H, seed=args.seed)
    doc.add("p2", rep.p2_status)
    doc.add("psi.norm_blambda", rep.psi_norm)
    doc.add("phi.values", [float(v) for v in rep.phi_values])
    doc.add("phi_inverse.norm_ma", rep.phi_inverse_ma_norm)
    doc.add("one_delta.norm_ma", rep.one_delta_ma_norm)
    doc.add("approx_diagonal.bound", rep.approx_diagonal_bound)
    doc.add("approx_diagonal.commutator", rep.commutator_norm)
    doc.add("weak_amenability.bound", rep.weak_amenability_bound)
    ok = (
        rep.commutator_norm == 0.0
        and rep.weak_amenability_bound <= 1 + 1e-6
        and rep.submultiplicative_slack >= -args.tol
    )
    doc.add("pass", ok)
    _emit(args, doc, rep.lines)
    return 0 if ok else 1


def cmd_deform(args) -> int:
    H = _build_table(args)
    chi = spectral.chi0(H, tol=args.tol, seed=args.seed)
    pair = spectral.voit_deform(H, chi, tol=args.tol, seed=args.seed)
    p2_def = spectral.check_p2(pair.deformed)
    lam_err = float(np.abs(pair.deformed.lam - chi**2 * H.lam).max())
    doc = ReportDoc("deform", args.seed, args.tol)
    doc.add("table", H.name)
    doc.add("chi0.values", [float(v) for v in chi])
    doc.add("deformed.table", pair.deformed.name)
    doc.add("deformed.axiom_violation", pair.axiom_violation)
    doc.add("deformed.dual_map_residual", pair.dual_map_residual)
    doc.add("deformed.p2", p2_def.status)
    doc.add("haar_deformed.max_error", lam_err)
    ok = (
        pair.defect() is None
        and lam_err <= 1e-10
        and p2_def.status in ("holds", "inconclusive")
    )
    doc.add("pass", ok)
    _emit(args, doc, lambda: [
        f"Voit deformation of {H.name}",
        f"  chi0 at generator: {float(chi[H.generator])!r}",
        f"  deformed axioms max violation: {pair.axiom_violation!r}",
        f"  dual map residual: {pair.dual_map_residual!r}",
        f"  lam' = chi0^2 lam max error: {lam_err!r}",
    ] + p2_def.lines())
    return 0 if ok else 1


def cmd_product(args) -> int:
    H1 = _build_table(args)
    H2 = _build_table(args, suffix="2")
    K = builders.product(H1, H2)
    rep = core.verify_axioms(K, tol=args.tol)
    doc = ReportDoc("product", args.seed, args.tol)
    doc.add("left", H1.name)
    doc.add("right", H2.name)
    doc.add("table", K.name)
    doc.add("size", K.size)
    for name, chk in rep.checks.items():
        doc.add(f"axiom.{name}.pass", chk.passed)
    doc.add("haar", list(K.haar))
    doc.add("pass", rep.passed)
    _emit(args, doc, rep.lines)
    return 0 if rep.passed else 1


def cmd_quantum(args) -> int:
    if args.fusion_file:
        ring = quantum.load_fusion_ring(args.fusion_file)
    elif args.group:
        ring = quantum.group_fusion_ring(groups.get_group(args.group))
    else:
        if args.radius is None:
            raise UsageError("quantum needs --fusion-file, --group, or --q/--radius")
        ring = quantum.su2_fusion_ring(args.radius, q=core.parse_number(args.q) if args.q else 1)
    Hn = quantum.hypergroup_n(ring)
    Hd = quantum.hypergroup_d(ring)
    kac = quantum.is_kac(ring)
    rep_d = core.verify_axioms(Hd, tol=max(args.tol, 1e-12))
    doc = ReportDoc("quantum", args.seed, args.tol)
    doc.add("ring", ring.name)
    doc.add("labels", list(ring.labels))
    doc.add("ndims", list(ring.ndims))
    doc.add("ddims", [float(d) for d in ring.ddims])
    doc.add("kac", kac)
    doc.add("hypergroup_n", Hn.name)
    doc.add("hypergroup_d", Hd.name)
    doc.add("d_table.axioms_pass", rep_d.passed)
    if kac:
        same = Hn.view.same_entries(Hd.view)
        doc.add("n_equals_d", same)
        ok = rep_d.passed and same
    else:
        p2n = spectral.check_p2(Hn)
        doc.add("p2.n_table", p2n.status)
        ok = rep_d.passed
    row = None
    if ring.size >= 3 and (1, 1) in ring.mult:
        row = dict(Hd.row(1, 1))
        doc.add("d22.row", [float(row.get(0, 0)), float(row.get(2, 0))])
    doc.add("pass", ok)

    def text():
        out = [
            f"fusion ring {ring.name}: kac={kac}",
            f"  (Irr,n) = {Hn.name}; (Irr,d) = {Hd.name}",
            f"  (Irr,d) axioms pass: {rep_d.passed}",
        ]
        out += [f"  Kac: tables coincide = {same}"] if kac else p2n.lines()
        if row is not None:
            out.append(f"  delta2.delta2 on (1,3): {float(row.get(0, 0))!r}, "
                       f"{float(row.get(2, 0))!r}")
        return out

    _emit(args, doc, text)
    return 0 if ok else 1


def cmd_p2(args) -> int:
    H = _build_table(args)
    rep = spectral.check_p2(H)
    doc = ReportDoc("p2", args.seed, args.tol)
    doc.add("table", H.name)
    doc.add("status", rep.status)
    doc.add("lower_bound", rep.lower_bound)
    doc.add("upper_bound", rep.upper_bound)
    if rep.cert_bound is not None:
        doc.add("certified_bound", rep.cert_bound)
    for r, b in rep.section_bounds:
        doc.add(f"section.{r}.lower", b)
    doc.add("certificate", rep.certificate)
    doc.add("pass", True)
    _emit(args, doc, rep.lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypharm",
        description="discrete commutative hypergroups: harmonic analysis, "
        "multiplier norms, amenability certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", help=f"tolerance, a finite number >= 0 (default "
                       f"${DEFAULT_TOL_ENV}, else {core.DEFAULT_TOL:g})")
        p.add_argument("--seed", type=int, default=core.DEFAULT_SEED)
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("--out", help="also write the report to this file")

    for name, fn in (
        ("verify", cmd_verify),
        ("characters", cmd_characters),
        ("norms", cmd_norms),
        ("amenability", cmd_amenability),
        ("deform", cmd_deform),
        ("product", cmd_product),
        ("quantum", cmd_quantum),
        ("p2", cmd_p2),
    ):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)
        if name == "quantum":
            p.add_argument("--group", help="finite group: the fusion ring of Irr(G)")
            p.add_argument("--q", help="deformation parameter of the SU_q(2) ring")
            p.add_argument("--radius", type=int, help="truncation radius of the SU_q(2) ring")
            p.add_argument("--fusion-file", help="fusion ring file to load")
        else:
            _add_table_args(p)
        if name == "norms":
            p.add_argument("--u-file", help="function file: lines 'index re [im]'")
            p.add_argument("--random", type=int, default=5)
            p.add_argument("--mcb", action="store_true")
            p.add_argument("--groups", help="comma list for the Mcb supremum")
        if name == "amenability":
            p.add_argument("--radii", default="5,10,20")
        if name == "product":
            _add_table_args(p, suffix="2")
    return parser


def _tolerance(args) -> float:
    """``--tol``, else ``$HYPHARM_TOL``, else the default: a finite number >= 0."""
    name, tok = "--tol", args.tol
    if tok is None:
        name, tok = DEFAULT_TOL_ENV, os.environ.get(DEFAULT_TOL_ENV)
        if tok is None:
            return core.DEFAULT_TOL
    try:
        tol = float(tok)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {tok!r}")
    return tol


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Each argparse action points back at its parser, so the parser is a web
    # of reference cycles.  Free it now, while it is young: left to the full
    # collections, which come rarer the more objects a process holds, one
    # parser per call piles up in a process that calls run() repeatedly.
    gc.collect(1)
    try:
        args.tol = _tolerance(args)
        return args.fn(args)
    except (core.FileFormatError, OSError, UsageError, KeyError,
            ValueError, TruncationOverflow) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (HypharmError, ArithmeticError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
