"""Outside-in span tracer for hypharm.

The tracer wraps, from outside the package, the functions exported by
``hypharm/__init__.py`` plus ``cli.run``, ``ReportDoc.add`` and
``ReportDoc.render``.  Each wrapper is rebound in every ``hypharm`` module
namespace that holds the original, because modules import functions by name
(``norms``, ``quantum`` and ``amenability`` call ``characters`` that way).
Nothing under ``src/`` changes.  Internal helpers that run thousands of
times per job, such as ``pair_index`` and ``format_value``, are not exported
and so not wrapped; the trace would otherwise time itself.

A span is ``(name, start, end, parent, job)``: ``name`` is
``<layer>.<function>`` with the layer the defining module, ``parent`` the
index of the enclosing span (-1 for none) and ``job`` the job number.
Spans stay in memory; :meth:`Tracer.write` saves them at the end of a run.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "report", "core", "groups", "builders", "spectral",
          "norms", "amenability", "quantum")

# Functions whose inclusive time is reported as ``<name>.s``.
TIMED = (
    "core.verify_axioms", "core.haar_weights",
    "builders.tree_radial", "builders.product", "builders.irr_hypergroup",
    "spectral.characters", "spectral.check_p2", "spectral.chi0",
    "spectral.voit_deform", "norms.norm_Mcb_approx",
    "amenability.amenability_report", "amenability.weak_amenability_witness",
)


class Tracer:
    """Records spans and per-job counters for wrapped hypharm functions."""

    def __init__(self):
        self.spans: list = []
        self.counters: list[dict] = []
        self.job = -1
        self._stack: list[int] = []
        self._restore: list = []

    def start_job(self) -> None:
        self.job += 1
        self.counters.append(defaultdict(float))

    def _wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job)
            if count is not None:
                count(self.counters[self.job], result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap the hypharm functions; :meth:`uninstall` undoes it."""
        import hypharm
        from hypharm import cli, report

        wrappers = {}
        for attr, obj in vars(hypharm).items():
            module = getattr(obj, "__module__", "") or ""
            if (callable(obj) and not isinstance(obj, type)
                    and module.startswith("hypharm.")):
                layer = module.split(".")[-1]
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj,
                                                     _COUNTERS.get(f"{layer}.{attr}")))
        wrappers[id(cli.run)] = (cli.run, self._wrap("cli.run", cli.run))
        for modname, mod in list(sys.modules.items()):
            if modname != "hypharm" and not modname.startswith("hypharm."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, val))
        for meth in ("add", "render"):
            orig = report.ReportDoc.__dict__[meth]
            setattr(report.ReportDoc, meth, self._wrap(f"report.ReportDoc.{meth}", orig))
            self._restore.append((report.ReportDoc, meth, orig))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def write(self, path) -> None:
        """Save the spans as gzip JSON lines."""
        with gzip.open(path, "wt") as fh:
            for name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")


def _count_axioms(c, rep, args, kwargs):
    c["core.triples_checked"] += rep.triples_checked
    c["core.triples_skipped"] += rep.triples_skipped


def _count_rows(c, table, args, kwargs):
    c["builders.rows_built"] += len(table.rows)


def _count_characters(c, ct, args, kwargs):
    H = args[0] if args else kwargs["H"]
    n = H.size
    seed = kwargs.get("seed", args[2] if len(args) > 2 else None)
    c["spectral.characters.points"] += n
    c["spectral.characters.dense_bytes"] += 8 * n**3
    c.setdefault("_distinct", set()).add((H.name, n, seed))


# ``family`` dispatches to the other builders, so counting its table too
# would count each table twice.
_COUNTERS = {
    "core.verify_axioms": _count_axioms,
    "builders.group_hypergroup": _count_rows,
    "builders.conjugacy_hypergroup": _count_rows,
    "builders.irr_hypergroup": _count_rows,
    "builders.product": _count_rows,
    "builders.su2_fusion": _count_rows,
    "builders.tree_radial": _count_rows,
    "spectral.characters": _count_characters,
}


def job_self_times(spans) -> dict[int, dict[str, float]]:
    """Per job, the self time of each layer: span time minus child spans."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, job in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (name, t0, t1, parent, job) in enumerate(spans):
        out[job][name.split(".", 1)[0]] += (t1 - t0) - child[i]
    return out


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value per job, unit)``."""
    spans = tracer.spans
    calls: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    timed: dict[str, float] = defaultdict(float)
    for per_layer in job_self_times(spans).values():
        for layer, s in per_layer.items():
            selfs[layer] += s
    for name, t0, t1, parent, job in spans:
        calls[name.split(".", 1)[0]] += 1
        if name in TIMED and not _inside(spans, parent, name):
            timed[name] += t1 - t0
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (selfs[layer] / jobs, "s/job")
        out[f"{layer}.calls"] = (calls[layer] / jobs, "calls/job")
    for name in TIMED:
        out[f"{name}.s"] = (timed[name] / jobs, "s/job")
    totals: dict[str, float] = defaultdict(float)
    distinct = 0
    for c in tracer.counters:
        distinct += len(c.get("_distinct", ()))
        for k, v in c.items():
            if k != "_distinct":
                totals[k] += v
    char_calls = sum(1 for s in spans if s[0] == "spectral.characters")
    out["spectral.characters.calls"] = (char_calls / jobs, "calls/job")
    # No calls wastes nothing, so the useful/attempted ratio is 1 then.
    out["spectral.characters.distinct_ratio"] = (
        distinct / char_calls if char_calls else 1.0, "ratio")
    for k, unit in (("core.triples_checked", "count/job"),
                    ("core.triples_skipped", "count/job"),
                    ("builders.rows_built", "rows/job"),
                    ("spectral.characters.points", "points/job"),
                    ("spectral.characters.dense_bytes", "B/job")):
        out[k] = (totals[k] / jobs, unit)
    return out


def _inside(spans, parent: int, name: str) -> bool:
    """True if an ancestor span has the same name (a nested call)."""
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
