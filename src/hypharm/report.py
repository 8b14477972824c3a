"""The one report of each command, in two renderings.

A command fills a :class:`ReportDoc` with ``key value`` entries in
emission order.  ``--format structured`` writes :meth:`ReportDoc.render`,
the versioned grammar below; ``--format text`` (the default) writes
:meth:`ReportDoc.text`, the same entries one ``key: value`` line each,
without the header and ``end``.

Grammar (version 1)::

    hypharm-report v1
    command <token>
    seed <int>
    tolerance <float-repr>
    <key> <value> [<value> ...]
    ...
    end

Keys are dotted lowercase tokens in emission order.  Values are rendered
deterministically: floats via ``repr`` (shortest round-trip form), exact
rationals as ``p/q``, booleans as ``true``/``false``, sequences
space-separated.  Identical inputs (including the seed) therefore produce
byte-identical documents; golden-file tests diff them directly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def format_value(v) -> str:
    if isinstance(v, np.generic):
        # numpy scalars would otherwise print their repr, e.g. np.float64(x)
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, complex):
        return repr(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, (list, tuple)):
        return " ".join(format_value(x) for x in v)
    try:
        return repr(float(v))
    except (TypeError, ValueError):
        return str(v)


class ReportDoc:
    """Ordered key/value entries: :meth:`render` gives the v1 grammar,
    :meth:`text` the same entries as ``key: value`` lines."""

    def __init__(self, command: str, seed: int, tolerance: float):
        self.command = command
        self.seed = seed
        self.tolerance = tolerance
        self.entries: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        self.entries.append((key, format_value(value)))

    def render(self) -> str:
        lines = [
            "hypharm-report v1",
            f"command {self.command}",
            f"seed {self.seed}",
            f"tolerance {self.tolerance!r}",
        ]
        lines.extend(f"{k} {v}" for k, v in self.entries)
        lines.append("end")
        return "\n".join(lines) + "\n"

    def text(self) -> str:
        return "".join(f"{k}: {v}\n" for k, v in self.entries)
