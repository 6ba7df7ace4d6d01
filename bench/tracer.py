"""Spans around placenet's public functions, recorded from outside the package.

Each wrapped function is replaced at the name its caller looks it up by, so
the package itself is never edited.  Spans (name, start, end, parent, op id)
are kept in memory; the runner writes them out when the run ends.  A name
that no longer exists in the package is recorded as absent and skipped, so a
later refactor that deletes it never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

# A counts function gets (args, result) of one call and returns named counts
# for that call's span.
Counts = Callable[[tuple, Any], dict[str, float]]


def _floyd_counts(args: tuple, result: Any) -> dict[str, float]:
    n = len(result.dist)
    return {"nodes": n, "relaxations": n**3}


WRAPS: tuple[tuple[str, str, Counts | None], ...] = (
    # (lookup path, span name, counts)
    ("placenet.cli.main", "cli.main", None),
    ("placenet.cli.load_scenario", "scenario.load", None),
    ("placenet.scenario.all_pairs_shortest_paths", "network.floyd", _floyd_counts),
    ("placenet.agents.enumerate_situations", "agents.enumerate", None),
    ("placenet.agents.build_situation", "agents.build_situation", None),
    ("placenet.agents.evaluate_all", "agents.evaluate", None),
    ("placenet.production.allocate_output", "production.allocate", None),
    ("placenet.production.plant_economics", "production.economics", None),
    (
        "placenet.costflow.select_raw_warehouses",
        "costflow.raw_select",
        lambda a, r: {"assignments": math.perm(len(a[0].sites.raw_warehouses), len(a[1]))},
    ),
    (
        "placenet.costflow.select_product_warehouses",
        "costflow.pw_select",
        lambda a, r: {"pairs": math.comb(len(a[0].sites.product_warehouses), 2)},
    ),
    (
        "placenet.costflow.greedy_flow",
        "costflow.greedy_flow",
        lambda a, r: {"cells": len(a[0].product_ids) * len(a[1]) * len(a[0].sites.stores)},
    ),
    (
        "placenet.compromise.compromise_select",
        "compromise.select",
        lambda a, r: {"depth": len(r.trace)},
    ),
    ("placenet.report.build_report", "report.build", None),
    ("placenet.report.render_json", "report.render", lambda a, r: {"bytes": len(r.encode())}),
    (
        "placenet.optimizers.solve_transportation",
        "optimizers.transport",
        lambda a, r: {"cells": len(r.allocation) * len(r.allocation[0])},
    ),
    (
        "placenet.optimizers.solve_loading",
        "optimizers.loading",
        lambda a, r: {"cells": (len(a[0].items) + 2) * (a[0].capacity + 1)},
    ),
    (
        "placenet.optimizers.solve_production_plan",
        "optimizers.plan",
        lambda a, r: {"vars": len(a[0].profit)},
    ),
)

# Method whose calls are counted but not timed: a span per call would cost
# more than the call itself.
COUNTED = ("placenet.scenario.Scenario.distance", "scenario.distance")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    failed: bool = False
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(path: str) -> tuple[Any, str] | None:
    """(owner, attribute) for a dotted path, or None when it does not exist."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
        if owner is not None and hasattr(owner, parts[-1]):
            return owner, parts[-1]
        return None
    return None


class Tracer:
    """Installs the wrappers, records spans and counters, restores on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: dict[tuple[str, int], int] = {}  # (counter, op) -> calls
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        """Wraps every name that exists; may be called again after restore()."""
        self.absent = []
        for path, name, counts in WRAPS:
            self._patch(path, lambda fn, name=name, counts=counts: self._timed(fn, name, counts))
        path, name = COUNTED
        self._patch(path, lambda fn: self._counted(fn, name))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, path: str, make: Callable[[Any], Any]) -> None:
        found = _resolve(path)
        if found is None:
            self.absent.append(path)
            return
        owner, attr = found
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    @contextmanager
    def span(self, name: str):
        """A span around a block, e.g. one whole op; yields the span's index."""
        index = self._open(name)
        try:
            yield index
        except BaseException:
            self.spans[index].failed = True
            raise
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _timed(self, fn: Callable, name: str, counts: Counts | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if counts is not None:
                try:
                    self.spans[index].counts = counts(args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the signature changed; the span still counts as a call
            return result

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, self.op)
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """op -> span name -> totals: time, self (time minus direct children),
        calls, failed, and the sum and max of each count."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.duration
        ops: dict[int, dict[str, dict[str, float]]] = {}
        for index, span in enumerate(self.spans):
            row = ops.setdefault(span.op, {}).setdefault(
                span.name, {"time": 0.0, "self": 0.0, "calls": 0, "failed": 0}
            )
            row["time"] += span.duration
            row["self"] += span.duration - children[index]
            row["calls"] += 1
            row["failed"] += span.failed
            for key, value in span.counts.items():
                row[key] = row.get(key, 0) + value
                row[key + ".max"] = max(row.get(key + ".max", 0), value)
        for (name, op), calls in self.calls.items():
            ops.setdefault(op, {})[name] = {"calls": calls}
        return ops

    def to_json(self) -> dict[str, Any]:
        return {
            "absent": self.absent,
            "spans": [
                [s.name, s.start, s.end, s.parent, s.op, s.failed, s.counts] for s in self.spans
            ],
            "calls": [[name, op, n] for (name, op), n in sorted(self.calls.items())],
        }
