"""Outside-in layer tracing of one in-process ``grouppb solve``.

Timing wrappers are installed from outside on the names each grouppb module
looks up at call time (``grouppb.cli.solve_hier``, ``grouppb.distsolve.
solve_hier``, ...), so no file of the program changes.  Each wrapped call
becomes a Span whose parent is the innermost wrapped call that was running.
The wrappers are removed again after every traced solve.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

from .measure import Span, self_times, share

# Bytes per dimdp table cell: the table is int64.  The table_mb metric is
# computed from the cell count with this, not measured.
DIMDP_CELL_BYTES = 8


def _nodes(result) -> dict:
    return {"nodes": result.nodes}


def _subsets(result) -> dict:
    return {"subsets": result.stats.nodes}


def _cells(result) -> dict:
    return {"cells": result.stats.cells}


def _types(result) -> dict:
    return {"types": len(result.types)}


def _pivots(result) -> dict:
    return {"pivots": result.iterations}


# (module, attribute, span name, counters read from the call's return value)
TARGETS = (
    ("grouppb.cli", "parse_instance", "fileformat.parse", None),
    ("grouppb.cli", "normalize", "core.normalize", None),
    ("grouppb.cli", "is_hierarchical", "layers.is_hierarchical", None),
    ("grouppb.hiersolve", "is_hierarchical", "layers.is_hierarchical", None),
    ("grouppb.cli", "min_group_deletion_set", "distsolve.search", _nodes),
    ("grouppb.cli", "min_project_deletion_set", "distsolve.search", _nodes),
    ("grouppb.cli", "solve_group_deletion", "distsolve.enum", _subsets),
    ("grouppb.cli", "solve_project_deletion", "distsolve.enum", _subsets),
    ("grouppb.cli", "solve_hier", "hiersolve.solve", _cells),
    ("grouppb.distsolve", "solve_hier", "hiersolve.solve", _cells),
    ("grouppb.hiersolve", "build_hier_tree", "hiersolve.tree", None),
    ("grouppb.cli", "solve_dimdp", "dimsolve.solve", _cells),
    ("grouppb.cli", "solve_types_max", "typesolve.solve", None),
    ("grouppb.typesolve", "type_index", "typesolve.index", _types),
    ("grouppb.typesolve", "type_min_cost_tables", "typesolve.tables", None),
    ("grouppb.cli", "solve_lp_round", "approx.lp_round", _cells),
    ("grouppb.approx", "lp_relaxation", "approx.relax", None),
    ("grouppb.approx", "simplex_solve", "lp.simplex", _pivots),
)

# Exceptions by which a solver reports that it stopped at a resource cap.
CAP_ERRORS = ("SearchBudgetExceeded", "TableTooLarge", "TooLarge")


class Tracer:
    """Collects spans from wrapped calls; one thread, one solve at a time."""

    def __init__(self, targets=TARGETS):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._slots = []
        for module_name, attr, span_name, counters in targets:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                raise AttributeError(f"cannot trace {module_name}.{attr}: no such name")
            self._slots.append((module, attr, span_name, counters))

    def call(self, name: str, fn, *args, counters=None, **kwargs):
        """Run fn as a span called name, recording counters from its result."""
        span = Span(name=name, start=0.0, parent=self._stack[-1] if self._stack else -1)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counters is not None:
            span.info = counters(result)
        return result

    def _wrapper(self, fn, name, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counters=counters, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Put the wrappers in place for the body of a with-block."""
        saved = []
        try:
            for module, attr, name, counters in self._slots:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(original, name, counters))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_metrics(spans: list[Span], solves: int, input_bytes: int,
                  traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit), each a mean per traced solve unless a ratio."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def total(name):
        return sum(spans[i].duration for i in by_name[name])

    def self_total(name):
        return sum(selfs[i] for i in by_name[name])

    def count(name):
        return len(by_name[name])

    def counter(name, key):
        return sum(spans[i].info.get(key, 0) for i in by_name[name])

    def per(value):
        return value / solves

    subsets = counter("distsolve.enum", "subsets")
    hier_in_enum = sum(
        1 for i in by_name["hiersolve.solve"]
        if spans[i].parent >= 0 and spans[spans[i].parent].name == "distsolve.enum"
    )
    types_calls = by_name["typesolve.solve"]
    capped = [i for i in types_calls if spans[i].error in CAP_ERRORS]
    returned = [i for i in types_calls if spans[i].error is None]
    dim_cells = counter("dimsolve.solve", "cells")

    return {
        "cli.self_s": (per(self_total("cli")), "s"),
        "fileformat.parse_s": (per(total("fileformat.parse")), "s"),
        "fileformat.input_bytes": (per(input_bytes), "B"),
        "core.normalize_s": (per(total("core.normalize")), "s"),
        "layers.is_hierarchical_s": (per(total("layers.is_hierarchical")), "s"),
        "layers.is_hierarchical_calls": (per(count("layers.is_hierarchical")), "count"),
        "distsolve.search_s": (per(total("distsolve.search")), "s"),
        "distsolve.search_nodes": (per(counter("distsolve.search", "nodes")), "count"),
        "distsolve.enum_self_s": (per(self_total("distsolve.enum")), "s"),
        "distsolve.subsets": (per(subsets), "count"),
        "distsolve.hier_share": (share(hier_in_enum, subsets), "ratio"),
        "hiersolve.solve_s": (per(total("hiersolve.solve")), "s"),
        "hiersolve.self_s": (per(self_total("hiersolve.solve")), "s"),
        "hiersolve.tree_s": (per(total("hiersolve.tree")), "s"),
        "hiersolve.calls": (per(count("hiersolve.solve")), "count"),
        "hiersolve.cells": (per(counter("hiersolve.solve", "cells")), "count"),
        "dimsolve.solve_s": (per(total("dimsolve.solve")), "s"),
        "dimsolve.cells": (per(dim_cells), "count"),
        "dimsolve.table_mb_computed": (per(dim_cells * DIMDP_CELL_BYTES / 2**20), "MB"),
        "typesolve.solve_s": (per(total("typesolve.solve")), "s"),
        "typesolve.tables_s": (per(total("typesolve.tables")), "s"),
        "typesolve.types": (per(counter("typesolve.index", "types")), "count"),
        "typesolve.cap_hits": (per(len(capped)), "count"),
        "typesolve.useful_ratio": (share(len(returned), len(types_calls)), "ratio"),
        "typesolve.wasted_s": (per(sum(spans[i].duration for i in capped)), "s"),
        "lp.simplex_s": (per(total("lp.simplex")), "s"),
        "lp.pivots": (per(counter("lp.simplex", "pivots")), "count"),
        "lp.tableau_cells": (per(counter("approx.lp_round", "cells")), "count"),
        "approx.lp_round_s": (per(total("approx.lp_round")), "s"),
        "approx.relax_s": (per(total("approx.relax")), "s"),
        "approx.round_self_s": (per(self_total("approx.lp_round")), "s"),
        "trace.inprocess_s": (per(traced_s), "s"),
        "trace.overhead_ratio": (share(traced_s, untraced_s), "ratio"),
    }
