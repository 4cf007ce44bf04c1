"""Span tracing of the library's public functions, from outside.

``Tracer.install()`` replaces each listed function with a wrapper in every
``umr.*`` namespace that binds it: modules import by name, so patching
only the defining module would miss the CLI and cross-module calls.  Spans
(name, start, end, parent, job) are kept in flat arrays in memory and
written out once at the end; self time is a span's duration minus the
spans directly beneath it.
"""

from __future__ import annotations

import json
import sys
from array import array
from math import comb
from time import perf_counter

# Layer -> functions traced in it.  ``automorphism_call`` is
# ``QsAutomorphism.__call__``.
LAYERS = {
    "cli": ("main",),
    "rational": ("parse_rational", "format_rational"),
    "spaces": (
        "parse_uspace", "validate_space", "is_convex_order", "distance_set",
        "ball_partition", "canonical_convex_order", "format_uspace",
    ),
    "trees": (
        "space_to_tree", "tree_to_space", "count_automorphisms", "canonical_code",
        "count_sibling_orderings", "parse_utree", "format_utree",
    ),
    "orders": (
        "enumerate_convex_orders", "order_type_partition", "order_profile",
        "count_convex_orders", "tau", "order_invariant_hull",
    ),
    "shapes": ("all_tree_shapes", "extremal_scan", "tree_degree", "uniform_tree"),
    "ramsey": (
        "verify_arrow", "enumerate_copies", "search_witness", "chain_upper_bound",
        "order_type_coloring", "verify_degree_lower",
    ),
    "urysohn": (
        "check_homogeneity", "extend_isometry", "automorphism_call", "random_point",
        "random_automorphism", "qs_distance", "qs_lex_compare", "parse_qpoint",
        "parse_menu", "format_automorphism",
    ),
}

NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# Extra per-layer metrics, derived in ``Tracer.metrics``.
EXTRAS = {
    "spaces.validate_space.points": "count",
    "spaces.is_convex_order.true_ratio": "ratio",
    "trees.space_to_tree.per_parse": "ratio",
    "orders.enumerate_convex_orders.yield_ratio": "ratio",
    "shapes.all_tree_shapes.shapes_out": "count",
    "ramsey.verify_arrow.colorings": "count",
    "ramsey.verify_arrow.colorings_per_s": "1/s",
    "ramsey.enumerate_copies.yield_ratio": "ratio",
    "ramsey.search_witness.candidates": "count",
    "ramsey.chain_upper_bound.verified_skipped": "count",
    "ramsey.budget_exceeded.count": "count",
    "urysohn.check_homogeneity.trials": "count",
    "urysohn.extend_isometry.pairs_in": "count",
    "urysohn.extend_isometry.moves_out": "count",
}


def _module(layer: str):
    return sys.modules[f"umr.{layer}"]


def originals() -> dict[str, object]:
    """Traced name -> the function object the library defines."""
    out = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            if fn == "automorphism_call":
                out[f"{layer}.{fn}"] = _module(layer).QsAutomorphism.__call__
            else:
                out[f"{layer}.{fn}"] = getattr(_module(layer), fn)
    return out


def umr_namespaces() -> list:
    return [m for name, m in sorted(sys.modules.items()) if m is not None and (name == "umr" or name.startswith("umr."))]


class Tracer:
    def __init__(self):
        self.ids = {name: i for i, name in enumerate(NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_job = -1
        self._stack = [-1]
        # Counts summed by the observers; ``metrics`` derives the extras.
        self.counts = dict.fromkeys((
            "spaces.validate_space.points", "shapes.all_tree_shapes.shapes_out",
            "ramsey.verify_arrow.colorings", "ramsey.chain_upper_bound.verified_skipped",
            "urysohn.check_homogeneity.trials", "urysohn.extend_isometry.pairs_in",
            "urysohn.extend_isometry.moves_out", "orders_out", "copies_out", "subsets",
            "convex_true", "budget_exceeded",
        ), 0)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every ``umr`` namespace binding it."""
        wrapped = {id(fn): self._wrap(name, fn) for name, fn in originals().items()}
        for module in umr_namespaces():
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and callable(value):
                    setattr(module, attr, wrapped[id(value)])
        cls = _module("urysohn").QsAutomorphism
        cls.__call__ = wrapped[id(cls.__call__)]

    def _wrap(self, name: str, fn):
        ident = self.ids[name]
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        names, parents, jobs, starts, ends, stack = (
            self.name, self.parent, self.job, self.start, self.end, self._stack,
        )

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(ident)
            parents.append(stack[-1])
            jobs.append(self.current_job)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[index] = perf_counter()
                stack.pop()
                if observe is not None:
                    observe(args, None, exc)
                raise
            ends[index] = perf_counter()
            stack.pop()
            if observe is not None:
                observe(args, result, None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- observers for the extra metrics --------------------------------------

    def _observe_spaces_validate_space(self, args, result, exc):
        self.counts["spaces.validate_space.points"] += len(args[1])

    def _observe_spaces_is_convex_order(self, args, result, exc):
        self.counts["convex_true"] += result is True

    def _observe_orders_enumerate_convex_orders(self, args, result, exc):
        self.counts["orders_out"] += len(result) if result is not None else 0

    def _observe_shapes_all_tree_shapes(self, args, result, exc):
        self.counts["shapes.all_tree_shapes.shapes_out"] += len(result) if result is not None else 0

    def _observe_ramsey_verify_arrow(self, args, result, exc):
        if result is not None:
            self.counts["ramsey.verify_arrow.colorings"] += result.colorings
        elif type(exc).__name__ == "BudgetExceeded":
            self.counts["ramsey.verify_arrow.colorings"] += exc.colorings
            self.counts["budget_exceeded"] += 1

    def _observe_ramsey_enumerate_copies(self, args, result, exc):
        if result is not None:
            self.counts["copies_out"] += len(result)
            self.counts["subsets"] += comb(args[0].size, args[1].size)

    def _observe_ramsey_chain_upper_bound(self, args, result, exc):
        if result is not None and result.verdict is None:
            self.counts["ramsey.chain_upper_bound.verified_skipped"] += 1

    def _observe_urysohn_check_homogeneity(self, args, result, exc):
        if result is not None:
            self.counts["urysohn.check_homogeneity.trials"] += result.trials

    def _observe_urysohn_extend_isometry(self, args, result, exc):
        self.counts["urysohn.extend_isometry.pairs_in"] += len(args[0])
        if result is not None:
            self.counts["urysohn.extend_isometry.moves_out"] += len(result.moves)

    # -- results ----------------------------------------------------------------

    def _self_durations(self) -> list[float]:
        """Each span's duration minus the spans directly beneath it."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def self_times(self) -> tuple[list[int], list[float]]:
        """Per traced name, in ``NAMES`` order: calls and self seconds."""
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for ident, own in zip(self.name, self._self_durations()):
            calls[ident] += 1
            self_s[ident] += own
        return calls, self_s

    def _beneath(self, name: str, ancestor: str) -> int:
        """Spans of ``name`` with an ``ancestor`` span above them."""
        target, above = self.ids[name], self.ids[ancestor]
        count = 0
        for i in range(len(self.name)):
            if self.name[i] == target:
                p = self.parent[i]
                while p >= 0 and self.name[p] != above:
                    p = self.parent[p]
                count += p >= 0
        return count

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric: ``<name>.calls``, ``<name>.self_s`` and
        the extras."""
        calls, self_s = self.self_times()
        out: dict[str, float] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
        c = self.counts
        by = dict(zip(NAMES, calls))
        out.update({key: c[key] for key in EXTRAS if key in c})
        out["spaces.is_convex_order.true_ratio"] = _ratio(c["convex_true"], by["spaces.is_convex_order"])
        out["trees.space_to_tree.per_parse"] = _ratio(by["trees.space_to_tree"], by["spaces.parse_uspace"])
        out["orders.enumerate_convex_orders.yield_ratio"] = _ratio(
            c["orders_out"], self._beneath("spaces.is_convex_order", "orders.enumerate_convex_orders"))
        out["ramsey.verify_arrow.colorings_per_s"] = _ratio(
            c["ramsey.verify_arrow.colorings"], self_s[self.ids["ramsey.verify_arrow"]])
        out["ramsey.enumerate_copies.yield_ratio"] = _ratio(c["copies_out"], c["subsets"])
        out["ramsey.search_witness.candidates"] = self._beneath("ramsey.verify_arrow", "ramsey.search_witness")
        out["ramsey.budget_exceeded.count"] = c["budget_exceeded"]
        return out

    def job_totals(self, jobs) -> dict[int, dict[str, dict[str, float]]]:
        """Calls and self seconds per traced name within each given job."""
        out: dict[int, dict[str, dict[str, float]]] = {job: {} for job in jobs}
        for ident, job, own in zip(self.name, self.job, self._self_durations()):
            if job in out:
                entry = out[job].setdefault(NAMES[ident], {"calls": 0, "self_s": 0.0})
                entry["calls"] += 1
                entry["self_s"] += own
        return out

    def write(self, path) -> None:
        """One JSON header line, then the raw arrays in header order."""
        header = {
            "names": list(NAMES),
            "count": len(self.name),
            "arrays": [["name", "i"], ["parent", "i"], ["job", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)


def read_spans(path) -> list[tuple[str, float, float, int, int]]:
    """Spans written by ``Tracer.write`` as (name, start, end, parent, job)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        fields = {}
        for field, code in header["arrays"]:
            values = array(code)
            values.fromfile(fh, header["count"])
            fields[field] = values
    names = header["names"]
    return [
        (names[fields["name"][i]], fields["start"][i], fields["end"][i], fields["parent"][i], fields["job"][i])
        for i in range(header["count"])
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
