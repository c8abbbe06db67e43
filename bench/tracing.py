"""Spans around the public entry points of each ``dicrit`` module.

The tracer replaces each traced function by a wrapper in every ``dicrit``
module that holds a reference to it (``from .x import f`` binds ``f`` in
the importing module too), and patches the traced ``Digraph`` methods on
the class.  Each call records one span: name, start, end, parent span and
job id, plus the difference in ``Budget.used`` across the call when a
``Budget`` is among its arguments.  Spans stay in memory until the run
writes them out.  ``creates_cycle`` (a closure inside the solver) and the
CLI stay untraced.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: (module, attribute, span name) of every traced entry point;
#: "Class.method" patches the method on the class.  Span names start with
#: the layer, which is the module.
TRACED = (
    ("digraph", "Digraph.__init__", "digraph.Digraph"),
    ("digraph", "Digraph.without_arcs", "digraph.without_arcs"),
    ("digraph", "induced", "digraph.induced"),
    ("digraph", "parse", "digraph.parse"),
    ("colouring", "is_k_dicolourable", "colouring.is_k_dicolourable"),
    ("colouring", "is_k_dicritical", "colouring.is_k_dicritical"),
    ("colouring", "check_dicolouring", "colouring.check_dicolouring"),
    ("ore", "is_4ore", "ore.is_4ore"),
    ("ore", "find_ore_collapsible", "ore.find_ore_collapsible"),
    ("ore", "generate_4ore", "ore.generate_4ore"),
    ("iso", "find_isomorphism", "iso.find_isomorphism"),
    ("iso", "invariant_key", "iso.invariant_key"),
    ("iso", "canonical_form", "iso.canonical_form"),
    ("packing", "max_packing", "packing.max_packing"),
    ("potential", "potential", "potential.potential"),
    ("structure", "discharge", "structure.discharge"),
    ("structure", "find_chelou_arcs", "structure.find_chelou_arcs"),
    ("constructions", "certify_dicritical_composition",
     "constructions.certify_dicritical_composition"),
    ("constructions", "build_gk", "constructions.build_gk"),
    ("census", "census", "census.census"),
)

#: Functions that take a node budget; their spans carry ``nodes``.
BUDGETED = (
    "colouring.is_k_dicolourable",
    "colouring.is_k_dicritical",
    "ore.is_4ore",
    "ore.find_ore_collapsible",
    "packing.max_packing",
    "constructions.certify_dicritical_composition",
    "census.census",
)

LAYERS = ("digraph", "colouring", "ore", "iso", "packing", "potential",
          "structure", "constructions", "census")

#: The benchmark's own code inside a job: the root span of every job.
JOB = "bench.job"


def _out_count(name: str, result) -> int:
    """A count taken from a call's result: refutations, arcs checked, hits."""
    if name == "colouring.is_k_dicolourable":
        return int(result is None)
    if name == "colouring.is_k_dicritical":
        return len(result.witnesses) + (result.failure_arc is not None)
    if name == "ore.find_ore_collapsible":
        return len(result)
    return 0


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` patch the
    package in place, so only one tracer may be installed at a time."""

    def __init__(self, budget_type):
        self.budget_type = budget_type
        # Each span: [name, start_ns, end_ns, parent, job, nodes, out]
        self.spans: list[list] = []
        self.current = -1
        self.job = None
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "dicrit" or name.startswith("dicrit."))]
        for module_name, attr, name in TRACED:
            module = sys.modules[f"dicrit.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        spans = self.spans
        budget_type = self.budget_type
        budgeted = name in BUDGETED
        counted = name in ("colouring.is_k_dicolourable", "colouring.is_k_dicritical",
                           "ore.find_ore_collapsible")
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            budget = None
            if budgeted:
                for value in (*args, *kwargs.values()):
                    if isinstance(value, budget_type):
                        budget = value
                        break
            before = budget.used if budget is not None else 0
            parent = tracer.current
            index = len(spans)
            span = [name, clock(), 0, parent, tracer.job, 0, 0]
            spans.append(span)
            tracer.current = index
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                tracer.current = parent
                if budget is not None:
                    span[5] = budget.used - before
            if counted:
                span[6] = _out_count(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- job spans ------------------------------------------------------

    def begin_job(self, job_id) -> int:
        self.job = job_id
        index = len(self.spans)
        self.spans.append([JOB, time.perf_counter_ns(), 0, -1, job_id, 0, 0])
        self.current = index
        return index

    def end_job(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.current = -1
        self.job = None

    # -- derived figures ------------------------------------------------

    def self_times(self, jobs) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (self time), nodes and out counts,
        over the spans of the given job ids."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_ns": 0, "nodes": 0, "out": 0})
        for i, span in enumerate(self.spans):
            if span[4] not in jobs:
                continue
            entry = stats[span[0]]
            entry["calls"] += 1
            entry["busy_ns"] += span[2] - span[1] - child_ns[i]
            # Nested calls of one function share a budget; count the
            # outermost call only so nodes are not counted twice.
            if span[3] < 0 or self.spans[span[3]][0] != span[0]:
                entry["nodes"] += span[5]
            entry["out"] += span[6]
        return stats

    def count_under(self, name: str, ancestor: str, jobs) -> int:
        """Calls of ``name`` with a span named ``ancestor`` above them."""
        total = 0
        for span in self.spans:
            if span[0] != name or span[4] not in jobs:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    total += 1
                    break
                parent = self.spans[parent][3]
        return total

    def nodes_under(self, name: str, ancestor: str, jobs) -> int:
        """Nodes of ``name`` calls whose parent span is ``ancestor``."""
        return sum(
            span[5] for span in self.spans
            if span[0] == name and span[3] >= 0
            and self.spans[span[3]][0] == ancestor
            and span[4] in jobs
        )

    def job_nodes(self, jobs) -> dict:
        """Nodes per job: budgeted spans with no budgeted span above them."""
        totals: dict = {}
        for span in self.spans:
            if span[0] not in BUDGETED or span[4] not in jobs:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in BUDGETED:
                parent = self.spans[parent][3]
            if parent < 0:
                totals[span[4]] = totals.get(span[4], 0) + span[5]
        return totals

    def to_json(self) -> dict:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "job", "nodes", "out"],
            "names": names,
            "spans": [[index[s[0]], *s[1:]] for s in self.spans],
        }
