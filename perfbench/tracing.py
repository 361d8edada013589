"""Spans and counters recorded from outside the package, for the traced run.

The tracer replaces the package's public functions with wrappers, in every
``invsemi`` module that holds a reference to them, and puts the originals
back on ``uninstall``.  A span records its name, start, end and parent.
Spans stay in memory, in one flat array of four integers each, and are
written out when the run ends.  A layer's self time is the time its spans
cover minus the time their direct child spans cover.

The hottest functions (``compose``, ``classify``, ``profile_of``) are called
millions of times by the verify battery; they get a call counter only, and
their time stays in the self time of whichever span called them.  Spans of
one group opened inside a span of the same group (``h_related`` calling
``l_related``, say) are folded into the outer span, so ``.calls`` counts
outermost calls.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter_ns

# (module, attribute, span name); a span name shared by several functions is
# one group, and calls inside the same group fold into the outer span
SPANNED = [
    ("invsemi.extnat", "j_condition", "extnat.j_condition"),
    ("invsemi.extnat", "d_condition", "extnat.d_condition"),
    ("invsemi.semigroup", "enumerate_family", "semigroup.enumerate_family"),
    ("invsemi.semigroup", "eggbox", "semigroup.eggbox"),
    *[
        ("invsemi.semigroup", name, "semigroup.relations")
        for name in ("green_related", "l_related", "r_related", "h_related", "d_related", "j_related", "j_below_holds")
    ],
    *[
        ("invsemi.semigroup", name, "semigroup.witnesses")
        for name in ("l_below_witness", "r_below_witness", "j_below_witness")
    ],
    ("invsemi.regularity", "is_unit_regular", "regularity.is_unit_regular"),
    ("invsemi.regularity", "pre_inverses", "regularity.bruteforce"),
    ("invsemi.regularity", "is_regular_oracle", "regularity.bruteforce"),
    ("invsemi.ideals", "is_ideal", "ideals.is_ideal"),
    ("invsemi.ideals", "j_classes", "ideals.j_classes"),
    ("invsemi.ideals", "ideals_all", "ideals.ideals_all"),
    ("invsemi.ideals", "kernel", "ideals.kernel"),
    ("invsemi.ideals", "j_of_f", "ideals.thresholds"),
    ("invsemi.ideals", "j_st", "ideals.thresholds"),
]
COUNTED = [
    ("invsemi.core", "compose", "core.compose.calls"),
    ("invsemi.core", "classify", "core.classify.calls"),
    ("invsemi.extnat", "profile_of", "extnat.profile_of.calls"),
]
ORACLE_QUERIES = (
    "l_below", "r_below", "j_below", "l_related", "r_related", "h_related", "d_related", "j_related", "related",
)  # fmt: skip


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # name id, start ns, end ns, parent span index (-1 at top)
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = {}  # counter name -> one-element cell
        self.elements = 0  # members returned by enumerate_family
        self._undo: list = []

    # --- recording -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; a call inside an open span of the same name folds into it."""
        nid = self._id(name)
        spans, stack = self.spans, self._stack
        if stack and spans[4 * stack[-1]] == nid:
            return fn(*args, **kwargs)
        idx = len(spans) // 4
        spans.extend((nid, perf_counter_ns(), 0, stack[-1] if stack else -1))
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[4 * idx + 2] = perf_counter_ns()

    def _spanned(self, name: str, fn):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return wrapper

    # --- installing into the package ----------------------------------------------

    def _replace_everywhere(self, orig, new) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "invsemi" or mod_name.startswith("invsemi."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)
                        self._undo.append((setattr, mod, attr, orig))

    def install(self) -> None:
        for mod_name, attr, name in SPANNED:
            orig = getattr(sys.modules[mod_name], attr)
            wrapped = self._spanned(name, orig)
            if attr == "enumerate_family":
                wrapped = self._counting_elements(wrapped)
            self._replace_everywhere(orig, wrapped)
        for mod_name, attr, name in COUNTED:
            orig = getattr(sys.modules[mod_name], attr)
            cell = self.counts.setdefault(name, [0])
            self._replace_everywhere(orig, _counted(orig, cell))
        self._install_oracle(sys.modules["invsemi.semigroup"].GreenOracle)
        self._install_checks(sys.modules["invsemi.verify"])

    def _counting_elements(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.elements += len(out.elements)
            return out

        return wrapper

    def _install_oracle(self, cls) -> None:
        for attr in ORACLE_QUERIES:
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._spanned("semigroup.oracle.query", orig))
            self._undo.append((setattr, cls, attr, orig))
        build = cls.__dict__["_products"]
        call = self.call

        def _products(oracle):
            # the product tables are built lazily, on the first query only
            if oracle._left is None:
                return call("semigroup.oracle.build", build, oracle)
            return build(oracle)

        cls._products = _products
        self._undo.append((setattr, cls, "_products", build))

    def _install_checks(self, verify_mod) -> None:
        for table in (verify_mod.CTX_CHECKS, verify_mod.GLOBAL_CHECKS):
            saved = list(table)
            table[:] = [(label, self._spanned(f"verify.check.{label}", fn)) for label, fn in saved]
            self._undo.append((_restore_list, table, saved, None))

    def uninstall(self) -> None:
        for op, target, attr, val in reversed(self._undo):
            op(target, attr, val)
        self._undo.clear()

    # --- results -----------------------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: outermost calls and self time in ns."""
        spans = self.spans
        n = len(spans) // 4
        child = [0] * n
        for i in range(n):
            parent = spans[4 * i + 3]
            if parent >= 0:
                child[parent] += spans[4 * i + 2] - spans[4 * i + 1]
        out: dict[str, dict] = {name: {"calls": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            row = out[self.names[spans[4 * i]]]
            row["calls"] += 1
            row["self_ns"] += spans[4 * i + 2] - spans[4 * i + 1] - child[i]
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: a header, then [name, start, end, parent]."""
        spans = self.spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"]}) + "\n")
            for lo in range(0, len(spans) // 4, 10_000):
                rows = range(lo, min(lo + 10_000, len(spans) // 4))
                fh.write("".join(
                    f"[{spans[4 * i]},{spans[4 * i + 1]},{spans[4 * i + 2]},{spans[4 * i + 3]}]\n" for i in rows
                ))  # fmt: skip


def _counted(fn, cell):
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def _restore_list(table, saved, _unused) -> None:
    table[:] = saved
