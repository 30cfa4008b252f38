"""Span tracer that wraps kinsila's public functions from outside.

The library has no tracing of its own, so this module replaces the
functions and methods listed in LAYERS with wrappers that record a span
around each call.  Every module of the package that imported one of them
by name (``from .x import y``) holds its own reference, so each such
reference is rebound too; ``uninstall`` puts the originals back.

Bookkeeping is done on a stack while the program runs: a span's self
time is its duration minus the time covered by the spans it directly
caused.  Per bucket (an operation, its preparation, or the run's
set-up) and per layer the tracer keeps calls, busy time, self time and a
layer-specific counter.  Spans of the coarse layers are also kept in
memory with name, start, end, parent span and operation id, and written
out once at the end of the run.  The four layers in FINE are called up
to hundreds of thousands of times per operation; they are counted and
timed like every other layer but not stored one by one.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute path) for every wrapped callable
LAYERS = (
    ("kinematics.validate", "kinsila.kinematics", "validate"),
    ("kinematics.omega_and_radical", "kinsila.kinematics", "omega_and_radical"),
    ("kinematics.transvection_and_holonomy", "kinsila.kinematics",
     "transvection_and_holonomy"),
    ("kinematics.z_action_split", "kinsila.kinematics", "z_action_split"),
    ("kinematics.kahler_split", "kinsila.kinematics", "kahler_split"),
    ("kinematics.poincare_certificate", "kinsila.kinematics",
     "poincare_certificate"),
    ("kinematics.classify", "kinsila.kinematics", "classify"),
    ("repth.is_simple", "kinsila.repth", "is_simple"),
    ("repth.enveloping_basis", "kinsila.repth", "enveloping_basis"),
    ("repth.hom_space", "kinsila.repth", "hom_space"),
    ("repth.simple_decomposition", "kinsila.repth", "simple_decomposition"),
    ("repth.invariant_complement", "kinsila.repth", "invariant_complement"),
    ("repth.match_decompositions", "kinsila.repth", "match_decompositions"),
    ("repth.nondegenerate_invariant_form", "kinsila.repth",
     "nondegenerate_invariant_form"),
    ("exactla.kernel", "kinsila.exactla", "kernel"),
    ("exactla.rank", "kinsila.exactla", "rank"),
    ("exactla.Subspace.span", "kinsila.exactla", "Subspace.span"),
    ("exactla.Mat.matmul", "kinsila.exactla", "Mat.__matmul__"),
    ("exactla.Mat.init", "kinsila.exactla", "Mat.__init__"),
    ("exactla.sn_decomposition", "kinsila.exactla", "sn_decomposition"),
    ("liecore.LieAlgebra.init", "kinsila.liecore", "LieAlgebra.__init__"),
    ("liecore.bracket", "kinsila.liecore", "LieAlgebra.bracket"),
    ("liecore.bracket_span", "kinsila.liecore", "LieAlgebra.bracket_span"),
    ("liecore.solvable_radical", "kinsila.liecore", "LieAlgebra.solvable_radical"),
    ("liecore.levi_complement", "kinsila.liecore", "LieAlgebra.levi_complement"),
    ("liecore.is_automorphism", "kinsila.liecore", "LieAlgebra.is_automorphism"),
    ("catalog.make", "kinsila.catalog", "make"),
    ("documents.parse_text", "kinsila.documents", "parse_text"),
    ("documents.entry_to_document", "kinsila.documents", "entry_to_document"),
    ("cli.main", "kinsila.cli", "main"),
)

FINE = frozenset({
    "exactla.Mat.init",
    "exactla.Mat.matmul",
    "exactla.Subspace.span",
    "liecore.bracket",
})

# time spent computing the counters below is booked under this name, as a
# child of the span being counted, so it is nobody's self time
EXTRAS = "trace.extras"


def _entry_bits(m) -> int:
    return sum(c.numerator.bit_length() + c.denominator.bit_length()
               for row in m.entries for c in row)


# counter per layer: f(args, result, frame) -> number added to the layer
_COUNTERS = {
    "exactla.kernel": lambda a, r, f: (a[0].rows * a[0].cols, _entry_bits(a[0])),
    "repth.hom_space": lambda a, r, f: a[0].dim * a[1].dim,
    "repth.enveloping_basis": lambda a, r, f: len(r),
    "repth.is_simple": lambda a, r, f: 1 if f[4] else 0,
}


class Tracer:
    """Collects spans and per-layer totals for one run."""

    def __init__(self):
        self.bucket = "setup"
        self.stack = []          # [name, start, child, span, flag, stored]
        self.spans = []          # [name, start, end, parent index, bucket]
        self.totals = {}         # bucket -> name -> [calls, busy, self, n1, n2]
        self._restore = []

    # -- recording ---------------------------------------------------------
    def _add(self, bucket, name, busy, self_time, counter=None):
        row = self.totals.setdefault(bucket, {}).get(name)
        if row is None:
            row = self.totals[bucket][name] = [0, 0.0, 0.0, 0, 0]
        row[0] += 1
        row[1] += busy
        row[2] += self_time
        if counter is not None:
            if isinstance(counter, tuple):
                row[3] += counter[0]
                row[4] += counter[1]
            else:
                row[3] += counter

    def call(self, name, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1][3] if stack else -1
        stored = name not in FINE
        if stored:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.bucket])
        else:
            index = parent
        if name == "repth.enveloping_basis":
            for frame in stack:
                if frame[0] == "repth.is_simple":
                    frame[4] = True
        frame = [name, 0.0, 0.0, index, False, stored]
        stack.append(frame)
        frame[1] = start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(frame, start, time.perf_counter())
            raise
        end = time.perf_counter()
        count = _COUNTERS.get(name)
        counter = None if count is None else count(args, result, frame)
        self._close(frame, start, end, counter)
        return result

    def _close(self, frame, start, end, counter=None):
        stack = self.stack
        stack.pop()
        name, _, child, index, _, stored = frame
        busy = end - start
        if stored:
            span = self.spans[index]
            span[1] = start
            span[2] = end
        if counter is not None:
            spent = time.perf_counter() - end
            self._add(self.bucket, EXTRAS, spent, spent)
            busy_in_parent = busy + spent
        else:
            busy_in_parent = busy
        if stack:
            stack[-1][2] += busy_in_parent
        self._add(self.bucket, name, busy, busy - child, counter)

    # -- installation ------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    def install(self):
        """Wrap every layer and rebind every module-level reference to it."""
        for name, module_name, path in LAYERS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "kinsila" and not mod_name.startswith("kinsila."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------
    def self_time_error(self) -> float:
        """Largest gap, over operations, between the sum of self times and
        the duration of the operation's root spans (zero up to rounding)."""
        roots = {}
        for _, start, end, parent, bucket in self.spans:
            if parent == -1 and isinstance(bucket, int):
                roots[bucket] = roots.get(bucket, 0.0) + (end - start)
        return max((abs(sum(row[2] for row in self.totals[b].values()) - busy)
                    for b, busy in roots.items()), default=0.0)

    def layer_sum(self, name, buckets, field):
        return sum(self.totals.get(b, {}).get(name, [0, 0.0, 0.0, 0, 0])[field]
                   for b in buckets)

    def write(self, path):
        """Write every stored span and the per-bucket totals as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "span_fields": ["name", "start", "end", "parent", "bucket"],
                "spans": self.spans,
                "total_fields": ["calls", "busy_s", "self_s", "counter",
                                 "counter2"],
                "totals": {str(b): t for b, t in self.totals.items()},
            }, fh)
