"""Span recorder for the traced benchmark run.

The recorder wraps public callables of the library's modules (the layers)
and records, for every call, a span: name, start, end and the enclosing
span.  Spans stay in memory.  Per span name it keeps the call count, the
inclusive time of the outermost calls, the self time (span duration
minus the part covered by child spans) and the number of ``BmwError``s
that passed through.  The spans of the coarse entry points (``KEEP``) are
also kept one by one and written out at the end of the run; the fine,
hot ones (scalar arithmetic, rewriting, products) are only aggregated,
which keeps memory bounded on runs with tens of millions of calls.

``tracing(recorder)`` patches every module namespace of the package that
holds a wrapped function (``quantum_contents`` lives in ``combinatorics``,
``fusion`` and ``hecke``, for example) and the class attributes of the
wrapped methods, and restores all of them on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import time
import weakref

from bmwfusion.errors import BmwError

# (span name, owner as "module" or "module.Class", attributes)
TARGETS = (
    ("scalars.ratfunc", "scalars.RatFunc",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
      "__rmul__", "__truediv__", "__rtruediv__", "evaluate_at", "const",
      "variable")),
    ("scalars.laurent", "scalars.TruncLaurent",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
      "__rmul__", "__truediv__", "__rtruediv__", "invert", "constant_term")),
    ("combinatorics", "combinatorics",
     ("enumerate_tableaux", "quantum_contents", "extension_spectrum",
      "classical_contents")),
    ("bmwcore.build_context", "bmwcore.AlgebraContext", ("__init__",)),
    ("bmwcore.verify_relations", "bmwcore.AlgebraContext",
     ("verify_relations",)),
    ("bmwcore.reduce_word", "bmwcore.AlgebraContext", ("reduce_word",)),
    ("bmwcore.mul", "bmwcore.AlgebraElement", ("__mul__",)),
    ("bmwcore.rho", "bmwcore.AlgebraContext", ("rho",)),
    ("hecke.family", "hecke", ("hecke_family_idempotent",)),
    ("hecke.mul", "hecke.HeckeElement", ("__mul__",)),
    ("hecke.quotient", "hecke", ("hecke_quotient",)),
    ("fusion.fusion_idempotent", "fusion", ("fusion_idempotent",)),
    ("fusion.jm_oracle_idempotent", "fusion", ("jm_oracle_idempotent",)),
    ("fusion.Y_script", "fusion", ("Y_script",)),
    ("fusion.baxterized", "fusion",
     ("baxterized_T", "baxterized_T_inverse", "baxterized_Q")),
    ("fusion.verify_idempotent", "fusion", ("verify_idempotent",)),
    ("fusion.complete_system_checks", "fusion", ("complete_system_checks",)),
    ("brauer.mul", "brauer.BrauerElement", ("__mul__",)),
    ("brauer.diagram_mul", "brauer", ("diagram_mul",)),
    ("contraction.brauer_idempotent", "contraction",
     ("brauer_idempotent_via_contraction",)),
    ("contraction.oracle", "contraction", ("structure_constant_oracle",)),
    ("contraction.block_check", "contraction", ("contraction_block_check",)),
    ("contraction.constant_term", "contraction", ("constant_term_element",)),
    ("jsonio", "jsonio",
     ("element_to_json", "idempotent_to_json", "brauer_to_json",
      "hecke_to_json", "laurent_to_json")),
)

KEEP = frozenset((
    "bmwcore.build_context", "bmwcore.verify_relations", "hecke.family",
    "hecke.quotient", "fusion.fusion_idempotent",
    "fusion.jm_oracle_idempotent", "fusion.verify_idempotent",
    "fusion.complete_system_checks", "contraction.brauer_idempotent",
    "contraction.oracle", "contraction.block_check",
))

# span names whose call counts every workload knows without tracing
COUNTED = (
    "scalars.ratfunc", "bmwcore.build_context", "fusion.fusion_idempotent",
    "fusion.jm_oracle_idempotent", "fusion.verify_idempotent",
    "fusion.complete_system_checks", "hecke.family", "hecke.quotient",
    "contraction.brauer_idempotent", "contraction.oracle",
    "contraction.block_check", "contraction.constant_term",
)

LAYERS = ("scalars", "combinatorics", "bmwcore", "hecke", "fusion", "brauer",
          "contraction", "jsonio")


class Recorder:
    """In-memory spans and per-name aggregates of one traced run."""

    def __init__(self, clock=time.perf_counter, keep=KEEP):
        self.clock = clock
        self.keep = keep
        self.stack = []      # open spans: [child seconds, kept span id]
        self.depth = {}      # name -> number of open spans of that name
        self.stats = {}      # name -> [calls, inclusive s, self s]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.spans = []      # kept spans: (id, name, start, end, parent id)
        self._ids = itertools.count(1)
        self.counts = {"bmwcore.mul.term_pairs": 0,
                       "bmwcore.reduce_word.repeats": 0}
        self._seen_words = weakref.WeakKeyDictionary()
        self._last_ctx = None
        self._last_seen = None

    def stat(self, name):
        """(calls, inclusive seconds, self seconds) of a span name."""
        return tuple(self.stats.get(name, (0, 0.0, 0.0)))

    def _error(self, name, exc):
        layer = name.split(".")[0]
        counted = getattr(exc, "_perfbench_layers", set())
        if layer not in counted:
            counted.add(layer)
            exc._perfbench_layers = counted
            self.errors[layer] += 1

    def wrap(self, name, fn, hook=None):
        """``fn`` recording one span named ``name`` per call."""
        clock, stack, depth = self.clock, self.stack, self.depth
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        keep, spans, ids = name in self.keep, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            parent = stack[-1][1] if stack else 0
            frame = [0.0, next(ids) if keep else parent]
            level = depth.get(name, 0)
            depth[name] = level + 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BmwError as exc:
                self._error(name, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                depth[name] = level
                st[0] += 1
                if level == 0:
                    st[1] += dur
                st[2] += dur - frame[0]
                if keep:
                    spans.append((frame[1], name, start, end, parent))

        return traced

    # hooks -----------------------------------------------------------------

    def count_term_pairs(self, args):
        left, right = args[0], args[1]
        if hasattr(right, "terms"):
            self.counts["bmwcore.mul.term_pairs"] += \
                len(left.terms) * len(right.terms)

    def count_repeat(self, args):
        ctx, word = args[0], args[1]
        if ctx is not self._last_ctx:
            self._last_ctx = ctx
            self._last_seen = self._seen_words.setdefault(ctx, set())
        seen = self._last_seen
        if word in seen:
            self.counts["bmwcore.reduce_word.repeats"] += 1
        else:
            seen.add(word)

    def release(self):
        """Drop the references the hooks hold to library objects."""
        self._last_ctx = self._last_seen = None


HOOKS = {"bmwcore.mul": "count_term_pairs",
         "bmwcore.reduce_word": "count_repeat"}


def _resolve(owner):
    mod, _, cls = owner.partition(".")
    module = importlib.import_module("bmwfusion." + mod)
    return getattr(module, cls) if cls else module


@contextlib.contextmanager
def tracing(recorder, targets=TARGETS):
    """Install the recorder's wrappers for the duration of the block."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "bmwfusion" or name.startswith("bmwfusion.")]
    undo = []
    try:
        for name, owner_name, attrs in targets:
            owner = _resolve(owner_name)
            hook = HOOKS.get(name)
            hook = getattr(recorder, hook) if hook else None
            for attr in attrs:
                raw = vars(owner)[attr]
                if isinstance(owner, type):
                    if isinstance(raw, classmethod):
                        new = classmethod(recorder.wrap(name, raw.__func__))
                    else:
                        new = recorder.wrap(name, raw, hook)
                    setattr(owner, attr, new)
                    undo.append((owner, attr, raw))
                    continue
                new = recorder.wrap(name, raw, hook)
                for module in modules:
                    if vars(module).get(attr) is raw:
                        setattr(module, attr, new)
                        undo.append((module, attr, raw))
        yield recorder
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
        recorder.release()
