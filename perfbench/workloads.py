"""The benchmark workloads and the loop that measures one of them.

Every workload is a closed loop with one client in one single-threaded
process: the next call starts when the previous one has returned.  A
workload has four parts:

* ``build(inp, cache_dir)``: the set-up, i.e. the algebra context(s);
* ``solve(inp, setup, items, checks)``: the fixed input set, ending
  in the jsonio payload that ``bmwf`` would print;
* ``verify(inp, setup, outputs, checks)``: exact checks of the outputs,
  run outside the timed region;
* ``fingerprint(setup)``: the canonical words, compared between the cold
  build and the warm rebuild from the cache the cold build wrote.

Only the library's public API is called (``bmwfusion.__all__`` and the
``jsonio`` encoders ``bmwf`` uses).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction as Fr

import bmwfusion as bf
from bmwfusion import jsonio

import inputs
import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")


class Checks:
    """Outcome of every operation of a run; each counts as attempted once,
    either when it raises or when its output is checked."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def error(self, what, exc):
        self.attempted += 1
        self.failures.append("%s: %s: %s" % (what, type(exc).__name__, exc))
        traceback.print_exception(exc, file=sys.stderr)


def guarded(checks, what, fn, *args, **kwargs):
    """Call ``fn``; a raised exception is recorded as a failed operation
    and the run goes on with the next one."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # any error on a certified input is a failure
        checks.error(what, exc)
        return None


class Items:
    """Latencies of the workload items that succeeded, timed by ``watch``
    (a speed.Stopwatch)."""

    def __init__(self, watch):
        self.watch = watch
        self.times = []

    def run(self, checks, what, fn, *args, **kwargs):
        t0 = self.watch.clock()
        out = guarded(checks, what, fn, *args, **kwargs)
        if out is not None:
            self.times.append(self.watch.elapsed(t0))
        return out


def fmt(x):
    return str(Fr(x))


def dimension(n):
    """dim BMW_n = (2n - 1)!!"""
    out = 1
    for m in range(2 * n - 1, 1, -2):
        out *= m
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Rational:
    """Shared set-up of the workloads over a rational parameter pair."""

    # set-up samples per run, each the mean over a batch of builds timed
    # as one region: a single n = 4 build (50 ms) is too short a region
    # for the speed meter
    cold_repeats = 5
    warm_repeats = 5
    setup_batch = 5

    def build(self, inp, cache_dir):
        return bf.build_context(inp.n, params=inp.params, cache_dir=cache_dir)

    def fingerprint(self, ctx):
        return tuple(ctx.words)

    def expected_calls(self, inp):
        """Wrapped calls of a traced cold set-up plus one traced pass, as
        the workload knows them without tracing; None for not known.  A
        counted name that is absent is expected to be 0."""
        return {"bmwcore.build_context": 2}


class Fusion(Rational):
    """Fusion idempotents of one extension of every shorter tableau; the
    Hecke family of every standard tableau at c = 0 and c = params.c; the
    quotient image of the fusion idempotents of the standard tableaux in
    the sample.  Item: one tableau's fusion idempotent."""

    name, size, small_size = "fusion-n4", 4, 3
    make_inputs = staticmethod(inputs.fusion_inputs)

    def expected_calls(self, inp):
        return {"bmwcore.build_context": 2, "scalars.ratfunc": None,
                "fusion.fusion_idempotent": len(inp.tableaux),
                "hecke.family": 2 * len(inp.standard),
                "hecke.quotient": len(self._quotiented(inp))}

    @staticmethod
    def _quotiented(inp):
        return [t for t in inp.tableaux if t.is_standard()]

    def solve(self, inp, ctx, items, checks):
        idems = {tab: items.run(checks, "fusion %s" % tab.encode(),
                                bf.fusion_idempotent, tab, ctx)
                 for tab in inp.tableaux}
        hk = bf.HeckeAlgebra(inp.n, inp.params.q)
        family = {tab: [guarded(checks, "hecke %s c=%s" % (tab.encode(), c),
                                bf.hecke_family_idempotent, tab, c, hk,
                                inp.params)
                        for c in (Fr(0), inp.params.c)]
                  for tab in inp.standard}
        quotient = {tab: guarded(checks, "quotient %s" % tab.encode(),
                                 bf.hecke_quotient, idems[tab].element, hk)
                    for tab in self._quotiented(inp) if idems[tab]}

        def hecke_json(e):
            return None if e is None else jsonio.hecke_to_json(e)

        payload = {
            "fusion": [jsonio.idempotent_to_json(i)
                       for i in idems.values() if i],
            "hecke": [{"tableau": tab.encode(),
                       "family": [hecke_json(e) for e in fam],
                       "quotient": hecke_json(quotient.get(tab))}
                      for tab, fam in family.items()],
        }
        return payload, (idems, family, quotient)

    def verify(self, inp, ctx, outputs, checks):
        idems, family, quotient = outputs
        for tab, idem in idems.items():
            if idem is not None:
                jm = bf.jm_oracle_idempotent(tab, ctx)
                checks.check("fusion = jm at %s" % tab.encode(),
                             (idem.element - jm.element).is_zero())
        for tab, (e0, ec) in family.items():
            if e0 is None or ec is None:
                continue
            checks.check("hecke family independent of c at %s"
                         % tab.encode(), (e0 - ec).is_zero())
            quo = quotient.get(tab)
            if quo is not None:
                checks.check("hecke family = quotient of fusion at %s"
                             % tab.encode(), (e0 - quo).is_zero())


class JMSystem(Rational):
    """Jucys-Murphy idempotent and its verification for every tableau,
    then the complete-system checks (pairwise products).  Item: one
    tableau's construction plus its verification."""

    name, size, small_size = "jm-system-n4", 4, 3
    make_inputs = staticmethod(inputs.jm_system_inputs)

    @staticmethod
    def _construct(tab, ctx):
        idem = bf.jm_oracle_idempotent(tab, ctx)
        bf.verify_idempotent(idem, ctx)
        return idem

    def expected_calls(self, inp):
        return {"bmwcore.build_context": 2,
                "fusion.jm_oracle_idempotent": len(inp.tableaux),
                "fusion.verify_idempotent": len(inp.tableaux),
                "fusion.complete_system_checks": 1}

    def solve(self, inp, ctx, items, checks):
        idems = [items.run(checks, "jm %s" % tab.encode(),
                           self._construct, tab, ctx)
                 for tab in inp.tableaux]
        idems = [i for i in idems if i is not None]
        system = guarded(checks, "complete_system_checks",
                         bf.complete_system_checks, idems, ctx)
        payload = {"records": [jsonio.idempotent_to_json(i) for i in idems],
                   "system": system}
        return payload, (idems, system)

    def verify(self, inp, ctx, outputs, checks):
        idems, system = outputs
        for idem in idems:
            flags = idem.verified
            checks.check("verify_idempotent at %s" % idem.tableau.encode(),
                         len(flags) == 3 and all(flags.values()))
        if system is not None:
            checks.check("complete system", all(system.values()))


class Closure(Rational):
    """A cold n = 5 context (closure by associativity defects, elimination
    rules, relation suite, cache write), warm rebuilds from that cache,
    and the Jucys-Murphy idempotents of one extension of each of a few
    fixed shorter tableaux on the warm context.  Item: one tableau."""

    name, size, small_size = "closure-n5", 5, 3
    make_inputs = staticmethod(inputs.closure_inputs)
    cold_repeats = 1
    warm_repeats = 5
    setup_batch = 1

    def expected_calls(self, inp):
        return {"bmwcore.build_context": 2,
                "fusion.jm_oracle_idempotent": len(inp.tableaux)}

    def solve(self, inp, ctx, items, checks):
        idems = [items.run(checks, "jm %s" % tab.encode(),
                           bf.jm_oracle_idempotent, tab, ctx)
                 for tab in inp.tableaux]
        idems = [i for i in idems if i is not None]
        basis = ctx.from_terms({w: Fr(1) for w in ctx.words})
        payload = {"words": jsonio.element_to_json(basis),
                   "records": [jsonio.idempotent_to_json(i) for i in idems]}
        return payload, idems

    def verify(self, inp, ctx, idems, checks):
        want = dimension(inp.n)
        checks.check("%d canonical words" % want, len(ctx.words) == want)
        for idem in idems:
            E = idem.element
            checks.check("E E = E at %s" % idem.tableau.encode(),
                         not E.is_zero() and (E * E - E).is_zero())


class Contraction:
    """Brauer idempotents as constant terms of the Laurent Jucys-Murphy
    interpolation in both regimes: every tableau of length n - 1 (each
    call builds its own context) and the first extension of each of them
    on one shared context per regime; the structure-constant oracle on the
    regime-1 context; the block limits at seeded (th1, th2).  Item: one
    Brauer idempotent of length n on a shared context."""

    name, size, small_size = "contraction-laurent", 4, 3
    make_inputs = staticmethod(inputs.contraction_inputs)
    cold_repeats = 3
    warm_repeats = 3
    setup_batch = 2
    regimes = (1, 2)

    def build(self, inp, cache_dir):
        # Laurent contexts are not cached by the library: the "warm"
        # rebuild pays the full construction, as a later bmwf call would.
        return {r: bf.AlgebraContext(inp.n, bf.laurent_params(r, inp.omega),
                                     cache_dir=cache_dir, verify=False)
                for r in self.regimes}

    def fingerprint(self, ctxs):
        return tuple(tuple(ctxs[r].words) for r in self.regimes)

    def expected_calls(self, inp):
        brauer = len(self.regimes) * (len(inp.small_tableaux)
                                      + len(inp.tableaux))
        return {"bmwcore.build_context": 2 * len(self.regimes)
                + len(self.regimes) * len(inp.small_tableaux),
                "contraction.brauer_idempotent": brauer,
                "contraction.oracle": 1,
                "contraction.block_check":
                    len(inp.thetas) * len(self.regimes) * (inp.n - 1),
                "contraction.constant_term":
                    brauer + dimension(inp.n) ** 2}

    def solve(self, inp, ctxs, items, checks):
        omega = inp.omega
        brauer = []
        for r in self.regimes:
            for tab in inp.small_tableaux:
                e = guarded(checks, "brauer %s regime %d" % (tab.encode(), r),
                            bf.brauer_idempotent_via_contraction, tab, r,
                            omega)
                brauer.append((tab, r, e))
            for tab in inp.tableaux:
                e = items.run(checks,
                              "brauer %s regime %d" % (tab.encode(), r),
                              bf.brauer_idempotent_via_contraction, tab, r,
                              omega, ctx=ctxs[r])
                brauer.append((tab, r, e))
        oracle = guarded(checks, "structure_constant_oracle",
                         bf.structure_constant_oracle, ctxs[1], omega)
        blocks = []
        for th1, th2 in inp.thetas:
            for r in self.regimes:
                for i in range(1, inp.n):
                    res = guarded(checks, "block check %s %s regime %d i=%d"
                                  % (th1, th2, r, i),
                                  bf.contraction_block_check, r, i, th1, th2,
                                  omega)
                    blocks.append(({"regime": r, "i": i, "th1": fmt(th1),
                                    "th2": fmt(th2)}, res))
        payload = {
            "brauer": [{"tableau": tab.encode(), "regime": r,
                        "element": jsonio.brauer_to_json(e)}
                       for tab, r, e in brauer if e is not None],
            "oracle": oracle,
            "blocks": [dict(key, result=res) for key, res in blocks],
        }
        return payload, (brauer, oracle, blocks)

    def verify(self, inp, ctxs, outputs, checks):
        brauer, oracle, blocks = outputs
        for tab, r, e in brauer:
            if e is not None:
                checks.check("Brauer idempotent %s regime %d"
                             % (tab.encode(), r),
                             not e.is_zero() and (e * e - e).is_zero())
        if oracle is not None:
            pairs = len(ctxs[1].words) ** 2
            checks.check("structure-constant oracle",
                         oracle.get("ok") is True
                         and oracle.get("pairs") == pairs)
        for key, res in blocks:
            if res is not None:
                checks.check("block limits %s" % key, all(res.values()))


WORKLOADS = {w.name: w for w in (Fusion(), JMSystem(), Closure(),
                                 Contraction())}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def median(xs):
    """Median; 0.0 for no samples (every item failed)."""
    return statistics.median(xs) if xs else 0.0


def load_reference():
    with open(REFERENCE_FILE) as f:
        return json.load(f)


def encode(payload):
    return json.dumps(payload, sort_keys=True)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Scratch:
    """Fresh, empty cache directories under one base directory that is
    removed at the end."""

    def __init__(self, base):
        os.makedirs(base, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=base)

    def fresh(self):
        return tempfile.mkdtemp(prefix="cache-", dir=self.root)

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def timed(watch, fn, *args):
    """Time one call.  Garbage of earlier phases is collected first: a
    context holds reference cycles (its cached Jucys-Murphy elements point
    back to it), so a dropped context is freed only by the cycle collector,
    which would otherwise run at a random point of the next timed region."""
    gc.collect()
    t0 = watch.clock()
    out = fn(*args)
    return out, watch.elapsed(t0)


def one_pass(wl, inp, cache_dir, items):
    """Warm set-up plus the fixed input set, serialised."""
    checks = Checks()
    watch = items.watch
    setup, warm_s = timed(watch, wl.build, inp, cache_dir)
    gc.collect()
    t0 = watch.clock()
    payload, outputs = wl.solve(inp, setup, items, checks)
    text = encode(payload)
    solve_s = watch.elapsed(t0)
    return {"setup": setup, "outputs": outputs, "text": text,
            "checks": checks, "warm_s": warm_s, "solve_s": solve_s}


def build_batch(wl, inp, cache_dirs):
    """One build per directory; all are kept until the batch is timed."""
    return [wl.build(inp, d) for d in cache_dirs]


def measure(wl, inp, seconds, scratch, watch):
    """Untraced run: cold set-ups, then passes until ``seconds`` have
    elapsed (at least one), then extra warm set-ups up to the minimum."""
    setup_s, warm_s, solve_s, items = [], [], [], Items(watch)
    for _ in range(wl.cold_repeats):
        dirs = [scratch.fresh() for _ in range(wl.setup_batch)]
        setups, dt = timed(watch, build_batch, wl, inp, dirs)
        setup_s.append(dt / len(dirs))
        cold_fp = wl.fingerprint(setups[-1])
        del setups
    cache_dir = dirs[-1]
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        p = one_pass(wl, inp, cache_dir, items)
        warm_s.append(p["warm_s"])
        solve_s.append(p["solve_s"])
        if passes:
            p = {"text": p["text"], "checks": p["checks"]}
        passes.append(p)
    while len(warm_s) < wl.warm_repeats:
        dirs = [cache_dir] * wl.setup_batch
        warm_s.append(timed(watch, build_batch, wl, inp, dirs)[1] / len(dirs))
    return {"setup_s": setup_s, "warm_s": warm_s, "solve_s": solve_s,
            "items": items.times, "passes": passes, "cold_fp": cold_fp}


def measure_traced(wl, inp, scratch, recorder):
    """Traced run: a traced cold set-up, one untraced and one traced pass
    (each on its own warm context), so that the difference of their
    solve times is the tracing overhead."""
    watch = speed.Stopwatch()
    cache_dir = scratch.fresh()
    with spans.tracing(recorder):
        setup, cold_s = timed(watch, wl.build, inp, cache_dir)
    cold_fp = wl.fingerprint(setup)
    del setup
    cache_bytes = sum(os.path.getsize(os.path.join(cache_dir, f))
                      for f in os.listdir(cache_dir))
    untraced = one_pass(wl, inp, cache_dir, Items(watch))
    items = Items(watch)
    with spans.tracing(recorder):
        traced = one_pass(wl, inp, cache_dir, items)
    traced = {"text": traced["text"], "checks": traced["checks"],
              "solve_s": traced["solve_s"]}
    return {"setup_s": [cold_s], "warm_s": [untraced["warm_s"]],
            "solve_s": [untraced["solve_s"]], "items": items.times,
            "passes": [untraced, traced], "cold_fp": cold_fp,
            "cache_bytes": cache_bytes}


def check_run(wl, inp, run, reference):
    """Exact checks of the first pass, determinism of later passes, and
    the seed-0 reference digest; all outside the timed regions."""
    first = run["passes"][0]
    checks = first["checks"]
    wl.verify(inp, first["setup"], first["outputs"], checks)
    checks.check("warm words = cold words",
                 wl.fingerprint(first["setup"]) == run["cold_fp"])
    for p in run["passes"][1:]:
        checks.attempted += p["checks"].attempted
        checks.failures += p["checks"].failures
        checks.check("identical output in every pass",
                     p["text"] == first["text"])
    sha = digest(first["text"])
    want = reference.get(wl.name, {}).get(str(inp.n)) if inp.seed == 0 \
        else None
    if want is not None:
        checks.check("seed-0 reference digest", sha == want)
    return checks, sha
