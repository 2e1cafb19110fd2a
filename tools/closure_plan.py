"""Regenerate and sweep the closure plans of ``bmwcore.CLOSURE_PLANS``.

The hand-derived rewriting rules of ``bmwcore`` close BMW_n alone for
n <= 3; BMW_4 and BMW_5 close only by replaying the committed plans, of
8 and 309 rules.  This tool holds the search that writes them: rounds
over the basis words w and letters g, h that turn each associativity
defect (w.g).h - w.(g.h) into an elimination rule until the basis has
(2n-1)!! words.

    python tools/closure_plan.py            # the plans at (6/5, 7/3)
    python tools/closure_plan.py --sweep    # their replay at 20 seeded
                                            # pairs and 4 Laurent cases

The plans go to stdout as ``CLOSURE_PLANS[n]`` writes them, n = 4 then
n = 5: one token w.gh... per group of rules.  The sweep exits 1 unless,
at n = 4 and at n = 5, every case replays to (2n-1)!! words that are
the Brauer spellings in order and, at every rational pair, the
Jucys-Murphy idempotents form a complete system that
``complete_system_checks`` certifies.  On a 2-CPU VM the two
searches take about 3.5 s, the sweep about 85 s.
"""

import argparse
import os
import random
import sys
import textwrap
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from bmwfusion import (AlgebraContext, BmwError,  # noqa: E402
                       BrauerAlgebra, DimensionMismatch, NotGeneric,
                       complete_system_checks, enumerate_tableaux,
                       jm_oracle_idempotent, laurent_params, make_params)
from bmwfusion.bmwcore import (default_truncation,  # noqa: E402
                               double_factorial)

# the strand counts that have a plan; n <= 3 close with none
PLAN_STRANDS = (4, 5)


class SearchContext(AlgebraContext):
    """An AlgebraContext closed by the search instead of the replay.

    ``plan`` holds the (w, g, h, starts_group) of each rule written, in
    order; starts_group is true for the first rule after vg = w.g was
    reduced, since the later rules of that (w, g) use vg as it was.
    """

    def _close(self):
        """Each round turns the defects over the basis of the last round
        into rules, until the basis has (2n-1)!! words.  When the pair
        (g, h) is canonical, w.(g.h) is computed by the very products that
        give (w.g).h, so the defect is zero and the triple is skipped.
        That holds only while vg is fresh: once a rule is set, vg no
        longer reduces through every rule and the defect may be a rule
        that must not be lost.  A defect whose lead has a rule already
        writes none, whatever its expansion: the replay rejects a second
        rule for one lead."""
        want = double_factorial(2 * self.n - 1)
        plan = self.plan = []
        basis = self._closure_once()
        while len(basis) != want:
            leads, found = len(self._dyn), 0
            for w in basis:
                for g in self.letters:
                    vg = self._reduce(w + (g,))
                    fresh, starts = found, True
                    for h in self.letters:
                        gh = self._reduce((g, h))
                        if found == fresh and gh == (1, {(g, h): 1}):
                            continue
                        rule = self._defect(w, vg, g, h, gh)
                        if rule is None:
                            continue
                        found += 1
                        if rule[0] in self._dyn:
                            continue    # the lead has a rule already
                        self._dyn[rule[0]] = rule[1]
                        plan.append((w, g, h, starts))
                        starts = False
                if found >= 80:
                    break
            if len(self._dyn) == leads or len(basis) < want:
                raise DimensionMismatch("closure search stuck at %d words"
                                        " (expected %d) for n=%d"
                                        % (len(basis), want, self.n))
            basis = self._closure_once()
        self.stats["closure"] = "search"
        self.stats["rules_added"] = len(self._dyn)
        return basis


def plan_text(plan):
    """A plan as CLOSURE_PLANS writes it: one token w.gh... per group."""
    toks = []
    for w, g, h, starts in plan:
        if starts:
            toks.append("".join(map(str, w)) + "." + str(g))
        toks[-1] += str(h)
    return " ".join(toks)


SWEEP_PAIRS = 20


def sweep_cases(n):
    """Two lists of (name, build) at n strands: SWEEP_PAIRS seeded rational
    pairs generic at n = 5 (numerators and denominators up to 19), and the
    Laurent contexts of both regimes at omega = 5 and 7/2 with
    ``default_truncation(n)`` series terms."""
    rng = random.Random(0)
    pairs = []
    while len(pairs) < SWEEP_PAIRS:
        q, nu = (Fraction(rng.choice((1, -1)) * rng.randint(1, 19),
                          rng.randint(1, 19)) for _ in range(2))
        try:
            make_params(q, nu, 5)
        except NotGeneric:
            continue
        if (q, nu) not in pairs:
            pairs.append((q, nu))
    rational = [("q=%s nu=%s" % (q, nu),
                 lambda q=q, nu=nu: AlgebraContext(n, make_params(q, nu, n)))
                for q, nu in pairs]
    prec = default_truncation(n)
    laurent = [("regime %d omega=%s" % (r, o),
                lambda r=r, o=o: AlgebraContext(n, laurent_params(r, o, prec)))
               for r in (1, 2) for o in (Fraction(5), Fraction(7, 2))]
    return rational, laurent


CERTIFIED = "complete JM system"
SPELLED = "the Brauer spellings"


def spellings(ctx):
    """SPELLED when the canonical words are the Brauer spellings in order
    (the spellings walk over loop-free products, so omega does not
    change them)."""
    B = BrauerAlgebra(ctx.n, 5)
    if list(ctx.words) == [B.spell(d) for d in B.words]:
        return SPELLED
    return "not " + SPELLED


def jm_system(ctx):
    """CERTIFIED when the Jucys-Murphy idempotents of every tableau form a
    complete system by ``complete_system_checks``, else its dict."""
    idems = [jm_oracle_idempotent(t, ctx) for t in enumerate_tableaux(ctx.n)]
    system = complete_system_checks(idems, ctx)
    return CERTIFIED if all(system.values()) else "system %s" % system


def sweep():
    """Build every case of ``sweep_cases`` at each n of PLAN_STRANDS; 0 if
    each one closes by the replay to (2n-1)!! words, the Brauer spellings
    in order, and each rational pair's JM system is complete, else 1."""
    tally = []
    for n in PLAN_STRANDS:
        replayed = "replay, %d words, %s" % (double_factorial(2 * n - 1),
                                             SPELLED)
        for cases, want in zip(sweep_cases(n), (replayed + ", " + CERTIFIED,
                                                replayed)):
            passed = 0
            for name, build in cases:
                start = time.perf_counter()
                try:
                    ctx = build()
                    got = "%s, %d words, %s" % (ctx.stats["closure"],
                                                len(ctx.words),
                                                spellings(ctx))
                    if got == replayed and ctx.rational:
                        got += ", " + jm_system(ctx)
                except BmwError as exc:
                    got = "%s: %s" % (exc.code, exc)
                ok = got == want
                passed += ok
                print("%-4s n=%d %-24s %s (%.2f s)" % (
                    "ok" if ok else "FAIL", n, name, got,
                    time.perf_counter() - start))
            tally += [passed, len(cases)]
        print("sweep n=%d: %d/%d rational pairs replay to the Brauer"
              " spellings with a complete JM system, %d/%d Laurent cases"
              " replay to them" % (n, *tally[-4:]))
    return 0 if tally[0::2] == tally[1::2] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sweep", action="store_true",
                    help="replay the committed plans at %d seeded rational"
                         " pairs, with their spellings and JM systems, and 4"
                         " Laurent cases instead" % SWEEP_PAIRS)
    args = ap.parse_args(argv)
    os.environ.pop("BMWF_CACHE", None)     # a cache hit would skip the work
    if args.sweep:
        return sweep()
    for n in PLAN_STRANDS:
        ctx = SearchContext(n, make_params(Fraction(6, 5), Fraction(7, 3), n))
        print("CLOSURE_PLANS[%d]" % n)
        print(textwrap.fill(plan_text(ctx.plan), 79))
    return 0


if __name__ == "__main__":
    sys.exit(main())
