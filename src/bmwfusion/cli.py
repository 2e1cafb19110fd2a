"""Command-line interface.

Subcommands: idempotents, verify, tableaux, symmetrizers, params suggest,
export.  Exit codes: 0 all checks pass, 1 verification failure, 2 invalid
or non-generic input, 3 internal error (poles, rewrite limits) or a
stdout closed before the output was written.

The cache directory is taken from --cache-dir or the BMWF_CACHE
environment variable; cache writes are atomic.  Output is deterministic
for a fixed configuration including --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import __version__
from .bmwcore import AlgebraContext, build_context
from .combinatorics import (UpDownTableau, check_strands, classical_contents,
                            enumerate_tableaux, quantum_contents)
from .contraction import (brauer_idempotent_via_contraction,
                          contraction_block_check, default_truncation,
                          laurent_params, structure_constant_oracle)
from .errors import (BmwError, CapExceeded, DomainMismatch,
                     NegativeValuation, NonInvertible, NotGeneric, PoleError)
from .fusion import (SpectralView, antisymmetrizer, baxterized_Q,
                     baxterized_T, baxterized_T_inverse, check_reflection,
                     complete_system_checks, fusion_idempotent,
                     jm_oracle_idempotent, symmetrizer, verify_idempotent)
from .hecke import HeckeAlgebra, hecke_family_idempotent, hecke_quotient
from .jsonio import (brauer_to_json, element_to_json, hecke_to_json,
                     idempotent_to_json)
from .scalars import (format_rational, make_params, parse_rational,
                      suggest_params)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

TUPLES = 10     # random parameter tuples per randomized suite


def _add_common(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", default="6/5", help="rational, e.g. 6/5")
    p.add_argument("--nu", default="7/3", help="rational, e.g. 7/3")
    p.add_argument("--cache-dir", default=None,
                   help="structure-constant cache (env BMWF_CACHE)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output JSON path")


def _emit(args, payload):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if not args.out:
        print(text)
        return
    try:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    except OSError as exc:
        raise ValueError("cannot write --out: %s" % exc) from exc


def _params(args):
    return make_params(parse_rational(args.q), parse_rational(args.nu),
                       args.n)


def _context(args):
    return build_context(args.n, params=_params(args),
                         cache_dir=args.cache_dir)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _tableau(text, n):
    """The up-down tableau of length n that text encodes; anything else
    raises ValueError."""
    tab = UpDownTableau.decode(text)
    if len(tab) != n:
        raise ValueError("--tableau %s has length %d, --n is %d"
                         % (text, len(tab), n))
    return tab


def cmd_idempotents(args) -> int:
    tabs = enumerate_tableaux(args.n)
    want = {_tableau(text, args.n) for text in args.tableau}
    if want:
        tabs = [t for t in tabs if t in want]
    ctx = _context(args)

    build = fusion_idempotent if args.method == "fusion" \
        else jm_oracle_idempotent
    idems = [build(tab, ctx) for tab in tabs]
    # a certified full system sets the flags; the rest are checked directly
    system = complete_system_checks(idems, ctx) \
        if len(idems) == len(enumerate_tableaux(args.n)) else {}
    for idem in idems:
        if not idem.verified:
            verify_idempotent(idem, ctx)
    payload = {
        "n": args.n,
        "params": {"q": args.q, "nu": args.nu},
        "method": args.method,
        "records": [idempotent_to_json(i) for i in idems],
        "system": system,
    }
    _emit(args, payload)
    ok = all(all(i.verified.values()) for i in idems) and \
        all(system.values())
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _suite_relations(ctx, rnd, report):
    rep = ctx.verify_relations()
    bad = [r for r in rep if not r["ok"]]
    report["relations"] = {"checked": len(rep), "failed": len(bad),
                           "first_failure": bad[0] if bad else None}
    return not bad


def _rand_rational(rnd):
    num = rnd.randint(1, 9) * rnd.choice((1, -1))
    den = rnd.randint(1, 9)
    return Fraction(num, den)


def _suite_fusion(ctx, rnd, report):
    tabs = enumerate_tableaux(ctx.n)
    ok = True
    first = None
    idems = [jm_oracle_idempotent(tab, ctx) for tab in tabs]
    sysc = complete_system_checks(idems, ctx)
    for tab, ji in zip(tabs, idems):
        fi = fusion_idempotent(tab, ctx)
        same = (fi.element - ji.element).is_zero()
        # fi = ji takes the flags the certificate proved for ji
        flags = ji.verified if same and ji.verified \
            else verify_idempotent(fi, ctx)
        if not (same and all(flags.values())):
            ok = False
            first = first or tab.encode()
    if not all(sysc.values()):
        ok = False
        first = first or "system"
    report["fusion"] = {"checked": len(tabs), "system": sysc,
                        "first_failure": first}
    return ok


def _suite_reflection(ctx, rnd, report):
    checked, failed, first = 0, 0, None
    for j in range(1, min(ctx.n - 1, 3) + 1):
        contents = quantum_contents(enumerate_tableaux(j)[0],
                                    ctx.params)[:j - 1]
        done = 0
        while done < TUPLES:
            u, v = _rand_rational(rnd), _rand_rational(rnd)
            try:
                okL = check_reflection(ctx, j, u, v, "L")
                okY = check_reflection(ctx, j, u, v, "Y", contents=contents)
            except (NonInvertible, PoleError):
                # a spectral point on a pole: draw again; any other error
                # would recur on every draw
                continue
            done += 1
            checked += 2
            if not (okL and okY):
                failed += 1
                first = first or "j=%d u=%s v=%s" % (j, u, v)
    report["reflection"] = {"checked": checked, "failed": failed,
                            "first_failure": first}
    return failed == 0


def _suite_baxterized(ctx, rnd, report):
    view = SpectralView.of(ctx.params)
    checked, failed, first = 0, 0, None
    maxi = ctx.n - 1
    for _ in range(TUPLES if maxi else 0):   # BMW_1 has no generators
        u1, u2, u3 = (_rand_rational(rnd) for _ in range(3))
        i = rnd.randint(1, max(1, maxi - 1))
        try:
            oks = []
            if i + 1 <= maxi:
                # braid relation for baxterized elements
                lhs = baxterized_T(ctx, i, u2, u3, view) * \
                    baxterized_T(ctx, i + 1, u1, u3, view) * \
                    baxterized_T(ctx, i, u1, u2, view)
                rhs = baxterized_T(ctx, i + 1, u1, u2, view) * \
                    baxterized_T(ctx, i, u1, u3, view) * \
                    baxterized_T(ctx, i + 1, u2, u3, view)
                oks.append((lhs - rhs).is_zero())
                # mixed braid with Q-elements
                lhs = baxterized_T(ctx, i, u2, u3, view) * \
                    baxterized_Q(ctx, i + 1, u1, u3, view) * \
                    baxterized_Q(ctx, i, u1, u2, view)
                rhs = baxterized_Q(ctx, i + 1, u1, u2, view) * \
                    baxterized_Q(ctx, i, u1, u3, view) * \
                    baxterized_T(ctx, i + 1, u2, u3, view)
                oks.append((lhs - rhs).is_zero())
            # inverses
            inv = baxterized_T_inverse(ctx, i, u2, u1, view)
            oks.append((baxterized_T(ctx, i, u2, u1, view) * inv -
                        ctx.one()).is_zero())
        except (NonInvertible, PoleError):
            # a spectral point on a pole: the tuple is left out; any other
            # error is internal and ends the run
            continue
        checked += len(oks)
        if not all(oks):
            failed += 1
            first = first or "i=%d (%s,%s,%s)" % (i, u1, u2, u3)
    report["baxterized"] = {"checked": checked, "failed": failed,
                            "first_failure": first}
    return failed == 0


def _suite_hecke(ctx, rnd, report):
    hk = HeckeAlgebra(ctx.n, ctx.params.q)
    tabs = [t for t in enumerate_tableaux(ctx.n) if t.is_standard()]
    cs = [Fraction(0), Fraction(1, 2), Fraction(-2, 3), ctx.params.c]
    ok = True
    first = None
    for tab in tabs:
        base = None
        for cp in cs:
            try:
                e = hecke_family_idempotent(tab, cp, hk, ctx.params)
            except (NotGeneric, PoleError):
                continue    # c on a pole; other errors are internal
            if base is None:
                base = e
            elif not (e - base).is_zero():
                ok = False
                first = first or "%s c=%s" % (tab.encode(), cp)
        if base is None:
            ok = False
            first = first or tab.encode()
            continue
        if not (base * base - base).is_zero():
            ok = False
            first = first or tab.encode()
        quo = hecke_quotient(fusion_idempotent(tab, ctx).element, hk)
        if not (quo - base).is_zero():
            ok = False
            first = first or "%s quotient" % tab.encode()
    report["hecke"] = {"tableaux": len(tabs), "c_values": len(cs),
                       "first_failure": first}
    return ok


def _suite_contraction(ctx, rnd, report, cache_dir=None):
    ok = True
    first = None
    checked = 0
    for _ in range(TUPLES):
        th1, th2 = _rand_rational(rnd), _rand_rational(rnd)
        om = abs(_rand_rational(rnd)) + 2
        for regime in (1, 2):
            try:
                res = contraction_block_check(regime, 1, th1, th2, om)
            except (NonInvertible, NegativeValuation):
                continue    # no limit at this point; other errors are internal
            checked += 1
            if not all(res.values()):
                ok = False
                first = first or "regime %d (%s,%s,%s)" % (regime, th1,
                                                           th2, om)
    lctx = AlgebraContext(min(ctx.n, 3), laurent_params(1, 5, 4),
                          cache_dir=cache_dir)
    orc = structure_constant_oracle(lctx, 5)
    if not orc.get("ok"):
        ok = False
        first = first or "structure-constant oracle"
    report["contraction"] = {"blocks_checked": checked, "oracle": orc,
                             "first_failure": first}
    return ok


def cmd_verify(args) -> int:
    rnd = random.Random(args.seed)
    report = {}
    suites = {
        "relations": _suite_relations,
        "fusion": _suite_fusion,
        "reflection": _suite_reflection,
        "baxterized": _suite_baxterized,
        "hecke": _suite_hecke,
        "contraction": lambda ctx, rnd, report: _suite_contraction(
            ctx, rnd, report, args.cache_dir),
    }
    todo = list(suites) if args.suite == "all" else [args.suite]
    ctx = _context(args)
    ok = True
    for name in todo:
        ok = suites[name](ctx, rnd, report) and ok
    payload = {"n": args.n, "params": {"q": args.q, "nu": args.nu},
               "seed": args.seed, "suites": report, "pass": ok}
    for name in todo:
        info = report.get(name, {})
        fail = info.get("failed", 0) or info.get("first_failure")
        print("suite %-12s %s" % (name, "ok" if not fail else
                                  "FAILED (%s)" % fail), file=sys.stderr)
    _emit(args, payload)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_tableaux(args) -> int:
    params = None
    tabs = enumerate_tableaux(args.n)
    rows = []
    for t in tabs:
        row = {"tableau": t.encode(),
               "steps": [s.encode() for s in t.steps]}
        if args.contents in ("quantum", "all"):
            if params is None:
                params = _params(args)
            row["quantum"] = [format_rational(c)
                              for c in quantum_contents(t, params)]
        if args.contents in ("classical", "all"):
            row["classical"] = [format_rational(c) for c in
                                classical_contents(t, parse_rational(args.omega))]
        if args.contents in ("t-classical", "all"):
            row["t_classical"] = [format_rational(c) for c in
                                  classical_contents(t, parse_rational(args.omega),
                                                     t_classical=True)]
        rows.append(row)
    _emit(args, {"n": args.n, "count": len(rows), "tableaux": rows})
    return EXIT_OK


def cmd_symmetrizers(args) -> int:
    ctx = _context(args)
    out = {}
    ok = True
    for name, fn in (("symmetrizer", symmetrizer),
                     ("antisymmetrizer", antisymmetrizer)):
        chain = fn(args.n, ctx, "chain")
        yprod = fn(args.n, ctx, "y-product")
        fus = fn(args.n, ctx, "fusion")
        agree = (chain - yprod).is_zero() and (chain - fus).is_zero()
        ok = ok and agree
        out[name] = {"element": element_to_json(chain),
                     "forms_agree": agree}
    _emit(args, {"n": args.n, "params": {"q": args.q, "nu": args.nu},
                 **out})
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_params_suggest(args) -> int:
    ps = suggest_params(args.n)
    _emit(args, {"n": args.n, "q": format_rational(ps.q),
                 "nu": format_rational(ps.nu),
                 "c": format_rational(ps.c),
                 "mu": format_rational(ps.mu),
                 "certified_n": ps.certified_n})
    return EXIT_OK


def cmd_export(args) -> int:
    check_strands(args.n)
    kind = args.kind
    tab = None
    if kind.endswith("idempotent"):
        if args.tableau is None:
            raise ValueError("--kind %s needs --tableau" % kind)
        tab = _tableau(args.tableau, args.n)
    if kind == "jm" and not 1 <= args.index <= args.n:
        raise ValueError("--index %d outside 1..%d" % (args.index, args.n))
    params = _params(args)      # bad parameters exit 2 for every kind
    if kind in ("idempotent", "jm", "symmetrizer", "antisymmetrizer"):
        ctx = build_context(args.n, params=params, cache_dir=args.cache_dir)
    if kind == "idempotent":
        idem = fusion_idempotent(tab, ctx) if args.method == "fusion" \
            else jm_oracle_idempotent(tab, ctx)
        verify_idempotent(idem, ctx)
        _emit(args, idempotent_to_json(idem))
    elif kind == "jm":
        _emit(args, element_to_json(ctx.jm_element(args.index)))
    elif kind == "symmetrizer":
        _emit(args, element_to_json(symmetrizer(args.n, ctx, "chain")))
    elif kind == "antisymmetrizer":
        _emit(args, element_to_json(antisymmetrizer(args.n, ctx, "chain")))
    elif kind == "brauer-idempotent":
        omega = parse_rational(args.omega)
        lctx = AlgebraContext(
            args.n, laurent_params(args.regime, omega,
                                   default_truncation(args.n)),
            cache_dir=args.cache_dir)
        e = brauer_idempotent_via_contraction(tab, args.regime, omega,
                                              ctx=lctx)
        _emit(args, brauer_to_json(e))
    elif kind == "hecke-idempotent":
        hk = HeckeAlgebra(args.n, parse_rational(args.q))
        e = hecke_family_idempotent(tab, parse_rational(args.c_param), hk,
                                    params)
        _emit(args, hecke_to_json(e))
    else:
        raise ValueError("unknown export kind %r" % kind)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bmwf",
        description="Exact idempotents of Birman-Murakami-Wenzl algebras "
                    "by the fusion procedure, with verification suites.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("idempotents",
                       help="compute and verify primitive idempotents")
    _add_common(p)
    p.add_argument("--method", choices=("fusion", "jm"), default="fusion")
    p.add_argument("--tableau", action="append", default=[],
                   help="restrict to encoded tableaux (repeatable)")
    p.set_defaults(fn=cmd_idempotents)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p)
    p.add_argument("--suite", default="all",
                   choices=("relations", "fusion", "reflection",
                            "baxterized", "hecke", "contraction", "all"))
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("tableaux", help="enumerate up-down tableaux")
    _add_common(p)
    p.add_argument("--contents", default="quantum",
                   choices=("none", "quantum", "classical", "t-classical",
                            "all"))
    p.add_argument("--omega", default="5")
    p.set_defaults(fn=cmd_tableaux)

    p = sub.add_parser("symmetrizers",
                       help="S_n and A_n in all closed forms")
    _add_common(p)
    p.set_defaults(fn=cmd_symmetrizers)

    p = sub.add_parser("params", help="parameter utilities")
    psub = p.add_subparsers(dest="params_command", required=True)
    ps = psub.add_parser("suggest", help="certified generic parameters")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=cmd_params_suggest)

    p = sub.add_parser("export", help="export one object as JSON")
    _add_common(p)
    p.add_argument("--kind", required=True,
                   choices=("idempotent", "jm", "symmetrizer",
                            "antisymmetrizer", "brauer-idempotent",
                            "hecke-idempotent"))
    p.add_argument("--tableau", default=None)
    p.add_argument("--method", choices=("fusion", "jm"), default="fusion")
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--regime", type=int, default=1)
    p.add_argument("--omega", default="5")
    p.add_argument("--c-param", default="0")
    p.set_defaults(fn=cmd_export)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout left: what is still buffered goes nowhere,
        # so the interpreter's last flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(json.dumps({"error": "INTERNAL", "message":
                          "stdout closed before the output was written"}),
              file=sys.stderr)
        return EXIT_INTERNAL
    except (NotGeneric, CapExceeded, DomainMismatch, ValueError) as exc:
        print(json.dumps({"error": getattr(exc, "code", "BAD_INPUT"),
                          "message": str(exc)}), file=sys.stderr)
        return EXIT_BAD_INPUT
    except BmwError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
