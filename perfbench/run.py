"""Benchmark of the bmwfusion library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fusion-n4 --seed 0 --seconds 5 --trace 0

Runs one workload in this process on inputs drawn from the seed, checks
every output exactly, and prints as its last line a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (see BENCHMARK.json);
with ``--trace 1`` the run is traced and the metrics are the per-layer
ones.  A record with the environment, the digests and the failures goes
to ``.perfbench/`` at the root of the checkout, together with the kept
spans of a traced run.

The library is imported from ``src/`` of the same checkout; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

END_TO_END = {
    "setup_s": "s", "warm_setup_s": "s", "solve_s": "s",
    "item_p50_ms": "ms", "peak_rss_mb": "MiB",
}

# per-layer metric -> (unit, better)
PER_LAYER = {}
for _name, _kinds in (
        ("scalars.ratfunc", ("calls", "self_s")),
        ("scalars.laurent", ("calls", "self_s")),
        ("combinatorics", ("calls", "self_s")),
        ("bmwcore.build_context", ("calls", "s")),
        ("bmwcore.verify_relations", ("s",)),
        ("bmwcore.reduce_word", ("calls", "self_s")),
        ("bmwcore.mul", ("calls", "self_s")),
        ("bmwcore.rho", ("calls", "self_s")),
        ("hecke.family", ("calls", "s")),
        ("hecke.mul", ("calls", "self_s")),
        ("hecke.quotient", ("s",)),
        ("fusion.fusion_idempotent", ("calls", "s")),
        ("fusion.jm_oracle_idempotent", ("calls", "s")),
        ("fusion.Y_script", ("calls", "self_s")),
        ("fusion.baxterized", ("calls",)),
        ("fusion.verify_idempotent", ("s",)),
        ("fusion.complete_system_checks", ("s",)),
        ("brauer.mul", ("calls", "self_s")),
        ("brauer.diagram_mul", ("calls",)),
        ("contraction.brauer_idempotent", ("calls", "s")),
        ("contraction.oracle", ("calls", "s")),
        ("contraction.block_check", ("calls", "s")),
        ("contraction.constant_term", ("calls",)),
        ("jsonio", ("s",))):
    for _kind in _kinds:
        PER_LAYER["%s.%s" % (_name, _kind)] = \
            ("count" if _kind == "calls" else "s", "lower")
PER_LAYER.update({
    "bmwcore.cache.bytes": ("bytes", "lower"),
    "bmwcore.reduce_word.repeat_ratio": ("ratio", "higher"),
    "bmwcore.mul.term_pairs": ("count", "lower"),
    "contraction.oracle.pairs": ("count", "higher"),
    "jsonio.bytes": ("bytes", "lower"),
})
for _layer in ("scalars", "combinatorics", "bmwcore", "hecke", "fusion",
               "brauer", "contraction", "jsonio"):
    PER_LAYER[_layer + ".errors"] = ("count", "lower")
PER_LAYER.update({
    "trace.solve_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "fail_frac": ("ratio", "lower"),
})


def import_library():
    """Import bmwfusion from this checkout's src/, or exit with status 2."""
    sys.path.insert(0, SRC)
    try:
        import bmwfusion
    except ImportError as exc:
        print("perfbench: cannot import bmwfusion from %s: %s" % (SRC, exc),
              file=sys.stderr)
        sys.exit(2)
    where = os.path.dirname(os.path.abspath(bmwfusion.__file__))
    if os.path.dirname(where) != SRC:
        print("perfbench: bmwfusion imported from %s, not from %s"
              % (where, SRC), file=sys.stderr)
        sys.exit(2)
    return bmwfusion


def source_commit():
    """The checked-out commit if this is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def source_digest():
    """sha256 over the package sources, standing in for the commit in a
    checkout without git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bmwfusion")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment():
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": source_commit(), "source_sha256": source_digest()}


def end_to_end_metrics(run):
    """Medians of the run's samples (times at the reference pace)."""
    from workloads import median
    values = {
        "setup_s": median(run["setup_s"]),
        "warm_setup_s": median(run["warm_s"]),
        "solve_s": median(run["solve_s"]),
        "item_p50_ms": 1000 * median(run["items"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer_metrics(rec, run, fail_frac):
    text = run["passes"][0]["text"]
    oracle_pairs = (json.loads(text).get("oracle") or {}).get("pairs", 0)
    values = {}
    for name in PER_LAYER:
        group, _, kind = name.rpartition(".")
        calls, incl, self_s = rec.stat(group)
        if kind == "calls":
            values[name] = calls
        elif kind == "s":
            values[name] = incl
        elif kind == "self_s":
            values[name] = self_s
    for layer, count in rec.errors.items():
        values[layer + ".errors"] = count
    rw_calls = rec.stat("bmwcore.reduce_word")[0]
    values.update({
        "bmwcore.cache.bytes": run["cache_bytes"],
        "bmwcore.reduce_word.repeat_ratio":
            rec.counts["bmwcore.reduce_word.repeats"] / rw_calls
            if rw_calls else 0.0,
        "bmwcore.mul.term_pairs": rec.counts["bmwcore.mul.term_pairs"],
        "contraction.oracle.pairs": oracle_pairs,
        "jsonio.bytes": len(text.encode()),
        "trace.solve_s": run["passes"][1]["solve_s"],
        "trace.overhead_s": run["passes"][1]["solve_s"] - run["solve_s"][0],
        "fail_frac": fail_frac,
    })
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]}
            for k in PER_LAYER}


def cross_check(wl, inp, rec, checks):
    """Each counted span name must have been called as often as the
    workload knows independently; tracing that misses or double counts
    a call fails the run."""
    import spans
    want = wl.expected_calls(inp)
    for name in spans.COUNTED:
        expected = want.get(name, 0)
        if expected is None:
            continue
        got = rec.stat(name)[0]
        checks.check("traced calls of %s: %d, expected %d"
                     % (name, got, expected), got == expected)


def write_record(name, record):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    return path


def run(workload, seed, seconds, trace, n=None):
    """Measure one workload; returns (result line dict, record dict)."""
    import spans
    import speed
    import workloads as W

    wl = W.WORKLOADS[workload]
    inp = wl.make_inputs(seed, wl.size if n is None else n)
    os.environ.pop("BMWF_CACHE", None)
    scratch = W.Scratch(os.path.join(OUT_DIR, "tmp"))
    rec = spans.Recorder() if trace else None
    measured, sha, checks = None, None, W.Checks()
    meter = speed.SpeedMeter()
    try:
        if trace:
            measured = W.measure_traced(wl, inp, scratch, rec)
        else:
            with meter:
                measured = W.measure(wl, inp, seconds, scratch, meter)
        checks, sha = W.check_run(wl, inp, measured, W.load_reference())
        if trace:
            cross_check(wl, inp, rec, checks)
    except Exception as exc:  # e.g. a set-up error on a certified input
        checks.error("%s run" % workload, exc)
    finally:
        scratch.close()
    failed = len(checks.failures)
    attempted = max(checks.attempted, 1)
    if measured is None:
        metrics = {}
    elif trace:
        metrics = per_layer_metrics(rec, measured, failed / attempted)
    else:
        metrics = end_to_end_metrics(measured)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "n": inp.n, "trace": trace,
        "seconds": seconds, "environment": environment(),
        "inputs": {"q": getattr(inp.params, "q", None),
                   "nu": getattr(inp.params, "nu", None),
                   "omega": inp.omega, "thetas": inp.thetas,
                   "tableaux": [t.encode() for t in inp.tableaux]},
        "output_sha256": sha, "failures": checks.failures, "result": result,
    }
    if measured is not None:
        record["samples"] = {k: measured[k] for k in
                             ("setup_s", "warm_s", "solve_s", "items")}
        record["speed"] = {"pace": meter.pace(),
                           "probes": len(meter.samples)}
        record["passes"] = len(measured["passes"])
    if trace:
        record["spans"] = rec.spans
    return result, record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_library()
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    path = write_record("%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace), record)
    print(json.dumps({"environment": record["environment"],
                      "output_sha256": record["output_sha256"],
                      "samples": {k: len(v) for k, v in
                                  record.get("samples", {}).items()},
                      "failures": record["failures"][:5],
                      "record": path}), file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
