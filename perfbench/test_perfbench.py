"""Tests of the benchmark itself: span arithmetic, seeded inputs, and the
seed-0 reference digests at the smallest size of every workload.

Run with ``python -m pytest perfbench``.
"""

import json
import os
import sys
from fractions import Fraction as Fr

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bmwfusion as bf  # noqa: E402
from bmwfusion import fusion, hecke  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock, keep={"a", "b"})

    def leaf(dt):
        clock.tick(dt)

    d = rec.wrap("d", leaf)
    c = rec.wrap("c", leaf)

    def body_b():
        clock.tick(1)
        d(1)
        clock.tick(1)

    b = rec.wrap("b", body_b)

    def body_a(depth):
        clock.tick(1)
        b()
        clock.tick(1)
        c(3)
        if depth:
            a(depth - 1)  # a span nested in one of its own name
        clock.tick(2)

    a = rec.wrap("a", body_a)
    a(0)
    # a: [0, 10] with children b [1, 4] (d [2, 3] inside) and c [5, 8]
    assert rec.stat("a") == (1, 10.0, 4.0)
    assert rec.stat("b") == (1, 3.0, 2.0)
    assert rec.stat("c") == (1, 3.0, 3.0)
    assert rec.stat("d") == (1, 1.0, 1.0)
    (bid, bname, bstart, bend, bparent), (aid, aname, *_, aparent) = rec.spans
    assert (bname, bstart, bend, bparent) == ("b", 1.0, 4.0, aid)
    assert (aname, aparent) == ("a", 0)

    a(1)
    # the inner a adds a call and self time but no inclusive time
    calls, incl, self_s = rec.stat("a")
    assert (calls, incl, self_s) == (3, 10.0 + 20.0, 4.0 + 8.0)
    assert rec.stat("b")[0] == 3


def test_an_error_counts_once_per_layer():
    rec = spans.Recorder(clock=FakeClock())

    def fail():
        raise bf.PoleError("pole")

    inner = rec.wrap("scalars.ratfunc", fail)
    outer = rec.wrap("fusion.Y_script", lambda: inner())
    outermost = rec.wrap("fusion.fusion_idempotent", lambda: outer())
    with pytest.raises(bf.PoleError):
        outermost()
    assert rec.errors["scalars"] == 1 and rec.errors["fusion"] == 1
    assert rec.stat("fusion.Y_script")[0] == 1 and not rec.stack


def test_tracing_patches_every_namespace_and_restores_it():
    originals = (bf.quantum_contents, fusion.quantum_contents,
                 hecke.quantum_contents, bf.AlgebraContext.__init__)
    rec = spans.Recorder()
    with spans.tracing(rec):
        assert bf.quantum_contents is fusion.quantum_contents
        assert fusion.quantum_contents is hecke.quantum_contents
        assert fusion.quantum_contents is not originals[1]
        ctx = bf.build_context(2, q=Fr(6, 5), nu=Fr(7, 3))
        bf.jm_oracle_idempotent(bf.enumerate_tableaux(2)[0], ctx)
    assert (bf.quantum_contents, fusion.quantum_contents,
            hecke.quantum_contents, bf.AlgebraContext.__init__) == originals
    assert rec.stat("bmwcore.build_context")[0] == 1
    assert rec.stat("fusion.jm_oracle_idempotent")[0] == 1
    assert rec.stat("combinatorics")[0] >= 2
    assert not rec.stack


MAKERS = {w.name: w.make_inputs for w in workloads.WORKLOADS.values()}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_inputs_are_a_function_of_the_seed(name):
    size = workloads.WORKLOADS[name].size
    for seed in range(4):
        first, again = MAKERS[name](seed, size), MAKERS[name](seed, size)
        assert first == again
    assert MAKERS[name](1, size) != MAKERS[name](2, size)
    if name in ("fusion-n4", "closure-n5"):  # the drawn samples
        assert MAKERS[name](1, size).tableaux != MAKERS[name](2, size).tableaux


def test_seed_zero_is_pinned():
    for name, make in MAKERS.items():
        n = workloads.WORKLOADS[name].size
        inp = make(0, n)
        tabs = bf.enumerate_tableaux(n)
        if inp.params is not None:
            assert (inp.params.q, inp.params.nu) == (Fr(6, 5), Fr(7, 3))
        if name == "jm-system-n4":
            assert list(inp.tableaux) == tabs
        else:  # first extension of each prefix, in enumeration order
            for tab in inp.tableaux:
                group = [t for t in tabs if t.shapes[:-1] == tab.shapes[:-1]]
                assert tab == group[0]
    inp = inputs.contraction_inputs(0, 4)
    assert inp.omega == 5
    assert inp.thetas == inputs.SEED0_THETAS
    assert list(inp.small_tableaux) == bf.enumerate_tableaux(3)


def test_other_seeds_cover_the_parameter_pool():
    drawn = [inputs.jm_system_inputs(s, 4).params for s in range(1, 40)]
    assert any(p.q < 0 for p in drawn)
    assert any(0 < p.q < 1 for p in drawn)
    assert any(p.nu < 1 for p in drawn)
    assert all(p.certified_n == 4 for p in drawn)
    omegas = {inputs.contraction_inputs(s, 4).omega for s in range(1, 20)}
    assert len(omegas) > 1
    assert all(inputs.omega_generic(inputs.all_tableaux(4), w)
               for w in omegas)


def test_benchmark_json_matches_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(MAKERS))
def test_seed_zero_reproduces_the_reference_at_the_smallest_size(
        name, trace, monkeypatch):
    monkeypatch.delenv("BMWF_CACHE", raising=False)
    size = workloads.WORKLOADS[name].small_size
    result, record = run.run(name, 0, 0, trace, n=size)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0
    reference = workloads.load_reference()
    assert record["output_sha256"] == reference[name][str(size)]
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(wanted)
