"""The relation suite against the chained products it replaced.

``AlgebraContext.verify_relations`` batches its products by left factor;
``chained_relations`` below forms every side as its own chain of element
products, as the suite did before, and is kept as the reference.  Both
must give equal reports on clean tables and on tables edited in one
numerator, where a side folded from the wrong left factor would read
other rows.
"""

import json
from fractions import Fraction as Fr

import pytest

from bmwfusion import AlgebraContext, laurent_params, make_params
from bmwfusion import bmwcore

PAIRS = [(Fr(6, 5), Fr(7, 3)), (Fr(-5, 6), Fr(3, 7))]


def chained_relations(ctx):
    """The relation suite with every product formed by ``*``, left to
    right: the report ``verify_relations`` must equal."""
    report = []

    def chk(name, inst, lhs, rhs):
        ok = (lhs - rhs).is_zero()
        report.append({"relation": name, "instance": inst, "ok": ok})

    n = ctx.n
    one = ctx.one()
    dlt = ctx.delta
    T, Ti, K = ctx.gen_T, ctx.gen_Tinv, ctx.gen_K
    for i in range(1, n - 1):
        chk("braid", "i=%d" % i,
            T(i) * T(i + 1) * T(i), T(i + 1) * T(i) * T(i + 1))
    for i in range(1, n):
        for jj in range(i + 2, n):
            chk("distant", "i=%d j=%d" % (i, jj),
                T(i) * T(jj), T(jj) * T(i))
    for i in range(1, n):
        chk("inverse", "i=%d" % i, T(i) * Ti(i), one)
        chk("inverse", "i=%d (left)" % i, Ti(i) * T(i), one)
        chk("kappa-def", "i=%d" % i,
            K(i), one - (T(i) - Ti(i)).scale(ctx._one / dlt))
        chk("KT=nuK", "i=%d" % i, K(i) * T(i), K(i).scale(ctx.nu))
        chk("TK=nuK", "i=%d" % i, T(i) * K(i), K(i).scale(ctx.nu))
        chk("K^2=muK", "i=%d" % i, K(i) * K(i), K(i).scale(ctx.mu))
    for i in range(1, n):
        for eps in (1, -1):
            j = i + eps
            if not 1 <= j <= n - 1:
                continue
            inst = "i=%d e=%+d" % (i, eps)
            chk("K T^e K = nu^-e K", inst,
                K(i) * T(j) * K(i), K(i).scale(ctx.nu_inv))
            chk("K T^-e K", inst, K(i) * Ti(j) * K(i), K(i).scale(ctx.nu))
            chk("K T T = T T K (2.7)", inst,
                K(i) * T(j) * T(i), T(j) * T(i) * K(j))
            chk("KKK=K", inst, K(i) * K(j) * K(i), K(i))
            dmt_i = T(i) - one.scale(dlt)
            dmt_j = T(j) - one.scale(dlt)
            chk("square exchange (2.9)", inst,
                dmt_i * K(j) * dmt_i, dmt_j * K(i) * dmt_j)
            chk("T K T = T^-1 K T^-1 (2.10)", inst,
                T(j) * K(i) * T(j), Ti(i) * K(j) * Ti(i))
            chk("K T T = K K (2.11)", inst,
                K(i) * T(j) * T(i), K(i) * K(j))
            chk("K T- T- = K K (2.12)", inst,
                K(i) * Ti(j) * Ti(i), K(i) * K(j))
            chk("K K (T - d) (2.13)", inst,
                K(j) * K(i) * dmt_j, K(j) * dmt_i)
            chk("rho(2.7)", inst, T(i) * T(j) * K(i), K(j) * T(i) * T(j))
            chk("rho(2.11)", inst, T(i) * T(j) * K(i), K(j) * K(i))
            chk("rho(2.12)", inst, Ti(i) * Ti(j) * K(i), K(j) * K(i))
            chk("rho(2.13)", inst, dmt_j * K(i) * K(j), dmt_i * K(j))
    ys = [ctx.jm_element(k) for k in range(1, n + 1)]
    for a in range(n):
        for b in range(a + 1, n):
            chk("JM commute", "y%d y%d" % (a + 1, b + 1),
                ys[a] * ys[b], ys[b] * ys[a])
    nu2 = ctx.nu * ctx.nu
    for j in range(1, n):
        chk("K y y = nu^2 K (2.23)", "j=%d" % j,
            K(j) * ys[j] * ys[j - 1], K(j).scale(nu2))
        chk("y y K = nu^2 K (2.23)", "j=%d" % j,
            ys[j - 1] * ys[j] * K(j), K(j).scale(nu2))
    return report


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("q, nu", PAIRS, ids=["6_5-7_3", "-5_6-3_7"])
def test_suite_matches_chained_products(n, q, nu):
    ctx = AlgebraContext(n, make_params(q, nu, n), verify=False)
    report = ctx.verify_relations()
    assert report == chained_relations(ctx)
    assert all(r["ok"] for r in report)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("regime, omega", [(1, Fr(5)), (2, Fr(7, 2))],
                         ids=["regime1-5", "regime2-7_2"])
def test_laurent_suite_matches_chained_products(n, regime, omega):
    ctx = AlgebraContext(n, laurent_params(regime, omega,
                                           bmwcore.default_truncation(n)),
                         verify=False)
    report = ctx.verify_relations()
    assert report == chained_relations(ctx)
    assert all(r["ok"] for r in report)


def _edited_reports(n, indices, tmp_path):
    """For one numerator of the row of each letter at each basis index of
    ``indices``, raised by 1 in the cache file at (6/5, 7/3): the two
    reports of the table the file then serves unverified."""
    params = make_params(*PAIRS[0], n)
    path = AlgebraContext(n, params, cache_dir=str(tmp_path),
                          verify=False)._cache_path
    with open(path) as f:
        data = json.load(f)
    for rows in data["rows"]:
        for i in indices:
            pair = rows[i][1][0]
            pair[1] += 1
            with open(path, "w") as f:
                f.write(json.dumps(data))
            pair[1] -= 1
            ctx = AlgebraContext(n, params, cache_dir=str(tmp_path),
                                 verify=False)
            assert ctx.stats["cache"] == "hit"
            yield ctx.verify_relations(), chained_relations(ctx)


@pytest.mark.parametrize("n, step", [(3, 1), (4, 7), (5, 315)])
def test_suite_matches_chained_products_on_edited_tables(n, step, tmp_path):
    """Every letter at every step-th basis index: 15 at n = 3 and 4 (60
    and 90 edits), 3 at n = 5 (24 edits)."""
    size = bmwcore.double_factorial(2 * n - 1)
    rejected = 0
    for got, want in _edited_reports(n, range(0, size, step), tmp_path):
        assert got == want
        rejected += not all(r["ok"] for r in got)
    assert rejected


@pytest.mark.parametrize("n, calls", [(4, 18), (5, 23)])
def test_suite_fold_count(n, calls, monkeypatch):
    """One verify_relations run on a fresh context makes 5n - 2 folds: n
    for the y_k, one from 1, n - 1 from the T_i^-1, n from the y_a and
    2(n - 1) for (2.23).  The chained products made 213 at n = 4 and 319
    at n = 5."""
    ctx = AlgebraContext(n, make_params(*PAIRS[0], n), verify=False)
    fold, count = bmwcore.fold_products, []

    def counted(*args):
        count.append(1)
        return fold(*args)

    monkeypatch.setattr(bmwcore, "fold_products", counted)
    ctx.verify_relations()
    assert len(count) == calls
