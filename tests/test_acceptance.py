"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  Criteria 1 and 9 persist their deterministic reports in a
session directory so criterion 10 can re-run both pipelines from scratch and
compare artifacts byte for byte.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from treelap.bounds import (
    brouwer_haemers_check,
    conjecture_check,
    cor31_check,
    coru_sufficient,
    diam4_energy_check,
    interlacing_check,
    lemma21_check,
    lemma26_check,
    majorization_check,
    path_energy_bound_check,
    path_energy_closed_form,
    path_energy_upper,
    star_energy_exact,
    thm31_minimal_n,
    thm32_lower_bound,
)
from treelap.charpoly import char_poly, closed_form_t4, closed_form_tdprime, closed_form_tprime
from treelap.enumeration import free_trees
from treelap.errors import BadParam
from treelap.families import double_broom4, path, sns_tree, star, t4_spider, t_dprime, t_prime
from treelap.spectral import average_degree, count_eigs, eigenvalues, laplacian_energy, sigma
from treelap.tree import Tree, canonical_code, degree_summary, diameter
from treelap.verify import RunConfig, SweepRecord, emit_report, run_exhaustive

from conftest import oracle_counts, otter_free_tree_counts, random_tree, read_records

EXPECTED_COUNTS = [2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320]  # n = 4..16


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


# --------------------------------------------------------------- criterion 1


def _criterion1_run(report_path: str):
    config = RunConfig(n_min=4, n_max=16, tol=1e-12, report=report_path)
    return run_exhaustive(config)


@pytest.fixture(scope="session")
def c1_summary(workdir):
    t0 = time.perf_counter()
    summary = _criterion1_run(str(workdir / "conjecture_n16_run1.jsonl"))
    summary.elapsed = time.perf_counter() - t0
    return summary


def test_criterion_1_conjecture_reproduction(c1_summary, workdir):
    otter = otter_free_tree_counts(16)
    assert otter[4:17] == EXPECTED_COUNTS
    assert [c1_summary.counts_by_n[n] for n in range(4, 17)] == EXPECTED_COUNTS
    assert c1_summary.violations == 0
    assert c1_summary.undecided == 0
    extremal = {0.0}
    for rec in read_records(workdir / "conjecture_n16_run1.jsonl"):
        assert rec.checks["conjecture"] is True
        # certified slack is strictly positive except for P_n and S_n themselves
        if rec.slack <= 0.0:
            assert rec.slack == 0.0
            assert rec.code in _extremal_codes(rec.n)
    assert c1_summary.elapsed < 900  # the 15-minute laptop target
    print(
        f"\n[PASS] criterion 1: {c1_summary.trees} trees (n=4..16), zero violations, "
        f"min certified slack {c1_summary.min_slack:.3g}, {c1_summary.elapsed:.0f}s"
    )


def _extremal_codes(n: int) -> set[str]:
    return {
        canonical_code(path(n)).decode(),
        canonical_code(star(n)).decode(),
    }


# --------------------------------------------------------------- criterion 2


def test_criterion_2_closed_form_equality():
    for ab in range(2, 13):
        for a in (1, ab - 1, ab // 2):
            b = ab - a
            if a < 0 or b < 0:
                continue
            assert char_poly(t4_spider(a, b)) == closed_form_t4(a, b)
    for r in range(2, 9):
        for s1 in range(2, 9):
            assert char_poly(t_prime(r, s1)) == closed_form_tprime(r, s1)
    for r in range(3, 7):
        for s1 in range(2, 6):
            for s2 in range(2, 6):
                assert char_poly(t_dprime(r, s1, s2)) == closed_form_tdprime(r, s1, s2)
    print("\n[PASS] criterion 2: closed forms equal exact characteristic polynomials "
          "(t4: a+b<=12, t': r,s1<=8, t'': r<=6, s<=5)")


# --------------------------------------------------------------- criterion 3


def test_criterion_3_inertia_oracle_equivalence():
    rng = random.Random(314159)
    trees = 0
    probes = 0
    while trees < 500:
        n = rng.randrange(2, 51)
        t = random_tree(n, rng)
        xs = [average_degree(t), Fraction(1)]
        while len(xs) < 5:
            xs.append(Fraction(rng.randrange(-2, 4 * n), rng.randrange(1, 16)))
        for x in xs:
            assert tuple(count_eigs(t, x)) == oracle_counts(t, x)
            probes += 1
        trees += 1
    print(f"\n[PASS] criterion 3: count_eigs == dense oracle on {trees} trees x {probes // trees} probes")


# --------------------------------------------------------------- criterion 4


def test_criterion_4_sigma_closed_form():
    for ab in range(2, 51):
        assert sigma(t4_spider(ab - 1, 1)) == ab
    print("\n[PASS] criterion 4: sigma(t4_spider) = a+b for 2 <= a+b <= 50")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_path_energy_bound():
    min_slack = None
    for n in range(2, 2001):
        rep = path_energy_bound_check(n)
        assert rep.holds is True, f"path bound undecided/false at n={n}"
        if min_slack is None or rep.slack < min_slack:
            min_slack = rep.slack
    assert min_slack > 1.9

    for n, tol in ((4, 1e-13), (16, 1e-13), (128, 1e-13), (1024, 2e-13)):
        le = laplacian_energy(path(n), tol)
        closed = math.fsum(
            abs(2 - 2 * math.cos(k * math.pi / n) - (2 - 2 / n)) for k in range(n)
        )
        assert abs(le.value - closed) <= 1e-9
        rep = path_energy_bound_check(n, lhs=le)
        assert rep.holds is True
    print(f"\n[PASS] criterion 5: LE(P_n) <= 2 + 4n/pi certified for 2<=n<=2000 "
          f"(min slack {min_slack:.4f}); bisection matches closed form to 1e-9 at n=4,16,128,1024")


# --------------------------------------------------------------- criterion 6


def test_criterion_6_star_energy_formula():
    for n in range(3, 201):
        le = laplacian_energy(star(n))
        exact = star_energy_exact(n)
        assert le.lo <= exact <= le.hi
        assert abs(le.value - float(exact)) <= le.err
    print("\n[PASS] criterion 6: |LE(S_n) - (2n - 4 + 4/n)| <= error bound for n = 3..200")


# --------------------------------------------------------------- criterion 7


def test_criterion_7_lemma_theorem_suites():
    tol = 1e-12
    counts = {"trees": 0, "edges": 0, "coru_applicable": 0}
    for n in range(2, 13):
        for t in free_trees(n):
            counts["trees"] += 1
            assert lemma21_check(t).holds is True
            assert brouwer_haemers_check(t, tol).holds is True
            assert lemma26_check(t).holds is True
            for k in range(1, n):
                assert majorization_check(t, k, tol).holds is True
                assert cor31_check(t, k, tol).holds is True
            for e in t.edges:
                assert interlacing_check(t, e, tol).holds is True
                counts["edges"] += 1
                if t.degrees[e[0]] > 1 and t.degrees[e[1]] > 1:
                    rep = thm32_lower_bound(t, e, tol)
                    assert rep.holds is True, (t.edges, e)
                    assert rep.inputs["k1"] + rep.inputs["k2"] == rep.inputs["sigma"]
                    cor = coru_sufficient(t, e, tol)
                    assert cor.hypotheses["auxiliary_nonneg"] is True
                    if cor.holds is not None:
                        assert cor.holds is True
                        counts["coru_applicable"] += 1
    print(f"\n[PASS] criterion 7: lemma/theorem suites clean on {counts['trees']} trees "
          f"(n<=12), {counts['edges']} edges, {counts['coru_applicable']} applicable coru cases")


# --------------------------------------------------------------- criterion 8


def test_criterion_8_threshold_table():
    table = [thm31_minimal_n(s) for s in range(1, 8)]
    assert table == [9, 12, 14, 17, 20, 23, 25]
    print(f"\n[PASS] criterion 8: internal-vertex condition thresholds {table}")


# --------------------------------------------------------------- criterion 9


def _random_diam4_params(count: int, seed: int = 271828):
    """Deterministic stream of diameter-4 family parameters with 19<=n<=200."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = rng.choice(("sns", "db4", "tprime", "tdprime", "t4"))
        if kind == "sns":
            r = rng.randint(2, 40)
            p = rng.randint(0, 20)
            s = [rng.randint(0, 8) for _ in range(r)]
            while sum(1 for x in s if x) < 2:
                s[rng.randrange(r)] += 1
            params = ("sns", p, r, tuple(s))
            n = p + r + 1 + sum(s)
        elif kind == "db4":
            a, b = rng.randint(8, 98), rng.randint(8, 98)
            params = ("db4", a, b)
            n = a + b + 3
        elif kind == "tprime":
            r, s1 = rng.randint(2, 60), rng.randint(2, 80)
            params = ("tprime", r, s1)
            n = 2 * r + s1
        elif kind == "tdprime":
            r, s1, s2 = rng.randint(3, 50), rng.randint(2, 50), rng.randint(2, 50)
            params = ("tdprime", r, s1, s2)
            n = 2 * r + s1 + s2 - 1
        else:
            ab = rng.randint(9, 99)
            params = ("t4", ab - 1, 1)
            n = 2 * ab + 1
        if 19 <= n <= 200:
            out.append(params)
    return out


def _build_diam4(params) -> Tree:
    kind = params[0]
    if kind == "sns":
        return sns_tree(params[1], params[2], list(params[3]))
    if kind == "db4":
        return double_broom4(params[1], params[2])
    if kind == "tprime":
        return t_prime(params[1], params[2])
    if kind == "tdprime":
        return t_dprime(params[1], params[2], params[3])
    return t4_spider(params[1], params[2])


def _criterion9_run(report_path: str):
    records = []
    worst = None
    for params in _random_diam4_params(1000):
        t = _build_diam4(params)
        assert diameter(t) == 4 and 19 <= t.n <= 200
        rep = diam4_energy_check(t, 1e-12)
        assert rep.holds is True, (params, rep.slack)
        assert rep.slack > 0
        le = rep.lhs
        records.append(
            SweepRecord(
                family=params[0],
                params=",".join(str(x) for x in params[1:]),
                n=t.n,
                sigma=sigma(t),
                le=le.value,
                le_err=le.err,
                bound=rep.rhs.value,
                holds=rep.holds,
                slack=rep.slack,
                thm31_cond=False,
            )
        )
        if worst is None or rep.slack < worst:
            worst = rep.slack
    emit_report(records, "jsonl", report_path)
    return worst


@pytest.fixture(scope="session")
def c9_min_slack(workdir):
    return _criterion9_run(str(workdir / "diam4_run1.jsonl"))


def test_criterion_9_diameter4_at_scale(c9_min_slack):
    assert c9_min_slack > 0
    print(f"\n[PASS] criterion 9: 1000 random diameter-4 trees (19<=n<=200) all satisfy "
          f"LE >= 4n/pi + 2; min certified slack {c9_min_slack:.4f}")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_determinism(workdir, c1_summary, c9_min_slack):
    _criterion1_run(str(workdir / "conjecture_n16_run2.jsonl"))
    _criterion9_run(str(workdir / "diam4_run2.jsonl"))
    a = (workdir / "conjecture_n16_run1.jsonl").read_bytes()
    b = (workdir / "conjecture_n16_run2.jsonl").read_bytes()
    assert a == b and len(a) > 0
    c = (workdir / "diam4_run1.jsonl").read_bytes()
    d = (workdir / "diam4_run2.jsonl").read_bytes()
    assert c == d and len(c) > 0
    print("\n[PASS] criterion 10: reruns of criteria 1 and 9 emit byte-identical JSONL reports")
