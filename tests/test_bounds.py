"""Bound reports: certified verdicts for every inequality in the toolkit."""

import math
from fractions import Fraction

import pytest

from treelap import bounds, cli, spectral
from treelap.bounds import (
    CHECKS,
    brouwer_haemers_check,
    conjecture_check,
    cor31_check,
    cor31_lower_bound,
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
    thm31_condition,
    thm31_lower_bound,
    thm31_minimal_n,
    thm32_lower_bound,
    thm51_check,
    thm52_check,
    thm53_check,
)
from treelap.enumeration import free_trees
from treelap.errors import BadParam, EdgeAbsent, PendantEdge
from treelap.intervals import Enclosure, ge
from treelap.families import (
    double_broom3,
    double_broom4,
    path,
    sns_tree,
    star,
    t4_spider,
    t_prime,
)
from treelap.spectral import average_degree, laplacian_energy, sigma
from treelap.tree import Tree, canonical_code, delete_edge, diameter, side_codes
from treelap.verify import RunConfig, record_to_json, run_exhaustive

from conftest import random_tree, read_records, rooted_side_code


class TestPathEnergyBound:
    def test_values(self):
        assert path_energy_upper(4).value == pytest.approx(2 + 16 / math.pi, abs=1e-12)
        assert path_energy_upper(19).value == pytest.approx(26.19155139, abs=1e-6)

    def test_closed_form_matches_bisection(self):
        for n in (2, 3, 4, 10, 33):
            cf = path_energy_closed_form(n)
            le = laplacian_energy(path(n), 1e-11)
            assert max(cf.lo, le.lo) <= min(cf.hi, le.hi)

    def test_bound_holds_small(self):
        for n in range(2, 120):
            rep = path_energy_bound_check(n)
            assert rep.holds is True and rep.slack > 1.9

    def test_bisection_lhs(self):
        rep = path_energy_bound_check(6, lhs=laplacian_energy(path(6)))
        assert rep.holds is True


class TestStarEnergy:
    def test_formula(self):
        assert star_energy_exact(4) == 5
        assert star_energy_exact(2) == 2
        assert star_energy_exact(1) == 0
        for n in (3, 7, 50):
            le = laplacian_energy(star(n))
            assert le.lo <= star_energy_exact(n) <= le.hi


class TestBrouwerHaemers:
    def test_star6_equality(self):
        rep = brouwer_haemers_check(star(6))
        assert rep.holds is True
        assert rep.slack == 0.0  # mu_1 = 6 = d_1 + 1 exactly

    def test_p5(self):
        assert brouwer_haemers_check(path(5)).holds is True

    def test_sample(self, rng):
        for _ in range(25):
            t = random_tree(rng.randrange(2, 20), rng)
            assert brouwer_haemers_check(t, 1e-10).holds is True


class TestMajorization:
    def test_star5_k1_equality(self):
        rep = majorization_check(star(5), 1)
        assert rep.holds is True and rep.slack == 0.0

    def test_last_k_equality(self, rng):
        # S_{n-1} = 2(n-1) = 1 + sum of top n-1 degrees exactly, for any tree
        for _ in range(10):
            t = random_tree(rng.randrange(3, 15), rng)
            rep = majorization_check(t, t.n - 1)
            assert rep.holds is True and rep.slack == 0.0

    def test_p6_k2(self):
        rep = majorization_check(path(6), 2)
        assert rep.holds is True
        assert rep.lhs.value == pytest.approx(5 + math.sqrt(3), abs=1e-9)
        assert rep.rhs.value == 5.0

    def test_bad_k(self):
        with pytest.raises(BadParam):
            majorization_check(path(4), 4)


class TestThm31:
    def test_threshold_table(self):
        assert [thm31_minimal_n(s) for s in range(1, 8)] == [9, 12, 14, 17, 20, 23, 25]

    def test_nine_twentyfifths_rule(self):
        for n in range(3, 300):
            s_cap = (9 * n - 50) // 25  # s <= 9n/25 - 2
            if s_cap >= 0:
                assert thm31_condition(n, s_cap)

    def test_lower_bound_reports(self):
        rep = thm31_lower_bound(star(12))
        assert rep.holds is True
        assert rep.hypotheses["condition"] is True
        rep = thm31_lower_bound(path(6))  # s = 4, condition false at n = 6
        assert rep.hypotheses["condition"] is False
        assert rep.holds is True  # the chain lower bound itself still holds

    def test_small_n_rejected(self):
        with pytest.raises(BadParam):
            thm31_lower_bound(path(2))


class TestCor31:
    def test_star5_tight(self):
        assert cor31_lower_bound(star(5), 1) == Fraction(34, 5)
        rep = cor31_check(star(5), 1)
        assert rep.holds is True and rep.slack == 0.0

    def test_p4(self):
        assert cor31_lower_bound(path(4), 1) == 3
        assert cor31_check(path(4), 1).holds is True

    def test_random_all_k(self, rng):
        for _ in range(15):
            t = random_tree(rng.randrange(3, 13), rng)
            for k in range(1, t.n):
                assert cor31_check(t, k, 1e-10).holds is True


_SNS = sns_tree(0, 2, [2, 2])  # n = 7
_INDEXED = {  # entry point -> (its index's range, on _SNS where it takes a tree; the call)
    "majorization_check": ((1, 6), lambda k: majorization_check(_SNS, k)),
    "cor31_check": ((1, 6), lambda k: cor31_check(_SNS, k)),
    "cor31_lower_bound": ((1, 6), lambda k: cor31_lower_bound(_SNS, k)),
    "spectral.s_k": ((1, 7), lambda k: spectral.s_k(_SNS, k)),
    "Spectrum.s_k": ((0, 7), lambda k: spectral.eigenvalues(_SNS).s_k(k)),
    "Spectrum.enclosure": ((1, 7), lambda i: spectral.eigenvalues(_SNS).enclosure(i)),
    "path_energy_upper": ((1, math.inf), path_energy_upper),
    "path_energy_closed_form": ((1, math.inf), path_energy_closed_form),
    "path_energy_bound_check": ((1, math.inf), path_energy_bound_check),
    "star_energy_exact": ((1, math.inf), star_energy_exact),
    "thm31_condition n": ((1, math.inf), lambda n: thm31_condition(n, 1)),
    "thm31_condition s": ((0, math.inf), lambda s: thm31_condition(20, s)),
    "thm31_minimal_n": ((0, math.inf), thm31_minimal_n),
}


@pytest.mark.parametrize("name", _INDEXED)
@pytest.mark.parametrize("bad", ["True", "2.0", "below", "past"])
def test_an_index_that_is_not_an_int_in_range_is_refused(name, bad):
    # a bool is not k = 1 and a float is not an index: both are BadParam, as an
    # index outside the range is, not a TypeError or a report with "k": true;
    # past an unbounded range is inf, a float
    (lo, hi), call = _INDEXED[name]
    call(lo if hi == math.inf else hi)  # the last index, or the first of an unbounded range, is accepted
    index = {"True": True, "2.0": 2.0, "below": lo - 1, "past": hi + 1}[bad]
    with pytest.raises(BadParam, match="out of range"):
        call(index)


class TestThm32:
    def test_p8_middle(self):
        rep = thm32_lower_bound(path(8), (3, 4))
        assert rep.holds is True
        assert rep.inputs["k1"] + rep.inputs["k2"] == rep.inputs["sigma"]
        assert not rep.out_of_hypothesis

    def test_pendant_rejected(self):
        with pytest.raises(PendantEdge):
            thm32_lower_bound(star(5), (0, 1))
        with pytest.raises(EdgeAbsent):
            thm32_lower_bound(path(5), (0, 4))

    def test_small_n_flagged(self):
        rep = thm32_lower_bound(path(6), (2, 3))
        assert rep.out_of_hypothesis

    def test_exhaustive_small(self):
        for n in range(8, 11):
            for t in free_trees(n):
                for e in t.edges:
                    if t.degrees[e[0]] > 1 and t.degrees[e[1]] > 1:
                        rep = thm32_lower_bound(t, e, 1e-10)
                        assert rep.holds is True, (t.edges, e)

    @pytest.mark.parametrize("tol", [1e-12, 0.3])
    def test_k_read_off_the_spectrum_is_the_exact_count(self, tol):
        # every component of every free tree with n <= 11, counted at 2 - 4/n
        for n in range(4, 12):
            thr = Fraction(2 * n - 4, n)
            for t in free_trees(n):
                for a, b in t.edges:
                    if t.degrees[a] > 1 and t.degrees[b] > 1:
                        t1, t2, k1, k2 = bounds._split_counts(t, (a, b), tol)
                        assert (k1, k2) == tuple(c.n - spectral.count_eigs(c, thr).below for c in (t1, t2))

    def test_k_is_counted_only_where_an_enclosure_straddles_the_threshold(self, monkeypatch):
        counted = []
        real = bounds.count_eigs
        monkeypatch.setattr(bounds, "count_eigs", lambda tree, x: counted.append((tree.n, x)) or real(tree, x))
        t = path(7)
        thr = Fraction(10, 7)  # 2 - 4/7 = 1.43; P_5 has the eigenvalue (5 - sqrt(5))/2 = 1.38
        t1, t2, k1, k2 = bounds._split_counts(t, (1, 2), 0.3)  # P_5 and P_2
        straddled = [(lo, hi) for lo, hi in spectral.eigenvalues(t1, 0.3).enclosures if lo < thr < hi]
        assert t1.n == 5 and straddled
        assert counted == [(5, thr)]
        assert (k1, k2) == (2, 1)
        counted.clear()
        assert bounds._split_counts(t, (1, 2), 1e-12)[2:] == (2, 1)  # no enclosure straddles at 1e-12
        assert counted == []


class TestCoru:
    def test_star_component_sigma(self):
        # splitting off a star: sigma_2 = 1
        t = sns_tree(0, 3, [4, 4, 4])
        rep = coru_sufficient(t, (0, 1))
        assert rep.inputs["sigma2"] == 1

    def test_auxiliary_never_violated(self):
        for n in range(8, 11):
            for t in free_trees(n):
                for e in t.edges:
                    if t.degrees[e[0]] > 1 and t.degrees[e[1]] > 1:
                        rep = coru_sufficient(t, e, 1e-9)
                        assert rep.hypotheses["auxiliary_nonneg"] is True
                        if rep.holds is not None:
                            assert rep.holds is True

    def test_no_claim_when_hypotheses_fail(self):
        rep = coru_sufficient(path(10), (4, 5))
        # LE(P_5) < 2 + 20/pi, so the energy hypotheses fail: no claim
        assert rep.holds is None
        assert "no claim" in rep.note

    def test_positive_instance(self):
        from treelap.tree import join_trees

        t1 = sns_tree(4, 10, [3, 3, 3, 3, 2, 2, 2, 2, 2, 2])  # n1 = 39
        t2 = sns_tree(0, 8, [2, 2, 1, 1, 1, 1, 1, 1])  # n2 = 19
        big = join_trees(t1, t2, 0, 0)
        rep = coru_sufficient(big, (0, t1.n))
        assert rep.hypotheses == {
            "sigma_equals_k": True,
            "le_t1_clears": True,
            "le_t2_clears": True,
            "auxiliary_nonneg": True,
        }
        assert rep.holds is True and rep.slack > 0


class TestJoinedSufficientConditions:
    def test_thm51_reports_hypotheses(self):
        rep = thm51_check(path(12), star(6))
        assert rep.inputs["r1"] == 10
        assert "sigma1_equals_r1" in rep.hypotheses
        assert "le_t1_clears" in rep.hypotheses
        assert rep.holds is None or isinstance(rep.holds, bool)

    def test_thm51_positive_case(self):
        # a large spider satisfies sigma1 = r1 and LE >= 2 + 4 n1/pi
        t1 = sns_tree(4, 10, [3, 3, 3, 3, 2, 2, 2, 2, 2, 2])  # n1 = 39, r1 = 11
        rep = thm51_check(t1, star(8))
        assert rep.hypotheses == {"sigma1_equals_r1": True, "le_t1_clears": True}
        assert rep.holds is True and rep.slack > 0
        rep = thm51_check(t1, double_broom3(3, 3))
        assert rep.holds is True

    def test_thm51_preconditions(self):
        with pytest.raises(BadParam):
            thm51_check(path(12), path(5))  # n2 < 6
        with pytest.raises(BadParam):
            thm51_check(path(12), path(8))  # diameter > 3

    def test_thm52_rejects_closed_form_families(self):
        with pytest.raises(BadParam):
            thm52_check(path(20), t_prime(3, 2))
        rep = thm52_check(path(20), sns_tree(1, 2, [2, 2]))  # qualifying spider, n2 = 8
        assert "sigma1_equals_r1" in rep.hypotheses

    def test_thm53_gap_contract(self):
        rep = thm53_check(path(12), star(6))
        assert "gap" in rep.hypotheses
        if rep.hypotheses["gap"] is False:
            assert rep.holds is None
            assert "no claim" in rep.note

    def test_thm53_positive(self):
        t1 = sns_tree(4, 10, [3, 3, 3, 3, 2, 2, 2, 2, 2, 2])
        rep = thm53_check(t1, star(8))
        assert rep.hypotheses == {"gap": True, "le_t1_clears": True}
        assert rep.holds is True and rep.slack > 0


class TestConjecture:
    def test_exhaustive_small(self):
        for n in range(1, 9):
            for t in free_trees(n):
                rep = conjecture_check(t)
                assert rep.holds is True
                assert rep.slack >= 0.0

    def test_extremal_ties(self):
        rep = conjecture_check(path(7))
        assert rep.holds is True and rep.slack == 0.0 and rep.inputs["is_path"]
        rep = conjecture_check(star(7))
        assert rep.holds is True and rep.slack == 0.0 and rep.inputs["is_star"]

    def test_interior_tree_strict(self):
        t = sns_tree(0, 2, [2, 2])  # n = 7, neither path nor star
        rep = conjecture_check(t)
        assert rep.holds is True and rep.slack > 0


class TestDiam4:
    def test_wrong_diameter_rejected(self):
        with pytest.raises(BadParam):
            diam4_energy_check(path(9))

    def test_n19_examples(self):
        spider = sns_tree(0, 9, [1] * 9)  # n = 19
        rep = diam4_energy_check(spider)
        assert rep.holds is True and rep.slack > 0
        rep = diam4_energy_check(t_prime(5, 9))  # n = 19
        assert rep.holds is True
        from treelap.families import t_dprime

        rep = diam4_energy_check(t_dprime(3, 8, 6))  # n = 2*3+8+6-1 = 19
        assert rep.holds is True

    def test_below_19_records_slack_only(self):
        rep = diam4_energy_check(double_broom4(2, 2))
        assert rep.holds is None and rep.out_of_hypothesis
        assert rep.slack is not None


class TestRefinement:
    def test_coarse_tolerance_refines_to_decision(self, monkeypatch):
        t = sns_tree(0, 2, [2, 2])  # slack ~0.73 against the path energy
        rep = conjecture_check(t, tol=0.05)
        assert rep.holds is True  # decided only after halving the tolerance
        assert CHECKS["conjecture"].verdict(t, 0.05) is True
        monkeypatch.setattr(bounds, "REFINE", 0)
        undecided = conjecture_check(t, tol=0.5)
        assert undecided.holds is None
        assert CHECKS["conjecture"].verdict(t, 0.5) is None  # one REFINE drives reports and rows

    @staticmethod
    def _spectrum_tols(monkeypatch) -> list:
        """The tolerances of every spectrum the bound checks ask for."""
        tols = []
        real = bounds.eigenvalues

        def counted(tree, tol=1e-12):
            tols.append(tol)
            return real(tree, tol)

        monkeypatch.setattr(bounds, "eigenvalues", counted)
        return tols

    @pytest.mark.parametrize("check", [
        lambda tol: coru_sufficient(path(8), (3, 4), tol),
        lambda tol: thm51_check(path(6), star(6), tol=tol),
        lambda tol: thm53_check(sns_tree(0, 2, [5, 2]), star(6), tol=tol),  # the strict gap fails
    ], ids=["coru", "thm51", "thm53"])
    def test_a_report_that_makes_no_claim_is_not_refined(self, monkeypatch, check):
        tols = self._spectrum_tols(monkeypatch)
        rep = check(1e-6)
        assert (rep.holds, rep.note) == (None, bounds.NO_CLAIM)
        assert min(tols) == 1e-6

    def test_undecided_hypotheses_are_refined(self, monkeypatch):
        tols = self._spectrum_tols(monkeypatch)
        rep = thm51_check(double_broom3(3, 3), star(6), tol=1.0)
        assert (rep.holds, rep.note) == (None, "hypotheses undecided")
        assert sorted(set(tols)) == [1.0 / 2**i for i in range(bounds.REFINE, -1, -1)]
        # the same T1 as thm53's no-claim case: its strict gap hypothesis, certified false at
        # 1e-6, stays undecided from tol 1.0 down to 1/8 while LE(T1) clears 2 + 4 n1/pi
        tols.clear()
        rep = thm53_check(sns_tree(0, 2, [5, 2]), star(6), tol=1.0)
        assert (rep.holds, rep.note) == (None, "hypotheses undecided")
        assert rep.hypotheses == {"gap": None, "le_t1_clears": True}
        assert sorted(set(tols)) == [1.0 / 2**i for i in range(bounds.REFINE, -1, -1)]

    def test_the_strict_gap_row_decides_as_the_strict_comparison(self):
        # thm53's gap row against the comparison it replaced (True when x.hi < bound, False
        # when x.lo >= bound), on every enclosure with endpoints near the bound, endpoint ties
        # and the exact tie x = bound included.  On a tree the exact tie cannot occur: mu is an
        # algebraic integer, and bound = 2 - 2/n1 - 2/n lies in [3/2, 2) for n > n1 >= 6.
        for bound in (Fraction(13, 8), Fraction(-3, 7), Fraction(5)):
            for den in (1, 8, 56):
                centre = bound.numerator * den // bound.denominator
                for lo in range(centre - 3, centre + 4):
                    for hi in range(lo, centre + 4):
                        x = Enclosure(lo, hi, den)
                        strict = True if x.hi < bound else False if x.lo >= bound else None
                        assert ge(*bounds._strictly_below(x, bound)) is strict, (bound, lo, hi, den)

    def test_checks_take_tol_by_position_or_keyword(self):
        t = sns_tree(0, 2, [2, 2])
        assert conjecture_check(t, 0.05) == conjecture_check(t, tol=0.05)
        assert majorization_check(t, 2, 0.3) == majorization_check(t, k=2, tol=0.3)


class TestAggregates:
    def test_lemma21_and_26(self, rng):
        for _ in range(20):
            t = random_tree(rng.randrange(2, 20), rng)
            assert lemma21_check(t).holds is True
            assert lemma26_check(t).holds is True

    def test_lemma21_and_26_take_a_tol_they_never_refine_with(self):
        # Check.reports calls them as fn(tree, tol); their rows are exact
        for n in range(2, 9):
            for t in free_trees(n):
                for check in (lemma21_check, lemma26_check):
                    plain = check(t)
                    assert all(check(t, tol) == plain for tol in (1e-12, 0.3, 2.0)), (check.__name__, t.edges)
        for tol in (0.0, -1.0, math.nan, math.inf):  # checked like every other check's tol
            for check in (lemma21_check, lemma26_check):
                with pytest.raises(BadParam, match="tol must be"):
                    check(path(4), tol)

    def test_lemma26_needs_two_vertices(self):
        # K1's only eigenvalue 0 equals its average degree 0
        k1 = path(1)
        with pytest.raises(BadParam):
            lemma26_check(k1)
        assert list(CHECKS["lemma26"].reports(k1, 1e-12)) == []
        summary = run_exhaustive(RunConfig(n_min=1, n_max=5, checks=("lemma26",)))
        assert (summary.violations, summary.undecided) == (0, 0)

    def test_interlacing_report(self):
        rep = interlacing_check(path(6), (2, 3))
        assert rep.holds is True

    def test_report_serialization(self):
        d = conjecture_check(path(5)).to_dict()
        assert d["bound_id"] == "conjecture"
        assert isinstance(d["holds"], bool)


class TestRegistry:
    def test_fanouts_match_explicit_calls(self, rng):
        tol = 1e-10
        trees = [path(6), star(6), sns_tree(2, 3, [2, 1, 1])]
        trees += [random_tree(rng.randrange(2, 12), rng) for _ in range(10)]
        for t in trees:
            nonpendant = [e for e in t.edges if t.degrees[e[0]] > 1 and t.degrees[e[1]] > 1]
            expected = {
                "lemma21": [lemma21_check(t)],
                "lemma22": [brouwer_haemers_check(t, tol)],
                "lemma26": [lemma26_check(t)],
                "lemma31": [majorization_check(t, k, tol) for k in range(1, t.n)],
                "cor31": [cor31_check(t, k, tol) for k in range(1, t.n)],
                "thm31": [thm31_lower_bound(t, tol)] if t.n >= 3 else [],
                "thm32": [thm32_lower_bound(t, e, tol) for e in nonpendant],
                "conjecture": [conjecture_check(t, tol)],
                "coru": [coru_sufficient(t, e, tol) for e in nonpendant],
                "diam4": [diam4_energy_check(t, tol)] if diameter(t) == 4 else [],
                "lemma25": [interlacing_check(t, e, tol) for e in t.edges],
            }
            assert list(CHECKS) == list(expected)
            for cid, reports in expected.items():
                got = [r.to_dict() for r in CHECKS[cid].reports(t, tol)]
                assert got == [r.to_dict() for r in reports], cid

    def test_exhaustive_runs_take_the_certified_checks(self):
        exhaustive = [cid for cid, check in CHECKS.items() if check.exhaustive]
        assert exhaustive == ["lemma21", "lemma22", "lemma26", "lemma31", "cor31", "thm31", "thm32",
                              "conjecture"]

    @pytest.mark.parametrize("tol", [1e-12, 0.3, 1.0])
    def test_verdicts_equal_the_reduced_reports(self, tol):
        # at tol 0.3 and 1.0 many calls are refined, and thm32's below n = 8 stay undecided
        exhaustive = [cid for cid, check in CHECKS.items() if check.exhaustive]
        undecided = 0
        for n in range(1, 11):
            # two fresh copies of each tree, so neither side reads a spectrum the other computed
            for by_verdict, by_reports in zip(free_trees(n), free_trees(n)):
                for cid in exhaustive:
                    verdict = CHECKS[cid].verdict(by_verdict, tol)
                    assert verdict == bounds._all3(*(r.holds for r in CHECKS[cid].reports(by_reports, tol))), \
                        (cid, canonical_code(by_verdict))
                    undecided += verdict is None
        assert (undecided > 0) == (tol > 0.1)

    @pytest.mark.parametrize("tol", [1e-12, 0.3])
    def test_diam4_verdicts_equal_its_reports(self, tol):
        # diameter-4 trees with 19 <= n <= 22, where the theorem is asserted; fresh copies again
        members = [(t4_spider, (a, 9 - a)) for a in (1, 4)] + [(t4_spider, (3, 7))]
        members += [(sns_tree, (0, 3, [5, 5, 6])), (sns_tree, (1, 4, [4, 4, 4, 4])), (sns_tree, (3, 3, [2, 4, 7])),
                    (sns_tree, (0, 2, [9, 8]))]
        for build, args in members:
            by_verdict, by_report = build(*args), build(*args)
            assert diameter(by_verdict) == 4 and 19 <= by_verdict.n <= 22
            assert CHECKS["diam4"].verdict(by_verdict, tol) == diam4_energy_check(by_report, tol).holds, args

    def test_check_function_is_looked_up_at_call_time(self, monkeypatch):
        monkeypatch.setattr(bounds, "lemma26_check", lambda tree, tol: "replaced")
        assert list(CHECKS["lemma26"].reports(star(5), 1e-12)) == ["replaced"]


class TestSharedComponents:
    """The run-scoped table of T - e components, one Tree per isomorphism class."""

    @staticmethod
    def _spy_splits(monkeypatch) -> list:
        splits = []
        real = bounds.delete_edge

        def spy(tree, edge):
            splits.append(real(tree, edge))
            return splits[-1]

        monkeypatch.setattr(bounds, "delete_edge", spy)
        return splits

    def test_inactive_outside_a_run(self, monkeypatch):
        splits = self._spy_splits(monkeypatch)
        t = path(9)
        assert bounds._components is None
        for e in ((2, 3), (5, 6)):  # both leave a P_6 and a P_3
            t1, t2, _, _ = bounds._split_counts(t, e)
            assert t1 is splits[-1].first and t2 is splits[-1].second

    def test_isomorphic_components_are_one_tree_inside_a_run(self, monkeypatch):
        # only a split with a side of a new class builds the components
        splits = self._spy_splits(monkeypatch)
        t = path(9)
        with bounds._shared_components():
            first = bounds._split_counts(t, (2, 3))  # P_6 and P_3, both new
            assert len(splits) == 1
            again = bounds._split_counts(t, (5, 6))  # P_6 and P_3 again
            assert len(splits) == 1
            other = bounds._split_counts(t, (3, 4))  # P_5 is new; its P_4 too
            assert len(splits) == 2
            half_new = bounds._split_counts(path(10), (2, 3))  # P_7 is new, P_3 not
            assert len(splits) == 3
            seen = bounds._split_counts(path(10), (3, 4))  # P_6 and P_4, both seen
            assert len(splits) == 3
        assert first[0] is splits[0].first and first[1] is splits[0].second
        assert again[0] is first[0] and again[1] is first[1]
        assert again[2:] == first[2:]
        assert other[0] is splits[1].first and other[1] is splits[1].second
        assert half_new[0] is splits[2].first and half_new[1] is first[1]
        assert seen[0] is first[0] and seen[1] is other[1]
        assert bounds._components is None

    def test_shared_components_keep_counts_only_at_the_integers_and_d_bar(self):
        # thm32 counts each component at 2 - 4/n of the whole tree; that count
        # is read once per edge and is not kept
        with bounds._shared_components():
            for n in range(8, 11):
                for t in free_trees(n):
                    for a, b in t.edges:
                        if t.degrees[a] > 1 and t.degrees[b] > 1:
                            thm32_lower_bound(t, (a, b), 1e-9)
            shared = list(bounds._components.values())
        assert len(shared) > 20
        for c in shared:
            kept = {Fraction(k[1], k[2]) for k in c._cache if type(k) is tuple and k[0] == "cnt"}
            assert kept and all(x.denominator == 1 or x == average_degree(c) for x in kept)

    def test_delete_edge_runs_once_per_free_class_new_to_the_run(self, monkeypatch):
        splits = self._spy_splits(monkeypatch)
        # P_6 with a P_3 hung from its vertex 2: the sides of (2, 6) are P_6
        # rooted at a vertex no split of a path has it rooted at, and P_3
        hung = Tree(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6), (6, 7), (7, 8)])
        with bounds._shared_components():
            bounds._split_counts(path(9), (2, 3))  # P_3 and P_6: new
            assert len(splits) == 1
            bounds._split_counts(path(9), (5, 6))  # the same two classes
            bounds._split_counts(hung, (2, 6))  # the same two classes, rooted elsewhere
            assert len(splits) == 1
            bounds._split_counts(path(10), (3, 4))  # P_4 is new, P_6 is not
            assert len(splits) == 2
            with pytest.raises(PendantEdge):  # S_4 is new, but a pendant edge files nothing
                bounds._split_counts(star(5), (0, 1))
            assert len(splits) == 2

    def test_thm32_rows_in_one_run_table_are_the_rows_outside_it(self):
        # every tree of orders 8..10 walked twice in one table, at 1e-12 and
        # then at 0.3: a component class meets several parent orders and both
        # tolerances, so a side filed without its order or tolerance shows.
        # Each row is compared with one made outside the run from fresh copies
        # of the same components (delete_edge's own trees of an edge are
        # labelled otherwise, and so get other enclosures), and its n_i and
        # k_i, which no labelling changes, with delete_edge's own.
        fan = bounds._FANOUTS["non-pendant edge"]
        walk = [(tol, t) for tol in (1e-12, 0.3) for n in range(8, 11) for t in free_trees(n)]
        with bounds._shared_components():
            inside = [(bounds.thm32_sides(t, fan(t), tol), [bounds._split_counts(t, e, tol)[:2] for (e,) in fan(t)])
                      for tol, t in walk]
        for (tol, t), (rows, parts) in zip(walk, inside):
            fresh = Tree(t.n, t.edges)
            outside = bounds.thm32_sides(fresh, fan(fresh), tol)
            assert [r[0][6:] for r in rows] == [r[0][6:] for r in outside]
            for ((row,), (e,), (t1, t2)) in zip(rows, fan(t), parts):
                n, (c1, c2) = t.n, (Tree(t1.n, t1.edges), Tree(t2.n, t2.edges))
                k1, k2 = (c.n - spectral.count_eigs(c, Fraction(2 * n - 4, n)).below for c in (c1, c2))
                s1, s2 = spectral.eigenvalues(c1, tol).s_k(k1), spectral.eigenvalues(c2, tol).s_k(k2)
                shift = 4 * (k1 + k2) * Fraction(1 - n, n)
                le = laplacian_energy(fresh, tol)
                assert row[6:] == (c1.n, c2.n, k1, k2)
                assert (Fraction(row[0], row[2]), Fraction(row[1], row[2])) == (le.lo, le.hi)
                assert Fraction(row[3], row[5]) == 2 * (s1.lo + s2.lo) + shift, (canonical_code(t), e, tol)
                assert Fraction(row[4], row[5]) == 2 * (s1.hi + s2.hi) + shift, (canonical_code(t), e, tol)

    def test_every_rooting_of_a_filed_class_maps_to_its_tree(self):
        with bounds._shared_components():
            bounds._file_components(list(free_trees(10)), RunConfig(checks=("thm32",), tol=1e-9))
            table = dict(bounds._components)
        filed = {id(t): t for t in table.values()}.values()
        assert len(filed) == 47  # every free tree of order 2..8 is a side of a tree of order 10
        # one Tree per free class, and each is filed under every rooting of it and nothing else
        assert len({canonical_code(t) for t in filed}) == len(filed)
        for t in filed:
            rootings = {rooted_side_code(t, v, -1) for v in range(t.n)}
            assert {code for code, shared in table.items() if shared is t} == rootings

    @staticmethod
    def _table_sizes(monkeypatch) -> list:
        """len(bounds._components) at each _split_counts call."""
        sizes = []
        real = bounds._split_counts

        def spy(tree, edge, *tol):
            sizes.append(len(bounds._components))
            return real(tree, edge, *tol)

        monkeypatch.setattr(bounds, "_split_counts", spy)
        return sizes

    def test_empty_at_each_run_and_off_after_it(self, monkeypatch):
        # a run files each block's new components before checking the block,
        # so the table is empty when the first block's filing starts and
        # never when thm32 reads it
        sizes = self._table_sizes(monkeypatch)
        at_filing = self._spy_filing(monkeypatch)
        config = RunConfig(n_min=8, n_max=8, checks=("thm32",))
        for _ in range(2):
            sizes.clear()
            at_filing.clear()
            run_exhaustive(config)
            assert bounds._components is None
            assert at_filing[0][1] == 0 and min(sizes) > 0

    @staticmethod
    def _spy_filing(monkeypatch) -> list:
        """(trees, len(bounds._components) before, the table) per _file_components call."""
        calls = []
        real = bounds._file_components

        def spy(trees, config):
            size = len(bounds._components)
            real(trees, config)
            calls.append((list(trees), size, bounds._components))

        monkeypatch.setattr(bounds, "_file_components", spy)
        return calls

    def test_a_run_proves_each_new_component_in_its_blocks_filing(self, monkeypatch):
        # thm32 proves no filed component one tree at a time: the filing
        # proves a block's new classes of one order in one _prove call (orders
        # 2 and 3 have one class each, so their calls hold one tree)
        proofs, filing = [], []
        real_prove, real_file = spectral._prove, bounds._file_components

        def prove(trees, tol):
            proofs.append((list(trees), bool(filing)))
            return real_prove(trees, tol)

        def file_block(trees, config):
            filing.append(1)
            try:
                real_file(trees, config)
            finally:
                filing.pop()

        monkeypatch.setattr(spectral, "_prove", prove)
        monkeypatch.setattr(bounds, "_file_components", file_block)
        filings = self._spy_filing(monkeypatch)  # wraps file_block
        run_exhaustive(RunConfig(n_min=10, n_max=10, checks=("thm32",)))
        filed = {id(t) for t in filings[-1][2].values()}
        assert len(filed) > 40
        assert not [trees for trees, inside in proofs if not inside and filed & {id(t) for t in trees}]
        in_filing = [trees for trees, inside in proofs if inside]
        assert sorted(id(t) for trees in in_filing for t in trees) == sorted(filed)
        assert all(len({t.n for t in trees}) == 1 for trees in in_filing)
        assert sum(len(trees) == 1 for trees in in_filing) < len(in_filing) // 2

    def test_sharded_and_resumed_runs_file_only_their_fresh_trees(self, tmp_path, monkeypatch):
        config = {"n_min": 8, "n_max": 9, "checks": ("thm32",)}
        full_report, resumed_report = tmp_path / "full-report.jsonl", tmp_path / "resumed-report.jsonl"
        run_exhaustive(RunConfig(**config, out=str(tmp_path / "full.jsonl"), report=str(full_report)))
        full = read_records(tmp_path / "full.jsonl")  # enumeration order
        filings = self._spy_filing(monkeypatch)

        def filed_for(records) -> None:
            """The run's filed trees are the trees of `records`; its table holds their components."""
            fresh = [t for trees, _, _ in filings for t in trees]
            assert [canonical_code(t).decode() for t in fresh] == [r.code for r in records]
            parts = {canonical_code(part) for t in fresh for (e,) in bounds._FANOUTS["non-pendant edge"](t)
                     for part in delete_edge(t, e)[:2]}
            assert {canonical_code(t) for t in filings[-1][2].values()} == parts
            filings.clear()

        merged = []
        for i in range(2):
            run_exhaustive(RunConfig(**config, shard_index=i, shard_count=2, out=str(tmp_path / f"{i}.jsonl")))
            shard = read_records(tmp_path / f"{i}.jsonl")
            filed_for(shard)
            merged += shard
        assert sorted(merged, key=lambda r: (r.n, r.code)) == sorted(full, key=lambda r: (r.n, r.code))

        sink = tmp_path / "records.jsonl"
        sink.write_text("".join(record_to_json(rec) + "\n" for rec in full[::3]))
        resumed = run_exhaustive(RunConfig(**config, out=str(sink), report=str(resumed_report)))
        filed_for([r for i, r in enumerate(full) if i % 3])
        assert resumed.skipped == len(full[::3])
        assert resumed_report.read_bytes() == full_report.read_bytes()

    def test_a_conjecture_only_run_files_nothing(self, monkeypatch):
        filings = self._spy_filing(monkeypatch)
        run_exhaustive(RunConfig(n_min=8, n_max=9, checks=("lemma22", "cor31")))
        assert filings and all(size == 0 and table == {} for _, size, table in filings)

    @pytest.mark.parametrize("n", [9, 10])  # at n = 10 some edges split into two sides of one order
    def test_split_counts_finds_every_class_its_block_filed(self, monkeypatch, n):
        # _file_components and _split_counts share one filing rule: after a
        # block is filed, thm32's walk over it files nothing and builds no
        # component, and a table filed edge by edge in that walk's order
        # holds the same codes in the same order
        trees = list(free_trees(n))
        walk = [(t, e) for t in trees for (e,) in bounds._FANOUTS["non-pendant edge"](t)]
        with bounds._shared_components():
            bounds._file_components(trees, RunConfig(checks=("thm32",), tol=1e-9))
            filed = dict(bounds._components)
            splits = self._spy_splits(monkeypatch)
            for t, (a, b) in walk:
                t1, t2, _, _ = bounds._split_counts(t, (a, b), 1e-9)
                codes = side_codes(t)
                assert {id(t1), id(t2)} == {id(filed[codes[a, b]]), id(filed[codes[b, a]])}
            assert splits == [] and len(bounds._components) == len(filed)
        assert len(filed) > 10
        with bounds._shared_components():
            for t, e in walk:
                bounds._split_counts(t, e, 1e-9)
            assert list(bounds._components) == list(filed)

    def test_off_after_a_refused_sink(self, tmp_path):
        sink = tmp_path / "records.jsonl"
        run_exhaustive(RunConfig(n_min=8, n_max=8, out=str(sink), checks=("lemma21",)))
        with pytest.raises(BadParam):
            run_exhaustive(RunConfig(n_min=8, n_max=8, out=str(sink), checks=("thm32",)))
        assert bounds._components is None

    def test_off_after_a_check_raises_inside_the_run(self, monkeypatch):
        sizes = self._table_sizes(monkeypatch)
        real = bounds.thm32_sides  # what an exhaustive run's thm32 verdict calls

        def failing(tree, calls, tol):
            real(tree, calls, tol)
            raise RuntimeError("check failed")

        monkeypatch.setattr(bounds, "thm32_sides", failing)
        with pytest.raises(RuntimeError):
            run_exhaustive(RunConfig(n_min=8, n_max=8, checks=("thm32",)))
        assert sizes and bounds._components is None

    def test_nothing_carries_between_runs(self, monkeypatch):
        calls = []
        real = spectral._prove
        monkeypatch.setattr(spectral, "_prove", lambda *a: calls.append(1) or real(*a))
        argv = ["check-conjecture", "--n-min", "8", "--n-max", "9", "--checks", "thm32"]
        counted = []
        for _ in range(2):
            # the reference paths are cached across runs on purpose; start both runs cold
            monkeypatch.setattr(bounds, "_path_code_cache", {})
            monkeypatch.setattr(bounds, "_star_code_cache", {})
            calls.clear()
            assert cli.main(argv) == 0
            counted.append(len(calls))
        assert counted[0] == counted[1] > 0
