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
from treelap.families import (
    double_broom3,
    double_broom4,
    path,
    sns_tree,
    star,
    t4_spider,
    t_prime,
)
from treelap.spectral import laplacian_energy, sigma
from treelap.tree import Tree, diameter
from treelap.verify import RunConfig, run_exhaustive

from conftest import random_tree


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
        monkeypatch.setattr(bounds, "REFINE", 0)
        undecided = conjecture_check(t, tol=0.5)
        assert undecided.holds is None

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
    ], ids=["coru", "thm51"])
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

    def test_check_function_is_looked_up_at_call_time(self, monkeypatch):
        monkeypatch.setattr(bounds, "lemma26_check", lambda tree: "replaced")
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

    def test_component_code_runs_once_per_rooted_class_of_sides(self, monkeypatch):
        sides = []
        real = bounds.component_code
        monkeypatch.setattr(bounds, "component_code", lambda tree, a, b: sides.append((a, b)) or real(tree, a, b))
        with bounds._shared_components():
            bounds._split_counts(path(9), (2, 3))  # P_3 and P_6, each rooted at an end: new
            assert sides == [(2, 3), (3, 2)]
            bounds._split_counts(path(9), (5, 6))  # the same two rooted sides
            bounds._split_counts(path(10), (3, 4))  # P_4 is new, P_6 rooted at an end is not
            assert sides == [(2, 3), (3, 2), (3, 4)]
            with pytest.raises(PendantEdge):  # S_4 rooted at its center and a lone vertex, both new
                bounds._split_counts(star(5), (0, 1))
            assert len(sides) == 5

    @staticmethod
    def _table_sizes(monkeypatch) -> list:
        """len(bounds._components) at each _split_counts call."""
        sizes = []
        real = bounds._split_counts

        def spy(tree, edge):
            sizes.append(len(bounds._components))
            return real(tree, edge)

        monkeypatch.setattr(bounds, "_split_counts", spy)
        return sizes

    def test_empty_at_each_run_and_off_after_it(self, monkeypatch):
        sizes = self._table_sizes(monkeypatch)
        config = RunConfig(n_min=8, n_max=8, checks=("thm32",))
        for _ in range(2):
            sizes.clear()
            run_exhaustive(config)
            assert bounds._components is None
            assert sizes[0] == 0 and max(sizes) > 0

    def test_off_after_a_refused_sink(self, tmp_path):
        sink = tmp_path / "records.jsonl"
        run_exhaustive(RunConfig(n_min=8, n_max=8, out=str(sink), checks=("lemma21",)))
        with pytest.raises(BadParam):
            run_exhaustive(RunConfig(n_min=8, n_max=8, out=str(sink), checks=("thm32",)))
        assert bounds._components is None

    def test_off_after_a_check_raises_inside_the_run(self, monkeypatch):
        sizes = self._table_sizes(monkeypatch)
        real = bounds.thm32_lower_bound

        def failing(tree, edge, tol):
            real(tree, edge, tol)
            raise RuntimeError("check failed")

        monkeypatch.setattr(bounds, "thm32_lower_bound", failing)
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
