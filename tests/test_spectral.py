"""Congruence counting, certified enclosures, sigma, S_k, Laplacian energy."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from treelap.enumeration import free_trees
from treelap.errors import BadParam
from treelap.families import path, sns_tree, star, t4_spider
from treelap.intervals import Enclosure
from treelap import spectral
from treelap.spectral import (
    EigCounts,
    _inertia,
    _inertia_exact,
    _inertia_float,
    _prove,
    average_degree,
    count_eigs,
    eigenvalues,
    forest_enclosures,
    laplacian_energy,
    multiplicity_of_one,
    s_k,
    sigma,
)
from treelap.tree import Tree, degree_summary, delete_edge, from_pruefer

from conftest import (
    class_inertia_float,
    diagonalize,
    fraction_enclosures,
    laplacian_matrix,
    laplacian_np,
    le_argmax,
    le_by_top_sum,
    le_max_form,
    le_two_forms,
    oracle_counts,
    propose_oracle,
    random_tree,
    vertex_inertia_exact,
    vertex_inertia_float,
    walk_alphas,
)


def _count_keys(tree: Tree) -> set[Fraction]:
    """The thresholds of the counts cached on tree."""
    return {Fraction(k[1], k[2]) for k in tree._cache if type(k) is tuple and k[0] == "cnt"}


def _proved(tree: Tree) -> dict:
    """The spectra and counts cached on tree: what a proof leaves, apart from
    the structure a tree built from a level sequence carries from the start."""
    return {k: v for k, v in tree._cache.items() if type(k) is tuple and k[0] in ("cnt", "spectrum")}


class TestDiagonalize:
    def test_star4_at_minus_one(self):
        out = diagonalize(star(4), -1, root=0)
        assert sorted(out.values) == [Fraction(-1, 2), 0, 0, 2]
        assert out.counts == EigCounts(1, 2, 1)
        assert len(out.substitutions) == 1
        assert out.removed_edges == ()  # root has no parent

    def test_p3_at_zero(self):
        out = diagonalize(path(3), 0)
        assert out.counts == EigCounts(0, 1, 2)

    def test_p4_at_minus_three_halves(self):
        out = diagonalize(path(4), Fraction(-3, 2))
        assert out.counts == EigCounts(2, 0, 2)

    def test_zero_rule_removes_parent_edge(self):
        # rooting P3 at an end makes the middle vertex hit a zero child at alpha=-1
        out = diagonalize(path(3), -1, root=2)
        assert out.removed_edges == ((1, 2),)
        assert out.counts.equal == 1  # eigenvalue 1 of P3

    def test_counts_match_value_signs(self, rng):
        for _ in range(30):
            t = random_tree(rng.randrange(2, 20), rng)
            alpha = Fraction(rng.randrange(-8, 8), rng.randrange(1, 5))
            out = diagonalize(t, alpha, root=rng.randrange(t.n))
            neg = sum(1 for v in out.values if v < 0)
            zero = sum(1 for v in out.values if v == 0)
            assert out.counts == (neg, zero, t.n - neg - zero)


class TestCountEigs:
    def test_psd_at_zero(self, rng, monkeypatch):
        # L(T) is positive semidefinite with the constants as its kernel: the
        # exact pass gives (0, 1, n - 1) at 0 from any root, and the counts
        # take that tally without a pass, on a lone tree and in a block
        for _ in range(60):
            t = random_tree(rng.randint(1, 60), rng)
            assert _inertia_exact(t, 0, rng.randint(1, 9), rng.randrange(t.n)) == (0, 1, t.n - 1)
        exact = spectral._inertia_exact

        def exact_away_from_zero(tree, p, q, root):
            assert p != 0, "a congruence pass ran at 0"
            return exact(tree, p, q, root)

        monkeypatch.setattr(spectral, "_inertia_exact", exact_away_from_zero)
        for n in (1, 2, 7, 60):
            t = random_tree(n, rng)
            assert count_eigs(t, 0) == EigCounts(0, 1, n - 1)
            assert min(eigenvalues(t).values) == 0
        assert [min(s.values) for s in spectral.eigenvalues_many(list(free_trees(9)))] == [0] * 47

    def test_s5_at_one(self):
        assert count_eigs(star(5), 1) == EigCounts(1, 3, 1)

    def test_p4_at_two(self):
        assert count_eigs(path(4), 2) == EigCounts(2, 1, 1)

    def test_matches_dense_oracle(self, rng):
        for _ in range(120):
            t = random_tree(rng.randrange(2, 51), rng)
            probes = [
                average_degree(t),
                Fraction(1),
                Fraction(rng.randrange(-2, 4 * t.n), rng.randrange(1, 12)),
            ]
            for x in probes:
                assert tuple(count_eigs(t, x)) == oracle_counts(t, x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, "abc", "1/2", True, False, None, 1 + 2j,
                                   np.float64("nan"), np.bool_(True)])
    def test_a_threshold_that_is_not_a_finite_rational_is_refused(self, x):
        with pytest.raises(BadParam, match="finite rational threshold"):
            count_eigs(path(4), x)

    @pytest.mark.parametrize("x", [2, 2.0, Fraction(2), np.float64(2.0), np.int64(2)])
    def test_every_rational_type_counts_alike(self, x):
        assert count_eigs(path(4), x) == EigCounts(2, 1, 1)

    def test_root_independence(self, rng):
        for _ in range(40):
            t = random_tree(rng.randrange(2, 30), rng)
            x = Fraction(rng.randrange(0, 3 * t.n), rng.randrange(1, 7))
            base = diagonalize(t, -x, root=0).counts
            for _ in range(5):
                root = rng.randrange(t.n)
                assert diagonalize(t, -x, root=root).counts == base
                # the package's pass, away from the centroid it always uses
                assert _inertia(t, -x.numerator, x.denominator, root) == base
                # the integer stage alone: the float stage answers most calls
                assert _inertia_exact(t, -x.numerator, x.denominator, root) == base


class TestFloatStage:
    """The float-interval stage of `_inertia` declines wherever a pivot
    interval contains 0, which it must at every eigenvalue."""

    def test_declines_at_zero(self, rng):
        for _ in range(20):
            t = random_tree(rng.randrange(1, 25), rng)
            for root in range(t.n):
                assert _inertia_float(t, 0, 1, root) is None
            assert tuple(count_eigs(t, 0)) == oracle_counts(t, Fraction(0))

    @pytest.mark.parametrize("tree, x", [(star(5), 1), (path(4), 2)])
    def test_declines_at_integer_eigenvalues(self, tree, x):
        for root in range(tree.n):
            assert _inertia_float(tree, -x, 1, root) is None
        assert tuple(count_eigs(tree, x)) == oracle_counts(tree, Fraction(x))

    def test_declines_next_to_an_irrational_eigenvalue(self):
        # 2 - sqrt 2 is an eigenvalue of P4, and s / 2^80 < sqrt 2 < (s + 1) / 2^80
        # for s = isqrt(2^161), so each x below is within 2^-80 of it
        t = path(4)
        s = math.isqrt(2 << 160)
        for num, below in ((s, 2), (s + 1, 1)):
            x = 2 - Fraction(num, 1 << 80)
            assert abs(float(x) - (2 - math.sqrt(2))) < 2.0**-50
            expected = EigCounts(below, 0, 4 - below)
            for root in range(t.n):
                assert _inertia_float(t, -x.numerator, x.denominator, root) is None
                assert _inertia_exact(t, -x.numerator, x.denominator, root) == expected
                assert diagonalize(t, -x, root=root).counts == expected

    def test_decides_above_the_spectrum(self, rng):
        for _ in range(20):
            t = random_tree(rng.randrange(2, 40), rng)
            x = Fraction(2 * t.n + 1, 2)  # above the spectrum, which ends at n
            for root in (0, t.n - 1):
                assert _inertia_float(t, -x.numerator, x.denominator, root) == (t.n, 0, 0)

    def test_equals_the_reference_kernel_on_every_small_tree(self):
        for n in range(1, 11):
            for t in free_trees(n):
                d_bar = average_degree(t)
                probes = [(-x, 1) for x in range(n + 1)] + [(-d_bar.numerator, d_bar.denominator)]
                for root in {t.count_root(), n - 1}:
                    for p, q in probes:
                        assert _inertia_float(t, p, q, root) == class_inertia_float(t, p, q, root)

    @pytest.mark.parametrize("tree", [path(128), path(256)] + [
        from_pruefer([rng.randrange(160) for _ in range(158)]) for rng in map(random.Random, (1, 2, 3))])
    def test_equals_the_reference_kernel_at_the_first_probes_of_large_trees(self, tree):
        # a lone tree's first counts: deep chains of classes, and k > 1 in the Pruefer trees
        (den, points), = spectral._propose(tree.n, np.linalg.eigvalsh(laplacian_matrix(tree))[None], 1e-12)[0]
        root, got = tree.count_root(), []
        for x in points:
            g = math.gcd(x, den)
            p, q = -(x // g), den // g
            got.append(_inertia_float(tree, p, q, root))
            assert got[-1] == class_inertia_float(tree, p, q, root)
        assert None in got and len(set(got)) > tree.n // 4

    def test_equals_the_reference_kernel_at_the_floats_next_to_each_eigenvalue(self):
        # where decide or decline turns on the last ulp: one rounding step
        # taken the other way, or left out, moves the boundary
        decided = declined = 0
        for n in range(2, 9):
            for t in free_trees(n):
                for e in np.linalg.eigvalsh(laplacian_matrix(t)).tolist():
                    x = e - 24 * math.ulp(e)
                    for _ in range(48):
                        x = math.nextafter(x, math.inf)
                        p, q = (-Fraction(x)).as_integer_ratio()
                        for root in {t.count_root(), n - 1}:
                            got = _inertia_float(t, p, q, root)
                            assert got == class_inertia_float(t, p, q, root)
                            decided += got is not None
                            declined += got is None
        assert decided > 1000 and declined > 1000

    @pytest.mark.parametrize("p", [10**400, -10**400])
    def test_gives_up_beyond_the_double_range(self, p):
        t = path(5)
        assert _inertia_float(t, p, 1, 0) is None
        assert _inertia(t, p, 1, 0) == _inertia_exact(t, p, 1, 0) == ((0, 0, 5) if p > 0 else (5, 0, 0))

    @pytest.mark.parametrize("eps, decides", [(Fraction(1, 2**40), True), (Fraction(1, 2**44), False)])
    def test_a_star_whose_leaves_are_one_class_of_2000(self, eps, decides):
        # eigenvalues 0, 1 (1999 times) and 2001; a leaf root leaves a class of 1999
        t = star(2001)
        expected = {1 - eps: (1, 0, 2000), 1 + eps: (2000, 0, 1), 2001 - eps: (2000, 0, 1), 2001 + eps: (2001, 0, 0)}
        for x, tally in expected.items():
            for root in (0, 2000):
                assert _inertia_exact(t, -x.numerator, x.denominator, root) == tally
                got = _inertia_float(t, -x.numerator, x.denominator, root)
                assert got == tally if decides else got in (None, tally)

    @pytest.mark.parametrize("p", [1, -1])
    def test_a_subnormal_pivot_decides_or_declines_without_raising(self, p):
        # a lone vertex's pivot is alpha itself; 1/x of a subnormal rounds to inf
        t, q = Tree(1, []), 10**320
        assert 0 < abs(p / q) < sys.float_info.min and math.isinf(1.0 / (p / q))
        assert _inertia_float(t, p, q, 0) in (None, _inertia_exact(t, p, q, 0))
        assert _inertia_exact(t, p, q, 0) == ((0, 0, 1) if p > 0 else (1, 0, 0))


class TestClassPass:
    """`_inertia` runs once per rooted isomorphism class; the per-vertex
    passes of tests/conftest.py are its oracles."""

    def test_equals_the_vertex_pass_on_every_small_tree_at_every_integer(self):
        substituted = 0  # probes where the zero-child substitution fired at several vertices
        for n in range(1, 11):
            for t in free_trees(n):
                for root in {t.centroids()[0], n - 1}:
                    for x in range(n + 1):
                        tally = vertex_inertia_exact(t, -x, 1, root)
                        assert _inertia(t, -x, 1, root) == tally
                        assert _inertia_exact(t, -x, 1, root) == tally
                        assert _inertia_float(t, -x, 1, root) in (None, tally)
                        assert vertex_inertia_float(t, -x, 1, root) in (None, tally)
                        substituted += len(diagonalize(t, -x, root).substitutions) > 1
        assert substituted > 100

    def test_a_large_spider_counts_at_the_roots_of_its_factors(self):
        # closed_form_t4(a, b) = x (x^2 - 3x + 1)^(k-1) (x^2 - (k+3)x + 2k+1), k = a + b
        a, b = 1000, 999
        k = a + b
        t = t4_spider(a, b)
        assert t.n == 2 * k + 1 >= 2000

        def quadratic(p, c, x):
            """(#roots < x, #roots == x) of x^2 - p x + c, which has two real roots."""
            at = x * x - p * x + c
            if at < 0:
                return 1, 0
            if at == 0:
                return int(2 * x > p), 1
            return (2 if 2 * x > p else 0), 0

        for x in (Fraction(1), Fraction(3), average_degree(t)):
            below, equal = (int(x > 0), int(x == 0))
            for (bq, eq), times in ((quadratic(3, 1, x), k - 1), (quadratic(k + 3, 2 * k + 1, x), 1)):
                below += bq * times
                equal += eq * times
            expected = EigCounts(below, equal, t.n - below - equal)
            assert count_eigs(t, x) == expected
            assert vertex_inertia_exact(t, -x.numerator, x.denominator, t.centroids()[0]) == expected
        assert count_eigs(t, 1) == (k, 0, k + 1)
        assert count_eigs(t, average_degree(t)) == (k + 1, 0, k)


class TestMultiplicityOfOne:
    def test_examples(self):
        assert multiplicity_of_one(star(6)) == 4
        assert multiplicity_of_one(path(4)) == 0
        t = sns_tree(0, 2, [2, 2])
        ds = degree_summary(t)
        assert ds.pendant_count - ds.leaf_neighbor_count == 2
        assert multiplicity_of_one(t) >= 2

    def test_faria_bound_exhaustive(self):
        for n in range(2, 11):
            for t in free_trees(n):
                ds = degree_summary(t)
                assert multiplicity_of_one(t) >= ds.pendant_count - ds.leaf_neighbor_count


class TestEigenvalues:
    def test_laplacian_matrix_is_the_per_edge_loop_bit_for_bit(self, rng):
        trees = [t for n in range(1, 9) for t in free_trees(n)]
        trees += [random_tree(rng.randrange(2, 60), rng) for _ in range(20)]
        for t in trees:
            lap = laplacian_matrix(t)
            assert lap.dtype == np.float64 and lap.tobytes() == laplacian_np(t).tobytes()

    def test_a_block_of_laplacians_is_the_per_edge_loop_bit_for_bit(self, rng):
        for n in (1, 2, 9):
            block = list(free_trees(n)) + [random_tree(n, rng) for _ in range(3)]
            lap = spectral._laplacians(block)
            assert lap.dtype == np.float64
            assert lap.tobytes() == np.stack([laplacian_np(t) for t in block]).tobytes()

    def test_p2_exact(self):
        spec = eigenvalues(path(2))
        assert spec.enclosures == ((Fraction(2), Fraction(2)), (Fraction(0), Fraction(0)))

    def test_p4_closed_form(self):
        spec = eigenvalues(path(4), 1e-9)
        expected = sorted((2 - 2 * math.cos(k * math.pi / 4) for k in range(4)), reverse=True)
        for enc, mu in zip(spec.enclosures, expected):
            assert float(enc[0]) - 1e-9 <= mu <= float(enc[1]) + 1e-9
            assert enc[1] - enc[0] <= Fraction(1e-9)

    def test_s4_exact_integers(self):
        spec = eigenvalues(star(4))
        assert [e for e in spec.enclosures] == [
            (Fraction(4), Fraction(4)),
            (Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(1)),
            (Fraction(0), Fraction(0)),
        ]

    def test_single_vertex(self):
        spec = eigenvalues(path(1))
        assert spec.enclosures == ((Fraction(0), Fraction(0)),)
        assert spec.laplacian_energy().value == 0.0

    def test_trace_identity(self, rng):
        for _ in range(25):
            t = random_tree(rng.randrange(2, 30), rng)
            spec = eigenvalues(t, 1e-10)
            total = sum((lo + hi) / 2 for lo, hi in spec.enclosures)
            assert abs(total - 2 * (t.n - 1)) <= t.n * Fraction(1, 10**10)

    def test_bracket_and_zero(self, rng):
        for _ in range(25):
            t = random_tree(rng.randrange(2, 25), rng)
            spec = eigenvalues(t, 1e-10)
            assert spec.enclosures[-1] == (0, 0)
            assert spec.enclosures[0][1] <= t.n
            assert spec.enclosures[0][0] > 0

    def test_bad_tol(self):
        with pytest.raises(BadParam):
            eigenvalues(path(3), 0.0)


class TestSigma:
    @pytest.mark.parametrize("tol", [1e-12, 1.0])
    def test_one_pass_sigma_and_energy_equal_the_oracles_for_every_small_tree(self, tol):
        # at tol 1.0 the enclosures are wide and the trace side decides the energy
        for n in range(1, 11):
            for t in free_trees(n):
                spec = eigenvalues(t, tol)
                le = spec.laplacian_energy()
                below_d_bar = count_eigs(t, average_degree(t)).below
                assert spec.sigma == t.n - below_d_bar
                assert (le.lo_n, le.hi_n, le.den) == le_by_top_sum(spec, t.n - below_d_bar)

    def test_examples(self):
        assert sigma(path(4)) == 2
        for n in (3, 5, 9, 30):
            assert sigma(star(n)) == 1

    def test_t4_spider_formula(self):
        for ab in (2, 3, 7, 12):
            assert sigma(t4_spider(ab - 1, 1)) == ab

    def test_lemma26_exhaustive(self):
        # the count-below bound degenerates at n = 1 (the only eigenvalue
        # equals the average degree 0), so start at order 2
        for n in range(2, 11):
            for t in free_trees(n):
                c = count_eigs(t, average_degree(t))
                assert c.below >= (t.n + 1) // 2


class TestSums:
    def test_s_n_is_trace(self, rng):
        for _ in range(10):
            t = random_tree(rng.randrange(2, 20), rng)
            enc = s_k(t, t.n, 1e-12)
            assert enc.lo == enc.hi == 2 * (t.n - 1)

    def test_s1_star(self):
        enc = s_k(star(5), 1)
        assert enc.lo == enc.hi == 5

    def test_s2_p4(self):
        enc = s_k(path(4), 2, 1e-10)
        assert abs(enc.value - (4 + math.sqrt(2))) <= 2e-10

    def test_bad_k(self):
        with pytest.raises(BadParam):
            s_k(path(4), 0)
        with pytest.raises(BadParam):
            s_k(path(4), 5)


class TestLaplacianEnergy:
    def test_star_formula(self):
        for n in (2, 3, 4, 9, 40):
            le = laplacian_energy(star(n) if n > 1 else path(1))
            expected = Fraction(2 * n - 4) + Fraction(4, n)
            assert le.lo <= expected <= le.hi
        assert laplacian_energy(star(4)).value == 5.0

    def test_p4_value(self):
        le = laplacian_energy(path(4), 1e-11)
        assert abs(le.value - (2 + 2 * math.sqrt(2))) <= le.err + 1e-11
        assert le.err <= 2 * 2 * 1e-11 + 1e-15

    def test_p1_zero(self):
        assert laplacian_energy(path(1)).value == 0.0

    def test_error_bound_scales_with_sigma(self, rng):
        for _ in range(10):
            t = random_tree(rng.randrange(2, 25), rng)
            tol = 1e-10
            le = laplacian_energy(t, tol)
            assert le.err <= 2 * sigma(t) * tol * 1.01

    def test_max_form_agrees_exhaustive(self):
        for n in range(1, 11):
            for t in free_trees(n):
                spec = eigenvalues(t, 1e-11)
                a = spec.laplacian_energy()
                b = le_max_form(spec)
                # both enclose the same value
                assert max(a.lo, b.lo) <= min(a.hi, b.hi)

    @pytest.mark.parametrize("tol", [1e-12, 0.05, 0.3])
    def test_one_form_inside_two_forms_exhaustive(self, tol):
        tighter = 0
        for n in range(1, 11):
            for t in free_trees(n):
                spec = eigenvalues(t, tol)
                one, two = spec.laplacian_energy(), le_two_forms(spec)
                assert two.lo <= one.lo and one.hi <= two.hi
                tighter += one != two
        # d_bar is a probe, so no enclosure straddles it and the two forms
        # agree at every tol
        assert tighter == 0

    @pytest.mark.parametrize("tol", [1e-12, 0.05, 0.3])
    def test_one_form_contains_dense_energy(self, tol):
        trees = [t for n in range(2, 11) for t in free_trees(n)]
        trees += [random_tree(n, random.Random(n)) for n in (20, 40, 60)]
        for t in trees:
            mu = np.linalg.eigvalsh(laplacian_np(t))
            d_bar = 2 * (t.n - 1) / t.n
            dense = math.fsum(abs(float(x) - d_bar) for x in mu)
            pad = t.n * 1e-12  # eigvalsh error allowance, far above its ~n * 1e-15
            le = laplacian_energy(t, tol)
            assert float(le.lo) - pad <= dense <= float(le.hi) + pad

    def test_max_form_argmax_p6(self):
        spec = eigenvalues(path(6))
        assert le_argmax(spec) == spec.sigma

    def test_max_form_star(self):
        spec = eigenvalues(star(5))
        enc = le_max_form(spec)
        assert enc.lo == enc.hi == Fraction(34, 5)
        assert le_argmax(spec) == 1


class TestInterlacing:
    def test_edge_deletion_interlaces(self, rng):
        tol = 1e-10
        for _ in range(200):
            t = random_tree(rng.randrange(3, 15), rng)
            e = t.edges[rng.randrange(len(t.edges))]
            split = delete_edge(t, e)
            spec = eigenvalues(t, tol)
            sub = forest_enclosures([split.first, split.second], tol)
            mids_t = [(float(lo) + float(hi)) / 2 for lo, hi in spec.enclosures]
            mids_s = [(float(lo) + float(hi)) / 2 for lo, hi in sub]
            for i in range(t.n):
                assert mids_t[i] >= mids_s[i] - 2 * tol
                if i + 1 < t.n:
                    assert mids_s[i] >= mids_t[i + 1] - 2 * tol


def _as_fractions(den, entries):
    return [(Fraction(lo, den), Fraction(hi, den), *rest) for lo, hi, *rest in entries]


class TestIntegerProber:
    def test_a_probe_finer_than_the_denominator_rescales_every_endpoint(self):
        # over den 12: found holds 2 and 0, work the open interval (1/12, 1)
        found = [(24, 24, 1), (0, 0, 1)]
        work = [(1, 12, 2, 1)]
        x = 0.1875  # 3/16: its power of two exceeds the 4 in 12
        before = _as_fractions(12, found), _as_fractions(12, work)
        mid, den = spectral._to_grid(*x.as_integer_ratio(), 12, found, work)
        assert den == 48
        assert Fraction(mid, den) == Fraction(x)
        assert found == [(96, 96, 1), (0, 0, 1)]
        assert work == [(4, 48, 2, 1)]
        assert (_as_fractions(den, found), _as_fractions(den, work)) == before

    def test_the_grid_grows_only_as_far_as_a_probe_needs(self):
        found, work = [(24, 24, 1)], [(1, 12, 2, 1)]
        assert spectral._to_grid(3, 4, 12, found, work) == (9, 12)  # on the grid: unchanged
        assert found == [(24, 24, 1)] and work == [(1, 12, 2, 1)]
        assert spectral._to_grid(13, 24, 12, found, work) == (13, 24)  # exact midpoint, odd sum: doubled
        assert found == [(48, 48, 1)] and work == [(2, 24, 2, 1)]

    @pytest.mark.parametrize("tol", [Fraction(1, 1000), Fraction(1, 3)])
    def test_integer_estimates_force_rescales_and_keep_the_oracle_enclosures(self, tol, monkeypatch):
        # Estimates rounded to integers leave den = lcm(n, 2 * den(tol)), so
        # every float bisection midpoint is finer than den.  Estimates only
        # place probes, so the enclosures must still be the oracle's.
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.round(eigvalsh(a)))
        for t in (path(7), sns_tree(2, 3, [2, 1, 1]), random_tree(12, random.Random(7))):
            spec, = _prove([Tree(t.n, t.edges)], tol)
            assert spec.den > math.lcm(t.n, 2 * tol.denominator)
            assert _as_fractions(spec.den, reversed(spec.distinct)) == fraction_enclosures(Tree(t.n, t.edges), tol)

    def test_a_tolerance_finer_than_the_estimates_keeps_probes_inside_0_n(self):
        # eigvalsh puts the zero eigenvalue near -3e-16, so at tol 1e-20 the
        # probe just above that estimate is negative; it must not be kept
        tol = 1e-20
        for n in range(4, 10):
            for t in free_trees(n):
                spec = eigenvalues(t, tol)
                est = np.sort(np.linalg.eigvalsh(laplacian_np(t)))[::-1]
                assert spec.enclosures[-1] == (0, 0)
                for (lo, hi), mu in zip(spec.enclosures, est):
                    assert hi - lo <= Fraction(tol)
                    assert float(lo) - 1e-12 <= mu <= float(hi) + 1e-12
                lone, = _prove([Tree(t.n, t.edges)], tol)
                assert _as_fractions(lone.den, reversed(lone.distinct)) == fraction_enclosures(t, Fraction(tol))

    def test_a_proof_files_counts_only_at_the_integers_and_d_bar(self, monkeypatch):
        t = random_tree(14, random.Random(3))
        count_eigs(t, 2)  # an earlier integer count stays
        count_eigs(t, Fraction(7, 3))  # an earlier one-off count was never filed
        assert _count_keys(t) == {2}
        probes = []
        real = spectral._count

        def spy(tree, x, den, exact=False):
            probes.append(Fraction(x, den))
            return real(tree, x, den, exact)

        monkeypatch.setattr(spectral, "_count", spy)
        eigenvalues(t)
        d_bar = average_degree(t)
        assert any(x.denominator != 1 and x != d_bar for x in probes)  # one-off probes were made
        assert _count_keys(t) == {x for x in probes if x.denominator == 1 or x == d_bar} | {2}
        assert {0, t.n, d_bar} <= _count_keys(t)

    def test_a_count_at_a_one_off_threshold_is_never_cached(self):
        t = random_tree(14, random.Random(3))
        for x in (Fraction(7, 3), 0.5, Fraction(2 * 14 - 4, 14)):
            count_eigs(t, x)
        assert _count_keys(t) == set()
        assert count_eigs(t, average_degree(t)) == count_eigs(t, Fraction(26, 14))
        assert count_eigs(t, Fraction(6, 3)) == count_eigs(t, 2)
        assert _count_keys(t) == {average_degree(t), 2}

    def test_counts_are_shared_through_the_cache(self, monkeypatch):
        t = star(6)
        eigenvalues(t)

        def no_count(*args):
            raise AssertionError("count not taken from the cache")

        monkeypatch.setattr(spectral, "_inertia", no_count)
        assert sigma(t) == 1
        assert multiplicity_of_one(t) == 4
        assert count_eigs(t, average_degree(t)) == EigCounts(5, 0, 1)
        assert count_eigs(t, 1.0) == EigCounts(1, 4, 1)


class TestPropose:
    """_propose finds the clusters of a whole block at once and gives each
    tree the (den, points) of the one-row oracle, with every alpha the
    correctly rounded -N / den the walk reads."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 0.3])
    def test_every_free_tree_up_to_11_in_one_block_and_alone(self, tol):
        for n in range(1, 12):
            trees = list(free_trees(n))
            est = np.linalg.eigvalsh(spectral._laplacians(trees))
            want = [propose_oracle(n, row, Fraction(tol)) for row in est]
            probes, alpha = spectral._propose(n, est, tol)
            assert probes == want
            assert np.array_equal(alpha, walk_alphas(want), equal_nan=True)
            for row, one in zip(est, want):
                assert spectral._propose(n, row[None], tol)[0] == [one]

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 0.3])
    def test_large_lone_trees(self, tol):
        rng = random.Random(160)
        prufer = from_pruefer([rng.randrange(160) for _ in range(158)])
        for t in (path(64), path(256), prufer, t4_spider(40, 39)):
            est = np.linalg.eigvalsh(spectral._laplacians([t]))
            probes, alpha = spectral._propose(t.n, est, tol)
            assert probes == [propose_oracle(t.n, est[0], Fraction(tol))]
            assert np.array_equal(alpha, walk_alphas(probes))

    def test_a_subnormal_tol_with_an_odd_last_bit_leaves_its_side_lanes_to_the_exact_pass(self):
        # tol/2 is not a float, so no side probe's alpha is one subtraction
        trees = list(free_trees(6))
        est = np.linalg.eigvalsh(spectral._laplacians(trees))
        for tol in (5e-324, 3 * 5e-324):
            probes, alpha = spectral._propose(6, est, tol)
            assert probes == [propose_oracle(6, row, Fraction(tol)) for row in est]
            for (den, points), got, want in zip(probes, alpha.tolist(), walk_alphas(probes).tolist()):
                for x, a, w in zip(points, got, want):
                    if x % den == 0 or x * 6 == 10 * den:  # an integer or d_bar = 5/3
                        assert a == w
                    else:
                        assert math.isnan(a)


class TestBlockRoute:
    """eigenvalues_many: one stacked estimate and one float walk per block of
    trees of one order, then each tree's bisection; a lone tree is a block
    of one that counts through count_eigs."""

    def test_the_walk_declines_at_zero_and_decides_between_the_integers(self):
        # no eigenvalue and no pivot of a tree Laplacian is a half-integer
        trees = list(free_trees(8))
        points = [0, *(2 * k + 1 for k in range(8))]  # over 2: 0, 1/2, 3/2, ..., 15/2
        below = spectral._below_many(trees, walk_alphas([(2, points)] * len(trees)))
        for t, ks in zip(trees, below.tolist()):
            assert ks[0] == -1
            root = t.centroids()[0]
            assert [(k, 0, t.n - k) for k in ks[1:]] == [_inertia_exact(t, -x, 2, root) for x in points[1:]]

    def test_blocks_of_one_order_leave_the_caches_of_eigenvalues(self, monkeypatch):
        monkeypatch.setattr(spectral, "BLOCK", 5)
        blocks = []
        real = spectral._prove
        monkeypatch.setattr(spectral, "_prove", lambda trees, tol: blocks.append(trees) or real(trees, tol))
        trees = list(free_trees(8))  # 23 trees, 26 listed: five blocks of 5 and a lone tree
        random.Random(5).shuffle(trees)
        fresh = list(free_trees(8))  # the same trees, built alike, proved one by one
        random.Random(5).shuffle(fresh)
        for t in trees[::4] + fresh[::4]:
            count_eigs(t, 3)  # a count taken before the spectrum stays
        specs = spectral.eigenvalues_many(trees + trees[:3], 1e-9)  # the first three listed twice
        assert specs[-3:] == specs[:3]
        assert {id(t) for b in blocks for t in b} == {id(t) for t in trees}
        assert all(len(b) <= 5 for b in blocks)
        for t, f, spec in zip(trees, fresh, specs):
            assert spec == eigenvalues(f, 1e-9)
            assert t._cache == f._cache

    def test_a_declined_lane_goes_straight_to_the_exact_pass(self, monkeypatch):
        declined, floated, proposed = set(), set(), []
        real_walk, real_float, real_propose = spectral._below_many, spectral._inertia_float, spectral._propose

        def propose(n, est, tol):
            probes, alpha = real_propose(n, est, tol)
            proposed.append(probes)
            return probes, alpha

        def walk(block, alpha):
            out = real_walk(block, alpha)
            for t, (den, points), ks in zip(block, proposed[-1], out.tolist()):
                declined.update((id(t), Fraction(x, den)) for x, k in zip(points, ks) if k < 0)
            return out

        def float_stage(t, p, q, root):
            floated.add((id(t), Fraction(-p, q)))
            return real_float(t, p, q, root)

        monkeypatch.setattr(spectral, "_propose", propose)
        monkeypatch.setattr(spectral, "_below_many", walk)
        monkeypatch.setattr(spectral, "_inertia_float", float_stage)
        trees = list(free_trees(9))
        specs = spectral.eigenvalues_many(trees, 1e-9)
        assert declined and not declined & floated
        for t, fresh, spec in zip(trees, free_trees(9), specs):
            assert spec == eigenvalues(fresh, 1e-9) and t._cache == fresh._cache

    def test_mixed_orders_are_refused_before_any_work(self):
        trees = [Tree(t.n, t.edges) for t in (path(4), star(5), path(4))]
        with pytest.raises(BadParam):
            spectral.eigenvalues_many(trees, 1e-9)
        assert all(t._cache == {} for t in trees)

    def test_a_lone_tree_never_walks(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("a lone tree went to the float walk")

        monkeypatch.setattr(spectral, "_below_many", no_walk)
        proposed, probes = [], []
        real_propose, real_count = spectral._propose, spectral.count_eigs
        monkeypatch.setattr(spectral, "_propose", lambda *a: proposed.append(real_propose(*a)) or proposed[-1])
        monkeypatch.setattr(spectral, "count_eigs", lambda tree, x: probes.append(x) or real_count(tree, x))
        for prove in (eigenvalues, lambda t: spectral.eigenvalues_many([t])[0]):
            proposed.clear()
            probes.clear()
            t = random_tree(14, random.Random(3))
            assert prove(t) == eigenvalues(Tree(t.n, t.edges))
            (den, points), = proposed[0][0]
            first = probes[:len(points)]
            assert first == [Fraction(x, den) for x in points] and first == sorted(set(first))

    def test_a_cached_spectrum_is_not_computed_again(self, monkeypatch):
        t = path(6)
        spec = eigenvalues(t)

        def no_block(*args):
            raise AssertionError("block computed for a cached spectrum")

        monkeypatch.setattr(spectral, "_prove", no_block)
        assert spectral.eigenvalues_many([t, t]) == [spec, spec]
        assert spectral.eigenvalues_many([]) == []

    def test_bad_tol(self):
        with pytest.raises(BadParam):
            spectral.eigenvalues_many([path(3)], math.inf)


class TestLayoutTrees:
    """free_trees builds each tree from its level sequence, and such a tree
    counts from the layout root, vertex 0, where any other tree counts from
    its first centroid.  Counts do not depend on the root, so every proof
    is the one of the same tree built from its edge list."""

    def test_the_count_root_is_the_layout_root_or_the_first_centroid(self, monkeypatch):
        roots = []
        real = spectral._inertia

        def spy(t, p, q, root, *exact):
            roots.append(root)
            return real(t, p, q, root, *exact)

        monkeypatch.setattr(spectral, "_inertia", spy)
        for t in free_trees(9):
            f = Tree(t.n, t.edges)
            assert t.count_root() == 0 and f.count_root() == f.centroids()[0]
            order, _, _ = t.rooted(0)
            assert order == tuple(range(t.n - 1, -1, -1))  # reverse preorder
            for tree, root in ((t, 0), (f, f.centroids()[0])):
                roots.clear()
                count_eigs(tree, Fraction(5, 3))
                assert roots == [root]

    @pytest.mark.parametrize("tol", [1e-12, 0.3])
    def test_every_spectrum_and_kept_count_is_the_edge_lists(self, tol):
        # the layout trees in blocks, from vertex 0; their edge lists one by one, from a centroid
        for n in range(1, 13):
            layout = list(free_trees(n))
            edges = [Tree(t.n, t.edges) for t in layout]
            lone = [eigenvalues(t, tol) for t in edges]
            assert spectral.eigenvalues_many(layout, tol) == lone
            for a, b, spec in zip(layout, edges, lone):
                assert _proved(a) == _proved(b)
                assert a._cache["spectrum", tol].sigma == spec.sigma
