"""Characteristic polynomials: recurrence vs dense oracle, closed forms, Sturm."""

import random
from fractions import Fraction

import pytest

from treelap.charpoly import (
    ONE,
    Poly,
    char_poly,
    closed_form_t4,
    closed_form_tdprime,
    closed_form_tprime,
    tdprime_sextic,
    tprime_quartic,
)
from treelap.errors import BadParam
from treelap.families import path, star, t4_spider, t_dprime, t_prime
from treelap.spectral import count_eigs
from treelap.tree import delete_edge

from conftest import (
    char_poly_forest,
    dense_charpoly,
    derivative,
    eval_poly,
    is_zero,
    leading,
    poly_divmod,
    poly_gcd,
    random_tree,
    root_count_with_multiplicity,
    sign_changes_sturm,
    squarefree_decomposition,
    squarefree_part,
)


class TestPoly:
    def test_arith(self):
        p = Poly((1, 2)) * Poly((1, 2))
        assert p.coeffs == (1, 4, 4)
        assert is_zero(p - p)
        assert is_zero(Poly((0, 0, 0)))
        assert Poly((1, 2)) ** 3 == Poly((1, 2)) * Poly((1, 2)) * Poly((1, 2))
        assert eval_poly(Poly((1, 1)), Fraction(1, 2)) == Fraction(3, 2)
        assert derivative(Poly((0, 0, 3))) == Poly((0, 6))

    def test_divmod(self):
        a = Poly((2, 0, 1))  # x^2 + 2
        q, r = poly_divmod(a, Poly((-1, 1)))  # / (x - 1)
        assert q == Poly((1, 1)) and r == Poly((3,))
        assert poly_gcd(Poly((-1, 0, 1)), Poly((1, 1))) == Poly((1, 1))


class TestCharPoly:
    def test_p2(self):
        assert char_poly(path(2)) == Poly((0, -2, 1))

    def test_s4(self):
        assert char_poly(star(4)) == Poly((0, -4, 9, -6, 1))

    def test_single_vertex(self):
        assert char_poly(path(1)) == Poly((0, 1))

    def test_t4_spider_11(self):
        # x (x^2 - 3x + 1) (x^2 - 5x + 5)
        expected = Poly((0, 1)) * Poly((1, -3, 1)) * Poly((5, -5, 1))
        assert char_poly(t4_spider(1, 1)) == expected

    def test_matches_dense_oracle_exhaustively(self):
        # free_trees is itself validated against the Prüfer census; one
        # representative per class suffices since det is label-invariant
        from treelap.enumeration import free_trees

        for n in range(1, 10):
            for tree in free_trees(n):
                assert list(char_poly(tree).coeffs) == dense_charpoly(tree)

    def test_structure_invariants(self, rng):
        for _ in range(25):
            t = random_tree(rng.randrange(2, 25), rng)
            p = char_poly(t)
            assert p.degree == t.n and leading(p) == 1
            assert p.coeffs[0] == 0
            # alternating signs: all roots real nonnegative
            for d, c in enumerate(p.coeffs[1:], start=1):
                assert c == 0 or (c > 0) == ((t.n - d) % 2 == 0)
            # number of spanning trees of a tree is 1: +-n x appears at degree 1
            assert abs(p.coeffs[1]) == t.n

    def test_forest_product(self, rng):
        for _ in range(50):
            t = random_tree(rng.randrange(4, 20), rng)
            e = t.edges[rng.randrange(len(t.edges))]
            split = delete_edge(t, e)
            prod = char_poly_forest([split.first, split.second])
            assert prod == char_poly(split.first) * char_poly(split.second)
            assert prod.degree == t.n


class TestClosedForms:
    def test_t4_examples(self):
        assert closed_form_t4(1, 1) == Poly((0, 1)) * Poly((1, -3, 1)) * Poly((5, -5, 1))
        assert closed_form_t4(2, 1) == Poly((0, 1)) * Poly((1, -3, 1)) ** 2 * Poly((7, -6, 1))

    def test_t4_equality_sample(self):
        for ab in (2, 5, 9):
            assert char_poly(t4_spider(ab - 1, 1)) == closed_form_t4(ab - 1, 1)

    def test_tprime_quartic_values(self):
        for r in (2, 4, 7):
            for s1 in (2, 5):
                p = tprime_quartic(r, s1)
                assert eval_poly(p, 0) == s1 + 2 * r
                assert eval_poly(p, 1) == -s1 * (r - 1)
                assert eval_poly(p, 2) == s1

    def test_tprime_equality_sample(self):
        for r, s1 in ((2, 2), (3, 5), (6, 4)):
            assert char_poly(t_prime(r, s1)) == closed_form_tprime(r, s1)

    def test_tdprime_sextic_coeffs(self):
        g = tdprime_sextic(3, 2, 2)
        assert g.coeffs[5] == -(3 + 2 + 2 + 7)
        assert g.coeffs[0] == 2 + 2 + 2 * 3 - 1

    def test_tdprime_equality_sample(self):
        for r, s1, s2 in ((3, 2, 2), (4, 3, 2), (5, 4, 4)):
            assert char_poly(t_dprime(r, s1, s2)) == closed_form_tdprime(r, s1, s2)

    def test_param_validation(self):
        with pytest.raises(BadParam):
            closed_form_t4(0, 1)
        with pytest.raises(BadParam):
            closed_form_tprime(1, 2)
        with pytest.raises(BadParam):
            closed_form_tdprime(2, 2, 2)


class TestSturm:
    def test_eval(self):
        assert eval_poly(tprime_quartic(3, 2), 2) == 2

    def test_quadratic_on_unit_interval(self):
        # roots of x^2 - 3x + 1 are (3 +- sqrt5)/2; only one lies in (0, 1]
        assert sign_changes_sturm(Poly((1, -3, 1)), 0, 1) == 1
        assert sign_changes_sturm(Poly((1, -3, 1)), 1, 3) == 1

    def test_p4_nonzero_roots(self):
        p4 = char_poly(path(4))
        q, r = poly_divmod(p4, Poly((0, 1)))
        assert is_zero(r)
        assert sign_changes_sturm(q, 0, 4) == 3

    def test_endpoint_conventions(self):
        # interval is (lo, hi]: root at hi counted, root at lo not
        line = Poly((-1, 1))  # x - 1
        assert sign_changes_sturm(line, 0, 1) == 1
        assert sign_changes_sturm(line, 1, 2) == 0

    def test_squarefree_decomposition_known(self):
        p = closed_form_tprime(5, 4)
        factors = dict()
        for q, m in squarefree_decomposition(p):
            factors[m] = factors.get(m, ONE) * q
        # x * quartic appear once; (x-1)^{s1-1} three times; (x^2-3x+1)^{r-2} three times
        assert factors[3] == Poly((-1, 1)) * Poly((1, -3, 1))
        assert factors[1] == Poly((0, 1)) * tprime_quartic(5, 4)
        assert squarefree_part(Poly((0, 0, 1))) == Poly((0, 1))

    def test_sturm_agrees_with_counting(self, rng):
        # multiplicity-aware Sturm counts equal the congruence counts
        for _ in range(100):
            t = random_tree(rng.randrange(2, 31), rng)
            p = char_poly(t)
            for _ in range(20):
                a = Fraction(rng.randrange(-2, 4 * t.n), rng.randrange(1, 8))
                b = a + Fraction(rng.randrange(1, 4 * t.n), rng.randrange(1, 8))
                got = root_count_with_multiplicity(p, a, b)
                ca = count_eigs(t, a)
                cb = count_eigs(t, b)
                expected = (cb.below + cb.equal) - (ca.below + ca.equal)
                assert got == expected
