"""Family generators: shapes, counts, and isomorphism identities."""

import random

import pytest

from treelap.errors import BadParam
from treelap.families import (
    double_broom3,
    double_broom4,
    path,
    sns_kind,
    sns_params,
    sns_tree,
    star,
    t4_spider,
    t_dprime,
    t_prime,
)
from treelap.tree import canonical_code, degree_summary, diameter


def test_path_star_basics():
    assert canonical_code(path(2)) == canonical_code(star(2))
    assert degree_summary(star(5)).degrees == (4, 1, 1, 1, 1)
    assert diameter(path(7)) == 6
    with pytest.raises(BadParam):
        path(0)
    with pytest.raises(BadParam):
        star(1)


def test_double_broom3():
    assert canonical_code(double_broom3(1, 1)) == canonical_code(path(4))
    t = double_broom3(2, 2)
    assert t.n == 6 and diameter(t) == 3
    assert degree_summary(double_broom3(3, 1)).degrees == (4, 2, 1, 1, 1, 1)
    assert degree_summary(double_broom3(5, 2)).internal_count == 2
    with pytest.raises(BadParam):
        double_broom3(0, 1)


def test_double_broom4():
    assert canonical_code(double_broom4(1, 1)) == canonical_code(path(5))
    t = double_broom4(2, 1)
    assert t.n == 6 and diameter(t) == 4
    assert degree_summary(double_broom4(3, 3)).internal_count == 3
    with pytest.raises(BadParam):
        double_broom4(1, 0)


def test_sns_tree():
    t = sns_tree(0, 2, [1, 1])
    assert t.n == 5 and diameter(t) == 4
    assert sns_tree(2, 3, [2, 1, 1]).n == 2 + 3 + 1 + 4
    with pytest.raises(BadParam):
        sns_tree(0, 2, [1, 0])
    with pytest.raises(BadParam):
        sns_tree(0, 1, [1])
    with pytest.raises(BadParam):
        sns_tree(0, 3, [1, 1])  # len(s) != r


def test_special_family_orders():
    assert t4_spider(1, 1).n == 5
    assert t_prime(3, 2).n == 8
    assert t_dprime(3, 2, 2).n == 9
    with pytest.raises(BadParam):
        t4_spider(1, 0)
    with pytest.raises(BadParam):
        t_prime(1, 2)
    with pytest.raises(BadParam):
        t_dprime(2, 2, 2)


def test_special_families_are_sns_instances():
    assert canonical_code(t4_spider(2, 3)) == canonical_code(sns_tree(0, 5, [1] * 5))
    assert canonical_code(t_prime(4, 3)) == canonical_code(sns_tree(0, 4, [3, 1, 1, 1]))
    assert canonical_code(t_dprime(4, 3, 2)) == canonical_code(sns_tree(0, 4, [3, 2, 1, 1]))


def test_generator_invariants_random():
    rng = random.Random(2024)
    for _ in range(200):
        which = rng.randrange(6)
        if which == 0:
            n = rng.randint(1, 40)
            t = path(n)
            assert t.n == n and diameter(t) == n - 1
            if n >= 3:
                assert degree_summary(t).internal_count == n - 2
        elif which == 1:
            n = rng.randint(3, 40)
            t = star(n)
            assert t.n == n and diameter(t) == 2
            assert degree_summary(t).internal_count == 1
        elif which == 2:
            a, b = rng.randint(1, 12), rng.randint(1, 12)
            t = double_broom3(a, b)
            assert t.n == a + b + 2 and diameter(t) == 3
            assert degree_summary(t).internal_count == 2
        elif which == 3:
            a, b = rng.randint(1, 12), rng.randint(1, 12)
            t = double_broom4(a, b)
            assert t.n == a + b + 3 and diameter(t) == 4
            assert degree_summary(t).internal_count == 3
        elif which == 4:
            r = rng.randint(2, 10)
            p = rng.randint(0, 6)
            s = [rng.randint(0, 4) for _ in range(r)]
            while sum(1 for x in s if x) < 2:
                s[rng.randrange(r)] += 1
            t = sns_tree(p, r, s)
            assert t.n == p + r + 1 + sum(s)
            assert diameter(t) == 4
        else:
            r, s1, s2 = rng.randint(3, 9), rng.randint(2, 8), rng.randint(2, 8)
            assert t_prime(r, s1).n == 2 * r + s1
            assert t_dprime(r, s1, s2).n == 2 * r + s1 + s2 - 1
            assert t4_spider(r, s1).n == 2 * (r + s1) + 1


def test_sns_params_classifier():
    assert sns_params(path(9)) is None  # diameter 8
    assert sns_params(sns_tree(2, 3, [2, 1, 1])) == (2, 3, (2, 1, 1))
    # s[i] = 0 children are reclassified as root leaves
    assert sns_params(sns_tree(0, 3, [2, 1, 0])) == (1, 2, (2, 1))
    assert sns_kind(t4_spider(2, 2)) == "t4"
    assert sns_kind(t_prime(3, 4)) == "tprime"
    assert sns_kind(t_dprime(3, 2, 2)) == "tdprime"
    assert sns_kind(sns_tree(1, 2, [1, 1])) == "general"
    assert sns_kind(sns_tree(0, 3, [2, 2, 2])) == "general"
    assert sns_kind(path(9)) is None


@pytest.mark.parametrize("build", [
    lambda: path(2.0), lambda: path(True), lambda: star(3.0),
    lambda: double_broom3(True, 1), lambda: double_broom4(1, 2.0),
    lambda: sns_tree(True, 2, [1, 1]), lambda: sns_tree(0, 2.0, [1, 1]), lambda: sns_tree(0, 2, [1, True]),
    lambda: sns_tree(0, 2, [1.0, 1]), lambda: t4_spider(1.0, 1), lambda: t_prime(2, True), lambda: t_dprime(3, 2, 2.0),
], ids=["path-float", "path-bool", "star-float", "broom3-bool", "broom4-float", "sns-p-bool", "sns-r-float",
        "sns-s-bool", "sns-s-float", "t4-float", "tprime-bool", "tdprime-float"])
def test_a_parameter_that_is_not_an_int_is_refused(build):
    # a bool is not a count and a float is not one either: BadParam, not a TypeError or a tree
    with pytest.raises(BadParam, match="out of range"):
        build()
