"""Free-tree enumeration against the Prüfer and Otter oracles."""

import pytest

from treelap.enumeration import MAX_ORDER, EnumRange, count_free_trees, free_trees, free_trees_sharded
from treelap.errors import BadParam
from treelap.tree import canonical_code, degree_summary, diameter

from conftest import otter_free_tree_counts, pruefer_census


def test_counts_match_pruefer_oracle():
    # exhaustive labeled census is feasible up to n = 8 (8^6 sequences)
    for n in range(1, 9):
        oracle = pruefer_census(n)
        got = {canonical_code(t) for t in free_trees(n)}
        assert got == set(oracle.keys())
        assert count_free_trees(n) == len(oracle)


def test_counts_match_otter_recurrence():
    otter = otter_free_tree_counts(14)
    # the two independent oracles agree where both run
    assert otter[1:9] == [len(pruefer_census(n)) for n in range(1, 9)]
    for n in range(9, 15):
        assert count_free_trees(n) == otter[n]


def test_small_count_sequence():
    assert [count_free_trees(n) for n in range(1, 8)] == [1, 1, 1, 2, 3, 6, 11]
    assert count_free_trees(10) == 106


def test_n4_exactly_path_and_star():
    codes = {canonical_code(t) for t in free_trees(4)}
    from treelap.families import path, star

    assert codes == {canonical_code(path(4)), canonical_code(star(4))}


def test_all_outputs_valid_and_distinct():
    for n in (6, 9):
        seen = set()
        for t in free_trees(n):
            assert t.n == n and len(t.edges) == n - 1
            code = canonical_code(t)
            assert code not in seen
            seen.add(code)
            if n >= 3:
                assert diameter(t) >= 2
                assert degree_summary(t).pendant_count >= 2


def test_sharding_partitions_stream():
    full = [canonical_code(t) for t in free_trees(8)]
    assert len(full) == 23
    shards = [
        [canonical_code(t) for t in free_trees_sharded(EnumRange(8, i, 4))]
        for i in range(4)
    ]
    assert sum(len(s) for s in shards) == 23
    assert [c for s in shards for c in s] == full
    flat = set()
    for s in shards:
        assert flat.isdisjoint(s)
        flat.update(s)


def test_sharding_degenerate():
    a = list(free_trees_sharded(EnumRange(2, 0, 2)))
    b = list(free_trees_sharded(EnumRange(2, 1, 2)))
    assert len(a) + len(b) == 1


def test_param_validation():
    with pytest.raises(BadParam):
        EnumRange(0)
    with pytest.raises(BadParam):
        EnumRange(5, 3, 2)
    with pytest.raises(BadParam):
        count_free_trees(21)
    with pytest.raises(BadParam):
        next(free_trees(0))


@pytest.mark.parametrize("n", [0, MAX_ORDER + 1])
def test_free_trees_checks_the_order_at_the_call(n):
    with pytest.raises(BadParam):
        free_trees(n)  # not only at the first next()
