"""Free-tree enumeration against the Prüfer and Otter oracles."""

import pytest

from treelap import enumeration
from treelap.enumeration import MAX_ORDER, EnumRange, count_free_trees, free_trees, free_trees_sharded
from treelap.errors import BadParam
from treelap.tree import Tree, _orient, _subtree_codes, canonical_code, degree_summary, diameter

from conftest import laplacian_matrix, otter_free_tree_counts, pruefer_census


def _ahu(orientation) -> bytes:
    """AHU code of an oriented component (as from _orient), at its root."""
    return _subtree_codes(orientation)[orientation[0][-1]]


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


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_shards_concatenate_to_the_stream(k):
    for n in range(1, 12):
        whole = [t.edges for t in free_trees(n)]
        assert [t.edges for i in range(k) for t in free_trees_sharded(EnumRange(n, i, k))] == whole


def test_a_one_shard_stream_counts_nothing(monkeypatch):
    def no_count(n):
        raise AssertionError("a one-shard stream counted its order")

    monkeypatch.setattr(enumeration, "count_free_trees", no_count)
    assert len(list(free_trees_sharded(EnumRange(9)))) == 47


def test_no_skipped_tree_is_built(monkeypatch):
    whole = [t.edges for t in free_trees(10)]
    built = []
    real = enumeration._layout_to_tree
    monkeypatch.setattr(enumeration, "_layout_to_tree", lambda seq: built.append(seq) or real(seq))
    shard = [t.edges for t in free_trees_sharded(EnumRange(10, 1, 3))]
    assert shard == whole[35:70] and len(built) == 35  # trees 35..69 of 106


def test_a_layout_tree_is_the_tree_of_its_edge_list():
    # free_trees builds each tree in one pass over its level sequence, without
    # Tree(n, edges); the two must agree on everything the library reads
    for n in range(1, 13):
        for t in free_trees(n):
            f = Tree(t.n, list(t.edges))
            assert t == f and (t.n, t.edges, t.adj, t.degrees) == (f.n, f.edges, f.adj, f.degrees)
            ahu = min(_ahu(_orient(f.adj, c)) for c in f.centroids())  # at each centroid, as a walk
            assert canonical_code(t) == canonical_code(f) == ahu
            assert (diameter(t), degree_summary(t)) == (diameter(f), degree_summary(f))
            assert laplacian_matrix(t).tobytes() == laplacian_matrix(f).tobytes()


def test_sharding_degenerate():
    a = list(free_trees_sharded(EnumRange(2, 0, 2)))
    b = list(free_trees_sharded(EnumRange(2, 1, 2)))
    assert len(a) + len(b) == 1


def test_param_validation():
    with pytest.raises(BadParam):
        EnumRange(0)
    for index in (3, -1, True):  # a bool is not a shard index
        with pytest.raises(BadParam):
            EnumRange(5, index, 2)
    with pytest.raises(BadParam):
        count_free_trees(21)
    with pytest.raises(BadParam):
        next(free_trees(0))


@pytest.mark.parametrize("n", [0, MAX_ORDER + 1])
def test_free_trees_checks_the_order_at_the_call(n):
    with pytest.raises(BadParam):
        free_trees(n)  # not only at the first next()
