"""Tree construction, codecs, and structural queries."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from treelap import bounds
from treelap.errors import (
    BadLabel,
    BadParam,
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    EdgeAbsent,
)
from treelap.enumeration import free_trees
from treelap.families import double_broom3, path, sns_tree, star, t4_spider, t_dprime, t_prime
from treelap.spectral import average_degree
from treelap.tree import (
    DegreeSummary,
    Tree,
    _centroids,
    _orient,
    canonical_code,
    degree_summary,
    delete_edge,
    diameter,
    format_edge_text,
    from_pruefer,
    join_trees,
    parse_edge_text,
    parse_pruefer_text,
    to_pruefer,
)

from conftest import assert_component_codes, random_tree, relabel, rooted_side_code


class TestConstruction:
    def test_p2(self):
        t = Tree(2, [(0, 1)])
        assert t.n == 2 and t.edges == ((0, 1),)

    def test_p4(self):
        t = Tree(4, [(0, 1), (1, 2), (2, 3)])
        assert diameter(t) == 3

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected) as err:
            Tree(4, [(0, 1), (1, 2), (2, 0)])
        assert any(f"({u}, {v})" in str(err.value) for u, v in [(0, 1), (0, 2), (1, 2)])

    def test_self_loop(self):
        with pytest.raises(CycleDetected):
            Tree(2, [(1, 1)])

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            Tree(4, [(0, 1), (2, 3)])

    def test_bad_label(self):
        with pytest.raises(BadLabel):
            Tree(3, [(0, 1), (1, 3)])

    # a bool is an int to isinstance, but a stored True would not parse back
    @pytest.mark.parametrize("edge", [("0", 1), (0, "1"), (None, 1), (True, 0), (0, True)])
    def test_non_integer_label(self, edge):
        with pytest.raises(BadLabel):
            Tree(2, [edge])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            Tree(3, [(0, 1), (1, 0)])

    @pytest.mark.parametrize("edges, error, message", [
        ([], Disconnected, "vertex 1 is not connected to vertex 0"),
        ([(0, 1)], Disconnected, "vertex 2 is not connected to vertex 0"),
        ([(1, 2)], Disconnected, "vertex 1 is not connected to vertex 0"),
        ([(0, 1), (2, 1), (3, 4)], Disconnected, "vertex 3 is not connected to vertex 0"),
        ([(0, 1), (1, 2), (2, 0)], CycleDetected, "edge (1, 2) closes a cycle"),
        ([(0, 1), (1, 0)], DuplicateEdge, "edge (0, 1) given more than once"),
        ([(0, 1), (5, 5)], CycleDetected, "self-loop at vertex 5"),
        ([(0, 1), (1, 10**12)], BadLabel, "vertex 1000000000000 out of range"),
    ])
    def test_too_few_edges_for_a_huge_order_are_refused_without_allocating(self, edges, error, message):
        # nothing of size n is built when fewer than n - 1 edges are given,
        # so a huge n fails as bad input, not as MemoryError
        with pytest.raises(error, match=re.escape(message)):
            Tree(10**12, edges)

    @pytest.mark.parametrize("n, edges", [(True, []), (2.0, [(0, 1)])])
    def test_a_vertex_count_that_is_not_an_int_is_refused(self, n, edges):
        # as a non-int edge label is: True stood for 1, and 2.0 failed in range() with TypeError
        with pytest.raises(BadParam, match="vertex count must be an integer"):
            Tree(n, edges)

    def test_single_vertex(self):
        t = Tree(1, [])
        assert t.n == 1 and t.edges == ()

    def test_edge_lists_are_still_validated(self):
        # free_trees builds its trees without validation; Tree(n, edges) still refuses bad input
        for n in range(3, 9):
            for t in free_trees(n):
                edges = list(t.edges)
                a, b = edges[-1]
                apart = next((x, y) for x in range(n) for y in range(x + 1, n) if y not in t.adj[x])
                for size, bad, error in [
                    (0, edges, BadParam),
                    (n, edges[:-1], Disconnected),
                    (n, edges + [(b, a)], DuplicateEdge),
                    (n, edges[:-1] + [(a, n)], BadLabel),
                    (n, edges[:-1] + [(a, a)], CycleDetected),
                    (n, edges + [apart], CycleDetected),
                ]:
                    with pytest.raises(error):
                        Tree(size, bad)


class TestPruefer:
    def test_empty_seq(self):
        assert from_pruefer([]).edges == ((0, 1),)

    def test_star_decode(self):
        t = from_pruefer([1, 1])
        # degree rule: deg(v) = multiplicity + 1
        assert sorted(t.degrees) == [1, 1, 1, 3]
        assert t.degrees[1] == 3

    def test_path_decode(self):
        t = from_pruefer([1, 2])
        assert t.edges == ((0, 1), (1, 2), (2, 3))

    def test_round_trip_exhaustive(self):
        # all sequences of length <= 6 (n <= 8)
        for n in range(3, 9):
            for seq in itertools.product(range(n), repeat=n - 2):
                assert tuple(to_pruefer(from_pruefer(list(seq)))) == seq

    @pytest.mark.parametrize("seq", [[0, 4], [True], [0, False]])
    def test_bad_label(self, seq):
        with pytest.raises(BadLabel):
            from_pruefer(seq)


class TestDiameter:
    def test_examples(self):
        assert diameter(path(5)) == 4
        assert diameter(star(6)) == 2
        assert diameter(sns_tree(0, 2, [1, 1])) == 4
        assert diameter(path(7)) == 6
        assert diameter(path(1)) == 0


class TestCanonicalCode:
    def test_path_relabel(self):
        assert canonical_code(path(4)) == canonical_code(relabel(path(4), [3, 2, 1, 0]))

    def test_star_vs_path(self):
        assert canonical_code(star(4)) != canonical_code(path(4))

    def test_all_labelings_n4(self):
        codes = {canonical_code(t) for t in (from_pruefer(list(s))
                                             for s in itertools.product(range(4), repeat=2))}
        assert len(codes) == 2

    def test_permutation_invariance(self):
        from treelap.enumeration import free_trees

        rng = random.Random(99)
        for n in range(1, 10):
            for tree in free_trees(n):
                base = canonical_code(tree)
                for _ in range(100):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    assert canonical_code(relabel(tree, perm)) == base


class TestCentroids:
    def test_every_orientation_finds_the_vertices_of_least_largest_component(self):
        # from every root and on both sides of every edge, against the definition
        rng = random.Random(7)
        for n in range(1, 10):
            for t in free_trees(n):
                perm = list(range(n))
                rng.shuffle(perm)
                for tree in (t, relabel(t, perm)):
                    for root in range(n):
                        for cut in (-1, *tree.adj[root]):
                            side = _orient(tree.adj, root, cut)
                            part = set(side[0])
                            worst = {v: max([len(c) for c in _pieces(tree, part - {v})], default=0) for v in part}
                            best = min(worst.values())
                            assert _centroids(side) == tuple(v for v in sorted(part) if worst[v] == best)


def _pieces(tree: Tree, keep: set[int]) -> list[set[int]]:
    """The connected pieces of the subgraph of tree induced on keep."""
    pieces, left = [], set(keep)
    while left:
        stack = [left.pop()]
        piece = set(stack)
        while stack:
            for w in tree.adj[stack.pop()]:
                if w in left:
                    left.discard(w)
                    piece.add(w)
                    stack.append(w)
        pieces.append(piece)
    return pieces


class TestRootedClasses:
    def test_small_examples(self):
        assert path(1).classes(0) == (((0, ()),), (1,))
        assert star(5).classes(0) == (((1, ()), (4, ((0, 4),))), (4, 1))
        assert star(5).classes(1) == (((1, ()), (4, ((0, 3),)), (1, ((1, 1),))), (3, 1, 1))
        assert path(5).classes(2) == (((1, ()), (2, ((0, 1),)), (2, ((1, 2),))), (2, 2, 1))

    def test_a_class_is_a_degree_and_a_rooted_subtree(self, rng):
        for _ in range(60):
            t = random_tree(rng.randrange(1, 40), rng)
            root = rng.randrange(t.n)
            kinds, counts = t.classes(root)
            _, parent, kids = t.rooted(root)
            shapes = {}
            for v in range(t.n):
                shape = (t.degrees[v], rooted_side_code(t, v, parent[v]))
                shapes[shape] = shapes.get(shape, 0) + 1
            assert sorted(counts) == sorted(shapes.values()) and sum(counts) == t.n
            assert counts[-1] == 1 and kinds[-1][0] == t.degrees[root]
            for c, (d, children) in enumerate(kinds):
                assert all(child < c for child, _ in children)  # children come first
                assert [child for child, _ in children] == sorted({child for child, _ in children})
                assert d == sum(k for _, k in children) + (c != len(kinds) - 1)

    @pytest.mark.parametrize("tree, classes", [
        (t4_spider(2, 3), 3), (t4_spider(1000, 999), 3),
        (t_prime(5, 3), 4), (t_prime(4, 30), 4), (t_prime(1000, 50), 4),
        (t_dprime(4, 2, 3), 5), (t_dprime(4, 3, 3), 4),
        (t_dprime(1000, 20, 30), 5), (t_dprime(1000, 25, 25), 4),
    ])
    def test_diameter_4_families_have_a_few_classes_at_any_size(self, tree, classes):
        # leaves, the vertices holding one leaf, one class per other leaf
        # count and the root, wherever the centroid falls
        assert len(tree.classes(tree.centroids()[0]).kinds) == classes


class TestDegreeSummary:
    def test_star5(self):
        ds = degree_summary(star(5))
        assert ds.degrees == (4, 1, 1, 1, 1)
        assert (ds.pendant_count, ds.internal_count, ds.leaf_neighbor_count) == (4, 1, 1)

    def test_p6(self):
        ds = degree_summary(path(6))
        assert ds.pendant_count == 2 and ds.internal_count == 4
        assert average_degree(path(6)) == Fraction(5, 3)

    def test_double_broom(self):
        ds = degree_summary(double_broom3(2, 3))
        assert ds.degrees == (4, 3, 1, 1, 1, 1, 1)
        assert ds.internal_count == 2

    def test_invariants_random(self, rng):
        for _ in range(50):
            t = random_tree(rng.randrange(2, 30), rng)
            ds = degree_summary(t)
            assert sum(ds.degrees) == 2 * (t.n - 1)
            assert ds.pendant_count + ds.internal_count == t.n
            assert ds.pendant_count >= 2

    def test_cached_per_tree(self):
        from treelap.enumeration import free_trees

        for n in range(1, 10):
            for t in free_trees(n):
                ds = degree_summary(t)
                assert degree_summary(t) is ds
                leaves = [v for v in range(n) if t.degrees[v] == 1]
                assert ds == DegreeSummary(
                    degrees=tuple(sorted(t.degrees, reverse=True)),
                    pendant_count=len(leaves),
                    internal_count=n - len(leaves),
                    leaf_neighbor_count=len({t.adj[v][0] for v in leaves}),
                )


class TestDeleteEdge:
    def test_p6_middle(self):
        first, second, pendant = delete_edge(path(6), (2, 3))
        assert first.n == 3 and second.n == 3 and not pendant
        assert canonical_code(first) == canonical_code(path(3))

    def test_star_pendant(self):
        first, second, pendant = delete_edge(star(5), (0, 2))
        assert pendant
        assert first.n == 4 and second.n == 1
        assert canonical_code(first) == canonical_code(star(4))

    def test_sns_split(self):
        t = sns_tree(0, 3, [1, 1, 2])
        split = delete_edge(t, (0, 3))
        assert split.first.n == 5 and split.second.n == 3
        assert canonical_code(split.second) == canonical_code(star(3))

    def test_absent(self):
        with pytest.raises(EdgeAbsent):
            delete_edge(path(4), (0, 3))

    def test_components_rejoin_to_the_tree(self, rng):
        for _ in range(50):
            t = random_tree(rng.randrange(3, 25), rng)
            e = t.edges[rng.randrange(len(t.edges))]
            split = delete_edge(t, e)
            assert split.first.n + split.second.n == t.n
            assert split.first.n >= split.second.n
            assert split.pendant == (split.second.n == 1)
            # one edge between the two components gives the tree back
            code = canonical_code(t)
            assert any(
                canonical_code(join_trees(split.first, split.second, a, b)) == code
                for a in range(split.first.n)
                for b in range(split.second.n)
            )


class TestComponentCode:
    """The components of T - e a run shares, found by rooted side code."""

    def test_equals_the_code_of_the_built_component_on_every_free_tree(self):
        with bounds._shared_components():
            for n in range(2, 12):
                for t in free_trees(n):
                    for a, b in t.edges:
                        assert_component_codes(t, a, b)

    def test_bicentroidal_sides_and_centroids_away_from_the_cut(self):
        with bounds._shared_components():
            for t in (sns_tree(2, 3, [1, 2, 3]), double_broom3(3, 4), path(9)):
                for a, b in t.edges:
                    assert_component_codes(t, a, b)


class TestJoinAndText:
    def test_join(self):
        t = join_trees(path(3), path(2), 2, 0)
        assert t.n == 5
        assert canonical_code(t) == canonical_code(path(5))

    def test_edge_text_round_trip(self, rng):
        for _ in range(20):
            t = random_tree(rng.randrange(1, 15), rng)
            assert parse_edge_text(format_edge_text(t)).edges == t.edges

    def test_pruefer_text(self):
        assert parse_pruefer_text("1,1").degrees[1] == 3
        assert parse_pruefer_text("").n == 2

    def test_pruefer_text_refuses_empty_labels(self):
        assert parse_pruefer_text(" \t").n == 2
        for text in ("1,,2", "1,2,", ",1", ",", " , "):
            with pytest.raises(BadParam):
                parse_pruefer_text(text)

    def test_parse_errors(self):
        with pytest.raises(BadParam):
            parse_edge_text("")
        with pytest.raises(BadParam):
            parse_edge_text("x\n0 1")
