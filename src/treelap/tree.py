"""Labeled trees: construction, codecs, and structural queries.

A Tree is an immutable connected acyclic graph on labels 0..n-1.  All
operations downstream (spectra, characteristic polynomials, bounds) consume
this one representation.  Tree(n, edges) always validates: exactly n-1
edges, no duplicates, no cycles, connected.  The enumerator, whose level
sequences are trees by construction, builds through the private
Tree._trusted and files what the layout fixes in the tree's cache.

Isomorphism testing goes through canonical_code(), an AHU-style level
encoding rooted at the centroid(s); equal codes iff isomorphic trees.  The
subtree codes are taken once, in the orientation at vertex 0, and each
centroid's code is re-rooted from them along its path to vertex 0.  One
pass up and one down (_codes_around) gives the rooted code of each side of
T - e (side_codes) and of T rooted at each vertex.
Tree.classes(root) is the quotient by rooted isomorphism that the
congruence pass of `spectral` runs on: one post-order pass numbers each
class (a degree plus the multiset of its children's classes) and counts
its vertices.  Tree.count_root() is the one rule for the root of every
count: vertex 0 for a tree built from a level sequence, the layout's root,
and the first centroid for any other tree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, NamedTuple, Sequence

from .errors import BadLabel, BadParam, CycleDetected, Disconnected, DuplicateEdge, EdgeAbsent


class RootedClasses(NamedTuple):
    """The quotient of a rooted tree by rooted isomorphism.

    kinds[c] = (degree, ((child class, k), ...)) with child classes ascending
    and k the number of children of that class; counts[c] is the number of
    vertices in class c.
    """

    kinds: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    counts: tuple[int, ...]


class Tree:
    """Immutable labeled tree on vertices 0..n-1.

    Attributes
    ----------
    n        : vertex count (>= 1)
    edges    : tuple of canonical (min, max) vertex pairs, sorted
    adj      : adjacency lists, adj[v] = ascending tuple of neighbors
    degrees  : degrees[v] = len(adj[v])
    """

    __slots__ = ("n", "edges", "adj", "degrees", "_cache")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise BadParam(f"vertex count must be an integer >= 1, got {n!r}")
        canon = []
        for u, v in edges:
            if not isinstance(u, int) or isinstance(u, bool) or not (0 <= u < n):
                raise BadLabel(f"vertex {u} out of range 0..{n - 1} in edge ({u}, {v})")
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
                raise BadLabel(f"vertex {v} out of range 0..{n - 1} in edge ({u}, {v})")
            if u == v:
                raise CycleDetected(f"self-loop at vertex {u}")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for i in range(1, len(canon)):
            if canon[i] == canon[i - 1]:
                raise DuplicateEdge(f"edge {canon[i]} given more than once")

        # union-find: the first edge closing a cycle is reported.  Only
        # vertex 0 and the edges' ends are held, as n may be far larger than
        # the input when there are fewer than n-1 edges
        uf = {0: 0} | {v: v for e in canon for v in e}

        def find(a):
            while uf[a] != a:
                uf[a] = uf[uf[a]]
                a = uf[a]
            return a

        for u, v in canon:
            ru, rv = find(u), find(v)
            if ru == rv:
                raise CycleDetected(f"edge ({u}, {v}) closes a cycle")
            uf[ru] = rv
        if len(canon) != n - 1:
            # acyclic with < n-1 edges: some vertex is cut off from vertex 0
            r0 = find(0)
            stray = next(v for v in range(n) if v not in uf or find(v) != r0)
            raise Disconnected(f"vertex {stray} is not connected to vertex 0")

        self.n = n
        self.edges = tuple(canon)
        adj = [[] for _ in range(n)]
        for u, v in canon:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(a) for a in adj)
        self.degrees = tuple(len(a) for a in adj)
        self._cache = {}

    @classmethod
    def _trusted(cls, n: int, edges: tuple, adj: tuple, degrees: tuple, cache: dict) -> Tree:
        """A Tree from parts that form one by construction (edges canonical and
        sorted, adjacency ascending), with `cache` pre-filled; nothing is
        validated.  For builders inside the package only."""
        tree = object.__new__(cls)
        tree.n, tree.edges, tree.adj, tree.degrees, tree._cache = n, edges, adj, degrees, cache
        return tree

    # ---- basic queries -------------------------------------------------

    def rooted(self, root: int = 0) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(post-order, parent, children) for the orientation rooted at `root`.

        The order lists every child before its parent, which is what the
        bottom-up spectral algorithms need.  Cached per root.
        """
        key = ("rooted", root)
        hit = self._cache.get(key)
        if hit is None:
            order, parent, kids = _orient(self.adj, root)
            hit = self._cache[key] = (tuple(order), tuple(parent), tuple(tuple(k) for k in kids))
        return hit

    def classes(self, root: int) -> RootedClasses:
        """The rooted isomorphism classes of the orientation rooted at `root`.

        A vertex's class is its degree plus the multiset of its children's
        classes, numbered in order of first appearance in the post-order, so
        every child class comes before its parents; each vertex counts once
        in its class as the pass meets it.  Cached per root; the counts take
        it at count_root().
        """
        key = ("classes", root)
        hit = self._cache.get(key)
        if hit is None:
            order, _, kids = self.rooted(root)
            ids: dict[tuple[int, ...], int] = {}
            kinds, counts = [], []
            of = [0] * self.n
            for v in order[:-1]:
                ks = kids[v]
                sig = tuple(sorted([of[c] for c in ks])) if ks else ()
                c = ids.get(sig)
                if c is None:
                    c = ids[sig] = len(kinds)
                    kinds.append((len(ks) + 1, _runs(sig)))
                    counts.append(1)
                else:
                    counts[c] += 1
                of[v] = c
            # the root is the one vertex whose degree is its number of children
            ks = kids[order[-1]]
            kinds.append((len(ks), _runs(sorted([of[c] for c in ks]))))
            counts.append(1)
            hit = self._cache[key] = RootedClasses(tuple(kinds), tuple(counts))
        return hit

    def count_root(self) -> int:
        """The root every count on this tree is taken from (`spectral._count`
        and the block walk): vertex 0 for a tree built from a level sequence,
        the layout's root, and the first centroid for any other tree.  Counts
        do not depend on the root (Sylvester's law of inertia)."""
        root = self._cache.get("root")
        if root is None:
            root = self._cache["root"] = self.centroids()[0]
        return root

    def centroids(self) -> tuple[int, ...]:
        """The one or two vertices minimizing the largest remaining component."""
        hit = self._cache.get("centroids")
        if hit is None:
            hit = self._cache["centroids"] = _centroids(self.rooted(0))
        return hit

    def __repr__(self):
        return f"Tree(n={self.n}, edges={list(self.edges)})"

    def __eq__(self, other):
        return isinstance(other, Tree) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))


def _runs(ids: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """((id, k), ...): the ascending `ids` with each run of k equal ids as one pair."""
    if ids and ids[0] == ids[-1]:  # one run, as under most vertices
        return ((ids[0], len(ids)),)
    return tuple((i, len(list(run))) for i, run in groupby(ids))


def _orient(adj: Sequence[Sequence[int]], root: int, cut: int = -1) -> tuple[list, list, list]:
    """(post-order, parent, children) of the component of `root` once the edge
    to its neighbour `cut` is left out (none for cut = -1), indexed by label."""
    n = len(adj)
    parent = [-1] * n
    kids = [[] for _ in range(n)]  # ascending, as every adjacency list of a Tree is
    seen = [False] * (n + 1)  # seen[-1] is a spare slot for cut = -1
    seen[root] = seen[cut] = True
    stack = [root]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                kids[v].append(w)
                stack.append(w)
    order.reverse()
    return order, parent, kids


def _centroids(orientation) -> tuple[int, ...]:
    """The one or two centroids, ascending, of an oriented component (as from
    _orient): from the root, step to the child holding more than half the
    component while there is one; a child holding exactly half is the second."""
    order, parent, kids = orientation
    m = len(order)
    size = [1] * len(parent)
    for v in order[:-1]:  # children before their parent
        size[parent[v]] += size[v]
    v = order[-1]
    while kids[v]:
        big = max(kids[v], key=size.__getitem__)
        if 2 * size[big] < m:
            break
        if 2 * size[big] == m:
            return (v, big) if v < big else (big, v)
        v = big
    return (v,)


# ---- constructors -------------------------------------------------------


def from_pruefer(seq: Sequence[int]) -> Tree:
    """Decode a Pruefer sequence into the labeled tree on len(seq)+2 vertices."""
    n = len(seq) + 2
    if n == 2:
        return Tree(2, [(0, 1)])
    deg = [1] * n
    for v in seq:
        if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
            raise BadLabel(f"label {v} out of range 0..{n - 1} in Pruefer sequence")
        deg[v] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Tree(n, edges)


def to_pruefer(tree: Tree) -> list[int]:
    """Encode a labeled tree as its Pruefer sequence (length n-2)."""
    n = tree.n
    if n < 2:
        raise BadParam("Pruefer encoding needs n >= 2")
    deg = list(tree.degrees)
    neighbors = [set(a) for a in tree.adj]
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        (p,) = neighbors[leaf]
        seq.append(p)
        neighbors[p].discard(leaf)
        deg[p] -= 1
        deg[leaf] -= 1
        if deg[p] == 1:
            heapq.heappush(leaves, p)
    return seq


# ---- structural queries ---------------------------------------------------


def _bfs_far(tree: Tree, src: int) -> tuple[int, int, list[int]]:
    """(farthest vertex, distance, dist array) from src."""
    dist = [-1] * tree.n
    dist[src] = 0
    frontier = [src]
    far, fdist = src, 0
    while frontier:
        nxt = []
        for v in frontier:
            for w in tree.adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    if dist[w] > fdist:
                        far, fdist = w, dist[w]
                    nxt.append(w)
        frontier = nxt
    return far, fdist, dist


def diameter(tree: Tree) -> int:
    """Exact diameter by double breadth-first traversal."""
    hit = tree._cache.get("diameter")
    if hit is not None:
        return hit
    u, _, _ = _bfs_far(tree, 0)
    _, d, _ = _bfs_far(tree, u)
    tree._cache["diameter"] = d
    return d


def diametral_path(tree: Tree) -> list[int]:
    """Vertices of one longest path, in order."""
    u, _, _ = _bfs_far(tree, 0)
    v, _, dist = _bfs_far(tree, u)
    # walk back from v to u along decreasing distance
    path = [v]
    cur = v
    while dist[cur] > 0:
        cur = next(w for w in tree.adj[cur] if dist[w] == dist[cur] - 1)
        path.append(cur)
    path.reverse()
    return path


def canonical_code(tree: Tree) -> bytes:
    """Canonical byte string; equal codes iff isomorphic trees.

    AHU level encoding rooted at the centroid; bicentroidal trees are
    canonicalized from both rootings and the lexicographic minimum taken.
    The subtree codes are taken once, in the orientation at vertex 0, and
    re-rooted to each centroid (_rerooted).
    """
    hit = tree._cache.get("code")
    if hit is None:
        orientation = tree.rooted(0)
        below = _subtree_codes(orientation)
        hit = tree._cache["code"] = min(_rerooted(c, orientation, below) for c in tree.centroids())
    return hit


def _rerooted(c: int, orientation, below: list[bytes]) -> bytes:
    """The AHU code of the tree rooted at c, from the subtree codes `below` of
    an orientation: only the sides along c's path up to the orientation's
    root change."""
    _, parent, kids = orientation
    path = [c]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    up: list[bytes] = []  # the side of v away from its child on the path, rooted at v
    for v, child in zip(path[:0:-1], path[-2::-1]):  # from the top down
        up = [b"(" + b"".join(sorted([below[x] for x in kids[v] if x != child] + up)) + b")"]
    return b"(" + b"".join(sorted([below[x] for x in kids[c]] + up)) + b")"


def side_codes(tree: Tree) -> dict[tuple[int, int], bytes]:
    """(a, b) -> AHU code of the component of a in T - ab, rooted at a, for
    both directions of every edge, so rooted isomorphism classes of edge
    sides cost no walk per edge.  Cached."""
    hit = tree._cache.get("side_codes")
    if hit is None:
        hit = tree._cache["side_codes"] = _codes_around(tree)[0]
    return hit


def _codes_around(tree: Tree) -> tuple[dict[tuple[int, int], bytes], list[bytes]]:
    """(side codes as side_codes gives them, v -> AHU code of T rooted at v):
    one pass up the tree and one down it.  T rooted at v is `(` + the sorted
    side codes toward v + `)`.  Nothing is cached on the tree but its
    orientation at vertex 0."""
    order, parent, kids = orientation = tree.rooted(0)
    below = _subtree_codes(orientation)  # v's side of the edge to its parent
    above: list[bytes] = [b""] * tree.n  # the parent's side of that edge
    sides, rooted = {}, [b""] * tree.n
    for v in reversed(order):  # parents first
        around = sorted([below[c] for c in kids[v]] + ([above[v]] if parent[v] >= 0 else []))
        rooted[v] = b"(" + b"".join(around) + b")"
        for c in kids[v]:
            i = around.index(below[c])
            above[c] = b"(" + b"".join(around[:i]) + b"".join(around[i + 1:]) + b")"
            sides[c, v] = below[c]
            sides[v, c] = above[c]
    return sides, rooted


def _subtree_codes(orientation) -> list[bytes]:
    """v -> AHU code of v's subtree in an oriented component (as from _orient
    or Tree.rooted), indexed by label; b"" off the component."""
    order, _, kids = orientation
    code = [b""] * len(kids)
    for v in order:  # children first
        code[v] = b"(" + b"".join(sorted([code[c] for c in kids[v]])) + b")"
    return code


@dataclass(frozen=True)
class DegreeSummary:
    """Degree-derived counts: d_1 >= ... >= d_n, pendant/internal split,
    and leaf-neighbor count."""

    degrees: tuple[int, ...]
    pendant_count: int
    internal_count: int
    leaf_neighbor_count: int


def degree_summary(tree: Tree) -> DegreeSummary:
    """The tree's DegreeSummary, computed once and cached on the tree."""
    hit = tree._cache.get("degree_summary")
    if hit is None:
        degrees = tree.degrees
        leaves = [v for v in range(tree.n) if degrees[v] == 1]
        hit = tree._cache["degree_summary"] = DegreeSummary(
            degrees=tuple(sorted(degrees, reverse=True)),
            pendant_count=len(leaves),
            internal_count=tree.n - len(leaves),
            leaf_neighbor_count=len({tree.adj[v][0] for v in leaves}),
        )
    return hit


class EdgeSplit(NamedTuple):
    """Result of deleting one edge: components ordered larger-first."""

    first: Tree
    second: Tree
    pendant: bool


def delete_edge(tree: Tree, edge: tuple[int, int]) -> EdgeSplit:
    a, b = sorted(edge)
    if (a, b) not in tree.edges:
        raise EdgeAbsent(f"edge {(a, b)} is not in the tree")
    side = set(_orient(tree.adj, a, b)[0])  # everything reachable from a without passing through b
    parts = []
    for old in ([x for x in range(tree.n) if x in side], [x for x in range(tree.n) if x not in side]):
        new_of = {o: i for i, o in enumerate(old)}
        parts.append(Tree(len(old), [(new_of[x], new_of[y]) for x, y in tree.edges if x in new_of and y in new_of]))
    t_a, t_b = parts
    pendant = min(t_a.n, t_b.n) == 1
    return EdgeSplit(t_a, t_b, pendant) if t_a.n >= t_b.n else EdgeSplit(t_b, t_a, pendant)


def join_trees(t1: Tree, t2: Tree, u1: int = 0, u2: int = 0) -> Tree:
    """One tree from two, adding the edge (u1 in t1) -- (u2 in t2).

    t2's labels are shifted by t1.n.
    """
    if not (0 <= u1 < t1.n) or not (0 <= u2 < t2.n):
        raise BadLabel(f"join vertices ({u1}, {u2}) out of range")
    shift = t1.n
    edges = list(t1.edges) + [(a + shift, b + shift) for a, b in t2.edges]
    edges.append((u1, u2 + shift))
    return Tree(t1.n + t2.n, edges)


# ---- text codecs (CLI) -----------------------------------------------------


def parse_edge_text(text: str) -> Tree:
    """Parse the plain edge-list format: first line n, then n-1 lines "u v"."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise BadParam("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise BadParam(f"first line must be the vertex count, got {lines[0]!r}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise BadParam(f"edge line must be 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise BadParam(f"edge line must hold two integer labels, got {ln!r}") from None
    return Tree(n, edges)


def format_edge_text(tree: Tree) -> str:
    lines = [str(tree.n)]
    lines.extend(f"{u} {v}" for u, v in tree.edges)
    return "\n".join(lines) + "\n"


def parse_pruefer_text(text: str) -> Tree:
    """Comma-separated Pruefer labels; a blank string decodes to P2, an empty label is refused."""
    try:
        seq = [int(tok) for tok in text.split(",")] if text.strip() else []
    except ValueError:
        raise BadParam(f"Pruefer labels must be comma-separated integers, got {text!r}") from None
    return from_pruefer(seq)


def format_pruefer_text(tree: Tree) -> str:
    return ",".join(str(v) for v in to_pruefer(tree)) + "\n"
