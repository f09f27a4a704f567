"""Exhaustive duplicate-free enumeration of unlabeled free trees.

Free trees are generated through canonical level sequences (depth of each
vertex in preorder): the Beyer-Hedetniemi successor walks canonical rooted
trees in lexicographically decreasing order, and the Wright-Richmond-
Odlyzko-McKay filter jumps over rooted representatives whose root is not
the canonical center, so each isomorphism class is produced exactly once.

Each tree is built straight from its level sequence, in one pass
(_layout_to_tree): the parent array gives the sorted edges and ascending
adjacency without the validation Tree(n, edges) gives user input, and the
tree's cache starts with what the layout already fixes: the orientation at
the layout root (reverse preorder is a post-order), the diameter, vertex 0
as the root every count on the tree is taken from (Tree.count_root), and
the degree summary, filed through tree.degree_summary.  The layout root
is a center, not a centroid; counts do not depend on the root, and the
canonical code stays centroid-rooted.  Sharding slices the level
sequences, so a skipped tree is never built.

Prüfer-based enumeration is exponential (n^(n-2) labeled trees) and lives in
the test suite as a small-n oracle; this module is the production path up
to MAX_ORDER.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import BadParam, check_index
from .tree import Tree, degree_summary


@dataclass(frozen=True)
class EnumRange:
    """Order n plus an optional (shard_index, shard_count) work split."""

    n: int
    shard_index: int = 0
    shard_count: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise BadParam(f"order must be >= 1, got {self.n}")
        if self.shard_count < 1:
            raise BadParam(f"shard count must be >= 1, got {self.shard_count}")
        check_index("shard index", self.shard_index, 0, self.shard_count - 1)


MAX_ORDER = 20  # enumeration beyond desk scale is out of scope


def _next_rooted(seq: list[int], p: int | None = None) -> list[int] | None:
    """Beyer-Hedetniemi successor of a canonical rooted level sequence."""
    if p is None:
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    out = list(seq)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split(seq: list[int]) -> tuple[list[int], list[int]]:
    """(first root subtree, remainder) of a level sequence rooted at 0."""
    m = None
    found = False
    for i, lev in enumerate(seq):
        if lev == 1:
            if found:
                m = i
                break
            found = True
    if m is None:
        m = len(seq)
    left = [seq[i] - 1 for i in range(1, m)]
    rest = [0] + seq[m:]
    return left, rest


def _next_free(seq: list[int]) -> list[int] | None:
    """Advance to the next level sequence that canonically encodes a free tree.

    A rooted representative is kept when the first root subtree is not
    higher than the rest, and on equal height not bigger, and on equal size
    not lexicographically later: this pins the root to the center (or the
    canonical end of a bicentral edge) exactly once per isomorphism class.
    """
    left, rest = _split(seq)
    lh = max(left)
    rh = max(rest)
    valid = rh >= lh
    if valid and rh == lh:
        if len(left) > len(rest):
            valid = False
        elif len(left) == len(rest) and left > rest:
            valid = False
    if valid:
        return seq
    p = len(left)
    nxt = _next_rooted(seq, p)
    if seq[p] > 2:
        nl, _ = _split(nxt)
        suffix = list(range(1, max(nl) + 2))
        nxt[len(nxt) - len(suffix):] = suffix
    return nxt


def _free_layouts(n: int) -> Iterator[list[int]]:
    """The canonical level sequences of the free trees on n vertices; n is
    checked at the call, not at the first next()."""
    if n < 1:
        raise BadParam(f"order must be >= 1, got {n}")
    if n > MAX_ORDER:
        raise BadParam(f"enumeration is supported up to n = {MAX_ORDER}, got {n}")
    return _layouts(n)


def _layouts(n: int) -> Iterator[list[int]]:
    if n == 1:
        yield [0]
        return
    if n == 2:
        yield [0, 1]
        return
    # start from the path rooted at its center, the lexicographic maximum
    seq: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while seq is not None:
        seq = _next_free(seq)
        if seq is None:
            return
        yield seq
        seq = _next_rooted(seq)


def _layout_to_tree(seq: list[int]) -> Tree:
    """The Tree of a canonical level sequence, built in one pass without the
    validation of Tree(n, edges): vertex i is the i-th in preorder and its
    parent the latest vertex one level up, so each adjacency comes out
    ascending.  Filed in its cache: the count root 0 (Tree.count_root) and
    its orientation, with reverse preorder as the post-order; the diameter,
    the sum of the two highest branches at the root, as the root is a
    center: the first branch is the highest (the branches are in canonical
    order), so the second highest is the highest after it; and, through
    tree.degree_summary, the degree summary."""
    n = len(seq)
    parent = [-1] * n
    kids: list[list[int]] = [[] for _ in range(n)]
    last = [0] * n  # last[l]: the latest vertex at level l
    for i in range(1, n):
        lev = seq[i]
        p = parent[i] = last[lev - 1]
        last[lev] = i
        kids[p].append(i)
    children = tuple(map(tuple, kids))
    adj = (children[0], *[(p, *k) for p, k in zip(parent[1:], children[1:])])
    second = seq.index(1, 2) if seq.count(1) > 1 else n
    cache = {
        "root": 0,
        ("rooted", 0): (tuple(range(n - 1, -1, -1)), tuple(parent), children),
        "diameter": max(seq) + max(seq[second:], default=0),
    }
    tree = Tree._trusted(n, tuple(sorted(zip(parent[1:], range(1, n)))), adj, tuple(map(len, adj)), cache)
    degree_summary(tree)  # filed now, so no check's timing pays for it
    return tree


def free_trees(n: int) -> Iterator[Tree]:
    """Stream one representative per isomorphism class of trees on n vertices;
    an order outside 1..MAX_ORDER raises BadParam at the call."""
    return map(_layout_to_tree, _free_layouts(n))


def count_free_trees(n: int) -> int:
    """Number of isomorphism classes, by running the generator without
    materializing trees (layout iteration only)."""
    return sum(1 for _ in _free_layouts(n))


@functools.cache
def _order_count(n: int) -> int:
    """count_free_trees(n), counted once per process: sharding and the CLI's
    large-run estimate both read it."""
    return count_free_trees(n)


def free_trees_sharded(rng: EnumRange) -> Iterator[Tree]:
    """The shard_index-th of shard_count contiguous index ranges of free_trees(n).

    The k shards partition the stream exactly; deterministic given (n, k).
    The layouts are sliced before any tree is built, and the order is
    counted only to split it, so a one-shard stream counts nothing.
    """
    layouts = _free_layouts(rng.n)
    if rng.shard_count > 1:
        total = _order_count(rng.n)
        start = rng.shard_index * total // rng.shard_count
        stop = (rng.shard_index + 1) * total // rng.shard_count
        layouts = islice(layouts, start, stop)
    return map(_layout_to_tree, layouts)
