"""Exhaustive duplicate-free enumeration of unlabeled free trees.

Free trees are generated through canonical level sequences (depth of each
vertex in preorder): the Beyer-Hedetniemi successor walks canonical rooted
trees in lexicographically decreasing order, and the Wright-Richmond-
Odlyzko-McKay filter jumps over rooted representatives whose root is not
the canonical centroid, so each isomorphism class is produced exactly once.

Prüfer-based enumeration is exponential (n^(n-2) labeled trees) and lives in
the test suite as a small-n oracle; this module is the production path up to
the desk-scale ceiling (n = 20).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import BadParam
from .tree import Tree


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
        if not (0 <= self.shard_index < self.shard_count):
            raise BadParam(
                f"shard index {self.shard_index} out of range 0..{self.shard_count - 1}"
            )


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
    not lexicographically later: this pins the root to the centroid (or the
    canonical half of a bicentroid) exactly once per isomorphism class.
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
    # parent of vertex i is the latest vertex at level seq[i] - 1
    stack: list[int] = []
    edges = []
    for i, lev in enumerate(seq):
        while len(stack) > lev:
            stack.pop()
        if stack:
            edges.append((stack[-1], i))
        stack.append(i)
    return Tree(len(seq), edges)


def free_trees(n: int) -> Iterator[Tree]:
    """Stream one representative per isomorphism class of trees on n vertices;
    an order outside 1..MAX_ORDER raises BadParam at the call."""
    return map(_layout_to_tree, _free_layouts(n))


def count_free_trees(n: int) -> int:
    """Number of isomorphism classes, by running the generator without
    materializing trees (layout iteration only)."""
    return sum(1 for _ in _free_layouts(n))


def free_trees_sharded(rng: EnumRange) -> Iterator[Tree]:
    """The shard_index-th of shard_count contiguous index ranges of free_trees(n).

    The k shards partition the stream exactly; deterministic given (n, k).
    """
    total = count_free_trees(rng.n)
    start = rng.shard_index * total // rng.shard_count
    stop = (rng.shard_index + 1) * total // rng.shard_count
    gen = free_trees(rng.n)
    return islice(gen, start, stop)
