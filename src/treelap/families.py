"""Parameterized generators for the named tree families.

Labeling is deterministic so spectral traces are reproducible: the root (or
first center) is vertex 0, level-1 vertices come next in parameter order,
and leaves are appended last.

Families
--------
path(n), star(n)
double_broom3(a, b)   two adjacent centers carrying a and b leaves (diameter 3)
double_broom4(a, b)   center adjacent to two leaf-carrying vertices (diameter 4)
sns_tree(p, r, s)     diameter-4 "spider" shape: root with p leaves and r
                      children, child i carrying s[i] leaves (>= 2 nonzero s[i])
t4_spider(a, b)       sns(0, a+b, [1,...,1])
t_prime(r, s1)        sns(0, r, [s1, 1, ..., 1]),        n = 2r + s1
t_dprime(r, s1, s2)   sns(0, r, [s1, s2, 1, ..., 1]),    n = 2r + s1 + s2 - 1
"""

from __future__ import annotations

from typing import Sequence

from .errors import BadParam
from .tree import Tree, diameter, diametral_path


def path(n: int) -> Tree:
    if n < 1:
        raise BadParam(f"path needs n >= 1, got {n}")
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Tree:
    if n < 2:
        raise BadParam(f"star needs n >= 2, got {n}")
    return Tree(n, [(0, v) for v in range(1, n)])


def double_broom3(a: int, b: int) -> Tree:
    """Centers 0-1; a leaves on 0, b leaves on 1; n = a + b + 2."""
    if a < 1 or b < 1:
        raise BadParam(f"double_broom3 needs a, b >= 1, got ({a}, {b})")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return Tree(a + b + 2, edges)


def double_broom4(a: int, b: int) -> Tree:
    """Center 0 adjacent to 1 and 2; a leaves on 1, b leaves on 2; n = a + b + 3.

    This is the unique diameter-4 shape whose 3 internal vertices form a path.
    """
    if a < 1 or b < 1:
        raise BadParam(f"double_broom4 needs a, b >= 1, got ({a}, {b})")
    edges = [(0, 1), (0, 2)]
    edges += [(1, 3 + i) for i in range(a)]
    edges += [(2, 3 + a + i) for i in range(b)]
    return Tree(a + b + 3, edges)


def sns_tree(p: int, r: int, s: Sequence[int]) -> Tree:
    """Root 0 with p leaves; children 1..r; child i carries s[i-1] leaves.

    n = p + r + 1 + sum(s); diameter 4 requires at least two nonzero s[i].
    """
    s = list(s)
    if p < 0:
        raise BadParam(f"sns_tree needs p >= 0, got {p}")
    if r < 2:
        raise BadParam(f"sns_tree needs r >= 2, got {r}")
    if len(s) != r:
        raise BadParam(f"sns_tree needs len(s) == r, got {len(s)} != {r}")
    if any(si < 0 for si in s):
        raise BadParam(f"sns_tree needs every s[i] >= 0, got {s}")
    if sum(1 for si in s if si > 0) < 2:
        raise BadParam(f"sns_tree needs at least two nonzero s[i], got {s}")
    edges = [(0, i) for i in range(1, r + 1)]
    nxt = r + 1
    for _ in range(p):
        edges.append((0, nxt))
        nxt += 1
    for i, si in enumerate(s, start=1):
        for _ in range(si):
            edges.append((i, nxt))
            nxt += 1
    return Tree(nxt, edges)


def t4_spider(a: int, b: int) -> Tree:
    """All-ones spider on n = 2(a+b) + 1 vertices; spectrum depends on a+b only."""
    if a < 0 or b < 0 or a + b < 2:
        raise BadParam(f"t4_spider needs a, b >= 0 with a + b >= 2, got ({a}, {b})")
    return sns_tree(0, a + b, [1] * (a + b))


def t_prime(r: int, s1: int) -> Tree:
    if r < 2 or s1 < 2:
        raise BadParam(f"t_prime needs r >= 2 and s1 >= 2, got ({r}, {s1})")
    return sns_tree(0, r, [s1] + [1] * (r - 1))


def t_dprime(r: int, s1: int, s2: int) -> Tree:
    if r < 3 or s1 < 2 or s2 < 2:
        raise BadParam(f"t_dprime needs r >= 3 and s1, s2 >= 2, got ({r}, {s1}, {s2})")
    return sns_tree(0, r, [s1, s2] + [1] * (r - 2))


def sns_params(tree: Tree) -> tuple[int, int, tuple[int, ...]] | None:
    """Canonical (p, r, s) decomposition of a diameter-4 tree, else None.

    p counts the center's leaf neighbors, r its non-leaf neighbors, and s[i]
    the leaf count of the i-th non-leaf neighbor (each s[i] >= 1 here: a
    neighbor with no leaves would itself be a leaf and counted in p).
    """
    if tree.n < 5 or diameter(tree) != 4:
        return None
    dpath = diametral_path(tree)
    center = dpath[2]
    p = 0
    s = []
    for w in tree.adj[center]:
        if tree.degrees[w] == 1:
            p += 1
        else:
            s.append(tree.degrees[w] - 1)
    s.sort(reverse=True)
    return p, len(s), tuple(s)


def sns_kind(tree: Tree) -> str | None:
    """Classify a diameter-4 tree: 't4' | 'tprime' | 'tdprime' | 'general'."""
    params = sns_params(tree)
    if params is None:
        return None
    p, _, s = params
    big = sum(1 for si in s if si >= 2)
    return ("t4", "tprime", "tdprime")[big] if p == 0 and big <= 2 else "general"
