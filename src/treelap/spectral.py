"""Certified Laplacian spectra of trees.

Counting is exact: diagonalizing L(T) + alpha*I by the bottom-up congruence
pass (leaves first, a(v) = d(v) + alpha - sum 1/a(c), with the zero-child
substitution a(v) := -1/2, a(child) := 2 and removal of the parent edge)
yields a diagonal matrix with the same inertia, so the sign tally counts the
eigenvalues below / equal to / above any exact rational threshold.  A pivot
depends only on its vertex's rooted subtree, so the pass (`_inertia`) runs
once per rooted isomorphism class (`Tree.classes`, from the root count_eigs
uses): k children of one class enter as k / a(c), and a class's sign counts
once per vertex in it.  The families T4, T' and T'' have 3 to 5 classes at
any order, a path on n vertices about n/2.  The tally is taken in float
intervals widened one ulp outward (`_inertia_float`) or, when a pivot
interval contains 0, by the same pass in integers, so ties at thresholds
like the average degree 2 - 2/n are decided exactly.

Eigenvalues are certified enclosures: float estimates (eigvalsh) only
propose probes, exact counts at the endpoints prove what each interval
holds, and bisection narrows it to width <= tol.  Rational eigenvalues of a
tree Laplacian are integers, so probing nearby integers pins them exactly.
The average degree d_bar = 2(n-1)/n is a probe too, so no enclosure
straddles it.  Every probe is an integer over one denominator per tree; the
prober, S_k and LE = 2 (S_sigma - sigma * d_bar) are integer sums over it,
and each eigenvalue, S_k and LE is an Enclosure over that denominator, so
the only Fractions built are the probes handed to count_eigs and the values
a caller reads.  Once a spectrum is proved, the counts its prover added to
the tree's cache leave it, except those at d_bar and at the integers;
counts cached before the proof stay.

One prover (_prove) takes a block of trees of one order: one stacked
eigvalsh, the probe proposals (_propose) of each tree, the first counts,
then each tree's bisection (_bisect).  A lone tree (eigenvalues) is a block
of one, and its first counts are count_eigs calls, probe by probe.  A block
of several (eigenvalues_many, for exhaustive runs) takes them from one float
walk (_below_many) whose lanes are (tree, probe) pairs.  Lone trees stay on
count_eigs: the walk is faster on large ones too, but that switch waits for
a benchmark that reads memory apart from throughput.  The walk is still
per vertex: every tree's vertices are numbered by their post-order place
from the root count_eigs uses, so step i of the walk takes vertex i of
every tree; pivot intervals are (B, 2, P) arrays, every +, - and 1/x is
widened one ulp outward, and each vertex's reciprocal is scattered into its
parent's pivot.  A lane that decides has the exact pass's tally, by the
argument of _inertia_float; a lane that declines, as it must at an
eigenvalue, goes straight to the exact pass, filed under count_eigs's cache
key.  Either way the first counts are the same, so each tree's enclosures,
cache and every byte derived from them do not depend on the block it was
proved in.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BadParam
from .intervals import Enclosure
from .tree import Tree


class EigCounts(NamedTuple):
    below: int
    equal: int
    above: int


def laplacian_matrix(tree: Tree) -> np.ndarray:
    """Dense L = D - A as float64 (estimates and oracles only)."""
    n = tree.n
    lap = np.zeros((n, n))
    for u, v in tree.edges:
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    return lap


# ---- congruence pass: float filter, exact fallback ---------------------------


def _inertia(tree: Tree, p: int, q: int, root: int, exact: bool = False) -> tuple[int, int, int]:
    """(negative, zero, positive) entry counts of the diagonal congruent to
    L(T) + (p/q) I, rooted at `root`.  q > 0 required.

    The float-interval stage decides the tally whenever no pivot interval
    contains 0; otherwise the exact integer pass runs.  Both give the same
    tally (see `_inertia_float`).  `exact` skips the float stage, for a
    threshold a float pass has already declined.
    """
    tally = None if exact else _inertia_float(tree, p, q, root)
    return tally if tally is not None else _inertia_exact(tree, p, q, root)


def _inertia_float(tree: Tree, p: int, q: int, root: int) -> tuple[int, int, int] | None:
    """The sign tally of `_inertia` from float intervals, or None if undecided.

    Each pivot a(v) = d(v) + alpha - sum 1/a(c) is carried as [lo, hi], and
    every +, -, * and 1/x result is moved one ulp outward with
    math.nextafter.  A round-to-nearest result is the float nearest the true
    value, so the true value lies between it and its next float on that
    side, and each interval encloses the exact pivot.  For a child whose
    interval excludes 0, 1/a(c) lies in [1/hi, 1/lo].  Gives up (None) as
    soon as a pivot interval contains 0 or is not finite.  When it does not
    give up, every exact pivot is nonzero, so the exact pass makes no
    zero-child substitution, its pivots are the values enclosed here, and
    its tally is (#hi < 0, 0, the rest): the same as this one.

    A pivot depends only on the rooted subtree, so the pass runs once per
    rooted isomorphism class (`Tree.classes`): k children of one class
    enter as k [1/hi, 1/lo], and a negative class adds its vertex count.
    """
    try:
        alpha = p / q  # int true division is correctly rounded
    except OverflowError:
        return None
    inf = math.inf
    step = math.nextafter
    a_lo = step(alpha, -inf)
    a_hi = step(alpha, inf)
    kinds, counts = tree.classes(root)
    lo: list[float] = []
    hi: list[float] = []
    neg = 0
    for (d, kids), m in zip(kinds, counts):
        v_lo = step(d + a_lo, -inf)
        v_hi = step(d + a_hi, inf)
        for c, k in kids:
            up = step(1.0 / lo[c], inf)
            down = step(1.0 / hi[c], -inf)
            if k > 1:
                up = step(k * up, inf)
                down = step(k * down, -inf)
            v_lo = step(v_lo - up, -inf)
            v_hi = step(v_hi - down, inf)
        if v_hi < 0.0:
            if not -inf < v_lo:
                return None
            neg += m
        elif not 0.0 < v_lo <= v_hi < inf:
            return None
        lo.append(v_lo)
        hi.append(v_hi)
    return neg, 0, tree.n - neg


def _inertia_exact(tree: Tree, p: int, q: int, root: int) -> tuple[int, int, int]:
    """The tally of `_inertia` by the exact integer pass, zero pivots included.

    Runs once per rooted isomorphism class, as `_inertia_float` does.
    Values are carried as integer pairs num/den with den > 0; no gcd
    reduction (bit growth is O(classes below * bits(q))).  A class with a
    zero child class becomes -1/2 and is severed from its parent; in each
    of its instances one zero child becomes 2, so the zero tally drops and
    the positive one rises by the parent class's vertex count.
    """
    kinds, counts = tree.classes(root)
    num: list[int] = []
    den: list[int] = []
    severed: list[bool] = []
    neg = zero = 0
    for (d, kids), m in zip(kinds, counts):
        nprod = 1
        s = 0
        for c, k in kids:
            nc = num[c]
            if nc == 0:  # a severed class is -1/2, never 0
                break
            if not severed[c]:
                s = s * nc + k * den[c] * nprod
                nprod = nprod * nc
        else:
            nv = (d * q + p) * nprod - q * s
            dv = q * nprod
            if dv < 0:
                nv = -nv
            num.append(nv)
            den.append(abs(dv))
            severed.append(False)
            if nv < 0:
                neg += m
            elif nv == 0:
                zero += m
            continue
        num.append(-1)
        den.append(2)
        severed.append(True)
        neg += m
        zero -= m
    return neg, zero, tree.n - neg - zero


def count_eigs(tree: Tree, x) -> EigCounts:
    """Exact (#mu < x, #mu == x, #mu > x), deciding ties at rational x.

    Equivalent to diagonalizing (T, -x): negative diagonal entries are the
    eigenvalues below x, zeros the multiplicity of x, positives the rest.
    Counts are cached per tree.
    """
    if type(x) is not Fraction:
        x = Fraction(x)
    key = ("cnt", x.numerator, x.denominator)  # as _count_key builds it
    hit = tree._cache.get(key)
    if hit is None:
        root = tree.centroids()[0]
        hit = tree._cache[key] = EigCounts(*_inertia(tree, -x.numerator, x.denominator, root))
    return hit


def multiplicity_of_one(tree: Tree) -> int:
    """Exact multiplicity of eigenvalue 1 (at least p - q by Faria's bound)."""
    return count_eigs(tree, 1).equal


def average_degree(tree: Tree) -> Fraction:
    return Fraction(2 * (tree.n - 1), tree.n)


def sigma(tree: Tree) -> int:
    """Number of Laplacian eigenvalues >= average degree, decided exactly."""
    return tree.n - count_eigs(tree, average_degree(tree)).below


# ---- certified enclosures ----------------------------------------------------


def _clusters(vals: np.ndarray, eps: float) -> list[tuple[float, float]]:
    vals = vals.tolist()
    out = []
    lo = hi = vals[0]
    for v in vals[1:]:
        if v - hi <= eps:
            hi = v
        else:
            out.append((lo, hi))
            lo = hi = v
    out.append((lo, hi))
    return out


def _to_grid(num: int, d: int, den: int, found: list, work: list) -> tuple[int, int]:
    """(N, den) with num/d == N/den.  A float midpoint can be finer than den:
    then den and every endpoint in `found` and `work` are multiplied, in
    place, by the least factor that puts num/d on the grid."""
    s = d // math.gcd(d, num * den)
    if s > 1:
        den *= s
        found[:] = [(lo * s, hi * s, m) for lo, hi, m in found]
        work[:] = [(lo * s, hi * s, m, at) for lo, hi, m, at in work]
    return num * den // d, den


def _propose(n: int, est: np.ndarray, tol: Fraction) -> tuple[int, list[int]]:
    """(den, points): the first probes of a tree of order n, ascending, each
    an integer N standing for N / den, proposed from its float estimates
    `est` (ascending): 0, n, d_bar, the integers next to a cluster of
    estimates and the points tol/2 outside each cluster.  Correctness never
    depends on the estimates."""
    tn, td = tol.numerator, tol.denominator
    clusters = _clusters(est, float(tol))
    ratios = [(clo.as_integer_ratio(), chi.as_integer_ratio()) for clo, chi in clusters]
    den = math.lcm(n, 2 * td, *(d for pair in ratios for _, d in pair))
    pad = tn * (den // (2 * td))
    top = n * den
    points = {0, top, 2 * (n - 1) * (den // n)}  # 0, n, d_bar
    for (clo, chi), ((lo_n, lo_d), (hi_n, hi_d)) in zip(clusters, ratios):
        center = (clo + chi) / 2
        k = round(center)
        if abs(center - k) < 0.45 and 0 <= k <= n:
            points.add(k * den)
        lo_p = lo_n * (den // lo_d) - pad
        hi_p = hi_n * (den // hi_d) + pad
        if lo_p > 0:
            points.add(lo_p)
        if 0 < hi_p < top:  # eigvalsh can put the zero eigenvalue below 0
            points.add(hi_p)
    return den, sorted(points)


def _count_key(num: int, den: int) -> tuple[str, int, int]:
    """The cache key count_eigs files the count at num / den under."""
    g = math.gcd(num, den)
    return "cnt", num // g, den // g


def _bisect(tree: Tree, tol: Fraction, den: int, points: list[int],
            counts: list[EigCounts]) -> tuple[int, list[tuple[int, int, int]]]:
    """(den, [(lo, hi, count)] descending) from the exact counts at the first
    probes `points` (over den), each interval bisected until it is at most
    tol wide.  Each entry is proved by exact counts to hold exactly `count`
    eigenvalues; one with lo == hi is an exact hit, and no entry has d_bar
    strictly inside."""
    n = tree.n
    tn, td = tol.numerator, tol.denominator
    if counts[0].below != 0 or counts[0].equal != 1:
        raise AssertionError("Laplacian of a connected tree must have kernel exactly {0}")
    if counts[-1].below + counts[-1].equal != n:
        raise AssertionError("eigenvalues must lie in [0, n]")

    # work items (lo, hi, m, #mu <= lo): hi - lo too wide, m eigenvalues strictly inside
    found = [(x, x, c.equal) for x, c in zip(points, counts) if c.equal]
    work: list[tuple[int, int, int, int]] = []
    for a, b, ca, cb in zip(points, points[1:], counts, counts[1:]):
        m = cb.below - ca.below - ca.equal
        if m > 0:
            work.append((a, b, m, ca.below + ca.equal))

    while work:
        lo, hi, m, at_lo = work[-1]
        if (hi - lo) * td <= tn * den:
            found.append(work.pop()[:3])
            continue
        num, d = ((lo / den + hi / den) / 2).as_integer_ratio()  # int / int rounds correctly
        if not lo * d < num * den < hi * d:
            num, d = lo + hi, 2 * den
        mid, den = _to_grid(num, d, den, found, work)
        lo, hi, m, at_lo = work.pop()
        c = count_eigs(tree, Fraction(mid, den))
        if c.equal:
            found.append((mid, mid, c.equal))
        m_left = c.below - at_lo
        m_right = m - m_left - c.equal
        if m_left > 0:
            work.append((lo, mid, m_left, at_lo))
        if m_right > 0:
            work.append((mid, hi, m_right, c.below + c.equal))

    found.sort(reverse=True)
    assert sum(m for _, _, m in found) == n
    return den, found


# ---- block walk: one float pass over many (tree, probe) lanes -------------------

# trees per block: it bounds the walk's (B, n, 2, P) pivot array and the trees held
# at once; at n <= 12, 64 and 128 were no faster and held more memory
BLOCK = 32


def _below_many(trees: Sequence[Tree], probes: Sequence[tuple[int, list[int]]]) -> list[list[int | None]]:
    """For trees of one order, probes[b] = (den, [N, ...]) thresholds N / den
    of trees[b]: the number of eigenvalues of trees[b] below each threshold,
    or None where the float stage declines.

    This is `_inertia_float` run on every (tree, probe) lane at once, but
    per vertex, not per rooted isomorphism class: the trees of a block have
    different class tables, while their vertices line up.  Each tree's
    vertices are numbered by their place in its post-order from count_eigs's
    root (the root comes last), so step i of the walk takes vertex i of
    every tree.  Pivot intervals are (B, 2, P) arrays, lo and hi
    on the middle axis; every +, - and 1/x is widened one ulp outward with
    np.nextafter, and each vertex's reciprocal is scattered into its parent's
    pivot.  A lane declines when one of its pivot intervals contains 0 or is
    not finite; the lanes that pad a short probe list are NaN and decline
    too.  A lane that does not decline has the tally of the exact pass, by
    the argument in `_inertia_float`.
    """
    n, rows = trees[0].n, np.arange(len(trees))
    width = max(len(points) for _, points in probes)
    alpha = np.full((len(trees), width), np.nan)
    deg = np.empty((len(trees), n))
    parent = np.zeros((len(trees), n), dtype=np.intp)
    for b, (tree, (den, points)) in enumerate(zip(trees, probes)):
        alpha[b, :len(points)] = [-x / den for x in points]  # int / int is correctly rounded
        order, par, _ = tree.rooted(tree.centroids()[0])
        place = {v: i for i, v in enumerate(order)}
        deg[b] = [tree.degrees[v] for v in order]
        parent[b, :-1] = [place[par[v]] for v in order[:-1]]
    out = np.array([[-np.inf], [np.inf]])  # lo rounds down, hi up
    step = np.nextafter
    with np.errstate(all="ignore"):
        a = np.stack([step(alpha, -np.inf), step(alpha, np.inf)], axis=1)
        piv = deg[:, :, None, None] + a[:, None]  # (B, n, 2, P)
        step(piv, out, out=piv)
        below = np.zeros(alpha.shape, dtype=np.intp)
        declined = np.zeros(alpha.shape, dtype=bool)
        for i in range(n):
            v = piv[:, i]
            lo, hi = v[:, 0], v[:, 1]
            neg = (hi < 0.0) & (-np.inf < lo)
            declined |= ~(neg | ((0.0 < lo) & (lo <= hi) & (hi < np.inf)))
            below += neg
            if i < n - 1:
                inv = step(1.0 / v[:, ::-1], out)  # [1/hi, 1/lo], widened
                up = parent[:, i]
                piv[rows, up] = step(piv[rows, up] - inv[:, ::-1], out)
    return [[None if no else k for k, no in zip(ks[:len(points)], nos)]
            for ks, nos, (_, points) in zip(below.tolist(), declined.tolist(), probes)]


@dataclass(frozen=True)
class Spectrum:
    """Certified spectrum mu_1 >= ... >= mu_n = 0 of one tree.

    `distinct` holds the distinct enclosures (lo, hi, m) descending, each
    endpoint an integer N standing for N / den and m the eigenvalues inside.
    d_bar was a probe, so the first sigma eigenvalues lie in enclosures with
    lo >= d_bar and the rest in ones with hi <= d_bar.  Sums and the energy
    are exact integer sums over den, returned as Enclosures over den.
    """

    n: int
    distinct: tuple[tuple[int, int, int], ...]
    den: int

    @functools.cached_property
    def sigma(self) -> int:
        """#{mu_i >= d_bar}: the eigenvalues in enclosures with lo >= d_bar."""
        d_bar = 2 * (self.n - 1) * (self.den // self.n)
        return sum(m for lo, _, m in self.distinct if lo >= d_bar)

    @functools.cached_property
    def enclosures(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Per-index enclosures of mu_1, ..., mu_n as Fraction pairs."""
        den = self.den
        return tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in self._per_index)

    @functools.cached_property
    def _per_index(self) -> tuple[tuple[int, int], ...]:
        return tuple(e for lo, hi, m in self.distinct for e in [(lo, hi)] * m)

    @property
    def values(self) -> tuple[float, ...]:
        """Float midpoints, descending (display only)."""
        den = self.den
        return tuple(v for lo, hi, m in self.distinct for v in [(lo / den + hi / den) / 2] * m)

    def enclosure(self, i: int) -> Enclosure:
        """Certified interval for mu_i (1-based, descending)."""
        if not (1 <= i <= self.n):
            raise BadParam(f"index {i} out of range 1..{self.n}")
        return Enclosure(*self._per_index[i - 1], self.den)

    @functools.cached_property
    def _running_sums(self) -> tuple[list[int], list[int]]:
        # s_k is asked for every k by the bound checks
        los = list(accumulate((lo for lo, _, m in self.distinct for _ in range(m)), initial=0))
        his = list(accumulate((hi for _, hi, m in self.distinct for _ in range(m)), initial=0))
        return los, his

    def _top_sum(self, k: int) -> tuple[int, int]:
        """den * S_k bounded by the top k enclosures and by the trace minus the rest."""
        los, his = self._running_sums
        trace = 2 * (self.n - 1) * self.den
        return max(los[k], trace - his[-1] + his[k]), min(his[k], trace - los[-1] + los[k])

    def s_k(self, k: int) -> Enclosure:
        """Sum of the k largest eigenvalues; width <= k*tol (tighter via trace)."""
        if not (0 <= k <= self.n):
            raise BadParam(f"k={k} out of range 0..{self.n}")
        return Enclosure(*self._top_sum(k), self.den)

    def laplacian_energy(self) -> Enclosure:
        """LE = sum |mu_i - d_bar| = 2 (S_sigma - sigma * d_bar), with S_sigma
        bounded as in s_k."""
        return self._energy

    @functools.cached_property
    def _energy(self) -> Enclosure:
        lo, hi = self._top_sum(self.sigma)
        shift = self.sigma * 2 * (self.n - 1) * (self.den // self.n)
        return Enclosure(2 * (lo - shift), 2 * (hi - shift), self.den)


def check_tol(tol: float) -> None:
    """The one rule for a tolerance: finite and > 0."""
    if not 0 < tol < math.inf:
        raise BadParam(f"tol must be finite and > 0, got {tol}")


def _exact_count(tree: Tree, x: int, den: int) -> EigCounts:
    """count_eigs(tree, x / den) where the block walk declined: the exact
    pass alone, since a lane declines at every eigenvalue, and there the
    float stage declines too."""
    key = _count_key(x, den)
    hit = tree._cache.get(key)
    if hit is None:
        hit = tree._cache[key] = EigCounts(*_inertia(tree, -key[1], key[2], tree.centroids()[0], True))
    return hit


def _prove(trees: Sequence[Tree], tol: float) -> list[Spectrum]:
    """The Spectrums of trees of one order at tol, each cached on its tree.

    One stacked eigvalsh proposes every tree's first probes; a lone tree
    counts them through count_eigs one by one, a block of several in one
    float walk (_below_many), with the exact pass only where a lane declines.
    Each tree is then bisected, and the counts the proof added to its cache
    leave it, except those at d_bar and at the integers.
    """
    n, frac_tol = trees[0].n, Fraction(tol)
    # a lone tree's matrix is passed as a view: a stacked copy writes every page of
    # a large sparse Laplacian, which cost diam4_sweep about 0.2 ms per tree
    lap = laplacian_matrix(trees[0])[None] if len(trees) == 1 else np.stack([laplacian_matrix(t) for t in trees])
    est = np.linalg.eigvalsh(lap)
    probes = [_propose(n, row, frac_tol) for row in est]
    walked = _below_many(trees, probes) if len(trees) > 1 else [None]
    at_d_bar = _count_key(2 * (n - 1), n)
    specs = []
    for tree, (den, points), below in zip(trees, probes, walked):
        cache = tree._cache
        before = set(cache)
        if below is None:
            counts = [count_eigs(tree, Fraction(x, den)) for x in points]
        else:
            counts = [_exact_count(tree, x, den) if k is None
                      else cache.setdefault(_count_key(x, den), EigCounts(k, 0, n - k))
                      for x, k in zip(points, below)]
        den, distinct = _bisect(tree, frac_tol, den, points, counts)
        for key in cache.keys() - before:  # a count key is ("cnt", num, den)
            if key[0] == "cnt" and key[2] != 1 and key != at_d_bar:
                del cache[key]
        specs.append(Spectrum(n, tuple(distinct), den))
        cache[("spectrum", tol)] = specs[-1]
    return specs


def eigenvalues(tree: Tree, tol: float = 1e-12) -> Spectrum:
    """Certified spectrum with per-eigenvalue enclosure width <= tol.

    Cached on the tree per tolerance (Spectrum is immutable and trees are
    shared freely, so repeated bound checks cost one computation).
    """
    check_tol(tol)
    hit = tree._cache.get(("spectrum", tol))
    return hit if hit is not None else _prove([tree], tol)[0]


def eigenvalues_many(trees: Sequence[Tree], tol: float = 1e-12) -> list[Spectrum]:
    """[eigenvalues(t, tol) for t in trees] for trees of one order, the ones
    not yet cached at tol proved in blocks of up to BLOCK.  Each tree's cache
    ends as eigenvalues() would leave it."""
    check_tol(tol)
    if len(orders := {t.n for t in trees}) > 1:
        raise BadParam(f"eigenvalues_many takes trees of one order, got orders {sorted(orders)}")
    key = ("spectrum", tol)
    fresh = [t for t in trees if key not in t._cache]
    for i in range(0, len(fresh), BLOCK):
        _prove(fresh[i:i + BLOCK], tol)
    return [t._cache[key] for t in trees]


def s_k(tree: Tree, k: int, tol: float = 1e-12) -> Enclosure:
    """Sum of the k largest Laplacian eigenvalues, absolute error <= k*tol."""
    if not (1 <= k <= tree.n):
        raise BadParam(f"k={k} out of range 1..{tree.n}")
    return eigenvalues(tree, tol).s_k(k)


def laplacian_energy(tree: Tree, tol: float = 1e-12) -> Enclosure:
    """Certified LE(T); error bound at most 2*sigma*tol."""
    return eigenvalues(tree, tol).laplacian_energy()


def forest_enclosures(trees: Sequence[Tree], tol: float = 1e-12) -> tuple[tuple[Fraction, Fraction], ...]:
    """Merged per-index enclosures (descending) of a disjoint union of trees.

    The forest spectrum is the multiset union of component spectra.  The
    i-th largest of values x_j known only to lie in intervals [l_j, u_j] is
    bounded by the i-th largest l and the i-th largest u, so the merge pairs
    the descending-sorted endpoints positionally; exact when intervals are
    disjoint, and a valid enclosure even when they overlap.
    """
    encs = [e for t in trees for e in eigenvalues(t, tol).enclosures]
    los = sorted((lo for lo, _ in encs), reverse=True)
    his = sorted((hi for _, hi in encs), reverse=True)
    return tuple(zip(los, his))
