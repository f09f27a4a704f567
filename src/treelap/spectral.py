"""Certified Laplacian spectra of trees.

Counting is exact: diagonalizing L(T) + alpha*I by the bottom-up congruence
pass (leaves first, a(v) = d(v) + alpha - sum 1/a(c), with the zero-child
substitution a(v) := -1/2, a(child) := 2 and removal of the parent edge)
yields a diagonal matrix with the same inertia, so the sign tally counts the
eigenvalues below / equal to / above any exact rational threshold.  The
tally is taken in float intervals widened one ulp outward (`_inertia_float`)
or, when a pivot interval contains 0, by the same pass in integers, so ties
at thresholds like the average degree 2 - 2/n are decided exactly.

Eigenvalues are certified enclosures: float estimates (eigvalsh) only
propose probes, exact counts at the endpoints prove what each interval
holds, and bisection narrows it to width <= tol.  Rational eigenvalues of a
tree Laplacian are integers, so probing nearby integers pins them exactly.
The average degree d_bar = 2(n-1)/n is a probe too, so no enclosure
straddles it.  Every probe is an integer over one denominator per tree; the
prober, S_k and LE = 2 (S_sigma - sigma * d_bar) are integer sums over it,
and each eigenvalue, S_k and LE is an Enclosure over that denominator, so
the only Fractions built are the probes handed to count_eigs and the values
a caller reads.  Once a spectrum is proved, the counts its prober made at
one-off probes (beside estimates, at bisection midpoints) leave the tree's
cache; the counts at 0, n, d_bar and the integers stay.
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


def _inertia(tree: Tree, p: int, q: int, root: int) -> tuple[int, int, int]:
    """(negative, zero, positive) entry counts of the diagonal congruent to
    L(T) + (p/q) I, rooted at `root`.  q > 0 required.

    The float-interval stage decides the tally whenever no pivot interval
    contains 0; otherwise the exact integer pass runs.  Both give the same
    tally (see `_inertia_float`).
    """
    tally = _inertia_float(tree, p, q, root)
    return tally if tally is not None else _inertia_exact(tree, p, q, root)


def _inertia_float(tree: Tree, p: int, q: int, root: int) -> tuple[int, int, int] | None:
    """The sign tally of `_inertia` from float intervals, or None if undecided.

    Each pivot a(v) = d(v) + alpha - sum 1/a(c) is carried as [lo, hi], and
    every +, - and 1/x result is moved one ulp outward with math.nextafter.
    A round-to-nearest result is the float nearest the true value, so the
    true value lies between it and its next float on that side, and each
    interval encloses the exact pivot.  For a child whose interval
    excludes 0, 1/a(c) lies in [1/hi, 1/lo].  Gives up (None) as soon as a
    pivot interval contains 0 or is not finite.  When it does not give up,
    every exact pivot is nonzero, so the exact pass makes no zero-child
    substitution, its pivots are the values enclosed here, and its tally is
    (#hi < 0, 0, the rest): the same as this one.
    """
    try:
        alpha = p / q  # int true division is correctly rounded
    except OverflowError:
        return None
    inf = math.inf
    step = math.nextafter
    a_lo = step(alpha, -inf)
    a_hi = step(alpha, inf)
    order, _, kids = tree.rooted(root)
    degs = tree.degrees
    lo = [0.0] * tree.n
    hi = [0.0] * tree.n
    neg = 0
    for v in order:
        d = degs[v]
        v_lo = step(d + a_lo, -inf)
        v_hi = step(d + a_hi, inf)
        for c in kids[v]:
            v_lo = step(v_lo - step(1.0 / lo[c], inf), -inf)
            v_hi = step(v_hi - step(1.0 / hi[c], -inf), inf)
        if v_hi < 0.0:
            if not -inf < v_lo:
                return None
            neg += 1
        elif not 0.0 < v_lo <= v_hi < inf:
            return None
        lo[v] = v_lo
        hi[v] = v_hi
    return neg, 0, tree.n - neg


def _inertia_exact(tree: Tree, p: int, q: int, root: int) -> tuple[int, int, int]:
    """The tally of `_inertia` by the exact integer pass, zero pivots included.

    Values are carried as integer pairs num/den with den > 0; no gcd
    reduction (bit growth is O(subtree size * bits(q))).
    """
    n = tree.n
    order, _, kids = tree.rooted(root)
    degs = tree.degrees
    num = [degs[v] * q + p for v in range(n)]
    den = [q] * n
    severed = [False] * n
    for v in order:
        ks = kids[v]
        if not ks:
            continue
        zero_child = -1
        for c in ks:
            if not severed[c] and num[c] == 0:
                zero_child = c
                break
        if zero_child >= 0:
            num[zero_child] = 2
            den[zero_child] = 1
            num[v] = -1
            den[v] = 2
            severed[v] = True
        else:
            nprod = 1
            s = 0
            for c in ks:
                if severed[c]:
                    continue
                s = s * num[c] + den[c] * nprod
                nprod = nprod * num[c]
            nv = (degs[v] * q + p) * nprod - q * s
            dv = q * nprod
            if dv < 0:
                nv = -nv
            num[v] = nv
            den[v] = abs(dv)
    neg = zero = 0
    for v in range(n):
        if num[v] < 0:
            neg += 1
        elif num[v] == 0:
            zero += 1
    return neg, zero, n - neg - zero


def count_eigs(tree: Tree, x) -> EigCounts:
    """Exact (#mu < x, #mu == x, #mu > x), deciding ties at rational x.

    Equivalent to diagonalizing (T, -x): negative diagonal entries are the
    eigenvalues below x, zeros the multiplicity of x, positives the rest.
    Counts are cached per tree.
    """
    if type(x) is not Fraction:
        x = Fraction(x)
    key = ("cnt", x.numerator, x.denominator)  # as _distinct_enclosures reads it
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


def _distinct_enclosures(tree: Tree, tol: Fraction) -> tuple[int, list[tuple[int, int, int]]]:
    """(den, [(lo, hi, count)] descending) covering the whole spectrum, each
    endpoint an integer N standing for N / den.  Each entry is proved by exact
    counts to contain exactly `count` eigenvalues and has width <= tol; one
    with lo == hi is an exact hit, and no entry has d_bar strictly inside.
    """
    n = tree.n
    tn, td = tol.numerator, tol.denominator

    # probe proposals from float estimates; correctness never depends on them
    est = np.linalg.eigvalsh(laplacian_matrix(tree))
    clusters = _clusters(est, float(tol))
    ratios = [(clo.as_integer_ratio(), chi.as_integer_ratio()) for clo, chi in clusters]
    den = math.lcm(n, 2 * td, *(d for pair in ratios for _, d in pair))
    pad = tn * (den // (2 * td))
    top = n * den
    fixed = {0, top, 2 * (n - 1) * (den // n)}  # 0, n, d_bar and the integers below
    probes = []
    for (clo, chi), ((lo_n, lo_d), (hi_n, hi_d)) in zip(clusters, ratios):
        center = (clo + chi) / 2
        k = round(center)
        if abs(center - k) < 0.45 and 0 <= k <= n:
            fixed.add(k * den)
        lo_p = lo_n * (den // lo_d) - pad
        hi_p = hi_n * (den // hi_d) + pad
        if lo_p > 0:
            probes.append(lo_p)
        if 0 < hi_p < top:  # eigvalsh can put the zero eigenvalue below 0
            probes.append(hi_p)

    points = sorted(fixed.union(probes))
    xs = [Fraction(x, den) for x in points]
    # counts this call adds at one-off probes leave the cache once the spectrum is proved
    cache = tree._cache
    one_off = [key for p, x in zip(points, xs)
               if p not in fixed and (key := ("cnt", *x.as_integer_ratio())) not in cache]
    counts = [count_eigs(tree, x) for x in xs]
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
        x = Fraction(mid, den)
        if (key := ("cnt", *x.as_integer_ratio())) not in cache:
            one_off.append(key)
        c = count_eigs(tree, x)
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
    for key in one_off:
        cache.pop(key, None)
    return den, found


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
    sigma: int

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


def eigenvalues(tree: Tree, tol: float = 1e-12) -> Spectrum:
    """Certified spectrum with per-eigenvalue enclosure width <= tol.

    Cached on the tree per tolerance (Spectrum is immutable and trees are
    shared freely, so repeated bound checks cost one computation).
    """
    if not 0 < tol < math.inf:
        raise BadParam(f"tol must be finite and > 0, got {tol}")
    key = ("spectrum", tol)
    hit = tree._cache.get(key)
    if hit is not None:
        return hit
    den, distinct = _distinct_enclosures(tree, Fraction(tol))
    d_bar_num = 2 * (tree.n - 1) * (den // tree.n)
    sig = sum(m for lo, _, m in distinct if lo >= d_bar_num)
    spec = Spectrum(tree.n, tuple(distinct), den, sig)
    tree._cache[key] = spec
    return spec


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
