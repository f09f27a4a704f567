"""Certified Laplacian spectra of trees.

Counting is exact: diagonalizing L(T) + alpha*I by the bottom-up congruence
pass (leaves first, a(v) = d(v) + alpha - sum 1/a(c), with the zero-child
substitution a(v) := -1/2, a(child) := 2 and removal of the parent edge)
yields a diagonal matrix with the same inertia, so the sign tally counts the
eigenvalues below / equal to / above any exact rational threshold.  A pivot
depends only on its vertex's rooted subtree, so the pass (`_inertia`) runs
once per rooted isomorphism class (`Tree.classes`, at the tree's
`count_root`; by Sylvester's law of inertia any root gives the same
counts): k children of one class enter as k / a(c).  T4, T' and T'' have 3
to 5 classes at any order, a path on n vertices about n/2.  The tally is
taken in float intervals widened one ulp outward (`_inertia_float`, which
per count rounds [d + alpha] once per degree, from a table, and keeps each
class's reciprocal interval, rounded once, for its parents) or, when a
pivot interval contains 0, by the same pass in integers, so ties at
thresholds like the average degree 2 - 2/n are decided exactly.

Eigenvalues are certified enclosures: float estimates (eigvalsh) only
propose probes, exact counts at the endpoints prove what each interval
holds, and bisection narrows it to width <= tol.  Rational eigenvalues of a
tree Laplacian are integers, so probing nearby integers pins them exactly;
the average degree d_bar = 2(n-1)/n is a probe too, so no enclosure
straddles it.  Every probe is an integer over one denominator per tree, and
each eigenvalue, S_k and LE = 2 (S_sigma - sigma * d_bar) is an Enclosure
over it: the only Fractions built are a lone tree's first probes, handed to
count_eigs, and the values a caller reads.  Every count goes through
_count, which files it in the tree's cache only at an integer or at d_bar
(_kept), the thresholds read again.

One prover (_prove) takes a block of trees of one order: one eigvalsh over
their Laplacians, stacked (_laplacians), every tree's probe proposals at
once (_propose), the first counts, then each tree's bisection (_bisect).
A lone tree (eigenvalues) is a block of one, and its first counts are
count_eigs calls, probe by probe.  A block of several (eigenvalues_many,
for exhaustive runs) takes them from one float walk (_below_many) whose
lanes are (tree, probe) pairs, each at the correctly rounded float of its
probe: a side probe's is tol/2 - clo, one float subtraction, not a
big-integer division.  Lone trees stay on count_eigs: the walk is faster
on large ones too, but that switch waits for a benchmark that reads memory
apart from throughput.  A lane that decides has the exact pass's tally, by
the argument of _inertia_float; a lane that declines, as it must at an
eigenvalue, goes straight to the exact pass.  Only those lanes, and the
decided ones at an integer or d_bar, whose counts _kept files with no gcd,
are looked at again one by one.  Either way the first counts and the ones
filed are the same, so each tree's enclosures, cached counts and every
byte derived from them depend neither on its block nor on the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BadParam, check_index
from .intervals import Enclosure
from .tree import Tree


class EigCounts(NamedTuple):
    below: int
    equal: int
    above: int


def _laplacians(trees: Sequence[Tree]) -> np.ndarray:
    """The dense Laplacians of trees of one order, stacked (B, n, n), set by
    index arrays over every tree's edges at once."""
    n, rows = trees[0].n, np.arange(len(trees))[:, None]
    lap = np.zeros((len(trees), n, n))
    edges = np.array([t.edges for t in trees], dtype=np.intp).reshape(len(trees), -1, 2)
    u, v = edges[..., 0], edges[..., 1]
    lap[rows, u, v] = lap[rows, v, u] = -1.0
    diag = np.arange(n)
    lap[:, diag, diag] = [t.degrees for t in trees]
    return lap


# ---- congruence pass: float filter, exact fallback ---------------------------


def _inertia(tree: Tree, p: int, q: int, root: int, exact: bool = False) -> tuple[int, int, int]:
    """(negative, zero, positive) entry counts of the diagonal congruent to
    L(T) + (p/q) I, rooted at `root`, q > 0: by the float stage where no
    pivot interval contains 0, else by the exact pass, with the same tally
    (`_inertia_float`).  `exact` skips a float stage already declined."""
    tally = None if exact else _inertia_float(tree, p, q, root)
    return tally if tally is not None else _inertia_exact(tree, p, q, root)


def _inertia_float(tree: Tree, p: int, q: int, root: int) -> tuple[int, int, int] | None:
    """The sign tally of `_inertia` from float intervals, or None if undecided.

    Each pivot a(v) = d(v) + alpha - sum 1/a(c) is carried as [lo, hi], and
    every +, -, * and 1/x result is moved one ulp outward with
    math.nextafter: a round-to-nearest result lies within one ulp of the
    true value, so each interval encloses the exact pivot, and 1/a(c) lies
    in [1/hi, 1/lo] once 0 is excluded.  Gives up (None) as soon as a pivot
    interval contains 0 or is not finite.  Otherwise every exact pivot is
    nonzero, the exact pass makes no zero-child substitution, and its tally
    is (#hi < 0, 0, the rest), as here.  The pass runs once per rooted
    isomorphism class (`Tree.classes`): k children of one class enter as
    k [1/hi, 1/lo], and a negative class adds its vertex count.  Within one
    count, [d + alpha] is rounded once per degree and read from a table by
    degree, and each class keeps [1/hi, 1/lo], rounded once when the class
    is made, in place of [lo, hi], which only a parent reads; k [1/hi, 1/lo]
    is rounded only for k > 1.
    """
    try:
        alpha = p / q  # int true division is correctly rounded
    except OverflowError:
        return None
    inf, ninf, step = math.inf, -math.inf, math.nextafter
    a_lo, a_hi = step(alpha, ninf), step(alpha, inf)
    kinds, counts = tree.classes(root)
    base: list[tuple[float, float] | None] = [None] * tree.n  # [d + alpha] rounded outward, by d
    down: list[float] = []  # [down[c], up[c]]: [1/hi, 1/lo] of class c
    up: list[float] = []
    neg = 0
    for (d, kids), m in zip(kinds, counts):
        b = base[d]
        if b is None:
            b = base[d] = step(d + a_lo, ninf), step(d + a_hi, inf)
        v_lo, v_hi = b
        for c, k in kids:
            if k == 1:
                v_lo = step(v_lo - up[c], ninf)
                v_hi = step(v_hi - down[c], inf)
            else:
                v_lo = step(v_lo - step(k * up[c], inf), ninf)
                v_hi = step(v_hi - step(k * down[c], ninf), inf)
        if v_hi < 0.0:
            if not ninf < v_lo:
                return None
            neg += m
        elif not 0.0 < v_lo <= v_hi < inf:
            return None
        down.append(step(1.0 / v_hi, ninf))
        up.append(step(1.0 / v_lo, inf))
    return neg, 0, tree.n - neg


def _inertia_exact(tree: Tree, p: int, q: int, root: int) -> tuple[int, int, int]:
    """The tally of `_inertia` by the exact integer pass, zero pivots included,
    once per rooted isomorphism class.  Values are integer pairs num/den,
    den > 0, never reduced (bit growth O(classes below * bits(q))).  A class
    with a zero child class becomes -1/2, severed from its parent; in each
    instance one zero child becomes 2, so the zero tally drops and the
    positive one rises by the parent class's vertex count."""
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


def _kept(n: int, x: int, den: int) -> tuple[str, int, int] | None:
    """The cache rule: the key of a count at x / den (den > 0) on a tree of
    order n if it is filed, else None, by a test with no gcd.  Only counts at
    an integer or at d_bar are, the thresholds read again (a proof's integer
    probes, multiplicity_of_one, sigma and lemma26)."""
    if x % den == 0:
        return "cnt", x // den, 1
    if x * n == 2 * (n - 1) * den:
        g = math.gcd(2 * (n - 1), n)
        return "cnt", 2 * (n - 1) // g, n // g
    return None


def _count(tree: Tree, x: int, den: int, exact: bool = False) -> EigCounts:
    """Exact counts at x / den (den > 0), from the tree's cache or by `_inertia`
    (`exact` as there) at the reduced fraction, filed where `_kept` says."""
    key = _kept(tree.n, x, den)
    hit = tree._cache.get(key) if key else None
    if hit is None:
        g = math.gcd(x, den)
        hit = EigCounts(*_inertia(tree, -(x // g), den // g, tree.count_root(), exact))
        if key:
            tree._cache[key] = hit
    return hit


def count_eigs(tree: Tree, x) -> EigCounts:
    """Exact (#mu < x, #mu == x, #mu > x), deciding ties at rational x.

    Equivalent to diagonalizing (T, -x): negative diagonal entries are the
    eigenvalues below x, zeros the multiplicity of x, positives the rest.
    Cached per tree at the integers and at d_bar only (`_kept`).  x is a
    finite number that Fraction(x) reads exactly (an int, a Fraction, a
    float, a Decimal); a NaN, an infinity, a bool and a string (which
    Fraction would read as 0, 1 or a parsed number) are refused.
    """
    if type(x) is not Fraction:
        x = _threshold(x)
    return _count(tree, x.numerator, x.denominator)


def _threshold(x) -> Fraction:
    """count_eigs's threshold x as a Fraction, or BadParam (see count_eigs)."""
    if not isinstance(x, (bool, str)):
        try:
            return Fraction(x)
        except (TypeError, ValueError, OverflowError):  # not a number, a NaN, an infinity
            pass
    raise BadParam(f"count_eigs takes a finite rational threshold, got {x!r}")


def multiplicity_of_one(tree: Tree) -> int:
    """Exact multiplicity of eigenvalue 1 (at least p - q by Faria's bound)."""
    return count_eigs(tree, 1).equal


def average_degree(tree: Tree) -> Fraction:
    return Fraction(2 * (tree.n - 1), tree.n)


def sigma(tree: Tree) -> int:
    """Number of Laplacian eigenvalues >= average degree, decided exactly."""
    return tree.n - count_eigs(tree, average_degree(tree)).below


# ---- certified enclosures ----------------------------------------------------


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


def _propose(n: int, est: np.ndarray, tol: float) -> tuple[list[tuple[int, list[int]]], np.ndarray]:
    """([(den, points)], alpha): for each row of `est`, the ascending float
    estimates of one tree of order n, its first probes, each an integer N
    standing for N / den, ascending: 0, n, d_bar, the integers next to a
    cluster of estimates and the points tol/2 outside each cluster; and for
    the walk, the correctly rounded -N / den of every point (NaN past a
    row's end).  Correctness never depends on the estimates.

    The clusters of every row are found at once.  Cluster ends are floats,
    so den, the lcm of n, 2 den(tol) and their powers of two, is lcm(n,
    2 den(tol)) raised to the largest power.  A side probe's alpha is tol/2
    - clo (or -tol/2 - chi), one correctly rounded subtraction, if tol/2 is
    a float, else NaN.  A point proposed twice is kept once."""
    (tn, td), eps = tol.as_integer_ratio(), float(tol)
    half = eps / 2 if eps / 2 * 2 == eps == tol else math.nan
    cut = np.ones((len(est), n + 1), dtype=bool)  # cut[b, i]: in row b a cluster starts at i, one ends at i - 1
    cut[:, 1:-1] = est[:, 1:] - est[:, :-1] > eps
    ends = np.stack([est[cut[:, :-1]], est[cut[:, 1:]]])  # every cluster's first and last estimate, row after row
    frac, exp = np.frexp(ends)
    mant = (frac * 2.0 ** 53).astype(np.int64)  # end == mant * 2**(exp - 53) exactly
    zeros = np.frexp(mant & -mant)[1] - 1  # its trailing zero bits, -1 at 0
    exp = np.where(mant == 0, 0, exp - 53 + zeros)
    mant >>= np.maximum(zeros, 0)  # end == mant * 2**exp, mant odd or 0
    center = (ends[0] + ends[1]) / 2
    k = np.rint(center)
    near = (abs(center - k) < 0.45).tolist()
    (clo, chi), (lo_m, hi_m), (lo_e, hi_e), k = ends.tolist(), mant.tolist(), exp.tolist(), k.tolist()
    base = math.lcm(n, 2 * td)
    two = (base & -base).bit_length() - 1  # base = odd * 2**two
    odd = base >> two
    probes, rows, start = [], [], 0
    for end in np.cumsum(cut[:, :-1].sum(axis=1)).tolist():
        p = max(two, -min(lo_e[start:end]), -min(hi_e[start:end]))
        den = odd << p
        pad, top = tn * (den // (2 * td)), n * den
        at = {}  # point -> its alpha
        for j in range(start, end):
            lo = ((lo_m[j] * odd) << (p + lo_e[j])) - pad
            if lo > 0:
                at[lo] = half - clo[j]
            hi = ((hi_m[j] * odd) << (p + hi_e[j])) + pad
            if 0 < hi < top:  # eigvalsh can put the zero eigenvalue below 0
                at[hi] = -half - chi[j]
        at.update({int(k[j]) * den: -k[j] for j in range(start, end) if near[j] and 0 <= k[j] <= n})
        at[0], at[top], at[2 * (n - 1) * (den // n)] = 0.0, -float(n), -(2 * (n - 1) / n)
        start = end
        points = sorted(at)
        probes.append((den, points))
        rows.append([at[x] for x in points])
    width = max(map(len, rows))
    return probes, np.array([row + [math.nan] * (width - len(row)) for row in rows])


def _bisect(tree: Tree, tol: Fraction, den: int, points: list[int],
            below: list[int], equal: list[int]) -> tuple[int, list[tuple[int, int, int]]]:
    """(den, [(lo, hi, count)] descending) from the exact counts at the first
    probes `points` (over den): `below[i]` eigenvalues lie below points[i]
    and `equal[i]` on it.  Each interval is bisected until at most tol wide;
    each entry is proved by exact counts to hold exactly `count` eigenvalues,
    one with lo == hi is an exact hit, and none has d_bar strictly inside."""
    n, (tn, td) = tree.n, tol.as_integer_ratio()
    if below[0] != 0 or equal[0] != 1:
        raise AssertionError("Laplacian of a connected tree must have kernel exactly {0}")
    if below[-1] + equal[-1] != n:
        raise AssertionError("eigenvalues must lie in [0, n]")

    # work items (lo, hi, m, #mu <= lo): too wide, m eigenvalues strictly inside; a first one
    # at most tol wide, as around a lone estimate, is settled at once
    found = [(x, x, e) for x, e in zip(points, equal) if e]
    work: list[tuple[int, int, int, int]] = []
    wide = tn * den
    for a, b, below_a, equal_a, below_b in zip(points, points[1:], below, equal, below[1:]):
        m = below_b - below_a - equal_a
        if m > 0:
            if (b - a) * td <= wide:
                found.append((a, b, m))
            else:
                work.append((a, b, m, below_a + equal_a))

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
        c = _count(tree, mid, den)
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

_SLOPE, _TINY = np.array([[-2.0 ** -52], [2.0 ** -52]]), np.array([[-5e-324], [5e-324]])  # lo down, hi up


def _outward(x: np.ndarray) -> np.ndarray:
    """x, its lo rows (index 0 of axis -2) moved down and its hi rows up in
    place by |x| 2**-52 and 2**-1074: at least the one ulp math.nextafter
    takes (an ulp is at most |x| 2**-52, or 2**-1074 below the normal range),
    in four numpy passes that cost less than one np.nextafter pass.  An inf
    moved toward the other side turns NaN, which declines."""
    x += np.abs(x) * _SLOPE
    x += _TINY
    return x


def _below_many(trees: Sequence[Tree], alpha: np.ndarray) -> np.ndarray:
    """For trees of one order and alpha[b] the correctly rounded floats of
    exact thresholds -alpha of trees[b] (NaN lanes are padding): the number
    of eigenvalues of trees[b] below each threshold, or -1 where the float
    stage declines.

    This is `_inertia_float` on every lane at once, per vertex rather than
    per class, as the trees' class tables differ while their vertices line
    up: numbered by their post-order place from the count root, step i
    takes vertex i of every tree.  Pivot intervals are a (B, n, 2, P)
    array, lo and hi on the third axis; alpha and every +, - and 1/x result
    are moved outward (_outward), and each vertex's reciprocal is scattered
    into its parent's pivot.  A lane whose pivot intervals all exclude 0
    and are finite has the exact pass's tally, as in _inertia_float.
    """
    n, rows = trees[0].n, np.arange(len(trees))
    oriented = [t.rooted(t.count_root()) for t in trees]
    order = np.array([o for o, _, _ in oriented], dtype=np.intp)  # order[b, i]: vertex i of the walk
    place = np.argsort(order, axis=1)  # the inverse permutation
    deg = np.take_along_axis(np.array([t.degrees for t in trees], dtype=float), order, 1)
    parent = np.array([p for _, p, _ in oriented], dtype=np.intp)  # -1 at the root, never read
    parent = np.take_along_axis(place, np.take_along_axis(parent, order, 1), 1)
    with np.errstate(all="ignore"):
        piv = _outward(deg[:, :, None, None] + _outward(np.stack([alpha, alpha], axis=1))[:, None])  # (B, n, 2, P)
        for i in range(n - 1):  # a parent's place is after its children's
            inv = _outward(1.0 / piv[:, i, ::-1])  # [1/hi, 1/lo]
            up = parent[:, i]
            piv[rows, up] = _outward(piv[rows, up] - inv[:, ::-1])
        # vertex i's pivot is final once step i has read it, so all are tallied at the end
        lo, hi = piv[:, :, 0], piv[:, :, 1]
        neg = (hi < 0.0) & (-np.inf < lo)
        decided = (neg | ((0.0 < lo) & (lo <= hi) & (hi < np.inf))).all(axis=1)
    return np.where(decided, neg.sum(axis=1), -1)


class _Lazy:
    """A Spectrum attribute set on the instance at its first read, as
    functools.cached_property sets one, but with no lock: Python 3.11 takes
    one on every first read, a cost each exhaustive record paid twice.
    `fill(spec)` returns a dict of attributes, this one among them, and all
    of them are set at once, so sigma and the energy come from one pass."""

    def __init__(self, fill):
        self.fill = fill

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, spec, owner=None):
        if spec is None:
            return self
        values = self.fill(spec)
        vars(spec).update(values)
        return values[self.name]


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

    def _fill_sigma_energy(self) -> dict:
        """sigma, #{mu_i >= d_bar}, and the energy, in one pass over `distinct`:
        the top sigma eigenvalues are the enclosures with lo >= d_bar, and
        den * S_sigma is bounded as _top_sum(sigma) bounds it, by their sums
        and by the trace minus the sums of the rest."""
        n, den = self.n, self.den
        d_bar = 2 * (n - 1) * (den // n)
        sigma = top_lo = top_hi = rest_lo = rest_hi = 0
        for lo, hi, m in self.distinct:
            top = lo >= d_bar
            if m > 1:  # most eigenvalues are simple, and then no product is taken
                lo, hi = m * lo, m * hi
            if top:
                sigma += m
                top_lo += lo
                top_hi += hi
            else:
                rest_lo += lo
                rest_hi += hi
        trace, shift = 2 * (n - 1) * den, sigma * d_bar
        lo, hi = max(top_lo, trace - rest_hi), min(top_hi, trace - rest_lo)
        return {"sigma": sigma, "_energy": Enclosure(2 * (lo - shift), 2 * (hi - shift), den)}

    sigma = _Lazy(_fill_sigma_energy)
    _energy = _Lazy(_fill_sigma_energy)

    def _fill_enclosures(self) -> dict:
        """Per-index enclosures of mu_1, ..., mu_n as Fraction pairs."""
        den = self.den
        return {"enclosures": tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in self._per_index)}

    enclosures = _Lazy(_fill_enclosures)

    def _fill_per_index(self) -> dict:
        return {"_per_index": tuple(e for lo, hi, m in self.distinct for e in [(lo, hi)] * m)}

    _per_index = _Lazy(_fill_per_index)

    @property
    def values(self) -> tuple[float, ...]:
        """Float midpoints, descending (display only)."""
        den = self.den
        return tuple(v for lo, hi, m in self.distinct for v in [(lo / den + hi / den) / 2] * m)

    def enclosure(self, i: int) -> Enclosure:
        """Certified interval for mu_i (1-based, descending)."""
        check_index("i", i, 1, self.n)
        return Enclosure(*self._per_index[i - 1], self.den)

    def _fill_running_sums(self) -> dict:
        # s_k is asked for every k by the bound checks
        los = list(accumulate((lo for lo, _, m in self.distinct for _ in range(m)), initial=0))
        his = list(accumulate((hi for _, hi, m in self.distinct for _ in range(m)), initial=0))
        return {"_running_sums": (los, his)}

    _running_sums = _Lazy(_fill_running_sums)

    def _top_sum(self, k: int) -> tuple[int, int]:
        """den * S_k bounded by the top k enclosures and by the trace minus the rest."""
        los, his = self._running_sums
        trace = 2 * (self.n - 1) * self.den
        return max(los[k], trace - his[-1] + his[k]), min(his[k], trace - los[-1] + los[k])

    def s_k(self, k: int) -> Enclosure:
        """Sum of the k largest eigenvalues; width <= k*tol (tighter via trace)."""
        check_index("k", k, 0, self.n)
        return Enclosure(*self._top_sum(k), self.den)

    def laplacian_energy(self) -> Enclosure:
        """LE = sum |mu_i - d_bar| = 2 (S_sigma - sigma * d_bar), with S_sigma
        bounded as in s_k."""
        return self._energy


def check_tol(tol: float) -> None:
    """The one rule for a tolerance: finite and > 0."""
    if not 0 < tol < math.inf:
        raise BadParam(f"tol must be finite and > 0, got {tol}")


def _prove(trees: Sequence[Tree], tol: float) -> list[Spectrum]:
    """The Spectrums of trees of one order at tol, each cached on its tree:
    one stacked eigvalsh and _propose give the first probes; a lone tree
    counts them through count_eigs, a block in one walk (_below_many) whose
    declined lanes go to the exact pass and whose decided lanes at an
    integer or d_bar are filed where `_kept` says; then each is bisected."""
    n, frac_tol = trees[0].n, Fraction(tol)
    probes, alpha = _propose(n, np.linalg.eigvalsh(_laplacians(trees)), tol)
    if len(trees) > 1:
        walked = _below_many(trees, alpha)
        again = (walked < 0) | (alpha == np.rint(alpha)) | (alpha == -(2 * (n - 1) / n))
    specs = []
    for b, (tree, (den, points)) in enumerate(zip(trees, probes)):
        if len(trees) == 1:
            counts = [count_eigs(tree, Fraction(x, den)) for x in points]
            below, equal = [c.below for c in counts], [c.equal for c in counts]
        else:
            below, equal = walked[b, :len(points)].tolist(), [0] * len(points)
            for i in np.flatnonzero(again[b, :len(points)]).tolist():
                if below[i] < 0:  # the walk declines at every eigenvalue, and so would _inertia_float
                    below[i], equal[i], _ = _count(tree, points[i], den, True)
                elif key := _kept(n, points[i], den):
                    tree._cache[key] = EigCounts(below[i], 0, n - below[i])
        den, distinct = _bisect(tree, frac_tol, den, points, below, equal)
        specs.append(Spectrum(n, tuple(distinct), den))
        tree._cache[("spectrum", tol)] = specs[-1]
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
    check_index("k", k, 1, tree.n)
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
