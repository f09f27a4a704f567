"""Shared fixtures and independent oracles.

The oracles here deliberately take different routes from the library code:

* labeled-tree census via exhaustive Prüfer decoding (vs WROM generation),
* free-tree counts via the Otter rooted-tree recurrence (pure arithmetic),
* characteristic polynomials via fraction-free Bareiss determinants at
  integer points plus exact Lagrange interpolation (vs the bottom-up
  vertex recurrence),
* eigenvalue counts via a dense symmetric eigensolver, with exact integer
  rank computations resolving ties at integer probe points.

It also holds reference code that only the tests call, kept out of the
package so that `src/` has one implementation of each thing:

* `diagonalize`, the congruence pass with every diagonal value kept as an
  exact Fraction (the package counts signs with `spectral._inertia` alone:
  its float-interval stage, or its exact integer stage when a float pivot
  interval contains 0),
* `vertex_inertia_float` and `vertex_inertia_exact`, those two stages run
  once per vertex (the package runs them once per rooted isomorphism
  class),
* `class_inertia_float`, the float stage once per class with every parent
  entry rounding its child's reciprocal again and every class its own
  [d + alpha]: the same float operations in the same order as
  `spectral._inertia_float`, which rounds each once per count, so the two
  must agree bit for bit, None included,
* `fraction_enclosures`, the certified-enclosure prober with every probe an
  exact Fraction (the package carries the same probes as integers over one
  denominator per tree), and `fraction_s_k`, S_k summed over its output,
* `le_max_form` / `le_argmax`, the max-over-k form of the Laplacian energy,
* `le_two_forms`, the trace-identity energy intersected with the sum of
  absolute deviations over the enclosures; no enclosure straddles d_bar,
  so it equals `Spectrum.laplacian_energy` on every spectrum,
* the Sturm/gcd root counter, which checks the congruence counts from the
  polynomial side: `sign_changes_sturm` (distinct roots in (lo, hi]) over
  `primitive`, `poly_divmod`, `poly_gcd` and `squarefree_part`, and Yun's
  `squarefree_decomposition` with `root_count_with_multiplicity`,
* `leading`, `is_zero`, `eval_poly` and `derivative`, the `Poly` helpers
  only that counter and the tests use,
* `laplacian_matrix`, one tree's dense Laplacian from the package's one
  builder, `spectral._laplacians`,
* `assert_component_codes`, the components of T - e that a run shares
  (`bounds._shared_split`) against those delete_edge builds, and the
  rooted side codes of `side_codes` against the recursive
  `rooted_side_code`,
* `char_poly_forest`, `relabel`, and `pi_rational_bounds`, an independent
  Machin-series enclosure of pi,
* `le_by_top_sum`, the energy enclosure read off running sums over every
  index (the package sums the distinct enclosures in one pass),
* `record_json_by_join`, a record's JSON line joined field by field (the
  package reads every field with one attrgetter and fills one format
  string per record type), and `read_records`,
  the records of a run's jsonl report or sink (a run keeps none),
* `fraction_ge`, `fraction_value`, `fraction_err` and `fraction_slack`, the
  comparison, midpoint, error and slack of an enclosure computed on
  Fraction endpoints (the package decides them by integer
  cross-multiplication over each enclosure's denominator), and
  `enclosure_of`, which puts two Fraction endpoints over one denominator.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np
import pytest

from treelap import bounds
from treelap.charpoly import ONE, Poly, char_poly
from treelap.errors import BadParam
from treelap.intervals import Enclosure
from treelap.spectral import EigCounts, Spectrum, _laplacians, average_degree, count_eigs
from treelap.tree import Tree, canonical_code, delete_edge, from_pruefer, side_codes
from treelap.verify import _FIELDS, VerifyRecord


# ---------------------------------------------------------------- labeled census


def all_labeled_trees(n: int):
    """Every labeled tree on n vertices, by decoding every Prüfer sequence."""
    if n == 1:
        yield Tree(1, [])
        return
    if n == 2:
        yield Tree(2, [(0, 1)])
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield from_pruefer(list(seq))


@functools.lru_cache(maxsize=None)
def pruefer_census(n: int) -> dict[bytes, Tree]:
    """One representative per isomorphism class, keyed by canonical code.

    Exhaustive decoding costs n^(n-2) trees; capped at n = 8 (262144).
    """
    assert n <= 8, "Prüfer census is only feasible up to n = 8"
    reps: dict[bytes, Tree] = {}
    for t in all_labeled_trees(n):
        reps.setdefault(canonical_code(t), t)
    return reps


# ------------------------------------------------------------------ Otter counts


def otter_free_tree_counts(n_max: int) -> list[int]:
    """counts[n] = number of free trees on n vertices, via the rooted-tree
    recurrence and Otter's dissimilarity formula."""
    r = [0] * (n_max + 1)
    if n_max >= 1:
        r[1] = 1
    dsum = [0] * (n_max + 1)  # dsum[k] = sum over d | k of d * r[d]
    for n in range(2, n_max + 1):
        k = n - 1
        dsum[k] = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
        total = sum(dsum[k2] * r[n - k2] for k2 in range(1, n))
        assert total % (n - 1) == 0
        r[n] = total // (n - 1)
    # Otter: T(x) = R(x) - (R(x)^2 - R(x^2)) / 2
    t = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        pairs = sum(r[i] * r[n - i] for i in range(1, n))
        half = r[n // 2] if n % 2 == 0 else 0
        assert (pairs - half) % 2 == 0
        t[n] = r[n] - (pairs - half) // 2
    return t


# ---------------------------------------------------------- exact dense charpoly


def bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    m = [row[:] for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def dense_charpoly(tree: Tree) -> list[int]:
    """det(xI - L) exactly: Bareiss determinants at x = 0..n, Lagrange
    interpolation of the unique degree-n polynomial through them."""
    n = tree.n
    lap = [[0] * n for _ in range(n)]
    for u, v in tree.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    points = list(range(n + 1))
    values = []
    for x in points:
        m = [[(x if i == j else 0) - lap[i][j] for j in range(n)] for i in range(n)]
        values.append(bareiss_det(m))
    # Lagrange interpolation with exact rational arithmetic
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(points):
        numer = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(numer) + 1)
            for d, c in enumerate(numer):
                new[d] -= c * xj
                new[d + 1] += c
            numer = new
            denom *= xi - xj
        scale = Fraction(values[i]) / denom
        for d, c in enumerate(numer):
            coeffs[d] += c * scale
    out = []
    for c in coeffs:
        assert c.denominator == 1
        out.append(c.numerator)
    return out


# ----------------------------------------------------------- eigen-count oracle


def laplacian_matrix(tree: Tree) -> np.ndarray:
    """Dense L = D - A as float64, from the package's one builder."""
    return _laplacians([tree])[0]


def laplacian_np(tree: Tree) -> np.ndarray:
    n = tree.n
    lap = np.zeros((n, n))
    for u, v in tree.edges:
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    return lap


def exact_integer_eigen_multiplicity(tree: Tree, k: int) -> int:
    """dim ker(L - kI) by exact fraction-free integer elimination."""
    n = tree.n
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = tree.degrees[i] - k
    for u, v in tree.edges:
        m[u][v] = m[v][u] = -1
    rank = 0
    prev = 1
    for col in range(n):
        piv = next((i for i in range(rank, n) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        for i in range(rank + 1, n):
            mic = m[i][col]
            row_i = m[i]
            row_r = m[rank]
            for j in range(col, n):
                q, r = divmod(row_i[j] * lead - mic * row_r[j], prev)
                assert r == 0, "Bareiss divisibility violated"
                row_i[j] = q
        prev = lead
        rank += 1
    return n - rank


def oracle_counts(tree: Tree, x: Fraction) -> tuple[int, int, int]:
    """(below, equal, above) from a dense symmetric eigensolver.

    A rational eigenvalue of a monic integer polynomial is an integer, so
    ties can only happen at integer probes, where the multiplicity is
    computed exactly as a kernel dimension.  The float classification then
    only has to separate the remaining eigenvalues from the probe, which is
    asserted with a wide safety band.  When x is not an eigenvalue and a
    float falls in that band, the count below x is taken exactly instead,
    from Sturm sequences of the Bareiss characteristic polynomial; any other
    float in the ambiguous annulus fails the test loudly instead of guessing.
    """
    x = Fraction(x)
    vals = np.linalg.eigvalsh(laplacian_np(tree))
    fx = float(x)
    if x.denominator == 1:
        equal = exact_integer_eigen_multiplicity(tree, x.numerator)
    else:
        equal = 0
    near = np.abs(vals - fx) < 1e-7
    if not equal and near.any():
        below = root_count_with_multiplicity(Poly(dense_charpoly(tree)), -1, x)
        return below, 0, tree.n - below
    assert int(near.sum()) == equal, f"ambiguous float cluster at probe {x}"
    if equal:
        assert np.all((np.abs(vals - fx) < 1e-9) | (np.abs(vals - fx) > 1e-5))
    below = int(np.sum((vals < fx) & ~near))
    above = int(np.sum((vals > fx) & ~near))
    return below, equal, above


# ------------------------------------------------------ congruence pass oracle


@dataclass(frozen=True)
class DiagOutcome:
    """Full record of one congruence pass on L(T) + alpha*I.

    counts is the sign tally of values: (negative, zero, positive) — by the
    inertia lemma these are the eigenvalues below / equal to / above -alpha.
    substitutions lists the (vertex, zero-child) pairs rewritten to
    (-1/2, 2); removed_edges the severed parent edges.
    """

    alpha: Fraction
    values: tuple[Fraction, ...]
    substitutions: tuple[tuple[int, int], ...]
    removed_edges: tuple[tuple[int, int], ...]
    counts: EigCounts


def diagonalize(tree: Tree, alpha, root: int = 0) -> DiagOutcome:
    """The congruence pass with per-vertex values kept as exact rationals."""
    alpha = Fraction(alpha)
    n = tree.n
    order, parent, kids = tree.rooted(root)
    vals: list[Fraction] = [tree.degrees[v] + alpha for v in range(n)]
    severed = [False] * n
    subs = []
    removed = []
    for v in order:
        ks = kids[v]
        if not ks:
            continue
        zero_child = -1
        for c in ks:
            if not severed[c] and vals[c] == 0:
                zero_child = c
                break
        if zero_child >= 0:
            vals[zero_child] = Fraction(2)
            vals[v] = Fraction(-1, 2)
            subs.append((v, zero_child))
            if parent[v] >= 0:
                severed[v] = True
                removed.append((v, parent[v]))
        else:
            acc = vals[v]
            for c in ks:
                if not severed[c]:
                    acc -= 1 / vals[c]
            vals[v] = acc
    neg = sum(1 for x in vals if x < 0)
    zero = sum(1 for x in vals if x == 0)
    return DiagOutcome(
        alpha=alpha,
        values=tuple(vals),
        substitutions=tuple(subs),
        removed_edges=tuple(removed),
        counts=EigCounts(neg, zero, n - neg - zero),
    )


def vertex_inertia_float(tree: Tree, p: int, q: int, root: int) -> tuple[int, int, int] | None:
    """The float stage of `spectral._inertia` run once per vertex: the sign
    tally from float intervals, or None if undecided.

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


def class_inertia_float(tree: Tree, p: int, q: int, root: int) -> tuple[int, int, int] | None:
    """`spectral._inertia_float` with no per-count tables: each class rounds
    its own [d + alpha] and keeps [lo, hi], and each parent entry rounds
    the child's [1/hi, 1/lo] again.  Same operations, same order, so the
    same intervals and the same return, None included."""
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


def vertex_inertia_exact(tree: Tree, p: int, q: int, root: int) -> tuple[int, int, int]:
    """The exact stage of `spectral._inertia` run once per vertex: the tally
    by the exact integer pass, zero pivots included.

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


# ----------------------------------------------------------- Fraction prober


def clusters(vals: np.ndarray, eps: float) -> list[tuple[float, float]]:
    """The runs of ascending `vals` whose neighbours lie at most eps apart,
    as (first, last) pairs: the clusters `spectral._propose` brackets."""
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


def propose_oracle(n: int, est: np.ndarray, tol: Fraction) -> tuple[int, list[int]]:
    """(den, points): the first probes `spectral._propose` must give a tree of
    order n with ascending float estimates `est`, one estimate row at a time
    and with every denominator from float.as_integer_ratio and math.lcm."""
    tn, td = tol.numerator, tol.denominator
    found = clusters(est, float(tol))
    ratios = [(clo.as_integer_ratio(), chi.as_integer_ratio()) for clo, chi in found]
    den = math.lcm(n, 2 * td, *(d for pair in ratios for _, d in pair))
    pad = tn * (den // (2 * td))
    top = n * den
    points = {0, top, 2 * (n - 1) * (den // n)}  # 0, n, d_bar
    for (clo, chi), ((lo_n, lo_d), (hi_n, hi_d)) in zip(found, ratios):
        center = (clo + chi) / 2
        k = round(center)
        if abs(center - k) < 0.45 and 0 <= k <= n:
            points.add(k * den)
        lo_p = lo_n * (den // lo_d) - pad
        hi_p = hi_n * (den // hi_d) + pad
        if lo_p > 0:
            points.add(lo_p)
        if 0 < hi_p < top:
            points.add(hi_p)
    return den, sorted(points)


def walk_alphas(probes: Sequence[tuple[int, list[int]]]) -> np.ndarray:
    """The alpha rows `spectral._below_many` takes for probes[b] = (den,
    [N, ...]): -N / den, correctly rounded by int true division, NaN past
    the end of a short row."""
    alpha = np.full((len(probes), max(len(points) for _, points in probes)), np.nan)
    for b, (den, points) in enumerate(probes):
        alpha[b, :len(points)] = [-x / den for x in points]
    return alpha


def fraction_enclosures(tree: Tree, tol: Fraction) -> list[tuple[Fraction, Fraction, int]]:
    """Ascending [(lo, hi, count)] covering the whole spectrum, the prober
    of `spectral._prove` with every probe an exact Fraction.

    Same probes and same bisection, so the same enclosures: the package keeps
    them as integers over one denominator per tree instead.
    """
    n = tree.n
    top = Fraction(n)
    est = np.linalg.eigvalsh(laplacian_matrix(tree))
    pad = tol / 2
    probes = [Fraction(0), top, average_degree(tree)]
    for clo, chi in clusters(est, float(tol)):
        center = (clo + chi) / 2
        k = round(center)
        if abs(center - k) < 0.45 and 0 <= k <= n:
            probes.append(Fraction(k))
        lo_p = Fraction(clo) - pad
        hi_p = Fraction(chi) + pad
        if lo_p > 0:
            probes.append(lo_p)
        if 0 < hi_p < top:
            probes.append(hi_p)

    points = sorted(set(probes))
    counts = [count_eigs(tree, x) for x in points]
    found = [(x, x, c.equal) for x, c in zip(points, counts) if c.equal]
    work = []
    for a, b, ca, cb in zip(points, points[1:], counts, counts[1:]):
        m = cb.below - ca.below - ca.equal
        if m > 0:
            work.append((a, b, m, ca.below + ca.equal))
    while work:
        lo, hi, m, at_lo = work.pop()
        if hi - lo <= tol:
            found.append((lo, hi, m))
            continue
        mid = Fraction((float(lo) + float(hi)) / 2)
        if not (lo < mid < hi):
            mid = (lo + hi) / 2
        c = count_eigs(tree, mid)
        if c.equal:
            found.append((mid, mid, c.equal))
        m_left = c.below - at_lo
        m_right = m - m_left - c.equal
        if m_left > 0:
            work.append((lo, mid, m_left, at_lo))
        if m_right > 0:
            work.append((mid, hi, m_right, c.below + c.equal))
    found.sort()
    return found


def fraction_s_k(distinct: list[tuple[Fraction, Fraction, int]], n: int, k: int) -> Enclosure:
    """S_k over `fraction_enclosures` output, summed in Fractions: the top k
    enclosures against the trace 2(n-1) minus the bottom n - k."""
    per_index = [(lo, hi) for lo, hi, m in reversed(distinct) for _ in range(m)]
    trace = Fraction(2 * (n - 1))
    top_lo = sum((lo for lo, _ in per_index[:k]), Fraction(0))
    top_hi = sum((hi for _, hi in per_index[:k]), Fraction(0))
    rest_lo = sum((lo for lo, _ in per_index[k:]), Fraction(0))
    rest_hi = sum((hi for _, hi in per_index[k:]), Fraction(0))
    return enclosure_of(max(top_lo, trace - rest_hi), min(top_hi, trace - rest_lo))


# ------------------------------------------------------- energy max-form oracle


def _d_bar(spec: Spectrum) -> Fraction:
    return Fraction(2 * (spec.n - 1), spec.n)


def le_max_form(spec: Spectrum) -> Enclosure:
    """2 max_k (S_k - k * d_bar); must agree with spec.laplacian_energy()."""
    d_bar = _d_bar(spec)
    best_lo = best_hi = Fraction(0)
    for k in range(1, spec.n + 1):
        s = spec.s_k(k)
        best_lo = max(best_lo, s.lo - k * d_bar)
        best_hi = max(best_hi, s.hi - k * d_bar)
    return enclosure_of(2 * best_lo, 2 * best_hi)


def le_argmax(spec: Spectrum) -> int:
    """k maximizing the midpoint of S_k - k*d_bar (ties: smallest k)."""
    d_bar = _d_bar(spec)
    best_k = 1
    best = None
    for k in range(1, spec.n + 1):
        s = spec.s_k(k)
        mid = s.lo + s.hi - 2 * k * d_bar
        if best is None or mid > best:
            best = mid
            best_k = k
    return best_k


def le_two_forms(spec: Spectrum) -> Enclosure:
    """2 (S_sigma - sigma * d_bar) intersected with sum |mu_i - d_bar|, both
    over the enclosures as they stand (no clamping to a side of d_bar)."""
    d_bar = _d_bar(spec)
    s, shift = spec.s_k(spec.sigma), spec.sigma * d_bar
    main_lo, main_hi = 2 * (s.lo - shift), 2 * (s.hi - shift)
    dev_lo = dev_hi = Fraction(0)
    for lo, hi in spec.enclosures:
        if lo >= d_bar:
            dev_lo, dev_hi = dev_lo + lo - d_bar, dev_hi + hi - d_bar
        elif hi <= d_bar:
            dev_lo, dev_hi = dev_lo + d_bar - hi, dev_hi + d_bar - lo
        else:
            dev_hi += max(d_bar - lo, hi - d_bar)
    return enclosure_of(max(main_lo, dev_lo), min(main_hi, dev_hi))


def le_by_top_sum(spec: Spectrum, sigma: int) -> tuple[int, int, int]:
    """(lo_n, hi_n, den) of LE = 2 (S_sigma - sigma * d_bar) read off the
    running sums of every index, S_sigma bounded by `Spectrum._top_sum`,
    with sigma given (say n minus the exact count below d_bar): the
    integers that the one-pass `Spectrum._energy` must give."""
    lo, hi = spec._top_sum(sigma)
    shift = sigma * 2 * (spec.n - 1) * (spec.den // spec.n)
    return 2 * (lo - shift), 2 * (hi - shift), spec.den


# ------------------------------------------------------------ polynomial oracles


def leading(p: Poly):
    if not p.coeffs:
        raise BadParam("zero polynomial has no leading coefficient")
    return p.coeffs[-1]


def is_zero(p: Poly) -> bool:
    return not p.coeffs


def eval_poly(p: Poly, x) -> Fraction:
    """Exact Horner evaluation."""
    acc = Fraction(0)
    x = Fraction(x)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def char_poly_forest(trees) -> Poly:
    """Characteristic polynomial of a disjoint union of trees."""
    out = ONE
    for t in trees:
        out = out * char_poly(t)
    return out


def _content(p: Poly) -> Fraction:
    """Positive rational c with p/c primitive integer, matching p's lead sign."""
    num_gcd = 0
    den_lcm = 1
    for c in p.coeffs:
        f = Fraction(c)
        num_gcd = gcd(num_gcd, abs(f.numerator))
        den_lcm = den_lcm * f.denominator // gcd(den_lcm, f.denominator)
    if num_gcd == 0:
        return Fraction(1)
    return Fraction(num_gcd, den_lcm)


def primitive(p: Poly) -> Poly:
    """Integer polynomial with coprime coefficients and positive leading term."""
    if is_zero(p):
        return p
    c = _content(p)
    if leading(p) < 0:
        c = -c
    return Poly([Fraction(x) / c for x in p.coeffs])


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Exact (quotient, remainder) over the rationals; b must be nonzero."""
    if is_zero(b):
        raise BadParam("polynomial division by zero")
    rem = [Fraction(c) for c in a.coeffs]
    bl = Fraction(leading(b))
    bdeg = b.degree
    quo = [Fraction(0)] * max(len(rem) - bdeg, 0)
    while len(rem) - 1 >= bdeg and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < bdeg:
            break
        shift = len(rem) - 1 - bdeg
        q = rem[-1] / bl
        quo[shift] = q
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= q * c
        rem.pop()
    return Poly(quo), Poly(rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive positive-leading gcd over the rationals."""
    a, b = primitive(a), primitive(b)
    while not is_zero(b):
        _, r = poly_divmod(a, b)
        a, b = b, primitive(r)
    return a


def squarefree_part(p: Poly) -> Poly:
    """p with all root multiplicities reduced to one (primitive, lead > 0)."""
    if is_zero(p):
        raise BadParam("zero polynomial has no squarefree part")
    if p.degree == 0:
        return ONE
    g = poly_gcd(p, derivative(p))
    if g.degree == 0:
        return primitive(p)
    q, r = poly_divmod(p, g)
    assert is_zero(r)
    return primitive(q)


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, primitive(derivative(p))]
    while chain[-1].degree > 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        if is_zero(r):
            break
        chain.append(primitive(-r))
    return [q for q in chain if not is_zero(q)]


def _sign_variations(chain: Sequence[Poly], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = eval_poly(q, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sign_changes_sturm(p: Poly, lo, hi) -> int:
    """Exact count of distinct real roots of p in the half-open interval (lo, hi].

    The chain is built on the squarefree part, so multiple roots are counted
    once.  Standard Sturm convention: dropping zero entries from the sign
    sequences makes the count inclusive at hi and exclusive at lo.
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo >= hi:
        raise BadParam(f"need lo < hi, got {lo} >= {hi}")
    sf = squarefree_part(p)
    if sf.degree <= 0:
        return 0
    chain = _sturm_chain(sf)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: [(q_i, i)] with p = lc * prod q_i^i, q_i squarefree,
    pairwise coprime, primitive, positive-leading; factors with q_i = 1 omitted."""
    if is_zero(p):
        raise BadParam("zero polynomial has no squarefree decomposition")
    p = primitive(p)
    if p.degree == 0:
        return []
    out = []
    g = poly_gcd(p, derivative(p))
    if g.degree == 0:
        return [(p, 1)]
    b, rb = poly_divmod(p, g)
    c, rc = poly_divmod(derivative(p), g)
    assert is_zero(rb) and is_zero(rc)
    d = c - derivative(b)
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
            b, _ = poly_divmod(b, a)
            c, _ = poly_divmod(d, a)
        else:
            c = d
        b = primitive(b)
        d = c - derivative(b)
        i += 1
    return out


def root_count_with_multiplicity(p: Poly, lo, hi) -> int:
    """Number of real roots of p in (lo, hi], multiplicities counted."""
    total = 0
    for q, mult in squarefree_decomposition(p):
        if q.degree > 0:
            total += mult * sign_changes_sturm(q, lo, hi)
    return total


# ----------------------------------------------------------------- tree relabel


def rooted_side_code(tree: Tree, v: int, away: int) -> bytes:
    """AHU code of the component of v in T - {v, away}, rooted at v, by recursion."""
    return b"(" + b"".join(sorted(rooted_side_code(tree, c, v) for c in tree.adj[v] if c != away)) + b")"


def assert_component_codes(tree: Tree, a: int, b: int) -> None:
    """Inside a run (bounds._shared_components), the two Trees
    bounds._shared_split hands out for the edge ab (a < b) have the orders
    and canonical codes of delete_edge's components: the larger first, a's
    side first when the orders tie.  A pendant edge files nothing, so there
    a side may be None.  side_codes holds each side's rooted code."""
    split = delete_edge(tree, (a, b))
    *shared, pendant = bounds._shared_split(tree, a, b)
    assert pendant == split.pendant
    for t, part in zip(shared, split):
        if t is not None or not pendant:
            assert (t.n, canonical_code(t)) == (part.n, canonical_code(part))
    rooted = side_codes(tree)
    assert (rooted[a, b], rooted[b, a]) == (rooted_side_code(tree, a, b), rooted_side_code(tree, b, a))


def relabel(tree: Tree, perm) -> Tree:
    """The same tree with vertex v renamed perm[v]."""
    if sorted(perm) != list(range(tree.n)):
        raise BadParam("perm must be a permutation of 0..n-1")
    return Tree(tree.n, [(perm[u], perm[v]) for u, v in tree.edges])


# ------------------------------------------------------------------- pi oracle


def pi_rational_bounds(digits: int = 30) -> Enclosure:
    """Independently computed enclosure of pi via Machin's formula.

    16*atan(1/5) - 4*atan(1/239) with alternating-series tail bounds,
    evaluated in exact rational arithmetic.  Used to cross-check PI.
    """
    target = Fraction(1, 10 ** (digits + 2))

    def atan_bounds(inv_x: int) -> tuple[Fraction, Fraction]:
        x = Fraction(1, inv_x)
        term = x
        total = Fraction(0)
        k = 0
        while term > target:
            total += term if k % 2 == 0 else -term
            k += 1
            term = x ** (2 * k + 1) / (2 * k + 1)
        # alternating series: truth is between consecutive partial sums
        nxt = total + (term if k % 2 == 0 else -term)
        return (min(total, nxt), max(total, nxt))

    a5 = atan_bounds(5)
    a239 = atan_bounds(239)
    return enclosure_of(16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0])


# ------------------------------------------------------ Fraction enclosure oracle


def enclosure_of(lo: Fraction, hi: Fraction) -> Enclosure:
    """The Enclosure [lo, hi] of two rationals, over their least common denominator."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = math.lcm(lo.denominator, hi.denominator)
    return Enclosure(lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den)


def fraction_ge(lo: Fraction, hi: Fraction, other_lo: Fraction, other_hi: Fraction) -> bool | None:
    """[lo, hi] >= [other_lo, other_hi]: True or False when the endpoints decide it
    (touching endpoints decide only exact against exact), None otherwise."""
    if lo > other_hi or lo == hi == other_lo == other_hi:
        return True
    if hi < other_lo:
        return False
    return None


def fraction_value(lo: Fraction, hi: Fraction) -> float:
    return float((lo + hi) / 2)


def fraction_err(lo: Fraction, hi: Fraction) -> float:
    """float((hi - lo) / 2), rounded up to a float no smaller than it."""
    half = (hi - lo) / 2
    e = float(half)
    while Fraction(e) < half:
        e = math.nextafter(e, math.inf)
    return e


def fraction_slack(lo: Fraction, other_hi: Fraction) -> float:
    return float(lo - other_hi)


# ------------------------------------------------------------ record serializer


def record_json_by_join(rec) -> str:
    """A record's JSON line joined field by field from its field table,
    `verify._FIELDS`, each field read by getattr and each float written by
    `_g15` past its cache: the text record_to_json's one attrgetter and
    one format string per record type must give."""
    return "{" + ",".join(f'"{name}":{getattr(to_json, "__wrapped__", to_json)(getattr(rec, name))}'
                          for name, to_json, _ in _FIELDS[type(rec)]) + "}"


def read_records(path) -> list[VerifyRecord]:
    """The records of a run's jsonl report or sink, in file order: a report
    is sorted by (n, code), a sink in enumeration order, and both hold
    floats at the report's 15 significant digits."""
    with open(path, encoding="ascii") as fh:
        return [VerifyRecord(**json.loads(line)) for line in fh]


# ------------------------------------------------------------------- randomness


def random_tree(n: int, rng: random.Random) -> Tree:
    """Random labeled tree by uniform random attachment."""
    if n == 1:
        return Tree(1, [])
    return Tree(n, [(rng.randrange(i), i) for i in range(1, n)])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


# ------------------------------------------------------------------ the CLI


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*argv: str, preexec_fn=None) -> subprocess.CompletedProcess:
    """`python -m treelap *argv` in a child process, its output captured as
    text.  The child gets this checkout's src first on PYTHONPATH: the
    `pythonpath` setting of pytest reaches only the pytest process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "treelap", *argv], capture_output=True, text=True, env=env,
                          preexec_fn=preexec_fn)
