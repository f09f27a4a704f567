"""Certified evaluation of the paper's inequalities and sufficient conditions.

Every check produces a BoundReport whose `holds` field is ternary: True and
False are *certified* (the rational interval endpoints clear each other, or
both sides are exact), None means undecided within the current error bounds.
Every check but lemma24 and lemma25 writes its inequality once, in a sides
function giving the integer sides ("rows") of all its calls on a tree at
once; a sufficient condition (coru, thm51-53) gives its hypothesis rows first
and its claim row only once every hypothesis is certified.  One loop,
_refined, refines a call: it reads the call's rows again at tol/2, tol/4, ...
(up to REFINE times) while their verdict is undecided.  Each report function
builds its BoundReport, for `bounds` and the API, from its call's final rows;
runs decide from the same rows with no report built: Check.rows and
Check.verdict give an exhaustive run's verdicts and the conjecture's record
values, and diam4_sides every family sweep record.

Each side is an Enclosure with integer endpoints over one denominator (the
spectrum's, n, or a product of them), so a verdict is an integer
cross-multiplication and a slack one correctly rounded division.  The only
irrational constant, pi, enters through its 30-digit rational enclosure, so
threshold decisions such as the internal-vertex condition n(pi-2)/pi >= s+2
are exact-rational comparisons.

CHECKS, at the end, is the one registry of per-tree checks: each id names
its check function, its fan-out over a tree (once, over k, over edges, over
non-pendant edges, or only when the tree qualifies) and its sides function.

Within one exhaustive run the components of T - e are shared per
isomorphism class: _shared_split hands out the run's first component of
each class, found by the rooted code side_codes(T) gives its side, so its
spectra, cached on that Tree, are computed once per class.  A run whose
checks split T - e files and proves a block's components before checking
it (_file_components); thm32's own _split_counts then finds each filed.
A component's thm32 side (its count at 2 - 4/n and the S_k endpoints that
count selects) is filed on that Tree per parent order and tolerance
(_thm32_side), so it too is made once per class.  Isomorphic trees have the
same Laplacian spectrum, so an enclosure certified on the shared tree is
certified for every member of its class.  The table lives only for the
length of the run.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple, Sequence

from . import families
from .errors import BadParam, PendantEdge, check_index
from .intervals import PI, Enclosure, ge
from .spectral import (
    average_degree,
    check_tol,
    count_eigs,
    eigenvalues,
    eigenvalues_many,
    forest_enclosures,
    multiplicity_of_one,
    sigma,  # noqa: F401  (kept as bounds.sigma; the bounds read the spectrum's)
)
from .tree import (
    Tree,
    _codes_around,
    canonical_code,
    degree_summary,
    delete_edge,
    diameter,
    join_trees,
    side_codes,
)

REFINE = 3  # tolerance halvings before a check reports undecided
THM32_MIN_N = 8  # thm32's and coru's reports on smaller trees are out of hypothesis
DIAM4_MIN_N = 19  # the diameter-4 theorem's range
NO_CLAIM = "hypotheses not satisfied; no claim made"
THM31_N_LIMIT = 10_000  # thm31_minimal_n searches below this n


@dataclass
class BoundReport:
    """One inequality evaluation: certified sides, ternary verdict, slack.

    slack is the certified margin lhs.lo - rhs.hi (for >= checks), so a
    positive slack proves the inequality with room to spare; exact ties
    report slack 0 with holds=True.
    """

    bound_id: str
    inputs: dict
    lhs: Enclosure | None
    rhs: Enclosure | None
    holds: bool | None
    slack: float | None
    hypotheses: dict = field(default_factory=dict)
    out_of_hypothesis: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "inputs": self.inputs,
            "lhs": None if self.lhs is None else self.lhs.value,
            "lhs_err": None if self.lhs is None else self.lhs.err,
            "rhs": None if self.rhs is None else self.rhs.value,
            "rhs_err": None if self.rhs is None else self.rhs.err,
            "holds": self.holds,
            "slack": self.slack,
            "hypotheses": self.hypotheses,
            "out_of_hypothesis": self.out_of_hypothesis,
            "note": self.note,
        }


def _all3(*vals: bool | None) -> bool | None:
    if False in vals:
        return False
    return None if None in vals else True


def _row_slack(lo_n: int, hi_n: int, den: int, other_lo_n: int, other_hi_n: int, other_den: int) -> float:
    """lo_n / den - other_hi_n / other_den, correctly rounded to a float:
    the slack of a row's lhs >= rhs."""
    return (lo_n * other_den - other_hi_n * den) / (den * other_den)


def _row_report(bound_id: str, inputs: dict, row: tuple, holds: bool | None, **extra) -> BoundReport:
    """The certified claim of a row, lhs >= rhs, with its verdict and slack."""
    return BoundReport(bound_id, inputs, Enclosure(*row[:3]), Enclosure(*row[3:6]), holds, _row_slack(*row[:6]),
                       **extra)


def _rows_hold(rows: list[tuple]) -> bool | None:
    """_all3 of lhs >= rhs over one call's rows, each decided as Enclosure.ge
    decides it; a loop, since _all3 of a built list costs every call more."""
    verdict = True
    for row in rows:
        holds = ge(*row[:6])
        if holds is False:
            return False
        if holds is None:
            verdict = None
    return verdict


def _refined(sides: Callable, tree: Tree, calls: Sequence[tuple], tol: float, min_n: int = 0
             ) -> tuple[list[list[tuple]], list[bool | None]]:
    """Every call's rows and its verdict, the _all3 of lhs >= rhs over its
    rows.  The rows come at once from `sides`; a call left undecided is read
    again at tol/2, tol/4, ... (up to REFINE times), unless the tree has
    fewer than min_n vertices.  A decided verdict is final, so a hypothesis
    row certified false ends the refinement of a claim it withholds."""
    if not calls:  # a fan-out may make none (lemma26 below n = 2, thm31 below 3, diam4 off diameter 4)
        return [], []
    per_call = sides(tree, calls, tol)
    verdicts = [_rows_hold(rows) for rows in per_call]
    if None in verdicts and tree.n >= min_n:
        for j, call in enumerate(calls):
            t = tol
            for _ in range(REFINE):
                if verdicts[j] is not None:
                    break
                t /= 2
                per_call[j] = sides(tree, [call], t)[0]
                verdicts[j] = _rows_hold(per_call[j])
    return per_call, verdicts


# ---- closed-form energies and the pi-interval bound -------------------------


def path_energy_upper(n: int) -> Enclosure:
    """The certified value 2 + 4n/pi (upper bound for LE of the n-path)."""
    check_index("n", n, 1, math.inf)
    # over PI.lo_n * PI.hi_n, where 4n / PI.hi = 4n PI.den PI.lo_n / (PI.lo_n PI.hi_n)
    a, b, scaled = PI.lo_n, PI.hi_n, 4 * n * PI.den
    return Enclosure(2 * a * b + scaled * a, 2 * a * b + scaled * b, a * b)


def star_energy_exact(n: int) -> Fraction:
    """LE(S_n) = 2n - 4 + 4/n exactly (n >= 2); the 1-vertex tree has LE 0."""
    check_index("n", n, 1, math.inf)
    return _star_energy(n).lo


def _star_energy(n: int) -> Enclosure:
    """LE(S_n) as an exact enclosure over n >= 1."""
    le_n = 0 if n == 1 else 2 * n * n - 4 * n + 4
    return Enclosure(le_n, le_n, n)


def path_energy_closed_form(n: int) -> Enclosure:
    """LE(P_n) from the eigenvalues 2 - 2cos(k*pi/n), k = 0..n-1.

    Evaluated in floats with an outward error allowance of n * 1e-14: each
    term costs a few correctly-rounded operations on values of magnitude
    <= 4 (< 6e-15 absolute error), and the terms are totalled with
    math.fsum, so the allowance is conservative by more than 1.5x.
    """
    check_index("n", n, 1, math.inf)
    if n == 1:
        return Enclosure.exact(0)
    db = 2 - 2 / n
    total = math.fsum(abs(2 - 2 * math.cos(k * math.pi / n) - db) for k in range(n))
    (t, t_den), (e, e_den) = total.as_integer_ratio(), (n * 1e-14).as_integer_ratio()
    den = max(t_den, e_den)  # both powers of two
    return Enclosure(t * (den // t_den) - e * (den // e_den), t * (den // t_den) + e * (den // e_den), den)


def path_energy_bound_check(n: int, lhs: Enclosure | None = None) -> BoundReport:
    """LE(P_n) <= 2 + 4n/pi, certified; lhs defaults to the closed form."""
    le = lhs if lhs is not None else path_energy_closed_form(n)
    rhs = path_energy_upper(n)
    row = (rhs.lo_n, rhs.hi_n, rhs.den, le.lo_n, le.hi_n, le.den)
    return BoundReport("lemma24", {"n": n}, le, rhs, holds=ge(*row), slack=_row_slack(*row))


# ---- per-tree lemma checks ---------------------------------------------------


def brouwer_haemers_sides(tree: Tree, calls: Sequence[tuple], tol: float = 1e-12) -> list[list[tuple]]:
    """lemma22's rows for its one (empty) call: mu_i >= d_i - i + 2 for each
    live index i.  Complete graphs are the bound's classical exception at
    i = n (mu_n = 0 against d_n - n + 2 = 1); among trees that is exactly
    K_2, whose last index is not live.  For every tree on n >= 3 vertices
    the i = n instance is vacuous (d_n - n + 2 <= 0), so all are live."""
    live = tree.n if tree.n >= 3 else tree.n - 1
    spec = eigenvalues(tree, tol)
    rows = [(lo, hi, spec.den, d - i + 2, d - i + 2, 1)
            for i, ((lo, hi), d) in enumerate(zip(spec._per_index[:live], degree_summary(tree).degrees), 1)]
    return [rows] * len(calls)


def brouwer_haemers_check(tree: Tree, tol: float = 1e-12) -> BoundReport:
    """mu_i >= d_i - i + 2 for every live index i (degree-indexed eigenvalue
    lower bound; see brouwer_haemers_sides), with the worst index's slack."""
    (rows,), (holds,) = _refined(brouwer_haemers_sides, tree, [()], tol)
    note = "" if len(rows) == tree.n else "index i = n skipped: complete-graph exception"
    slacks = [_row_slack(*row[:6]) for row in rows]
    worst = min(slacks, default=None)
    inputs = {"n": tree.n, "worst_index": slacks.index(worst) + 1 if slacks else 0}
    return BoundReport("lemma22", inputs, None, None, holds=holds, slack=worst, note=note)


def _top_degrees(tree: Tree, calls: Sequence[tuple]) -> list[tuple[int, int]]:
    """(k, sum of the k largest degrees) for each call (k,), 1 <= k <= n-1."""
    for (k,) in calls:
        check_index("k", k, 1, tree.n - 1)
    sums = list(accumulate(degree_summary(tree).degrees, initial=0))
    return [(k, sums[k]) for (k,) in calls]


def majorization_sides(tree: Tree, calls: Sequence[tuple], tol: float = 1e-12) -> list[list[tuple]]:
    """lemma31's row for each call (k,): S_k >= 1 + sum of the k largest degrees."""
    top = _top_degrees(tree, calls)
    spec = eigenvalues(tree, tol)
    return [[(*spec._top_sum(k), spec.den, 1 + d, 1 + d, 1)] for k, d in top]


def majorization_check(tree: Tree, k: int, tol: float = 1e-12) -> BoundReport:
    """S_k >= 1 + sum of the k largest degrees, 1 <= k <= n-1."""
    ((row,),), (holds,) = _refined(majorization_sides, tree, [(k,)], tol)
    return _row_report("lemma31", {"n": tree.n, "k": k}, row, holds)


def lemma21_sides(tree: Tree, calls: Sequence[tuple], tol: float = 1e-12) -> list[list[tuple]]:
    """lemma21's row for its one call, exact integers (tol is not read):
    mult(1) >= #leaves - #leaf-neighbours, followed by (p, q)."""
    ds = degree_summary(tree)
    mult, p, q = multiplicity_of_one(tree), ds.pendant_count, ds.leaf_neighbor_count
    return [[(mult, mult, 1, p - q, p - q, 1, p, q)]] * len(calls)


def lemma21_check(tree: Tree, tol: float = 1e-12) -> BoundReport:
    """Multiplicity of eigenvalue 1 is at least #leaves - #leaf-neighbors."""
    check_tol(tol)
    ((row,),), (holds,) = _refined(lemma21_sides, tree, [()], tol)
    return _row_report("lemma21", {"n": tree.n, "p": row[6], "q": row[7]}, row, holds)


def lemma26_sides(tree: Tree, calls: Sequence[tuple], tol: float = 1e-12) -> list[list[tuple]]:
    """lemma26's row for its one call, exact integers (tol is not read):
    #{mu < d_bar} >= ceil(n/2)."""
    below, need = count_eigs(tree, average_degree(tree)).below, (tree.n + 1) // 2
    return [[(below, below, 1, need, need, 1)]] * len(calls)


def lemma26_check(tree: Tree, tol: float = 1e-12) -> BoundReport:
    """At least ceil(n/2) eigenvalues lie strictly below the average degree.

    Needs n >= 2: the 1-vertex tree's only eigenvalue 0 equals its average
    degree."""
    if tree.n < 2:
        raise BadParam(f"need n >= 2, got n={tree.n}")
    check_tol(tol)
    ((row,),), (holds,) = _refined(lemma26_sides, tree, [()], tol)
    return _row_report("lemma26", {"n": tree.n}, row, holds)


def interlacing_check(tree: Tree, edge: tuple[int, int], tol: float = 1e-12) -> BoundReport:
    """mu_i(T) >= mu_i(T-e) >= mu_{i+1}(T), checked on enclosure midpoints
    within 2*tol (exact ties are common, so a strict certified check would
    be vacuous)."""
    split = delete_edge(tree, edge)
    spec = eigenvalues(tree, tol)
    sub = forest_enclosures([split.first, split.second], tol)
    mids_t = [(float(lo) + float(hi)) / 2 for lo, hi in spec.enclosures]
    mids_s = [(float(lo) + float(hi)) / 2 for lo, hi in sub]
    slack = 2 * tol
    ok = all(
        mids_t[i] >= mids_s[i] - slack
        and (i + 1 >= tree.n or mids_s[i] >= mids_t[i + 1] - slack)
        for i in range(tree.n)
    )
    return BoundReport("lemma25", {"n": tree.n, "edge": list(edge)}, None, None, holds=ok, slack=None,
                       note="midpoint comparison within 2*tol; equalities are expected")


# ---- internal-vertex condition (Theorem 3.1 and its corollaries) -------------


def thm31_condition(n: int, s: int) -> bool:
    """The sufficient condition in the form that reproduces the published
    threshold table: n (pi-2)/pi >= s + 2, decided by the pi enclosure.

    (The proof's raw inequality carries an extra -2s/n on the right; the
    published per-s minimal orders {9, 12, 14, 17, 20, 23, 25} correspond to
    the simplified form, which is the stronger requirement and still
    sufficient.)
    """
    check_index("n", n, 1, math.inf)
    check_index("s", s, 0, math.inf)
    # over PI.lo_n * PI.hi_n, as in path_energy_upper
    a, b, scaled = PI.lo_n, PI.hi_n, 2 * n * PI.den
    lhs = Enclosure(n * a * b - scaled * b, n * a * b - scaled * a, a * b)
    verdict = lhs.ge(Enclosure.exact(s + 2))
    if verdict is None:  # impossible at 30-digit pi width for integer inputs
        raise AssertionError(f"pi enclosure too wide to decide condition at ({n}, {s})")
    return verdict


def thm31_minimal_n(s: int) -> int:
    """Smallest n < THM31_N_LIMIT meeting the condition (monotone in n)."""
    check_index("s", s, 0, math.inf)
    for n in range(max(s + 2, 3), THM31_N_LIMIT):
        if thm31_condition(n, s):
            return n
    raise BadParam(f"no n < {THM31_N_LIMIT} satisfies the condition for s={s}")


@functools.lru_cache(maxsize=1024)  # (n, s) pairs; a run to n = 20 meets under 200
def _thm31_terms(n: int, s: int) -> tuple[int, tuple | None]:
    """thm31's chain value 2n + 2s - 2 - 2s d_bar over n and, when the
    internal-vertex condition holds, the row chain >= 2 + 4n/pi: both depend
    on (n, s) only, so they are made once per pair."""
    chain = n * (2 * n + 2 * s - 2) - 4 * s * (n - 1)  # over n: 2s d_bar = 4s (n - 1) / n
    upper = path_energy_upper(n)
    return chain, (chain, chain, n, upper.lo_n, upper.hi_n, upper.den) if thm31_condition(n, s) else None


def thm31_sides(tree: Tree, calls: Sequence[tuple], tol: float = 1e-12) -> list[list[tuple]]:
    """thm31's rows for its one call: LE(T) >= the chain value, followed by
    s, then, when the internal-vertex condition holds, the chain >= 2 + 4n/pi."""
    n, s = tree.n, degree_summary(tree).internal_count
    chain, clears = _thm31_terms(n, s)
    le = eigenvalues(tree, tol).laplacian_energy()
    rows = [(le.lo_n, le.hi_n, le.den, chain, chain, n, s)]
    if clears:
        rows.append(clears)
    return [rows] * len(calls)


def thm31_lower_bound(tree: Tree, tol: float = 1e-12) -> BoundReport:
    """LE(T) >= 2n + 2s - 2 - 2s*d_bar, and when the internal-vertex
    condition holds, that chain value also clears 2 + 4n/pi, proving
    LE(T) >= LE(P_n) (see thm31_sides)."""
    if tree.n < 3:
        raise BadParam(f"need n >= 3 (s >= 1 internal vertex), got n={tree.n}")
    ((first, *clears),), (holds,) = _refined(thm31_sides, tree, [()], tol)
    hypotheses = {"condition": bool(clears), "chain_clears_path_bound": ge(*clears[0][:6]) if clears else None}
    return _row_report("thm31", {"n": tree.n, "s": first[6]}, first, holds, hypotheses=hypotheses)


def cor31_lower_bound(tree: Tree, k: int) -> Fraction:
    """The exact degree-based lower bound 2 (1 + sum_{i<=k} d_i - k*d_bar)."""
    return Fraction(_cor31_bounds(tree, [(k,)])[0], tree.n)


def _cor31_bounds(tree: Tree, calls: Sequence[tuple]) -> list[int]:
    """cor31_lower_bound over n for each call (k,): k d_bar = 2k (n - 1) / n."""
    n = tree.n
    return [2 * (n * (1 + d) - 2 * k * (n - 1)) for k, d in _top_degrees(tree, calls)]


def cor31_sides(tree: Tree, calls: Sequence[tuple], tol: float = 1e-12) -> list[list[tuple]]:
    """cor31's row for each call (k,): LE(T) >= cor31_lower_bound(T, k)."""
    rhs, le = _cor31_bounds(tree, calls), eigenvalues(tree, tol)._energy
    return [[(le.lo_n, le.hi_n, le.den, b, b, tree.n)] for b in rhs]


def cor31_check(tree: Tree, k: int, tol: float = 1e-12) -> BoundReport:
    ((row,),), (holds,) = _refined(cor31_sides, tree, [(k,)], tol)
    return _row_report("cor31", {"n": tree.n, "k": k}, row, holds)


# ---- edge-deletion bounds (Theorem 3.2 and Corollary 3.4) --------------------


# rooted AHU code -> the first component of that class seen in the current
# exhaustive run, filed under its code rooted at each of its vertices; None
# outside a run (see _shared_components)
_components: dict[bytes, Tree] | None = None


@contextmanager
def _shared_components() -> Iterator[None]:
    """Share T - e components per isomorphism class for the length of the
    run: the table starts empty and is switched off on any exit."""
    global _components
    _components = {}
    try:
        yield
    finally:
        _components = None


def _file_components(trees: Sequence[Tree], config) -> None:
    """Share the T - e components of a block of trees, walked in thm32's
    order (_shared_split), and prove the ones without a spectrum at tol in
    blocks per order; nothing is filed unless one of the run's checks splits
    T - e (the "non-pendant edge" fan-out).  `config` is the run's
    RunConfig: its checks and tol are read."""
    splits = "non-pendant edge"
    if not any(CHECKS[c].fanout == splits for c in config.checks):
        return
    by_order: dict[int, dict[int, Tree]] = {}  # each order's components by id, once each, in walk order
    for t in trees:
        for ((a, b),) in _FANOUTS[splits](t):
            t1, t2, _ = _shared_split(t, a, b)
            by_order.setdefault(t1.n, {})[id(t1)] = t1
            by_order.setdefault(t2.n, {})[id(t2)] = t2
    for parts in by_order.values():
        eigenvalues_many(list(parts.values()), config.tol)


def _shared_split(tree: Tree, a: int, b: int) -> tuple[Tree | None, Tree | None, bool]:
    """(T1, T2, pendant) for T - ab inside a run, in delete_edge's order
    (larger first, a's side first on a tie; a side's order is half its
    rooted code's length), each T_i the run's Tree of its class.  A class
    new to the run is filed with delete_edge's own Tree under its code
    rooted at each of its vertices, unless the edge is pendant (then nothing
    is filed and a T_i may be None)."""
    codes = side_codes(tree)
    c1, c2 = codes[a, b], codes[b, a]
    if len(c1) < len(c2):
        c1, c2 = c2, c1
    t1, t2 = _components.get(c1), _components.get(c2)
    pendant = c2 == b"()"
    if (t1 is None or t2 is None) and not pendant:
        for part, code in zip(delete_edge(tree, (a, b)), (c1, c2)):
            if code not in _components:
                _components.update(dict.fromkeys(_codes_around(part)[1], part))
        t1, t2 = _components[c1], _components[c2]
    return t1, t2, pendant


def _split_counts(tree: Tree, edge: tuple[int, int], tol: float = 1e-12) -> tuple[Tree, Tree, int, int]:
    """(T1, T2, k1, k2) for T - e = T1 u T2 at a non-pendant edge, larger
    component first, k_i the count of eigenvalues of T_i >= d_bar(T-e) = 2 - 4/n.

    Inside _shared_components each T_i is the run's Tree of its class
    (_shared_split), so the spectra and thm32 sides cached on that one Tree
    serve the whole class; an exhaustive run has shared and proved a block's
    components before checking it (_file_components).  k_i comes from T_i's
    thm32 side (_thm32_side), filed on T_i.  Isomorphic trees share their
    spectrum, so every count and enclosure taken on it is certified for T_i
    too; outside a run the components are delete_edge's own."""
    a, b = sorted(edge)
    if _components is None or b not in tree.adj[a]:  # delete_edge refuses an absent edge
        t1, t2, pendant = delete_edge(tree, edge)
    else:
        t1, t2, pendant = _shared_split(tree, a, b)
    if pendant:
        raise PendantEdge(f"edge {tuple(edge)} is pendant; a non-pendant edge is required")
    return t1, t2, _thm32_side(t1, tree.n, tol)[0], _thm32_side(t2, tree.n, tol)[0]


_SIDE = "thm32 side"  # a component's cache key prefix, followed by (n, tol)


def _thm32_side(part: Tree, n: int, tol: float) -> tuple[int, int, int, int]:
    """(k, lo, hi, den) of a component of T - e for a tree T of order n: k the
    count of its eigenvalues >= 2 - 4/n (_at_least) and den * S_k bounded by
    lo and hi at tol.  It depends on the component's class, n and tol only,
    so it is filed on the component's Tree under (n, tol): a run's shared
    Tree reads it once per class, and it ends with the Tree."""
    key = (_SIDE, n, tol)
    side = part._cache.get(key)
    if side is None:
        spec = eigenvalues(part, tol)
        k = _at_least(part, 2 * n - 4, n, tol)
        side = part._cache[key] = (k, *spec._top_sum(k), spec.den)
    return side


def _at_least(tree: Tree, num: int, den: int, tol: float) -> int:
    """#{mu >= num/den}, read off the enclosures of eigenvalues(tree, tol): an
    enclosure (lo, hi, m) with lo < hi holds its m eigenvalues strictly
    inside, so it counts whole unless lo < num/den < hi, and only then is
    the count taken exactly.  Compared by integer cross-multiplication."""
    spec = eigenvalues(tree, tol)
    x = num * spec.den
    k = 0
    for lo, hi, m in spec.distinct:  # descending
        if lo * den >= x:
            k += m
        elif hi * den > x:  # lo < num/den < hi
            return tree.n - count_eigs(tree, Fraction(num, den)).below
    return k


def thm32_sides(tree: Tree, calls: Sequence[tuple], tol: float = 1e-12) -> list[list[tuple]]:
    """thm32's row for each call (edge,), followed by (n1, n2, k1, k2):
    LE(T) >= 2 S_k1(T1) + 2 S_k2(T2) - 4*sigma + 4*sigma/n for T - e = T1 u T2,
    k_i the count of eigenvalues of T_i >= d_bar(T-e) = 2 - 4/n, sigma = k1 + k2.
    Each T_i's k_i and S_k_i endpoints are its thm32 side (_thm32_side)."""
    n, rows = tree.n, []
    key, le = (_SIDE, n, tol), eigenvalues(tree, tol)._energy
    for (edge,) in calls:
        t1, t2, k1, k2 = _split_counts(tree, edge, tol)  # files each T_i's thm32 side under key
        (_, lo1, hi1, d1), (_, lo2, hi2, d2) = t1._cache[key], t2._cache[key]
        # over d1 d2 n: 2 (S_k1 + S_k2) and the shift 4 sigma/n - 4 sigma = 4 sigma (1 - n) / n
        shift = 4 * (k1 + k2) * (1 - n) * d1 * d2
        rows.append([(le.lo_n, le.hi_n, le.den, 2 * n * (lo1 * d2 + lo2 * d1) + shift,
                      2 * n * (hi1 * d2 + hi2 * d1) + shift, d1 * d2 * n, t1.n, t2.n, k1, k2)])
    return rows


def thm32_lower_bound(tree: Tree, edge: tuple[int, int], tol: float = 1e-12) -> BoundReport:
    """LE(T) >= 2 S_k1(T1) + 2 S_k2(T2) - 4*sigma + 4*sigma/n (see thm32_sides)."""
    ((row,),), (holds,) = _refined(thm32_sides, tree, [(edge,)], tol, THM32_MIN_N)
    n1, n2, k1, k2 = row[6:]
    inputs = {"n": tree.n, "edge": list(edge), "n1": n1, "n2": n2, "k1": k1, "k2": k2, "sigma": k1 + k2}
    return _row_report("thm32", inputs, row, holds, out_of_hypothesis=tree.n < THM32_MIN_N)


def _clears_row(tree: Tree, tol: float) -> tuple:
    """The row LE(T) >= 2 + 4n/pi: T clears the path's energy bound."""
    le, upper = eigenvalues(tree, tol)._energy, path_energy_upper(tree.n)
    return le.lo_n, le.hi_n, le.den, upper.lo_n, upper.hi_n, upper.den


def coru_sides(tree: Tree, calls: Sequence[tuple], tol: float = 1e-12) -> list[list[tuple]]:
    """coru's rows for each call (edge,), T - e = T1 u T2 as in thm32_sides:
    sigma_i = k_i for both i as the exact row -|sigma1 - k1| - |sigma2 - k2|
    >= 0, followed by (n1, n2, k1, k2, sigma1, sigma2, auxiliary_nonneg);
    LE(T_i) >= 2 + 4 n_i/pi for i = 1, 2; then, only when all three hold
    certified, the claim LE(T) >= 2 + 4n/pi."""
    per_call = []
    for (edge,) in calls:
        t1, t2, k1, k2 = _split_counts(tree, edge, tol)
        n1, n2, s1, s2 = t1.n, t2.n, eigenvalues(t1, tol).sigma, eigenvalues(t2, tol).sigma
        aux = n1 * n1 * (n2 - 2 * s2) + n2 * n2 * (n1 - 2 * s1) >= 0
        miss = abs(s1 - k1) + abs(s2 - k2)
        rows = [(-miss, -miss, 1, 0, 0, 1, n1, n2, k1, k2, s1, s2, aux),
                _clears_row(t1, tol), _clears_row(t2, tol)]
        if _rows_hold(rows) is True:
            rows.append(_clears_row(tree, tol))
        per_call.append(rows)
    return per_call


def coru_sufficient(tree: Tree, edge: tuple[int, int], tol: float = 1e-12) -> BoundReport:
    """Corollary: if sigma_i = k_i for both components and LE(T_i) >= 2 + 4 n_i/pi,
    then LE(T) >= 2 + 4n/pi.  The proof's auxiliary inequality
    n1^2 (n2 - 2 sigma2) + n2^2 (n1 - 2 sigma1) >= 0 is verified alongside
    (see coru_sides)."""
    n, below = tree.n, tree.n < THM32_MIN_N
    (rows,), (holds,) = _refined(coru_sides, tree, [(edge,)], tol, THM32_MIN_N)
    n1, n2, k1, k2, s1, s2, aux = rows[0][6:]
    inputs = {"n": n, "edge": list(edge), "n1": n1, "n2": n2, "k1": k1, "k2": k2,
              "sigma1": s1, "sigma2": s2}
    hypotheses = {"sigma_equals_k": ge(*rows[0][:6]), "le_t1_clears": ge(*rows[1][:6]),
                  "le_t2_clears": ge(*rows[2][:6]), "auxiliary_nonneg": aux}
    if len(rows) == 4:
        return _row_report("coru", inputs, rows[3], holds, hypotheses=hypotheses, out_of_hypothesis=below)
    note = NO_CLAIM if holds is False else "hypotheses undecided"
    return BoundReport("coru", inputs, None, path_energy_upper(n), None, None, hypotheses, below, note)


# ---- sufficient conditions for joined trees (section 5) -----------------------


def _strictly_below(x: Enclosure, bound: Fraction) -> tuple:
    """The row bound - 1/(2 b x.den) >= x, b bound's denominator, deciding
    x < bound: x's endpoints and bound are multiples of 1/(b x.den), so the
    half step ties neither endpoint, and the row holds exactly when x.hi <
    bound and fails exactly when x.lo >= bound (an exact tie included)."""
    b = bound.denominator
    lhs = 2 * bound.numerator * x.den - 1
    return lhs, lhs, 2 * b * x.den, x.lo_n, x.hi_n, x.den


def join_sides(tree: Tree, calls: Sequence[tuple], tol: float = 1e-12) -> list[list[tuple]]:
    """thm51-53's rows on a joined tree T for each call (t1, gap): sigma1 = r1
    as the exact row -|sigma1 - r1| >= 0, or with gap the strict
    mu_{sigma1+1}(T1) - d_bar(T1) < -2/n (_strictly_below), followed by
    (sigma1, r1); LE(T1) >= 2 + 4 n1/pi; then, only when both hold
    certified, the claim LE(T) >= 2 + 4n/pi."""
    per_call = []
    for t1, gap in calls:
        spec1 = eigenvalues(t1, tol)
        s1, r1 = spec1.sigma, degree_summary(t1).internal_count
        if gap:
            structural = _strictly_below(spec1.enclosure(s1 + 1), average_degree(t1) - Fraction(2, tree.n))
        else:
            structural = (-abs(s1 - r1), -abs(s1 - r1), 1, 0, 0, 1)
        rows = [(*structural, s1, r1), _clears_row(t1, tol)]
        if _rows_hold(rows) is True:
            rows.append(_clears_row(tree, tol))
        per_call.append(rows)
    return per_call


def _join_sufficient(
    bound_id: str,
    t1: Tree,
    t2: Tree,
    join: tuple[int, int],
    tol: float,
    gap_hypothesis: bool,
) -> BoundReport:
    n1, n2 = t1.n, t2.n
    if not (n1 >= n2 >= 6):
        raise BadParam(f"need n1 >= n2 >= 6, got ({n1}, {n2})")
    tree = join_trees(t1, t2, *join)
    (rows,), (holds,) = _refined(join_sides, tree, [(t1, gap_hypothesis)], tol)
    s1, r1 = rows[0][6:]
    inputs = {"n": tree.n, "n1": n1, "n2": n2, "sigma1": s1, "r1": r1, "join": list(join)}
    hypotheses = {"gap" if gap_hypothesis else "sigma1_equals_r1": ge(*rows[0][:6]),
                  "le_t1_clears": ge(*rows[1][:6])}
    if len(rows) == 3:
        return _row_report(bound_id, inputs, rows[2], holds, hypotheses=hypotheses)
    note = NO_CLAIM if holds is False else "hypotheses undecided"
    return BoundReport(bound_id, inputs, None, path_energy_upper(tree.n), None, None, hypotheses, False, note)


def thm51_check(t1: Tree, t2: Tree, join: tuple[int, int] = (0, 0), tol: float = 1e-12) -> BoundReport:
    """t2 of diameter <= 3; if sigma1 = r1 and LE(T1) >= 2 + 4 n1/pi then the
    joined tree satisfies LE >= 2 + 4n/pi."""
    if diameter(t2) > 3:
        raise BadParam(f"thm51 needs diameter(t2) <= 3, got {diameter(t2)}")
    return _join_sufficient("thm51", t1, t2, join, tol, gap_hypothesis=False)


def thm52_check(t1: Tree, t2: Tree, join: tuple[int, int] = (0, 0), tol: float = 1e-12) -> BoundReport:
    """Same as thm51 but t2 is a diameter-4 spider other than the three
    closed-form families (root leaves present, or >= 3 children with >= 2 leaves)."""
    kind = families.sns_kind(t2)
    if kind != "general":
        raise BadParam(
            f"thm52 needs a diameter-4 tree outside the closed-form families, got {kind!r}"
        )
    return _join_sufficient("thm52", t1, t2, join, tol, gap_hypothesis=False)


def thm53_check(t1: Tree, t2: Tree, join: tuple[int, int] = (0, 0), tol: float = 1e-12) -> BoundReport:
    """Gap variant: hypothesis mu_{sigma1+1}(T1) - d_bar(T1) < -2/n replaces
    sigma1 = r1; t2 as in thm51 or thm52."""
    if diameter(t2) > 3 and families.sns_kind(t2) != "general":
        raise BadParam("thm53 needs t2 of diameter <= 3 or a qualifying diameter-4 spider")
    return _join_sufficient("thm53", t1, t2, join, tol, gap_hypothesis=True)


# ---- the conjecture and the diameter-4 theorem --------------------------------

# the reference path and star per order; their codes and spectra are cached on them
_path_code_cache: dict[int, Tree] = {}
_star_code_cache: dict[int, Tree] = {}


def _reference(cache: dict[int, Tree], build: Callable[[int], Tree], n: int) -> Tree:
    ref = cache.get(n)
    if ref is None:
        ref = cache[n] = build(n)
    return ref


def _conjecture_sides(n: int, tol: float) -> tuple:
    """conjecture_sides's sides for every tree of order n at tol: the path's
    and star's codes (none for the star below n = 2), LE(P_n), LE(S_n) and
    their floats, filed on the cached n-path per tolerance, so they live as
    long as _path_code_cache and a refinement reads its own tolerance's."""
    path_n = _reference(_path_code_cache, families.path, n)
    hit = path_n._cache.get(("conjecture sides", tol))
    if hit is None:
        le_p, le_s = eigenvalues(path_n, tol).laplacian_energy(), _star_energy(n)
        star_code = canonical_code(_reference(_star_code_cache, families.star, n)) if n >= 2 else None
        hit = path_n._cache["conjecture sides", tol] = (
            canonical_code(path_n), star_code, le_p, le_s, le_p.value, le_s.value)
    return hit


_TIE = (0, 0, 1, 0, 0, 1)  # the exact row 0 >= 0: holds, with slack 0


def conjecture_sides(tree: Tree, calls: Sequence[tuple], tol: float = 1e-12) -> list[list[tuple]]:
    """The conjecture's rows for its one call: LE(T) >= LE(P_n), followed by
    LE(T) as its Enclosure, le_path, le_star, is_path and is_star; then
    LE(S_n) >= LE(T).  The sides compared against are made once per order
    and tolerance (_conjecture_sides).  When T itself is the path or the
    star, its tight side is decided by canonical-code identity, as the
    exact row 0 >= 0."""
    n = tree.n
    path_code, star_code, le_p, le_s, le_path, le_star = _conjecture_sides(n, tol)
    code = canonical_code(tree)
    is_p, is_s = code == path_code, n < 2 or code == star_code
    le = eigenvalues(tree, tol).laplacian_energy()
    lo, hi, den = le.lo_n, le.hi_n, le.den
    left = (*_TIE, le, le_path, le_star, True, is_s) if is_p else (
        lo, hi, den, le_p.lo_n, le_p.hi_n, le_p.den, le, le_path, le_star, False, is_s)
    right = _TIE if is_s else (le_s.lo_n, le_s.hi_n, le_s.den, lo, hi, den)
    return [[left, right]] * len(calls)


def _conjecture_terms(rows: list[tuple]) -> tuple:
    """(LE(T), slack, le_path, le_star, is_path, is_star) of the
    conjecture's rows: what its report and an exhaustive run's record show."""
    left, right = rows
    return left[6], min(_row_slack(*left[:6]), _row_slack(*right[:6])), *left[7:]


def conjecture_check(tree: Tree, tol: float = 1e-12) -> BoundReport:
    """LE(P_n) <= LE(T) <= LE(S_n), both sides certified.

    The star side is the exact closed form; the path side is the certified
    bisection value on the cached n-path, refined along with T's (see
    conjecture_sides).  A side decided by identity has slack 0.
    """
    ((left, right),), (holds,) = _refined(conjecture_sides, tree, [()], tol)
    le, slack, le_path, le_star, is_p, is_s = _conjecture_terms([left, right])
    inputs = {"n": tree.n, "is_path": is_p, "is_star": is_s, "le_path": le_path, "le_star": le_star}
    hypotheses = {"left": ge(*left[:6]), "right": ge(*right[:6])}
    return BoundReport("conjecture", inputs, le, None, holds=holds, slack=slack, hypotheses=hypotheses)


def diam4_sides(tree: Tree, calls: Sequence[tuple], tol: float = 1e-12) -> list[list[tuple]]:
    """diam4's row for its one call: LE(T) >= 2 + 4n/pi."""
    return [[_clears_row(tree, tol)]] * len(calls)


def diam4_energy_check(tree: Tree, tol: float = 1e-12) -> BoundReport:
    """LE(T) >= 4n/pi + 2 for diameter-4 trees; asserted for n >= 19, slack
    only recorded below that."""
    if diameter(tree) != 4:
        raise BadParam(f"need diameter 4, got {diameter(tree)}")
    in_range = tree.n >= DIAM4_MIN_N
    ((row,),), (holds,) = _refined(diam4_sides, tree, [()], tol, DIAM4_MIN_N)
    return _row_report("diam4", {"n": tree.n}, row, holds if in_range else None, out_of_hypothesis=not in_range)


# ---- the check registry ---------------------------------------------------------


# fan-out -> the extra argument tuples of a check's calls on one tree
_FANOUTS: dict[str, Callable[[Tree], list[tuple]]] = {
    "tree": lambda t: [()],
    "k": lambda t: [(k,) for k in range(1, t.n)],
    "edge": lambda t: [(e,) for e in t.edges],
    "non-pendant edge": lambda t: [(e,) for e in t.edges if t.degrees[e[0]] > 1 and t.degrees[e[1]] > 1],
    "n >= 2": lambda t: [()] if t.n >= 2 else [],
    "n >= 3": lambda t: [()] if t.n >= 3 else [],
    "diameter 4": lambda t: [()] if diameter(t) == 4 else [],
}


class Check(NamedTuple):
    """One registry entry: the name of a check function in this module, its
    fan-out (a key of _FANOUTS; one call and report per argument tuple),
    whether exhaustive runs may record it (coru, diam4 and lemma25 can
    report no verdict on a tree by design), its sides function, and the
    order below which it is out of hypothesis.

    reports() serves `bounds` and the API, calling each check function as
    fn(tree, *args, tol) (lemma21's and lemma26's rows are exact: they check
    tol and never refine), verdict() an exhaustive run's record.  Every
    check but lemma25 has a sides function, and both read its rows as
    _refined refines them; verdict() builds no report.  It is the _all3 of
    the reports' holds, except where a report makes no claim or is out of
    hypothesis (coru's, diam4's below n = 19) and shows holds None."""

    fn: str
    fanout: str
    exhaustive: bool = True
    sides: str | None = None
    min_n: int = 0

    def reports(self, tree: Tree, tol: float) -> Iterator[BoundReport]:
        # looked up at call time, so a replaced module attribute sees every call
        fn = globals()[self.fn]
        for args in _FANOUTS[self.fanout](tree):
            yield fn(tree, *args, tol)

    def rows(self, tree: Tree, tol: float) -> tuple[list[list[tuple]], list[bool | None]]:
        """Every call's final rows and its verdict (_refined), from the sides
        function looked up at call time."""
        return _refined(globals()[self.sides], tree, _FANOUTS[self.fanout](tree), tol, self.min_n)

    def verdict(self, tree: Tree, tol: float) -> bool | None:
        """The _all3 of the calls' verdicts in rows() (see the class docstring)."""
        return _all3(*self.rows(tree, tol)[1])


CHECKS: dict[str, Check] = {
    "lemma21": Check("lemma21_check", "tree", sides="lemma21_sides"),
    "lemma22": Check("brouwer_haemers_check", "tree", sides="brouwer_haemers_sides"),
    "lemma26": Check("lemma26_check", "n >= 2", sides="lemma26_sides"),
    "lemma31": Check("majorization_check", "k", sides="majorization_sides"),
    "cor31": Check("cor31_check", "k", sides="cor31_sides"),
    "thm31": Check("thm31_lower_bound", "n >= 3", sides="thm31_sides"),
    "thm32": Check("thm32_lower_bound", "non-pendant edge", sides="thm32_sides", min_n=THM32_MIN_N),
    "conjecture": Check("conjecture_check", "tree", sides="conjecture_sides"),
    "coru": Check("coru_sufficient", "non-pendant edge", exhaustive=False, sides="coru_sides", min_n=THM32_MIN_N),
    "diam4": Check("diam4_energy_check", "diameter 4", exhaustive=False, sides="diam4_sides", min_n=DIAM4_MIN_N),
    "lemma25": Check("interlacing_check", "edge", exhaustive=False),
}
