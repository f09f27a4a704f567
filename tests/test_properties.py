"""Property tests: record round trips, each record type's format string
against the field-by-field join, the one-pass energy against the
running-sum form, resuming a killed run, the float stage of the
congruence pass against its exact stage, the pass run once per rooted
isomorphism class against the pass run once per vertex and the float
stage against its reference without per-count tables, exact counts and
certified enclosures against a dense eigensolver, the side of d_bar each
enclosure lies on, the integer prober against the Fraction one,
the block route (one float walk over many trees and probes) against the
exact pass and against the single-tree route, the codes of T - e
components read off T, and thm32 with T - e components shared per
isomorphism class."""

import functools
import io
import json
import math
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treelap import bounds
from treelap.cli import main as cli_main
from treelap.spectral import (
    _below_many,
    _inertia,
    _inertia_exact,
    _inertia_float,
    _outward,
    _propose,
    average_degree,
    count_eigs,
    eigenvalues,
    eigenvalues_many,
)
from treelap.tree import Tree, delete_edge, from_pruefer
from treelap.verify import SweepRecord, VerifyRecord, record_to_json

from conftest import (
    assert_component_codes,
    class_inertia_float,
    fraction_enclosures,
    fraction_s_k,
    laplacian_matrix,
    le_by_top_sum,
    le_two_forms,
    oracle_counts,
    propose_oracle,
    record_json_by_join,
    vertex_inertia_exact,
    walk_alphas,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
verdict = st.sampled_from([True, False, None])

verify_records = st.builds(
    VerifyRecord,
    code=st.text(), n=st.integers(), diam=st.integers(), s=st.integers(), sigma=st.integers(),
    le=finite, le_err=finite, le_path=finite, le_star=finite, slack=finite, tol=finite,
    checks=st.dictionaries(st.text(), verdict),
)
sweep_records = st.builds(
    SweepRecord,
    family=st.text(), params=st.text(), n=st.integers(), sigma=st.integers(),
    le=finite, le_err=finite, bound=finite, holds=verdict, slack=finite, thm31_cond=st.booleans(),
)


@given(st.one_of(verify_records, sweep_records))
def test_record_json_round_trip_is_byte_stable(rec):
    line = record_to_json(rec)
    again = type(rec)(**json.loads(line))
    assert record_to_json(again) == line


# -0.0 is written unsigned; the largest doubles take _g15's repr branch
edge_floats = st.one_of(st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]), finite)
# quotes, backslashes, control characters and non-ASCII text (\u escapes, surrogate pairs)
escaped_text = st.one_of(st.just('q"b\\s\n\t\x00\u00e9\u20ac\U0001f600'), st.text())
edge_verify_records = st.builds(
    VerifyRecord,
    code=escaped_text, n=st.integers(), diam=st.integers(), s=st.integers(), sigma=st.integers(),
    le=edge_floats, le_err=edge_floats, le_path=edge_floats, le_star=edge_floats, slack=edge_floats,
    tol=edge_floats, checks=st.dictionaries(escaped_text, verdict, max_size=4),
)
edge_sweep_records = st.builds(
    SweepRecord,
    family=escaped_text, params=escaped_text, n=st.integers(), sigma=st.integers(), le=edge_floats,
    le_err=edge_floats, bound=edge_floats, holds=verdict, slack=edge_floats, thm31_cond=st.booleans(),
)


@settings(max_examples=300)
@given(st.one_of(edge_verify_records, edge_sweep_records))
@example(VerifyRecord("\u00e9\"", 1, 0, 0, 1, -0.0, 5e-324, 1.7976931348623157e308, 0.0, -0.0, 1.0, {}))
@example(VerifyRecord("(()", 4, 2, 1, 1, 1.5, 0.0, 1.0, 2.0, 0.5, 1e-12,
                      {"conjecture": True, "lemma21": None, "thm32": False, "\u20ac\n": True}))
@example(SweepRecord("sns", "#0:p=1,r=2,\"s\"", 19, 3, 1.7976931348623157e308, 0.0, 2.0, None, -0.0, False))
def test_the_format_string_of_a_record_type_equals_the_field_join(rec):
    assert record_to_json(rec) == record_json_by_join(rec)


RUN = ["check-conjecture", "--n-min", "4", "--n-max", "7", "--checks", "lemma21,lemma26"]


def _run(workdir: Path) -> tuple[int, bytes, bytes]:
    sink, report = workdir / "records.jsonl", workdir / "report.jsonl"
    with redirect_stdout(io.StringIO()):
        code = cli_main([*RUN, "--out", str(sink), "--report", str(report)])
    return code, sink.read_bytes(), report.read_bytes()


@functools.lru_cache(maxsize=None)
def _uninterrupted() -> tuple[int, bytes, bytes]:
    with tempfile.TemporaryDirectory() as d:
        return _run(Path(d))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_resume_after_a_kill_at_any_byte_matches_an_uninterrupted_run(data):
    code, sink, report = _uninterrupted()
    cut = data.draw(st.integers(0, len(sink)), label="bytes written before the kill")
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "records.jsonl").write_bytes(sink[:cut])
        assert _run(Path(d)) == (code, sink, report)


@st.composite
def trees(draw, n_min: int = 2, n_max: int = 60):
    n = draw(st.integers(n_min, n_max), label="n")
    return Tree(n, [(draw(st.integers(0, i - 1)), i) for i in range(1, n)])


@st.composite
def rooted_trees(draw):
    tree = draw(trees())
    return tree, draw(st.integers(0, tree.n - 1), label="root")


@st.composite
def thresholds(draw, tree: Tree, kinds=("rational", "integer", "d_bar", "beside_estimate")):
    """Random rationals, integers 0..n, d_bar, and the dyadic probes that
    `spectral._propose` makes tol/2 beside each eigvalsh estimate."""
    kind = draw(st.sampled_from(kinds))
    if kind == "rational":
        return draw(st.fractions(-1, tree.n + 1, max_denominator=10**12))
    if kind == "integer":
        return Fraction(draw(st.integers(0, tree.n)))
    if kind == "d_bar":
        return average_degree(tree)
    est = np.linalg.eigvalsh(laplacian_matrix(tree))
    mu = Fraction(float(draw(st.sampled_from(list(est)))))
    tol = Fraction(draw(st.sampled_from([1e-12, 1e-6, 0.05, 0.3])))
    return mu + draw(st.sampled_from([-1, 1])) * tol / 2


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_float_stage_never_disagrees_with_the_exact_stage(data):
    tree, root = data.draw(rooted_trees())
    x = data.draw(thresholds(tree), label="x")
    p, q = -x.numerator, x.denominator
    tally = _inertia_float(tree, p, q, root)
    if tally is not None:
        assert tally[1] == 0
        assert tally == _inertia_exact(tree, p, q, root)


@st.composite
def branchy_trees(draw):
    """Copies of one random rooted branch grafted under a shared root, with
    another random tree hung off that root, randomly relabeled: many
    vertices share a rooted isomorphism class."""
    branch = draw(trees(1, 8), label="branch")
    edges, n = [], 1
    for _ in range(draw(st.integers(2, 6), label="copies")):
        edges += [(0, n)] + [(u + n, v + n) for u, v in branch.edges]
        n += branch.n
    rest = draw(trees(1, 10), label="rest")
    edges += [(0, n)] + [(u + n, v + n) for u, v in rest.edges]
    n += rest.n
    perm = draw(st.permutations(range(n)), label="relabeling")
    return Tree(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_class_pass_equals_the_vertex_pass(data):
    tree = data.draw(branchy_trees())
    root = data.draw(st.sampled_from([tree.centroids()[0], *range(tree.n)]), label="root")
    x = data.draw(thresholds(tree, kinds=("rational", "integer", "d_bar")), label="x")
    p, q = -x.numerator, x.denominator
    tally = vertex_inertia_exact(tree, p, q, root)
    assert _inertia(tree, p, q, root) == tally
    assert _inertia_exact(tree, p, q, root) == tally
    assert _inertia_float(tree, p, q, root) in (None, tally)
    assert _inertia_float(tree, p, q, root) == class_inertia_float(tree, p, q, root)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_count_eigs_equals_the_dense_oracle(data):
    # no probes beside an estimate: the oracle refuses a probe within 1e-7 of
    # an eigenvalue it cannot pin exactly
    tree = data.draw(trees(1, 40))
    x = data.draw(thresholds(tree, kinds=("rational", "integer", "d_bar")), label="x")
    assert tuple(count_eigs(tree, x)) == oracle_counts(tree, x)


@settings(max_examples=60, deadline=None)
@given(trees(1, 40), st.sampled_from([1e-12, 1e-6, 0.05, 0.3]))
def test_enclosures_are_narrow_and_hold_the_dense_eigenvalues(tree, tol):
    spec = eigenvalues(tree, tol)
    est = np.linalg.eigvalsh(laplacian_matrix(tree))[::-1]
    assert len(spec.enclosures) == tree.n
    for (lo, hi), mu in zip(spec.enclosures, est):
        assert hi - lo <= Fraction(tol)
        assert float(lo) - 1e-9 <= mu <= float(hi) + 1e-9


@st.composite
def pruefer_trees(draw, n_max: int = 40):
    n = draw(st.integers(2, n_max), label="n")
    return from_pruefer(draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2), label="pruefer"))


@settings(max_examples=80, deadline=None)
@given(pruefer_trees(), st.sampled_from([1e-12, 0.3, 1.0]))
def test_the_one_pass_energy_equals_the_running_sum_form(tree, tol):
    # at tol 1.0 the enclosures are wide and the trace side decides the bound
    spec = eigenvalues(tree, tol)
    le = spec.laplacian_energy()
    sigma = tree.n - count_eigs(tree, average_degree(tree)).below
    assert (le.lo_n, le.hi_n, le.den) == le_by_top_sum(spec, sigma)


@settings(max_examples=60, deadline=None)
@given(trees(1, 40), st.sampled_from([1e-12, 1e-6, 0.05, 0.3]))
def test_no_enclosure_straddles_the_average_degree(tree, tol):
    spec = eigenvalues(tree, tol)
    d_bar = average_degree(tree)
    assert all(hi <= d_bar or lo >= d_bar for lo, hi in spec.enclosures)
    c = count_eigs(tree, d_bar)
    assert spec.sigma == c.equal + c.above
    assert spec.laplacian_energy() == le_two_forms(spec)


@settings(max_examples=60, deadline=None)
@given(trees(1, 60), st.sampled_from([1e-12, 1e-6, 0.05, 0.3, Fraction(1, 3)]))
def test_integer_prober_equals_the_fraction_oracle(tree, tol):
    # tol 1/3 gives a pad tol/2 that is not dyadic, so the denominator takes
    # a factor 3 besides n and the powers of two of the estimates
    spec = eigenvalues(tree, tol)
    oracle = fraction_enclosures(Tree(tree.n, tree.edges), Fraction(tol))
    den = spec.den
    assert [(Fraction(lo, den), Fraction(hi, den), m) for lo, hi, m in reversed(spec.distinct)] == oracle
    for k in range(tree.n + 1):
        assert spec.s_k(k) == fraction_s_k(oracle, tree.n, k)
    assert spec.laplacian_energy() == le_two_forms(spec)


@st.composite
def blocks(draw, n_max: int = 30):
    """1 to 6 random trees of one order, the smallest orders drawn often;
    sometimes the first tree appears twice."""
    n = draw(st.one_of(st.integers(1, 3), st.integers(4, n_max)), label="n")
    block = [draw(trees(n, n)) for _ in range(draw(st.integers(1, 6), label="trees"))]
    return block + block[:1] if draw(st.booleans(), label="repeat") else block


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_decided_lane_of_a_block_walk_has_the_exact_tally(data):
    # each tree gets its own number of probes, none included, so lanes are padded
    block = data.draw(blocks())
    probes = []
    for tree in block:
        xs = data.draw(st.lists(thresholds(tree), max_size=12), label="thresholds")
        den = math.lcm(*(x.denominator for x in xs))
        probes.append((den, [int(x * den) for x in xs]))
    walked = _below_many(block, walk_alphas(probes)).tolist()
    for tree, (den, points), below in zip(block, probes, walked):
        assert all(k == -1 for k in below[len(points):])  # NaN padding declines
        root = tree.centroids()[0]
        for x, k in zip(points, below):
            if k >= 0:
                assert (k, 0, tree.n - k) == _inertia_exact(tree, -x, den, root)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, min_size=1, max_size=8))
@example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1e300, 1.7976931348623157e308])
def test_outward_moves_every_bound_past_its_neighbouring_float(xs):
    # the walk's widening covers at least the one ulp math.nextafter takes, subnormals and 0 included
    with np.errstate(over="ignore"):  # the walk ignores it too: the largest double moves out to inf
        lo, hi = _outward(np.array([xs, xs])).tolist()
    for v, down, up in zip(xs, lo, hi):
        assert down <= math.nextafter(v, -math.inf) and up >= math.nextafter(v, math.inf)


@st.composite
def estimate_rows(draw):
    """(n, est): 1 to 4 ascending rows of n float estimates in about [0, n],
    integers, half-integers and runs of equal values drawn often."""
    n = draw(st.integers(1, 12), label="n")
    value = st.one_of(st.integers(0, n).map(float), st.integers(0, 2 * n).map(lambda k: k / 2),
                      st.floats(-1e-15, n + 1e-15), st.sampled_from([0.0, -0.0, 5e-324, -3e-16]))
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=4), label="rows")
    return n, np.sort(np.array(rows), axis=1)


@settings(max_examples=300, deadline=None)
@given(estimate_rows(), st.sampled_from([1e-12, 1e-6, 0.3, 0.5, 1.0, 2.0, 5e-324, 3 * 5e-324]))
def test_propose_gives_the_one_row_oracle_and_correctly_rounded_alphas(rows, tol):
    # half-integer estimates at tol 1.0 and integers at 2.0 put side probes
    # on integers, so a point is proposed twice
    n, est = rows
    probes, alpha = _propose(n, est, tol)
    assert probes == [propose_oracle(n, row, Fraction(tol)) for row in est]
    want = walk_alphas(probes)
    same = (alpha == want) | (np.isnan(alpha) & np.isnan(want))
    assert same.all() if tol / 2 * 2 == tol else (same | np.isnan(alpha)).all()


def _counts(tree: Tree) -> dict:
    return {key: val for key, val in tree._cache.items() if key[0] == "cnt"}


@settings(max_examples=60, deadline=None)
@given(blocks(), st.sampled_from([1e-12, 1e-6, 0.05, 0.3]))
def test_a_block_leaves_each_cache_as_eigenvalues_does(block, tol):
    specs = eigenvalues_many(block, tol)
    for tree, spec in zip(block, specs):
        fresh = Tree(tree.n, tree.edges)
        assert spec == eigenvalues(fresh, tol)
        assert tree._cache[("spectrum", tol)] is spec
        assert _counts(tree) == _counts(fresh)
        # no one-off probe count was filed: what stays is at 0, n, d_bar and the integers
        kept = {Fraction(num, den) for _, num, den in _counts(tree)}
        assert {0, tree.n, average_degree(tree)} <= kept
        assert all(x.denominator == 1 or x == average_degree(tree) for x in kept)
        assert all(math.gcd(num, den) == 1 for _, num, den in _counts(tree))  # keyed by lowest terms


@settings(max_examples=100, deadline=None)
@given(trees(2, 40))
def test_component_codes_read_off_the_tree_equal_the_built_components(tree):
    with bounds._shared_components():
        for a, b in tree.edges:
            assert_component_codes(tree, a, b)


def _inner_edges(tree: Tree) -> list:
    return [e for e in tree.edges if tree.degrees[e[0]] > 1 and tree.degrees[e[1]] > 1]


def _dense_thm32_rhs(tree: Tree, edge, k1: int, k2: int) -> float:
    split = delete_edge(tree, edge)
    top = [np.linalg.eigvalsh(laplacian_matrix(t))[::-1] for t in (split.first, split.second)]
    sig = k1 + k2
    return 2 * sum(top[0][:k1]) + 2 * sum(top[1][:k2]) + 4 * sig / tree.n - 4 * sig


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_shared_components_keep_every_thm32_claim(data):
    # inside the run scope the components come from the table, filled first
    # by a relabeled copy of the tree and by another tree, so that equal
    # sizes of other shapes are in it too
    tree = data.draw(trees(4, 30))
    perm = data.draw(st.permutations(range(tree.n)), label="relabeling")
    twin = Tree(tree.n, [(perm[u], perm[v]) for u, v in tree.edges])
    other = data.draw(trees(4, 30), label="other")
    alone = [bounds.thm32_lower_bound(tree, e) for e in _inner_edges(tree)]
    with bounds._shared_components():
        for t in (other, twin):
            for e in _inner_edges(t):
                bounds.thm32_lower_bound(t, e)
        shared = [bounds.thm32_lower_bound(tree, e) for e in _inner_edges(tree)]
    for e, a, b in zip(_inner_edges(tree), alone, shared):
        assert (b.holds, b.inputs) == (a.holds, a.inputs)
        dense = _dense_thm32_rhs(tree, e, a.inputs["k1"], a.inputs["k2"])
        for rep in (a, b):
            assert float(rep.rhs.lo) - 1e-9 <= dense <= float(rep.rhs.hi) + 1e-9
