"""Property tests: record round trips, resuming a killed run, the float
stage of the congruence pass against its exact stage, the pass run once
per rooted isomorphism class against the pass run once per vertex, exact
counts and certified enclosures against a dense eigensolver, the side of
d_bar each enclosure lies on, the integer prober against the Fraction one,
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
from hypothesis import given, settings
from hypothesis import strategies as st

from treelap import bounds
from treelap.cli import main as cli_main
from treelap.spectral import (
    _below_many,
    _inertia,
    _inertia_exact,
    _inertia_float,
    average_degree,
    count_eigs,
    eigenvalues,
    eigenvalues_many,
    laplacian_matrix,
)
from treelap.tree import Tree, delete_edge
from treelap.verify import SweepRecord, VerifyRecord, record_to_json

from conftest import (
    assert_component_codes,
    fraction_enclosures,
    fraction_s_k,
    le_two_forms,
    oracle_counts,
    vertex_inertia_exact,
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
    for tree, (den, points), below in zip(block, probes, _below_many(block, probes)):
        assert len(below) == len(points)
        root = tree.centroids()[0]
        for x, k in zip(points, below):
            if k is not None:
                assert (k, 0, tree.n - k) == _inertia_exact(tree, -x, den, root)


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
        # the one-off probe counts are gone: what stays is at 0, n, d_bar and the integers
        kept = {Fraction(num, den) for _, num, den in _counts(tree)}
        assert {0, tree.n, average_degree(tree)} <= kept
        assert all(x.denominator == 1 or x == average_degree(tree) for x in kept)


@settings(max_examples=100, deadline=None)
@given(trees(2, 40))
def test_component_codes_read_off_the_tree_equal_the_built_components(tree):
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
