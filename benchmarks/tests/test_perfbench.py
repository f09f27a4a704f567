"""Tests of the benchmark's own machinery, on tiny inputs.

    python3 -m pytest -q benchmarks/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE.parent))

import loads  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import treelap  # noqa: E402
from treelap import bounds, cli, spectral, verify  # noqa: E402


def test_command_line_offers_every_workload():
    assert sorted(run.WORKLOAD_NAMES) == sorted(loads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(loads.WORKLOADS))
def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(name):
    make = loads.WORKLOADS[name].inputs
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_seed_changes_shapes_not_sizes():
    def sizes(seed):
        return sorted(n for _, n, _ in loads.large_trees_inputs(seed))

    assert sizes(1) == sizes(2) == sorted(loads.PATH_ORDERS + loads.RANDOM_ORDERS)
    assert sorted(loads.WORKLOADS["exhaustive"].inputs(3)) == list(range(4, loads.EXHAUSTIVE_N_MAX + 1))


def test_p90_is_refused_below_100_samples():
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 90)
    assert run.percentile(list(range(100)), 90) == 89
    assert run.percentile(list(range(1000, 0, -1)), 90) == 900


def _tiny(name):
    if name == "bound_checks":
        return loads.WORKLOADS[name], [6, 4, 7, 5]
    return loads.WORKLOADS[name], loads.diam4_inputs(1)[:4]


@pytest.mark.parametrize("name", ["bound_checks", "diam4_sweep"])
def test_traced_and_untraced_outputs_are_byte_identical(name, tmp_path):
    workload, inputs = _tiny(name)
    plain = workload.run(inputs, tmp_path, None)
    with tracer.Tracer(loads.TOL) as tr:
        traced = workload.run(inputs, tmp_path, tr)
    assert tr.spans
    assert traced.digest == plain.digest
    assert [out[-1] for out in traced.outputs] == [out[-1] for out in plain.outputs]
    for res in (plain, traced):
        workload.check(inputs, res)
        assert res.failures == []
    assert len(plain.tree_times) == plain.trees  # one latency per tree, also through the CLI
    if name == "bound_checks":
        assert tr.summary()["enumeration.trees"][0] == sum(loads.OTTER[n] for n in inputs)


def test_wrappers_replace_every_import_and_are_removed_afterwards():
    held = [(spectral, "count_eigs"), (bounds, "count_eigs"), (treelap, "count_eigs"),
            (spectral, "eigenvalues"), (bounds, "eigenvalues"), (verify, "eigenvalues"),
            (spectral, "sigma"), (bounds, "sigma"), (verify, "sigma"),
            (verify, "free_trees_sharded"), (cli, "free_trees_sharded"), (cli, "emit_report"),
            (spectral, "np"), (spectral.Spectrum, "s_k"), (spectral.Spectrum, "laplacian_energy")]
    before = {key: vars(key[0])[key[1]] for key in held}
    assert tracer.leftover_wrappers() == []
    with tracer.Tracer(loads.TOL):
        for (owner, attr), orig in before.items():
            assert vars(owner)[attr] is not orig, f"{attr} not replaced in {owner}"
        assert tracer.leftover_wrappers()
    assert tracer.leftover_wrappers() == []
    for (owner, attr), orig in before.items():
        assert vars(owner)[attr] is orig

    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer(loads.TOL):
            1 / 0
    assert tracer.leftover_wrappers() == []


def test_hit_ratio_and_counts_per_eigenvalue_on_path4():
    # Eigenvalues 0, 2 - sqrt2, 2, 2 + sqrt2.  Probes: 0 and n = 4; the
    # integers 1, 2, 3 next to the estimates 0.59, 2, 3.41; a point tol/2 on
    # each side of every estimate inside (0, 4), so 1 + 2 + 2 + 2.  That is 12
    # exact counts, none bisected; sigma adds one at the average degree 3/2.
    with tracer.Tracer(1e-12) as tr:
        t = treelap.path(4)
        treelap.laplacian_energy(t, 1e-12)
        treelap.laplacian_energy(t, 1e-12)  # cached spectrum
        treelap.sigma(t)  # cached count at 3/2
    m = tr.summary()
    assert m["spectral.count_eigs.calls"][0] == 14
    assert m["spectral.count_eigs.hit_ratio"][0] == 1 / 14
    assert m["spectral.eigenvalues.calls"][0] == 2
    assert m["spectral.eigenvalues.hit_ratio"][0] == 1 / 2
    assert m["spectral.counts_per_eigenvalue"][0] == 13 / 4


def test_hit_ratio_and_counts_per_eigenvalue_on_star5():
    # Eigenvalues 0, 1 (three times), 5.  lemma26 counts at the average
    # degree 8/5 first.  The spectrum then probes 0, 5, the integer 1, tol/2
    # above 0, on both sides of 1 and below 5: 7 exact counts, every
    # eigenvalue pinned exactly; sigma's count at 8/5 is a cache hit.
    with tracer.Tracer(1e-12) as tr:
        t = treelap.star(5)
        bounds.lemma26_check(t)
        treelap.laplacian_energy(t, 1e-12)
    m = tr.summary()
    assert m["spectral.count_eigs.calls"][0] == 9
    assert m["spectral.count_eigs.hit_ratio"][0] == 1 / 9
    assert m["spectral.eigenvalues.hit_ratio"][0] == 0
    assert m["spectral.counts_per_eigenvalue"][0] == 7 / 5
    assert m["bounds.lemma26_check.calls"][0] == 1
