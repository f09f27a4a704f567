"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

A pass is a closed loop with one caller: a tree goes in only after the
previous verdict has returned.  Every pass builds fresh Tree objects, so no
per-tree cache carries over from one pass to the next.  The program is
called through module attributes (`bounds.diam4_energy_check`, never a name
imported into this file), so that a Tracer sees every call.  Checks run
after a pass, outside both the timed region and the tracer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from treelap import bounds, charpoly, cli, enumeration, families, spectral
from treelap import tree as tree_mod

from tracer import CompletionClock, Tracer

TOL = 1e-12

# Otter's counts of free trees (OEIS A000055), independent of the enumerator
OTTER = {4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235, 12: 551}

EXHAUSTIVE_N_MAX = 12
BOUND_CHECKS_N_MAX = 11
BOUND_CHECKS = ("lemma21", "lemma22", "lemma26", "lemma31", "cor31", "thm31", "thm32")
PATH_ORDERS = (128, 192, 256)
# Orders are fixed and only shapes depend on the seed, so a pass costs about
# the same whatever the seed.  The random trees share one order so that the
# median latency falls among trees of one size.
RANDOM_ORDERS = (160,) * 12
DIAM4_KINDS = ("t4_spider", "t_prime", "t_dprime", "sns_tree")
DIAM4_ORDERS = tuple(19 + i * 181 // 119 for i in range(120))


@dataclass
class PassResult:
    trees: int = 0  # trees attempted
    wall_s: float = 0.0  # time spent inside the program's calls
    # (start, end) of each tree, in input order, and of the rest of the time
    # inside the program's calls (a CLI call's work after its last verdict)
    tree_times: list[tuple[float, float]] = field(default_factory=list)
    other_times: list[tuple[float, float]] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)  # one entry per failed tree
    digest: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], list]  # seed -> inputs
    # inputs, work dir, tracer, and a callable to run between calls
    run: Callable[[list, Path, Tracer | None, Callable[[], None]], PassResult]
    check: Callable[[list, PassResult], None]  # appends to result.failures


def _idle() -> None:
    pass


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# ---- oracles ------------------------------------------------------------------


def path_energy(n: int) -> float:
    """LE(P_n) from the path eigenvalues 2 - 2cos(k pi/n), k = 0..n-1."""
    d_bar = 2 - 2 / n
    return math.fsum(abs(2 - 2 * math.cos(k * math.pi / n) - d_bar) for k in range(n))


def dense_energy(n: int, edges) -> tuple[float, int]:
    """(LE, sigma) from numpy's eigvalsh of the dense Laplacian; sigma counts
    eigenvalues within 1e-9 of the average degree or above it."""
    lap = np.zeros((n, n))
    for u, v in edges:
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    mu = np.linalg.eigvalsh(lap)
    d_bar = 2 * (n - 1) / n
    return math.fsum(abs(float(x) - d_bar) for x in mu), int(np.sum(mu >= d_bar - 1e-9))


def _energy_problem(n, edges, lo, hi) -> str:
    le = float((lo + hi) / 2)
    err = float((hi - lo) / 2)
    want, sigma = dense_energy(n, edges)
    if abs(le - want) > 1e-9:
        return f"LE {le!r} differs from eigvalsh {want!r}"
    if err > 2 * sigma * TOL:
        return f"le_err {err!r} above 2*sigma*tol"
    return ""


# ---- exhaustive and bound_checks: check-conjecture through the CLI ----------------


def _shuffled_orders(name: str, n_max: int) -> Callable[[int], list]:
    """One check-conjecture call per order n, in a seeded order: the trees are
    all free trees 4 <= n <= n_max whatever the seed."""

    def inputs(seed: int) -> list:
        orders = list(range(4, n_max + 1))
        random.Random(f"{name}:{seed}").shuffle(orders)
        return orders

    return inputs


def _cli_pass(checks: tuple[str, ...]):
    extra = ["--checks", ",".join(checks)] if checks else []

    def run(orders: list, workdir: Path, tracer: Tracer | None, pace=_idle) -> PassResult:
        res = PassResult()
        for n in orders:
            pace()
            out, rep = workdir / f"out-{n}.jsonl", workdir / f"report-{n}.jsonl"
            out.unlink(missing_ok=True)  # an existing sink would make the CLI resume
            rep.unlink(missing_ok=True)
            argv = ["check-conjecture", "--n-min", str(n), "--n-max", str(n), "--tol", repr(TOL),
                    "--out", str(out), "--report", str(rep), *extra]
            text = io.StringIO()
            clock = CompletionClock(OTTER[n], pace) if tracer is None else contextlib.nullcontext()
            with clock, contextlib.redirect_stdout(text):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception as exc:  # a crash fails every tree of the call
                    rc = f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            res.wall_s += t1 - t0
            res.trees += OTTER[n]
            recorded = len(out.read_bytes().splitlines()) if out.exists() else 0
            if tracer is None:
                starts = [t0] + clock.resumed
                res.tree_times += zip(starts, clock.done)
                res.other_times.append((starts[-1], t1))
                res.wall_s -= sum(b - a for a, b in zip(clock.done, clock.resumed))  # kernel time
            report = rep.read_bytes() if rep.exists() else b""
            res.outputs.append((n, rc, text.getvalue(), recorded, report))
        res.digest = _digest(sorted((n, rc, report) for n, rc, _, _, report in res.outputs))
        return res

    return run


def _cli_check(checks: tuple[str, ...]):
    wanted = {"conjecture", *checks}

    def check(orders: list, res: PassResult) -> None:
        for n, rc, text, recorded, report in res.outputs:
            expected = OTTER[n]
            if rc != 0 or "violations: 0, undecided: 0" not in text:
                res.failures += [f"n={n}: exit {rc}"] * expected
                continue
            if enumeration.count_free_trees(n) != expected:
                res.failures += [f"n={n}: count_free_trees disagrees with Otter"] * expected
                continue
            lines = report.decode("ascii").splitlines()
            if len(lines) != expected or recorded != expected:
                res.failures += [f"n={n}: {len(lines)} report and {recorded} sink records, "
                                 f"expected {expected}"] * max(1, abs(expected - len(lines)))
            le_path = path_energy(n)
            for line in lines:
                rec = json.loads(line)
                problem = ""
                if rec["n"] != n or set(rec["checks"]) != wanted:
                    problem = "wrong order or check set"
                elif not all(v is True for v in rec["checks"].values()):
                    problem = f"verdicts {rec['checks']}"
                elif abs(rec["le_path"] - le_path) > 1e-9:
                    problem = f"LE(P_{n}) {rec['le_path']!r} off the closed form {le_path!r}"
                elif rec["le_err"] > 2 * rec["sigma"] * TOL:
                    problem = "le_err above 2*sigma*tol"
                elif not rec["le_path"] - 1e-9 <= rec["le"] <= rec["le_star"] + 1e-9:
                    problem = "LE outside [LE(P_n), LE(S_n)]"
                if problem:
                    res.failures.append(f"n={n} {rec['code']}: {problem}")

    return check


# ---- large_trees: laplacian_energy on paths and random Pruefer trees ---------------


def large_trees_inputs(seed: int) -> list:
    rng = random.Random(f"large_trees:{seed}")
    items = [("path", n, ()) for n in PATH_ORDERS]
    items += [("pruefer", n, tuple(rng.randrange(n) for _ in range(n - 2))) for n in RANDOM_ORDERS]
    rng.shuffle(items)
    return items


def _per_tree_pass(items: list, tracer: Tracer | None, pace, call) -> PassResult:
    res = PassResult()
    for i, item in enumerate(items):
        pace()
        if tracer is not None:
            tracer.tree = i
        t0 = time.perf_counter()
        try:
            out = call(*item)
        except Exception as exc:  # counted as a failed tree by the check
            out = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        res.trees += 1
        res.wall_s += t1 - t0
        res.tree_times.append((t0, t1))
        res.outputs.append((item, out))
    res.digest = _digest(res.outputs)
    return res


def _large_tree(kind, n, seq):
    t = families.path(n) if kind == "path" else tree_mod.from_pruefer(list(seq))
    le = spectral.laplacian_energy(t, TOL)
    return t.n, t.edges, le.lo, le.hi


def large_trees_run(items: list, workdir: Path, tracer: Tracer | None, pace=_idle) -> PassResult:
    return _per_tree_pass(items, tracer, pace, _large_tree)


def large_trees_check(items: list, res: PassResult) -> None:
    for (kind, n, _), out in res.outputs:
        if isinstance(out, str):
            res.failures.append(f"{kind} n={n}: {out}")
            continue
        got_n, edges, lo, hi = out
        problem = "" if got_n == n else f"built a tree on {got_n} vertices"
        if not problem and kind == "path":
            want = path_energy(n)
            if abs(float((lo + hi) / 2) - want) > 1e-9:
                problem = f"LE(P_{n}) {float((lo + hi) / 2)!r} off the closed form {want!r}"
        problem = problem or _energy_problem(n, edges, lo, hi)
        if problem:
            res.failures.append(f"{kind} n={n}: {problem}")


# ---- diam4_sweep: diameter-4 family members through diam4_energy_check and char_poly


def _sns_params(rng: random.Random, n: int) -> tuple:
    """(p, r, s) for sns_tree on n vertices: the root has p leaves and r
    children, child i carries s[i] leaves, at least two s[i] are nonzero."""
    r = rng.randint(2, max(2, (n - 1) // 3))
    p = rng.randint(0, (n - r - 3) // 2)
    s = [0] * r
    for i in rng.sample(range(r), 2):
        s[i] = 1
    for _ in range(n - 1 - r - p - 2):
        s[rng.randrange(r)] += 1
    return p, r, tuple(s)


def diam4_inputs(seed: int) -> list:
    """One tree per order in DIAM4_ORDERS, the families taken in turn; the
    family parameters are seeded."""
    rng = random.Random(f"diam4_sweep:{seed}")
    items = []
    for i, n in enumerate(DIAM4_ORDERS):
        kind = DIAM4_KINDS[i % len(DIAM4_KINDS)]
        if kind == "t4_spider":  # n = 2(a + b) + 1
            k = n // 2
            a = rng.randint(1, k - 1)
            params = (a, k - a)
        elif kind == "t_prime":  # n = 2r + s1
            r = rng.randint(2, (n - 2) // 2)
            params = (r, n - 2 * r)
        elif kind == "t_dprime":  # n = 2r + s1 + s2 - 1
            r = rng.randint(3, (n - 3) // 2)
            rest = n + 1 - 2 * r
            s1 = rng.randint(2, rest - 2)
            params = (r, s1, rest - s1)
        else:
            params = _sns_params(rng, n)
        items.append((kind, params))
    rng.shuffle(items)
    return items


def _diam4_tree(kind, params):
    t = getattr(families, kind)(*params)
    rep = bounds.diam4_energy_check(t, TOL)
    poly = charpoly.char_poly(t)
    return t.n, t.edges, rep.holds, rep.lhs.lo, rep.lhs.hi, poly.coeffs


def diam4_run(items: list, workdir: Path, tracer: Tracer | None, pace=_idle) -> PassResult:
    return _per_tree_pass(items, tracer, pace, _diam4_tree)


CLOSED_FORMS = {
    "t4_spider": charpoly.closed_form_t4,
    "t_prime": charpoly.closed_form_tprime,
    "t_dprime": charpoly.closed_form_tdprime,
}


def diam4_check(items: list, res: PassResult) -> None:
    for (kind, params), out in res.outputs:
        label = f"{kind}{params}"
        if isinstance(out, str):
            res.failures.append(f"{label}: {out}")
            continue
        n, edges, holds, lo, hi, coeffs = out
        problem = "" if holds is True else f"verdict {holds}"
        if not problem and kind in CLOSED_FORMS:
            if coeffs != CLOSED_FORMS[kind](*params).coeffs:
                problem = "char_poly differs from the closed form"
        elif not problem and not (len(coeffs) == n + 1 and coeffs[n] == 1 and coeffs[0] == 0
                                  and coeffs[n - 1] == -2 * (n - 1)):
            problem = "char_poly is not monic of degree n with c_0 = 0 and c_(n-1) = -2(n-1)"
        problem = problem or _energy_problem(n, edges, lo, hi)
        if problem:
            res.failures.append(f"{label}: {problem}")


WORKLOADS = {
    "exhaustive": Workload(
        "exhaustive",
        _shuffled_orders("exhaustive", EXHAUSTIVE_N_MAX),
        _cli_pass(()),
        _cli_check(()),
    ),
    "large_trees": Workload("large_trees", large_trees_inputs, large_trees_run, large_trees_check),
    "diam4_sweep": Workload("diam4_sweep", diam4_inputs, diam4_run, diam4_check),
    "bound_checks": Workload(
        "bound_checks",
        _shuffled_orders("bound_checks", BOUND_CHECKS_N_MAX),
        _cli_pass(BOUND_CHECKS),
        _cli_check(BOUND_CHECKS),
    ),
}
