"""Command-line interface.

Subcommands: enumerate, family, spectrum, le, charpoly, bounds,
check-conjecture, sweep.  Trees are read in the plain edge-list format
(first line n, then n-1 lines "u v") from --in or stdin.

Exit codes: 0 = clean, 2 = a certified violation was found, 3 = a comparison
stayed undecided after refinement, 1 = usage, input or file error, or an
input too large for memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bounds as bounds_mod
from . import families
from .charpoly import char_poly
from .enumeration import MAX_ORDER, EnumRange, free_trees_sharded
from .errors import TreelapError
from .spectral import check_tol, eigenvalues
from .tree import (
    Tree,
    format_edge_text,
    format_pruefer_text,
    parse_edge_text,
    parse_pruefer_text,
)
from .verify import (
    REPORT_FORMATS,
    RunConfig,
    SweepConfig,
    check_writable,
    emit_report,
    run_exhaustive,
    run_family_sweep,
    _g15,
)


def _read_tree(args) -> Tree:
    if getattr(args, "pruefer", None) is not None:
        return parse_pruefer_text(args.pruefer)
    if getattr(args, "infile", None):
        with open(args.infile, "r", encoding="ascii") as fh:
            return parse_edge_text(fh.read())
    return parse_edge_text(sys.stdin.read())


def _parse_shards(text: str) -> tuple[int, int]:
    try:
        i, k = text.split("/")
        return int(i), int(k)
    except ValueError:
        raise TreelapError(f"--shards wants i/k with 0 <= i < k, got {text!r}")


def _cmd_enumerate(args) -> int:
    i, k = _parse_shards(args.shards)
    rng = EnumRange(args.n, i, k)
    first = True
    for tree in free_trees_sharded(rng):
        if not first:
            sys.stdout.write("\n")
        first = False
        if args.emit == "edges":
            sys.stdout.write(format_edge_text(tree))
        else:
            sys.stdout.write(format_pruefer_text(tree))
    return 0


# family -> the options its generator takes, in order
_FAMILY_ARGS = {
    "path": ("n",), "star": ("n",), "double_broom3": ("a", "b"), "double_broom4": ("a", "b"),
    "sns": ("p", "r", "s"), "t4_spider": ("a", "b"), "t_prime": ("r", "s1"), "t_dprime": ("r", "s1", "s2"),
}


def _cmd_family(args) -> int:
    generator = args.family
    if generator == "sns":
        generator = "sns_tree"
        try:
            args.s = [int(tok) for tok in args.s.split(",")] if args.s else []
        except ValueError:
            raise TreelapError(f"--s wants comma-separated integers, got {args.s!r}") from None
    tree = getattr(families, generator)(*(getattr(args, name) for name in _FAMILY_ARGS[args.family]))
    sys.stdout.write(format_edge_text(tree))
    return 0


def _spectrum_payload(tree: Tree, tol: float) -> dict:
    spec = eigenvalues(tree, tol)
    le = spec.laplacian_energy()
    return {
        "n": tree.n,
        "eigenvalues": [float(_g15(v)) for v in spec.values],
        "sigma": spec.sigma,
        "le": float(_g15(le.value)),
        "le_err": le.err,
    }


def _cmd_spectrum(args) -> int:
    tree = _read_tree(args)
    print(json.dumps(_spectrum_payload(tree, args.tol)))
    return 0


def _cmd_le(args) -> int:
    tree = _read_tree(args)
    payload = _spectrum_payload(tree, args.tol)
    del payload["eigenvalues"]
    print(json.dumps(payload))
    return 0


def _cmd_charpoly(args) -> int:
    tree = _read_tree(args)
    print(json.dumps(list(char_poly(tree).coeffs)))
    return 0


def _cmd_bounds(args) -> int:
    tree = _read_tree(args)
    ids = tuple(bounds_mod.CHECKS) if args.check == "all" else tuple(dict.fromkeys(args.check.split(",")))
    for cid in ids:
        if cid not in bounds_mod.CHECKS:
            raise TreelapError(f"unknown bound id {cid!r}; choose from {', '.join(bounds_mod.CHECKS)}")
    worst = 0
    for cid in ids:
        for rep in bounds_mod.CHECKS[cid].reports(tree, args.tol):
            print(json.dumps(rep.to_dict()))
            if rep.holds is False:
                worst = max(worst, 2)
            elif rep.holds is None and not rep.out_of_hypothesis and not rep.note:
                worst = max(worst, 3)
    return worst


def _exit_code(summary) -> int:
    return 2 if summary.violations else 3 if summary.undecided else 0


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: the same real path, or, when both
    exist, the same file by os.path.samefile (a hard link)."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def _cmd_check_conjecture(args) -> int:
    i, k = _parse_shards(args.shards)
    config = RunConfig(
        n_min=args.n_min,
        n_max=args.n_max,
        tol=args.tol,
        shard_index=i,
        shard_count=k,
        out=args.out,
        checks=("conjecture",) + (tuple(args.checks.split(",")) if args.checks else ()),
    )
    if args.report:
        check_writable(args.report)
        if args.out and _same_file(args.report, args.out):
            raise TreelapError(f"--report {args.report} names the --out sink; write the report to another file")
    summary = run_exhaustive(config)
    print(summary.describe())
    if args.report:
        emit_report(summary.records, args.format, args.report)
        print(f"report written to {args.report}")
    return _exit_code(summary)


def _cmd_sweep(args) -> int:
    config = SweepConfig(tol=args.tol, out=args.out, fmt=args.format, sns_random=args.sns_random)
    summary = run_family_sweep(config)
    print(summary.describe())
    return _exit_code(summary)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, like bad input; 2 means a violation
        raise TreelapError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="treelap", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("enumerate", help="stream all free trees of order n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shards", default="0/1", help="i/k contiguous shard of the stream")
    p.add_argument("--emit", choices=("edges", "pruefer"), default="edges")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("family", help="emit one parameterized family member")
    p.add_argument("--family", required=True, choices=tuple(_FAMILY_ARGS))
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--s", default="", help="comma-separated leaf counts for sns")
    p.add_argument("--s1", type=int, default=2)
    p.add_argument("--s2", type=int, default=2)
    p.set_defaults(fn=_cmd_family)

    for name, fn in (("spectrum", _cmd_spectrum), ("le", _cmd_le), ("charpoly", _cmd_charpoly)):
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", default=None, help="edge-list file (default stdin)")
        p.add_argument("--pruefer", default=None, help="comma-separated Pruefer labels instead of an edge list")
        if name != "charpoly":
            p.add_argument("--tol", type=float, default=1e-12)
        p.set_defaults(fn=fn)

    p = sub.add_parser("bounds", help="evaluate bound checks on one tree")
    p.add_argument("--check", default="all", help="all or comma-separated bound ids")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--pruefer", default=None, help="comma-separated Pruefer labels instead of an edge list")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("check-conjecture", help="exhaustive verification over free trees", description=(
        f"Orders go up to {MAX_ORDER}.  Every record stays in memory until the run ends, about 1 KB each: "
        "n <= 20 (1,346,021 trees from n = 4) needs about 1.4 GB and 389 s on one Xeon core (ROADMAP item 10)."))
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, required=True, help=f"at most {MAX_ORDER}")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--shards", default="0/1")
    p.add_argument("--out", default=None, help="append-only JSONL record sink (resumable)")
    p.add_argument("--report", default=None, help="deterministic sorted artifact path")
    p.add_argument("--format", choices=REPORT_FORMATS, default="jsonl")
    p.add_argument("--checks", default="", help="extra per-tree checks (comma-separated)")
    p.set_defaults(fn=_cmd_check_conjecture)

    p = sub.add_parser("sweep", help="diameter-4 family sweeps")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=REPORT_FORMATS, default="jsonl")
    p.add_argument("--sns-random", type=int, default=0)
    p.set_defaults(fn=_cmd_sweep)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every main call, built on the first one: parse_args
    keeps nothing of a call but the namespace it returns."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        check_tol(getattr(args, "tol", 1.0))
        return args.fn(args)
    except (TreelapError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the input is too large for this machine", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
