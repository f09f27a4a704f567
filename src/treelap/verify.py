"""Verification harness: exhaustive conjecture runs and family sweeps.

Records are append-only line-delimited JSON keyed by the canonical code, so
an interrupted run can resume without duplicating work; emit_report rewrites
a deterministic artifact (sorted, floats at 15 significant digits) that is
byte-identical across reruns with the same configuration.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import Collection, Iterable, Sequence

from . import bounds, families
from .enumeration import MAX_ORDER, EnumRange, free_trees_sharded
from .errors import BadParam
from .spectral import BLOCK, check_tol, eigenvalues, eigenvalues_many
from .spectral import sigma  # noqa: F401  (kept as verify.sigma; records read the spectrum)
from .tree import Tree, canonical_code, degree_summary, diameter


@dataclass(frozen=True)
class RunConfig:
    """An exhaustive run over the orders n_min..n_max <= MAX_ORDER (20), refused
    here past it, before any sink is opened.  Every record (about 1 KB) stays in
    memory until the run ends: n <= 20 needs about 1.4 GB (ROADMAP item 10)."""

    n_min: int = 4
    n_max: int = 10
    tol: float = 1e-12
    shard_index: int = 0
    shard_count: int = 1
    out: str | None = None
    checks: tuple[str, ...] = ("conjecture",)

    def __post_init__(self):
        check_tol(self.tol)
        if not (1 <= self.n_min <= self.n_max <= MAX_ORDER):
            raise BadParam(f"bad order range {self.n_min}..{self.n_max}: exhaustive runs go up to n = {MAX_ORDER}")
        EnumRange(self.n_min, self.shard_index, self.shard_count)  # validates shards


class _Record:
    """A record's JSON line, made once per record object: run_exhaustive
    writes it to the sink and a jsonl report reuses it.  A record read back
    from a sink is a new object, serialized anew, as the sink's bytes need
    not be canonical.  Records are immutable by convention, as Enclosure is
    (a frozen dataclass pays object.__setattr__ per field on every tree)."""

    @functools.cached_property
    def json_line(self) -> str:
        return record_to_json(self)


@dataclass
class VerifyRecord(_Record):
    code: str
    n: int
    diam: int
    s: int
    sigma: int
    le: float
    le_err: float
    le_path: float
    le_star: float
    slack: float
    tol: float
    checks: dict = field(default_factory=dict)


@dataclass
class SweepRecord(_Record):
    family: str
    params: str
    n: int
    sigma: int
    le: float
    le_err: float
    bound: float
    holds: bool | None
    slack: float
    thm31_cond: bool


def _g15(x: float) -> str:
    """15-significant-digit float formatting used in every emitted artifact.

    Every finite float is written so that reading it back and writing it
    again gives the same text: zero is unsigned (JSON reads "-0" as the
    integer 0), and the few floats next to the largest double, whose
    15-digit rounding would read back as infinity, are written in full.
    """
    x = float(x) + 0.0
    s = "%.15g" % x
    return s if -1e308 < x < 1e308 or math.isfinite(float(s)) else repr(x)


_json_str = json.encoder.encode_basestring_ascii  # what json.dumps writes for a str


def _json_bool(v: bool | None) -> str:
    return "null" if v is None else "true" if v else "false"


def _json_checks(checks: dict) -> str:
    return "{" + ",".join(f"{_json_str(k)}:{_json_bool(v)}" for k, v in sorted(checks.items())) + "}"


def _csv_text(s: str) -> str:
    """RFC 4180: a field holding a comma, quote or line break is quoted."""
    if any(c in s for c in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


# Field annotation -> (JSON text, CSV text or None for a JSON-only field).
_FORMATS = {
    "str": (_json_str, _csv_text),
    "int": (str, str),
    "float": (_g15, _g15),
    "bool": (_json_bool, _json_bool),
    "bool | None": (_json_bool, lambda v: "" if v is None else _json_bool(v)),
    "dict": (_json_checks, None),
}

# One field table per record type, in declaration order: (name, to_json, to_csv).
_FIELDS = {
    cls: tuple((f.name, *_FORMATS[f.type]) for f in fields(cls)) for cls in (VerifyRecord, SweepRecord)
}


# One JSON line per record type, its fields' values put in by a single % format.
_JSON_LINES = {cls: "{" + ",".join(f'"{name}":%s' for name, _, _ in table) + "}" for cls, table in _FIELDS.items()}


def _fields_of(rec) -> tuple:
    try:
        return _FIELDS[type(rec)]
    except KeyError:
        raise BadParam(f"unknown record type {type(rec)!r}") from None


def _csv_header(cls) -> str:
    return ",".join(name for name, _, to_csv in _FIELDS[cls] if to_csv)


CSV_HEADER = _csv_header(VerifyRecord)
REPORT_FORMATS = ("jsonl", "csv")


def record_to_json(rec) -> str:
    table = _fields_of(rec)
    return _JSON_LINES[type(rec)] % tuple([to_json(getattr(rec, name)) for name, to_json, _ in table])


def record_to_csv(rec) -> str:
    return ",".join(to_csv(getattr(rec, name)) for name, _, to_csv in _fields_of(rec) if to_csv)


def _sort_key(rec):
    if isinstance(rec, VerifyRecord):
        return (0, rec.n, rec.code)
    return (1, rec.family, rec.n, rec.params)


def _check_format(fmt: str) -> None:
    if fmt not in REPORT_FORMATS:
        raise BadParam(f"format must be {' or '.join(REPORT_FORMATS)}, got {fmt!r}")


def check_writable(path: str) -> None:
    """Refuse an output path that cannot be written, before a run rather than after it."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder) or os.path.isdir(path) or not os.access(folder, os.W_OK):
        raise BadParam(f"cannot write {path}: not a file name in a writable directory")


def emit_report(records: Sequence, fmt: str, path: str) -> None:
    """Deterministic report of verification records, bit-stable."""
    _write_report(VerifyRecord, records, fmt, path)


def _write_report(cls: type, records: Sequence, fmt: str, path: str) -> None:
    """Records sorted by _sort_key, one per line.  A CSV report starts with
    the header of cls, the record type its caller writes (also when there
    are no records), and holds only records of that type."""
    _check_format(fmt)
    if fmt == "csv" and any(type(rec) is not cls for rec in records):
        raise BadParam(f"a CSV report of {cls.__name__} rows holds only {cls.__name__} records")
    ordered = sorted(records, key=_sort_key)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if fmt == "csv":
            fh.write(_csv_header(cls) + "\n")
            for rec in ordered:
                fh.write(record_to_csv(rec) + "\n")
        else:
            for rec in ordered:
                fh.write(rec.json_line + "\n")


# VerifyRecord field annotation -> the JSON value types a sink line may hold.
_SINK_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "dict": (dict,)}
_DOUBLE_MAX = 1.7976931348623157e308  # the largest double: an int past it has no float, 1e400 reads as inf


def _refuse_constant(name: str):
    """json.loads reads NaN, Infinity and -Infinity, which are not JSON."""
    raise ValueError(f"{name} is not a JSON number")


def _load_sink(path: str, wanted: set[str], tol: float) -> dict[str, VerifyRecord]:
    """The records already in a run's sink, by code.

    Any complete line that is not a record is an error, and so is a record
    made with other checks than `wanted` or at another tolerance than tol:
    the run is refused.  A last line without its newline is what a killed
    run leaves behind; once the run is accepted, it is cut off the file, so
    its tree is evaluated again and appending starts on a fresh line.  A
    refused run leaves the file as it was.
    """
    if not os.path.exists(path):
        return {}
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.rfind(b"\n") + 1
    records = {}
    for lineno, line in enumerate(data[:end].splitlines(), 1):
        if line.strip():
            try:
                rec = VerifyRecord(**json.loads(line, parse_constant=_refuse_constant))
                for f in fields(VerifyRecord):
                    value = getattr(rec, f.name)
                    if type(value) not in _SINK_TYPES[f.type]:
                        raise TypeError(f"{f.name} is not of type {f.type}")
                    if f.type == "float" and not -_DOUBLE_MAX <= value <= _DOUBLE_MAX:
                        raise ValueError(f"{f.name} is beyond the double range")
                if not all(v is None or type(v) is bool for v in rec.checks.values()):
                    raise TypeError("a check verdict is not true, false or null")
                records[rec.code] = rec
            except (TypeError, ValueError) as exc:
                raise BadParam(f"{path}:{lineno}: not a verification record ({exc})") from None
    for rec in records.values():
        if set(rec.checks) != wanted:
            raise BadParam(
                f"{path} holds records with checks {','.join(sorted(rec.checks))}, "
                f"this run asks for {','.join(sorted(wanted))}; write to another --out"
            )
        if _g15(rec.tol) != _g15(tol):
            raise BadParam(
                f"{path} holds records made at tol {_g15(rec.tol)}, "
                f"this run asks for tol {_g15(tol)}; write to another --out"
            )
    if end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(end)
    return records


@dataclass
class RunSummary:
    trees: int = 0
    skipped: int = 0
    violations: int = 0
    undecided: int = 0
    min_slack: float | None = None
    argmin_code: str = ""
    counts_by_n: dict = field(default_factory=dict)
    records: list = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"trees evaluated: {self.trees} (skipped {self.skipped} already recorded)",
            f"violations: {self.violations}, undecided: {self.undecided}",
        ]
        if self.min_slack is not None:
            lines.append(f"min slack: {_g15(self.min_slack)} at {self.argmin_code}")
        for n in sorted(self.counts_by_n):
            lines.append(f"  n={n}: {self.counts_by_n[n]} trees")
        return "\n".join(lines)

    def _tally(self, rec, verdicts: Collection[bool | None], label: str) -> None:
        """Count one record: a False verdict is a violation, a None one undecided."""
        self.records.append(rec)
        self.counts_by_n[rec.n] = self.counts_by_n.get(rec.n, 0) + 1
        if False in verdicts:  # verdicts are True, False or None
            self.violations += 1
        if None in verdicts:
            self.undecided += 1
        if self.min_slack is None or rec.slack < self.min_slack:
            self.min_slack = rec.slack
            self.argmin_code = label


def _evaluate(tree: Tree, code: str, config: RunConfig) -> VerifyRecord:
    """The record of one tree: the conjecture and every configured check,
    each decided from its rows (bounds.Check.rows), with no report built;
    the conjecture's rows, refined as its report would be, also give the
    record's LE, slack and reference energies."""
    (rows,), (holds,) = bounds.CHECKS["conjecture"].rows(tree, config.tol)
    le, slack, le_path, le_star, _, _ = bounds._conjecture_terms(rows)
    checks = {"conjecture": holds}
    for cid in config.checks:
        if cid not in checks:
            checks[cid] = bounds.CHECKS[cid].verdict(tree, config.tol)
    return VerifyRecord(
        code=code,
        n=tree.n,
        diam=diameter(tree),
        s=degree_summary(tree).internal_count,
        sigma=eigenvalues(tree, config.tol).sigma,
        le=le.value,
        le_err=le.err,
        le_path=le_path,
        le_star=le_star,
        slack=slack,
        tol=config.tol,
        checks=checks,
    )


def run_exhaustive(config: RunConfig) -> RunSummary:
    """Stream all free trees in the configured range through the conjecture
    check (plus any enabled bound checks), appending one record per tree.

    Trees already recorded in the sink are not evaluated again, but their
    records join the summary, so a resumed run reports and exits as an
    uninterrupted one would.  A sink whose records carry another set of
    checks, or were made at another tolerance, is refused, and left as it
    was (_load_sink).  For the length of the enumeration the bound checks
    share T - e components per isomorphism class (see bounds._shared_split).

    The trees of one order go through in blocks of up to BLOCK: the spectra
    of a block's trees not in the sink are computed together
    (spectral.eigenvalues_many).  Then bounds._file_components files the
    block's T - e components and proves the ones without a spectrum
    together, if a configured check reads them.  Then each tree is checked
    and its record written in enumeration order; a sink line is the
    record's json_line, which a jsonl report reuses.  That per-tree step
    (_evaluate, one record_to_json call, the sink write and _tally) reads
    the conjecture's sides made once per order and tolerance, the tree's
    LE summed in one pass over its enclosures, and one format string per
    record type.  Each tree comes built from its level sequence
    (enumeration._layout_to_tree), with its diameter, degree summary and
    orientation at the layout root already filed; its counts are taken
    from that root (Tree.count_root), and its record key and the report
    order are the centroid-rooted canonical code.
    """
    accepted = [cid for cid, check in bounds.CHECKS.items() if check.exhaustive]
    for c in config.checks:
        if c not in accepted:
            raise BadParam(f"unknown check id {c!r}; exhaustive runs accept {', '.join(accepted)}")
    wanted = {"conjecture", *config.checks}
    summary = RunSummary()
    existing = _load_sink(config.out, wanted, config.tol) if config.out else {}
    sink_file = open(config.out, "a", encoding="ascii", newline="\n") if config.out else nullcontext()
    with sink_file as sink, bounds._shared_components():
        for n in range(config.n_min, config.n_max + 1):
            summary.counts_by_n[n] = 0
            trees = iter(free_trees_sharded(EnumRange(n, config.shard_index, config.shard_count)))
            while block := [(canonical_code(t).decode("ascii"), t) for t in islice(trees, BLOCK)]:
                fresh = [tree for code, tree in block if code not in existing]
                if fresh:
                    eigenvalues_many(fresh, config.tol)
                    bounds._file_components(fresh, config)
                for code, tree in block:
                    rec = existing.get(code)
                    if rec is not None:
                        summary.skipped += 1
                    else:
                        rec = _evaluate(tree, code, config)
                        summary.trees += 1
                        if sink:
                            sink.write(rec.json_line + "\n")
                    summary._tally(rec, rec.checks.values(), code)
    return summary


# ---- family sweeps -------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    tol: float = 1e-9
    t4_ab: tuple[int, int] = (9, 100)
    tprime_r: tuple[int, int] = (2, 12)
    tprime_s1: tuple[int, int] = (2, 20)
    tdprime_r: tuple[int, int] = (3, 8)
    tdprime_s: tuple[int, int] = (2, 6)
    broom_ab: tuple[int, int] = (1, 12)
    sns_random: int = 0
    sns_seed: int = 20240901
    out: str | None = None
    fmt: str = "jsonl"

    def __post_init__(self):
        check_tol(self.tol)
        if self.sns_random < 0:
            raise BadParam(f"sns_random must be >= 0, got {self.sns_random}")
        _check_format(self.fmt)


def _sweep_trees(config: SweepConfig) -> Iterable[tuple[str, str, Tree]]:
    lo, hi = config.t4_ab
    for ab in range(max(lo, 2), hi + 1):
        yield "t4_spider", f"a+b={ab}", families.t4_spider(ab - 1, 1)
    for r in range(config.tprime_r[0], config.tprime_r[1] + 1):
        for s1 in range(config.tprime_s1[0], config.tprime_s1[1] + 1):
            yield "t_prime", f"r={r},s1={s1}", families.t_prime(r, s1)
    for r in range(config.tdprime_r[0], config.tdprime_r[1] + 1):
        for s1 in range(config.tdprime_s[0], config.tdprime_s[1] + 1):
            for s2 in range(config.tdprime_s[0], s1 + 1):
                yield "t_dprime", f"r={r},s1={s1},s2={s2}", families.t_dprime(r, s1, s2)
    for a in range(config.broom_ab[0], config.broom_ab[1] + 1):
        for b in range(config.broom_ab[0], a + 1):
            yield "double_broom3", f"a={a},b={b}", families.double_broom3(a, b)
            yield "double_broom4", f"a={a},b={b}", families.double_broom4(a, b)
    if config.sns_random:
        rng = random.Random(config.sns_seed)
        for i in range(config.sns_random):
            r = rng.randint(2, 10)
            p = rng.randint(0, 6)
            s = [rng.randint(0, 8) for _ in range(r)]
            while sum(1 for x in s if x) < 2:
                s[rng.randrange(r)] += 1
            yield "sns", f"#{i}:p={p},r={r},s={'+'.join(map(str, s))}", families.sns_tree(p, r, s)


def run_family_sweep(config: SweepConfig) -> RunSummary:
    """Sweep the diameter-4 families, recording LE against 4n/pi + 2 and the
    internal-vertex condition; diameter-3 brooms record the condition only.
    Only diameter-4 members with n >= 19 carry a verdict into the tally."""
    if config.out:
        check_writable(config.out)
    summary = RunSummary()
    for family, params, tree in _sweep_trees(config):
        n = tree.n
        if diameter(tree) == 4:
            rep = bounds.diam4_energy_check(tree, config.tol)
            le, rhs, holds, slack = rep.lhs, rep.rhs, rep.holds, rep.slack
            verdicts = () if rep.out_of_hypothesis else (holds,)
        else:
            le = eigenvalues(tree, config.tol).laplacian_energy()
            rhs = bounds.path_energy_upper(n)
            holds, slack, verdicts = None, bounds._ge_slack(le, rhs), ()
        rec = SweepRecord(
            family=family,
            params=params,
            n=n,
            sigma=eigenvalues(tree, config.tol).sigma,
            le=le.value,
            le_err=le.err,
            bound=rhs.value,
            holds=holds,
            slack=slack,
            thm31_cond=bounds.thm31_condition(n, degree_summary(tree).internal_count),
        )
        summary.trees += 1
        summary._tally(rec, verdicts, f"{family}({params})")
    if config.out:
        _write_report(SweepRecord, summary.records, config.fmt, config.out)
    return summary
