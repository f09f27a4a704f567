"""Verification harness: exhaustive conjecture runs and family sweeps.

Records are append-only line-delimited JSON keyed by the canonical code, so
an interrupted run can resume without duplicating work.  Runs decide from
rows (bounds._refined), not reports, and write a deterministic report
(sorted, floats at 15 significant digits, byte-identical across reruns)
through _report_file; an exhaustive run writes it one order at a time and
keeps tallies, not records.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from itertools import islice
from operator import attrgetter
from typing import Collection, Iterable, Sequence

from . import bounds, families
from .enumeration import MAX_ORDER, EnumRange, free_trees_sharded
from .errors import BadParam, check_index
from .intervals import Enclosure
from .spectral import BLOCK, check_tol, eigenvalues, eigenvalues_many
from .spectral import sigma  # noqa: F401  (kept as verify.sigma; records read the spectrum)
from .tree import Tree, canonical_code, degree_summary, diameter


@dataclass(frozen=True)
class RunConfig:
    """An exhaustive run over the orders n_min..n_max <= MAX_ORDER (20), refused
    here past it, before any sink is opened.  With a report path, the run
    writes its report in fmt, each order's sorted lines when that order
    ends, and keeps no record past its tally.  So memory follows the largest
    order reported: n <= 18 peaks at 37 MB without a report and 79 MB with a
    sink and a report, n <= 19 at 146 MB with both.  A resume holds the
    sink's lines of the run's orders as text until their trees come up:
    resuming a complete n <= 18 sink peaks at 112 MB (ROADMAP item 10)."""

    n_min: int = 4
    n_max: int = 10
    tol: float = 1e-12
    shard_index: int = 0
    shard_count: int = 1
    out: str | None = None
    checks: tuple[str, ...] = ("conjecture",)
    report: str | None = None
    fmt: str = "jsonl"

    def __post_init__(self):
        check_tol(self.tol)
        check_index("n_max", self.n_max, 1, math.inf)
        check_index("n_min", self.n_min, 1, self.n_max)
        if self.n_max > MAX_ORDER:
            raise BadParam(f"bad order range {self.n_min}..{self.n_max}: exhaustive runs go up to n = {MAX_ORDER}")
        EnumRange(self.n_min, self.shard_index, self.shard_count)  # validates shards
        _check_format(self.fmt)


@dataclass
class VerifyRecord:
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
class SweepRecord:
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


@functools.lru_cache(maxsize=64)
def _g15(x: float) -> str:
    """15-significant-digit float formatting used in every emitted artifact.

    Every finite float is written so that reading it back and writing it
    again gives the same text: zero is unsigned (JSON reads "-0" as the
    integer 0), and the few floats next to the largest double, whose
    15-digit rounding would read back as infinity, are written in full.
    Equal numbers have one text, so recent ones are kept: an order's
    le_path and le_star and the run's tol recur in every record.
    """
    x = float(x) + 0.0
    s = "%.15g" % x
    return s if -1e308 < x < 1e308 or math.isfinite(float(s)) else repr(x)


_json_str = json.encoder.encode_basestring_ascii  # what json.dumps writes for a str


def _json_bool(v: bool | None) -> str:
    return "null" if v is None else "true" if v else "false"


def _json_checks(checks: dict) -> str:
    return "{" + ",".join([f"{_json_str(k)}:{_json_bool(v)}" for k, v in sorted(checks.items())]) + "}"


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


# One JSON line per record type: every field read by one attrgetter, each
# value's text made by its to_json, and all of them put in by a single % format.
_JSON_LINES = {
    cls: (attrgetter(*(name for name, _, _ in table)), tuple(to_json for _, to_json, _ in table),
          "{" + ",".join(f'"{name}":%s' for name, _, _ in table) + "}")
    for cls, table in _FIELDS.items()
}


def _of_type(table: dict, rec):
    """table's entry for the type of rec, a VerifyRecord or a SweepRecord."""
    try:
        return table[type(rec)]
    except KeyError:
        raise BadParam(f"unknown record type {type(rec)!r}") from None


def _csv_header(cls) -> str:
    return ",".join(name for name, _, to_csv in _FIELDS[cls] if to_csv)


CSV_HEADER = _csv_header(VerifyRecord)
REPORT_FORMATS = ("jsonl", "csv")
SNS_SEED = 20240901  # seeds a sweep's sns_random members, so every sweep draws the same ones


def record_to_json(rec) -> str:
    values, to_json, line = _of_type(_JSON_LINES, rec)
    return line % tuple([text(value) for text, value in zip(to_json, values(rec))])


def record_to_csv(rec) -> str:
    return ",".join(to_csv(getattr(rec, name)) for name, _, to_csv in _of_type(_FIELDS, rec) if to_csv)


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


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: the same real path, or, when both
    exist, the same file by os.path.samefile (a hard link)."""
    exist = os.path.exists(a) and os.path.exists(b)
    return os.path.realpath(a) == os.path.realpath(b) or exist and os.path.samefile(a, b)


@contextmanager
def _report_file(path: str, fmt: str, cls: type):
    """The report's open file, a CSV one headed for rows of cls.  It is
    written under a temporary name in the report's directory and takes the
    report's name when the block ends: a refused, failed or interrupted run
    leaves no report and no partial one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "w", encoding="ascii", newline="\n")
    try:
        with fh:
            if fmt == "csv":
                fh.write(_csv_header(cls) + "\n")
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def emit_report(records: Sequence, fmt: str, path: str) -> None:
    """Deterministic report of verification records, bit-stable: sorted by
    _sort_key, one per line.  A CSV report starts with CSV_HEADER (also
    when there are no records) and holds only VerifyRecords."""
    _check_format(fmt)
    if fmt == "csv" and any(type(rec) is not VerifyRecord for rec in records):
        raise BadParam("a CSV report of VerifyRecord rows holds only VerifyRecord records")
    to_text = record_to_csv if fmt == "csv" else record_to_json
    with _report_file(path, fmt, VerifyRecord) as fh:
        fh.writelines(to_text(rec) + "\n" for rec in sorted(records, key=_sort_key))


# VerifyRecord field annotation -> the JSON value types a sink line may hold.
_SINK_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "dict": (dict,)}
_SINK_FIELDS = {f.name: f.type for f in fields(VerifyRecord)}
_DOUBLE_MAX = 1.7976931348623157e308  # the largest double: an int past it has no float, 1e400 reads as inf


def _refuse_constant(name: str):
    """json.loads reads NaN, Infinity and -Infinity, which are not JSON."""
    raise ValueError(f"{name} is not a JSON number")


def _sink_fields(line: bytes) -> dict:
    """The fields of one sink line, checked as VerifyRecord(**fields) would
    take them and typed as record_to_json writes them (checks may be left
    out, as VerifyRecord's default allows); TypeError or ValueError if the
    line is not a record."""
    row = json.loads(line, parse_constant=_refuse_constant)
    if type(row) is not dict:
        raise TypeError("not a JSON object")
    row.setdefault("checks", {})
    if row.keys() != _SINK_FIELDS.keys():
        raise TypeError(f"its fields are not {', '.join(_SINK_FIELDS)}")
    for name, kind in _SINK_FIELDS.items():
        value = row[name]
        if type(value) not in _SINK_TYPES[kind]:
            raise TypeError(f"{name} is not of type {kind}")
        if kind == "float" and not -_DOUBLE_MAX <= value <= _DOUBLE_MAX:
            raise ValueError(f"{name} is beyond the double range")
    if not all(v is None or type(v) is bool for v in row["checks"].values()):
        raise TypeError("a check verdict is not true, false or null")
    if len(row["code"]) != 2 * row["n"]:
        raise ValueError("n is not half the length of its code")
    return row


def _load_sink(path: str, wanted: set[str], tol: float, orders: range) -> dict[str, bytes]:
    """The lines already in a run's sink whose codes are of the run's
    orders, by code (a code of order n has 2n characters), as text: the
    run parses a line again when its tree comes up.

    Every line is read one at a time and checked first.  Any complete line
    that is not a record is an error, and so are a record whose n is not
    half its code's length, a second record of a code of the run's orders,
    and a record made with other checks than `wanted` or at another
    tolerance than tol: the run is refused.  A record of a tree this run
    does not take, another shard's say, is allowed.  A last line without
    its newline is what a killed run leaves behind; once the run is
    accepted, it is cut off the file, so its tree is evaluated again and
    appending starts on a fresh line.  A refused run leaves the file as it
    was.
    """
    if not os.path.exists(path):
        return {}
    kept, other, lineno, end = {}, None, 0, 0
    with open(path, "rb") as fh:
        for chunk in fh:
            if not chunk.endswith(b"\n"):
                break
            end += len(chunk)
            for line in chunk.splitlines():  # the line breaks bytes.splitlines finds
                lineno += 1
                if line.strip():
                    try:
                        row = _sink_fields(line)
                        if row["code"] in kept:
                            raise ValueError("its code is recorded on an earlier line")
                    except (TypeError, ValueError) as exc:
                        raise BadParam(f"{path}:{lineno}: not a verification record ({exc})") from None
                    if other is None and (set(row["checks"]) != wanted or _g15(row["tol"]) != _g15(tol)):
                        other = row
                    if row["n"] in orders:
                        kept[row["code"]] = line
    if other is not None:
        if set(other["checks"]) != wanted:
            raise BadParam(
                f"{path} holds records with checks {','.join(sorted(other['checks']))}, "
                f"this run asks for {','.join(sorted(wanted))}; write to another --out"
            )
        raise BadParam(
            f"{path} holds records made at tol {_g15(other['tol'])}, "
            f"this run asks for tol {_g15(tol)}; write to another --out"
        )
    if end < os.path.getsize(path):
        with open(path, "r+b") as fh:
            fh.truncate(end)
    return kept


@dataclass
class RunSummary:
    trees: int = 0
    skipped: int = 0
    violations: int = 0
    undecided: int = 0
    min_slack: float | None = None
    argmin_code: str = ""
    counts_by_n: dict = field(default_factory=dict)

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
        """Count one record: a False verdict is a violation, a None one
        undecided; only a record with verdicts has a say in the min slack."""
        self.counts_by_n[rec.n] = self.counts_by_n.get(rec.n, 0) + 1
        if False in verdicts:  # verdicts are True, False or None
            self.violations += 1
        if None in verdicts:
            self.undecided += 1
        if verdicts and (self.min_slack is None or rec.slack < self.min_slack):
            self.min_slack = rec.slack
            self.argmin_code = label


def _evaluate(tree: Tree, code: str, config: RunConfig) -> VerifyRecord:
    """The record of one tree: the conjecture and every configured check,
    each decided from its rows (bounds.Check.rows), with no report built;
    the conjecture's rows, refined as its report would be, also give the
    record's LE, slack and reference energies."""
    tol = config.tol
    (rows,), (holds,) = bounds.CHECKS["conjecture"].rows(tree, tol)
    le, slack, le_path, le_star, _, _ = bounds._conjecture_terms(rows)
    checks = {"conjecture": holds}
    for cid in config.checks:
        if cid not in checks:
            checks[cid] = bounds.CHECKS[cid].verdict(tree, tol)
    # VerifyRecord's fields in declaration order, by position: a keyword call costs twice as much
    return VerifyRecord(code, tree.n, diameter(tree), degree_summary(tree).internal_count,
                        eigenvalues(tree, tol).sigma, le.value, le.err, le_path, le_star, slack, tol, checks)


def run_exhaustive(config: RunConfig) -> RunSummary:
    """Stream all free trees in the configured range through the conjecture
    check (plus any enabled bound checks), appending one record per tree.

    Trees already recorded in the sink are not evaluated again, but their
    records join the tallies and the report, so a resumed run reports and
    exits as an uninterrupted one would: the sink's lines of the run's
    orders are held as text (_load_sink), and each is parsed when its tree
    comes up and dropped at its tally.  A sink of other checks or another
    tolerance is refused and left as it was (_load_sink); so is a report path
    that cannot be written or names the sink.  The bound checks share T - e
    components per isomorphism class for the whole run (bounds._shared_split).

    The trees of one order go through in blocks of up to BLOCK: the spectra
    of a block's fresh trees are computed together (eigenvalues_many), and
    bounds._file_components files their T - e components if a configured
    check reads them.  Then each tree is checked and tallied in enumeration
    order; a fresh record's line is made by one record_to_json call, right
    after its verdict, if the sink or a jsonl report takes it.  The report is
    sorted by (n, code), the canonical code, and every line leads with its
    code, 2n characters at order n, so each order's lines alone are sorted
    and written when that order ends (_report_file), and no record is kept
    past its tally.
    """
    accepted = [cid for cid, check in bounds.CHECKS.items() if check.exhaustive]
    for c in config.checks:
        if c not in accepted:
            raise BadParam(f"unknown check id {c!r}; exhaustive runs accept {', '.join(accepted)}")
    if config.report:
        check_writable(config.report)
        if config.out and _same_file(config.report, config.out):
            raise BadParam(f"--report {config.report} names the --out sink; write the report to another file")
    wanted = {"conjecture", *config.checks}
    jsonl_report = bool(config.report) and config.fmt == "jsonl"
    summary = RunSummary()
    orders = range(config.n_min, config.n_max + 1)
    existing = _load_sink(config.out, wanted, config.tol, orders) if config.out else {}
    report_file = _report_file(config.report, config.fmt, VerifyRecord) if config.report else nullcontext()
    sink_file = open(config.out, "a", encoding="ascii", newline="\n") if config.out else nullcontext()
    with report_file as report, sink_file as sink, bounds._shared_components():
        for n in orders:
            summary.counts_by_n[n] = 0
            lines = []  # this order's report lines
            trees = iter(free_trees_sharded(EnumRange(n, config.shard_index, config.shard_count)))
            while block := [(canonical_code(t).decode("ascii"), t) for t in islice(trees, BLOCK)]:
                fresh = [tree for code, tree in block if code not in existing]
                if fresh:
                    eigenvalues_many(fresh, config.tol)
                    bounds._file_components(fresh, config)
                summary.trees += len(fresh)
                summary.skipped += len(block) - len(fresh)
                for code, tree in block:
                    kept = existing.pop(code, None)
                    if kept is None:
                        rec = _evaluate(tree, code, config)
                        line = record_to_json(rec) if sink or jsonl_report else None
                        if sink:
                            sink.write(line + "\n")
                    else:
                        rec, line = VerifyRecord(**json.loads(kept)), None
                    if report:
                        lines.append((line or record_to_json(rec)) if jsonl_report else record_to_csv(rec))
                    summary._tally(rec, rec.checks.values(), code)
            if report:
                lines.sort()  # each line leads with its code, and an order's codes are 2n long
                report.writelines(text + "\n" for text in lines)
    return summary


# ---- family sweeps -------------------------------------------------------------


# The family sweep's fixed parameter ranges, lo..hi inclusive (tests patch it).
SWEEP_RANGES = {"t4_ab": (9, 100), "tprime_r": (2, 12), "tprime_s1": (2, 20),
                "tdprime_r": (3, 8), "tdprime_s": (2, 6), "broom_ab": (1, 12)}


@dataclass(frozen=True)
class SweepConfig:
    """A family sweep: the members SWEEP_RANGES names, plus sns_random sns trees."""

    tol: float = 1e-9
    sns_random: int = 0
    out: str | None = None
    fmt: str = "jsonl"

    def __post_init__(self):
        check_tol(self.tol)
        check_index("sns_random", self.sns_random, 0, math.inf)
        _check_format(self.fmt)


def _sweep_trees(config: SweepConfig) -> Iterable[tuple[str, str, Tree]]:
    span = {name: range(lo, hi + 1) for name, (lo, hi) in SWEEP_RANGES.items()}
    for ab in span["t4_ab"]:
        yield "t4_spider", f"a+b={ab}", families.t4_spider(ab - 1, 1)
    for r in span["tprime_r"]:
        for s1 in span["tprime_s1"]:
            yield "t_prime", f"r={r},s1={s1}", families.t_prime(r, s1)
    for r in span["tdprime_r"]:
        for s1 in span["tdprime_s"]:
            for s2 in range(span["tdprime_s"].start, s1 + 1):
                yield "t_dprime", f"r={r},s1={s1},s2={s2}", families.t_dprime(r, s1, s2)
    for a in span["broom_ab"]:
        for b in range(span["broom_ab"].start, a + 1):
            yield "double_broom3", f"a={a},b={b}", families.double_broom3(a, b)
            yield "double_broom4", f"a={a},b={b}", families.double_broom4(a, b)
    if config.sns_random:
        rng = random.Random(SNS_SEED)
        for i in range(config.sns_random):
            r = rng.randint(2, 10)
            p = rng.randint(0, 6)
            s = [rng.randint(0, 8) for _ in range(r)]
            while sum(1 for x in s if x) < 2:
                s[rng.randrange(r)] += 1
            yield "sns", f"#{i}:p={p},r={r},s={'+'.join(map(str, s))}", families.sns_tree(p, r, s)


def run_family_sweep(config: SweepConfig) -> RunSummary:
    """Sweep the families over SWEEP_RANGES, each member decided from diam4's
    row, LE(T) >= 4n/pi + 2, and its internal-vertex condition recorded.  A
    member claims the bound when it has diameter 4 and n >= DIAM4_MIN_N:
    only then is its row refined and its verdict kept.  The sorted lines go
    through _report_file, as an exhaustive order's do."""
    if config.out:
        check_writable(config.out)
    tol, summary, lines = config.tol, RunSummary(), []
    to_text = record_to_csv if config.fmt == "csv" else record_to_json
    for family, params, tree in _sweep_trees(config):
        n = tree.n
        claims = n >= bounds.DIAM4_MIN_N and diameter(tree) == 4
        ((row,),), (holds,) = bounds._refined(bounds.diam4_sides, tree, [()], tol, 0 if claims else math.inf)
        le, bound = Enclosure(*row[:3]), Enclosure(*row[3:6])
        rec = SweepRecord(family, params, n, eigenvalues(tree, tol).sigma, le.value, le.err, bound.value,
                          holds if claims else None, bounds._row_slack(*row[:6]),
                          bounds.thm31_condition(n, degree_summary(tree).internal_count))
        summary.trees += 1
        summary._tally(rec, (holds,) if claims else (), f"{family}({params})")
        if config.out:
            lines.append((_sort_key(rec), to_text(rec)))
    if config.out:
        with _report_file(config.out, config.fmt, SweepRecord) as fh:
            fh.writelines(text + "\n" for _, text in sorted(lines))
    return summary
