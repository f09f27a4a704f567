"""Verification harness: records, determinism, resume, sharding, CLI."""

import csv
import hashlib
import io
import json
import math
import os
import resource
import sys
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

from treelap import spectral, verify
from treelap.enumeration import MAX_ORDER, EnumRange, free_trees_sharded
from treelap.errors import BadParam
from treelap.verify import (
    CSV_HEADER,
    RunConfig,
    SweepConfig,
    SweepRecord,
    VerifyRecord,
    emit_report,
    record_to_csv,
    record_to_json,
    run_exhaustive,
    run_family_sweep,
)
from treelap.cli import main as cli_main
from treelap.tree import canonical_code

from conftest import read_records, run_cli


def test_run_exhaustive_counts_and_zero_violations(tmp_path):
    report = tmp_path / "report.jsonl"
    config = RunConfig(n_min=4, n_max=7, tol=1e-12, report=str(report))
    summary = run_exhaustive(config)
    assert summary.counts_by_n == {4: 2, 5: 3, 6: 6, 7: 11}
    assert summary.trees == 22
    assert summary.violations == 0 and summary.undecided == 0
    assert summary.min_slack == 0.0  # the paths and stars themselves
    # min LE tree at n=4 is the path: every non-path slack is positive
    for rec in read_records(report):
        assert rec.checks["conjecture"] is True
        assert rec.slack >= 0.0


def test_min_le_tree_is_path_at_n4(tmp_path):
    report = tmp_path / "report.jsonl"
    run_exhaustive(RunConfig(n_min=4, n_max=4, report=str(report)))
    by_le = sorted(read_records(report), key=lambda r: r.le)
    assert by_le[0].le < by_le[1].le
    from treelap.families import path
    from treelap.tree import canonical_code

    assert by_le[0].code == canonical_code(path(4)).decode()


def test_record_formats():
    rec = VerifyRecord(
        code="(()())", n=3, diam=2, s=1, sigma=1, le=3.3333333333333335,
        le_err=1e-13, le_path=3.3333333333333335, le_star=3.3333333333333335,
        slack=0.0, tol=1e-12, checks={"conjecture": True},
    )
    line = record_to_json(rec)
    parsed = json.loads(line)
    assert parsed["code"] == "(()())" and parsed["checks"] == {"conjecture": True}
    assert CSV_HEADER.split(",") == [
        "code", "n", "diam", "s", "sigma", "le", "le_err", "le_path", "le_star", "slack", "tol",
    ]
    assert record_to_csv(rec).startswith("(()()),3,2,1,1,")


def test_emit_report_deterministic(tmp_path):
    # emit_report of a run's records, read back from its report, rewrites that report
    run1, run2, run_csv = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl", tmp_path / "run.csv"
    summary = run_exhaustive(RunConfig(n_min=4, n_max=6, report=str(run1)))
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    emit_report(read_records(run1), "jsonl", str(p1))
    run_exhaustive(RunConfig(n_min=4, n_max=6, report=str(run2)))
    emit_report(read_records(run2), "jsonl", str(p2))
    assert p1.read_bytes() == p2.read_bytes() == run1.read_bytes()
    pcsv = tmp_path / "a.csv"
    emit_report(read_records(run1), "csv", str(pcsv))
    lines = pcsv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + summary.trees
    run_exhaustive(RunConfig(n_min=4, n_max=6, report=str(run_csv), fmt="csv"))
    assert run_csv.read_bytes() == pcsv.read_bytes()


def test_resume_skips_existing_codes(tmp_path):
    sink = tmp_path / "records.jsonl"
    first = run_exhaustive(RunConfig(n_min=5, n_max=5, out=str(sink)))
    assert first.trees == 3
    second = run_exhaustive(RunConfig(n_min=5, n_max=6, out=str(sink)))
    assert second.skipped == 3
    assert second.trees == 6
    codes = [json.loads(x)["code"] for x in sink.read_text().splitlines()]
    assert len(codes) == len(set(codes)) == 9


def _spy_blocks(monkeypatch) -> list:
    """The trees of each block whose spectra run_exhaustive computes."""
    blocks = []
    real = verify.eigenvalues_many

    def spy(trees, tol):
        blocks.append(list(trees))
        return real(trees, tol)

    monkeypatch.setattr(verify, "eigenvalues_many", spy)
    return blocks


def test_fully_resumed_run_computes_no_block(tmp_path, monkeypatch):
    sink, first_report, again_report = tmp_path / "records.jsonl", tmp_path / "first.jsonl", tmp_path / "again.jsonl"
    first = run_exhaustive(RunConfig(n_min=4, n_max=9, out=str(sink), report=str(first_report)))
    blocks = _spy_blocks(monkeypatch)
    again = run_exhaustive(RunConfig(n_min=4, n_max=9, out=str(sink), report=str(again_report)))
    assert blocks == []
    assert (again.trees, again.skipped) == (0, first.trees)
    assert again_report.read_bytes() == first_report.read_bytes()


def test_blocks_hold_only_trees_missing_from_the_sink(tmp_path, monkeypatch):
    sink, full_sink = tmp_path / "records.jsonl", tmp_path / "full.jsonl"
    full_report, resumed_report = tmp_path / "full-report.jsonl", tmp_path / "resumed-report.jsonl"
    run_exhaustive(RunConfig(n_min=9, n_max=9, out=str(full_sink), report=str(full_report)))
    full = read_records(full_sink)  # enumeration order
    kept = [record_to_json(rec) for rec in full[::3]]
    sink.write_text("".join(line + "\n" for line in kept))
    blocks = _spy_blocks(monkeypatch)
    run_exhaustive(RunConfig(n_min=9, n_max=9, out=str(sink), report=str(resumed_report)))
    codes = [canonical_code(t).decode() for block in blocks for t in block]
    assert sorted(codes) == sorted(rec.code for rec in full[1::3] + full[2::3])
    assert all(0 < len(block) <= spectral.BLOCK for block in blocks)
    assert resumed_report.read_bytes() == full_report.read_bytes()  # skipped records in place


def test_interrupted_block_loses_work_but_never_a_record(tmp_path, monkeypatch):
    # the 47 trees of order 9 make one block; the check fails on the 20th
    sink = tmp_path / "records.jsonl"
    real = verify.bounds.conjecture_sides  # what each tree's conjecture verdict reads
    seen = []

    def failing(tree, calls, tol):
        seen.append(1)
        if len(seen) == 20:
            raise KeyboardInterrupt
        return real(tree, calls, tol)

    monkeypatch.setattr(verify.bounds, "conjecture_sides", failing)
    with pytest.raises(KeyboardInterrupt):
        run_exhaustive(RunConfig(n_min=9, n_max=9, out=str(sink)))
    monkeypatch.undo()
    lines = sink.read_text().splitlines()
    assert len(lines) == 19  # every tree checked before the failure
    full_report, resumed_report = tmp_path / "full.jsonl", tmp_path / "resumed.jsonl"
    full = run_exhaustive(RunConfig(n_min=9, n_max=9, report=str(full_report)))
    resumed = run_exhaustive(RunConfig(n_min=9, n_max=9, out=str(sink), report=str(resumed_report)))
    assert (resumed.skipped, resumed.trees) == (19, full.trees - 19)
    assert resumed_report.read_bytes() == full_report.read_bytes()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_an_interrupted_run_leaves_no_report_and_no_temporary_file(tmp_path, monkeypatch, fmt):
    # order 8 ends and its slice is written; the run then fails on the 20th tree of order 9
    sink, report = tmp_path / "records.jsonl", tmp_path / f"report.{fmt}"
    real = verify.bounds.conjecture_sides
    seen = []

    def failing(tree, calls, tol):
        if tree.n == 9:
            seen.append(1)
            if len(seen) == 20:
                raise KeyboardInterrupt
        return real(tree, calls, tol)

    monkeypatch.setattr(verify.bounds, "conjecture_sides", failing)
    with pytest.raises(KeyboardInterrupt):
        run_exhaustive(RunConfig(n_min=8, n_max=9, out=str(sink), report=str(report), fmt=fmt))
    assert os.listdir(tmp_path) == ["records.jsonl"]
    assert len(sink.read_text().splitlines()) == 23 + 19


@pytest.mark.parametrize("tol", [1e-12, 0.3])  # at 0.3 many verdicts are refined
def test_exhaustive_checks_are_decided_from_rows_with_no_report(tol, tmp_path, monkeypatch):
    paper = ("lemma21", "lemma22", "lemma26", "lemma31", "cor31", "thm31", "thm32")
    before, rows_only = tmp_path / "before.jsonl", tmp_path / "rows-only.jsonl"
    config = RunConfig(n_min=4, n_max=9, tol=tol, checks=paper)
    run_exhaustive(replace(config, report=str(before)))

    def refuse(*args, **kwargs):
        raise AssertionError("an exhaustive run built a report")

    read_at = set()

    def spy(sides):
        def read(tree, calls, tol):
            read_at.add(tol)
            return sides(tree, calls, tol)
        return read

    monkeypatch.setattr(verify.bounds, "BoundReport", refuse)
    for check in verify.bounds.CHECKS.values():
        if check.exhaustive:  # conjecture_check, lemma21_check, lemma26_check, thm31_lower_bound, ...
            monkeypatch.setattr(verify.bounds, check.fn, refuse)
            monkeypatch.setattr(verify.bounds, check.sides, spy(getattr(verify.bounds, check.sides)))
    run_exhaustive(replace(config, report=str(rows_only)))
    assert rows_only.read_bytes() == before.read_bytes()
    assert (min(read_at) < tol) == (tol > 0.1)  # refinements read rows too


def test_sharding_merges_to_full_run(tmp_path):
    full = run_exhaustive(RunConfig(n_min=7, n_max=7, report=str(tmp_path / "full.jsonl")))
    parts = [
        run_exhaustive(RunConfig(n_min=7, n_max=7, shard_index=i, shard_count=3, report=str(tmp_path / f"{i}.jsonl")))
        for i in range(3)
    ]
    merged = sorted(r.code for i in range(3) for r in read_records(tmp_path / f"{i}.jsonl"))
    assert merged == sorted(r.code for r in read_records(tmp_path / "full.jsonl"))
    assert sum(p.trees for p in parts) == full.trees


def test_summary_min_slack_matches_records(tmp_path):
    report = tmp_path / "report.jsonl"
    summary = run_exhaustive(RunConfig(n_min=6, n_max=6, report=str(report)))
    assert verify._g15(summary.min_slack) == verify._g15(min(r.slack for r in read_records(report)))


def test_extra_checks_recorded(tmp_path):
    report = tmp_path / "report.jsonl"
    run_exhaustive(RunConfig(n_min=5, n_max=5, checks=("conjecture", "lemma21", "lemma26"), report=str(report)))
    for rec in read_records(report):
        assert rec.checks["lemma21"] is True
        assert rec.checks["lemma26"] is True


def test_order_limit_is_max_order():
    # every order up to enumeration.MAX_ORDER needs no flag; the next is
    # refused by RunConfig itself, before a run opens its sink
    for n_max in range(17, MAX_ORDER + 1):
        assert RunConfig(n_min=4, n_max=n_max).n_max == n_max
    with pytest.raises(BadParam, match=f"up to n = {MAX_ORDER}"):
        RunConfig(n_min=4, n_max=MAX_ORDER + 1)
    # an order is an int: a float fails here, not as a TypeError in the run,
    # and a bool is not order 1
    for bad in ({"n_max": 5.0}, {"n_min": True}, {"n_min": 4.0}, {"n_min": 6, "n_max": 5}, {"n_min": 0}):
        with pytest.raises(BadParam):
            RunConfig(**{"n_min": 4, "n_max": 5, **bad})
    with pytest.raises(TypeError):
        RunConfig(n_min=4, n_max=17, allow_large=True)


def test_family_sweep_small(tmp_path):
    config = SweepConfig(
        tol=1e-9,
        t4_ab=(9, 12),
        tprime_r=(2, 4),
        tprime_s1=(2, 6),
        tdprime_r=(3, 4),
        tdprime_s=(2, 4),
        broom_ab=(1, 6),
        out=str(tmp_path / "sweep.jsonl"),
    )
    summary = run_family_sweep(config)
    assert summary.violations == 0
    rows = [json.loads(x) for x in (tmp_path / "sweep.jsonl").read_text().splitlines()]
    assert {r["family"] for r in rows} >= {"t4_spider", "t_prime", "t_dprime", "double_broom3", "double_broom4"}
    # diameter-4 rows with n >= 19 all certified
    for r in rows:
        if r["family"] in ("t4_spider", "t_prime", "t_dprime") and r["n"] >= 19:
            assert r["holds"] is True
    # double_broom4 (s = 3): condition kicks in exactly at n >= 14
    for r in rows:
        if r["family"] == "double_broom4":
            assert r["thm31_cond"] == (r["n"] >= 14)


def test_records_take_sigma_from_the_spectrum(tmp_path, monkeypatch):
    # the check already computed the spectrum, which holds sigma; with every
    # treelap name for spectral.sigma made to raise, the reports keep their bytes
    def reports(tag):
        conj, sweep = tmp_path / f"{tag}.jsonl", tmp_path / f"{tag}-sweep.jsonl"
        with redirect_stdout(io.StringIO()):
            assert cli_main(["check-conjecture", "--n-max", "8", "--report", str(conj)]) == 0
        run_family_sweep(SweepConfig(t4_ab=(9, 12), tprime_r=(2, 3), tprime_s1=(2, 4), tdprime_r=(3, 3),
                                     tdprime_s=(2, 3), broom_ab=(1, 3), sns_random=2, out=str(sweep)))
        return conj.read_bytes(), sweep.read_bytes()

    expected = reports("counted")

    def no_sigma(tree):
        raise AssertionError("sigma recounted for a record")

    counted = spectral.sigma
    for name, mod in list(sys.modules.items()):
        if (name == "treelap" or name.startswith("treelap.")) and getattr(mod, "sigma", None) is counted:
            monkeypatch.setattr(mod, "sigma", no_sigma)
    assert spectral.sigma is no_sigma
    assert reports("read") == expected


def test_sweep_csv_rows_have_the_header_width(tmp_path):
    out = tmp_path / "sweep.csv"
    config = SweepConfig(t4_ab=(9, 10), tprime_r=(2, 2), tprime_s1=(2, 3), tdprime_r=(3, 3),
                         tdprime_s=(2, 3), broom_ab=(1, 2), sns_random=2, out=str(out), fmt="csv")
    run_family_sweep(config)
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert {len(row) for row in rows} == {len(rows[0])}
    assert {"r=2,s1=2", "r=3,s1=2,s2=2", "a=1,b=1"} <= {row[1] for row in rows[1:]}


def test_empty_sweep_csv_has_the_sweep_header(tmp_path):
    out = tmp_path / "sweep.csv"
    config = SweepConfig(t4_ab=(2, 1), tprime_r=(2, 1), tdprime_r=(3, 2), broom_ab=(1, 0),
                         out=str(out), fmt="csv")
    assert run_family_sweep(config).trees == 0
    assert out.read_text() == "family,params,n,sigma,le,le_err,bound,holds,slack,thm31_cond\n"


@pytest.mark.parametrize("bad", [{"fmt": "xml"}, {"tol": 0.0}, {"tol": float("nan")}, {"tol": float("inf")},
                                 {"sns_random": -1}, {"sns_random": 2.5}, {"sns_random": True},
                                 {"t4_ab": (9.5, 10)}, {"tprime_s1": (2, True)}, {"broom_ab": (-1, 3)}])
def test_sweep_config_refuses_bad_settings_before_any_tree(bad, tmp_path, monkeypatch):
    def no_trees(config):
        raise AssertionError("a tree was built before the config was checked")

    monkeypatch.setattr(verify, "_sweep_trees", no_trees)
    with pytest.raises(BadParam):
        run_family_sweep(SweepConfig(out=str(tmp_path / "sweep.out"), **bad))
    assert not (tmp_path / "sweep.out").exists()


def test_sweep_refuses_an_out_path_it_cannot_write_before_any_tree(tmp_path, monkeypatch):
    def no_trees(config):
        raise AssertionError("a tree was built before the out path was checked")

    monkeypatch.setattr(verify, "_sweep_trees", no_trees)
    for out in (tmp_path / "missing" / "sweep.jsonl", tmp_path):
        with pytest.raises(BadParam):
            run_family_sweep(SweepConfig(out=str(out)))


def test_csv_report_holds_one_record_type(tmp_path):
    rec = SweepRecord("sns", "p=1", 7, 2, 9.5, 1e-9, 10.1, None, -0.5, False)
    with pytest.raises(BadParam):
        emit_report([rec], "csv", str(tmp_path / "r.csv"))


def test_csv_text_fields_round_trip():
    rec = SweepRecord("sns", 'p="1",r=2', 7, 2, 9.5, 1e-9, 10.1, None, -0.5, False)
    (row,) = csv.reader([record_to_csv(rec)])
    assert row[:2] == ["sns", 'p="1",r=2']


class TestCli:
    def run(self, *argv, stdin_text=None, capsys=None):
        import io
        from contextlib import redirect_stdout

        old_stdin = sys.stdin
        buf = io.StringIO()
        try:
            if stdin_text is not None:
                sys.stdin = io.StringIO(stdin_text)
            with redirect_stdout(buf):
                code = cli_main(list(argv))
        finally:
            sys.stdin = old_stdin
        return code, buf.getvalue()

    def test_family_and_spectrum_pipeline(self):
        code, text = self.run("family", "--family", "sns", "--p", "2", "--r", "3", "--s", "2,1,1")
        assert code == 0
        assert text.splitlines()[0] == "10"
        code, payload = self.run("spectrum", "--tol", "1e-10", stdin_text=text)
        assert code == 0
        data = json.loads(payload)
        assert data["n"] == 10 and len(data["eigenvalues"]) == 10
        assert set(data) == {"n", "eigenvalues", "sigma", "le", "le_err"}

    def test_le_and_charpoly(self):
        code, text = self.run("family", "--family", "star", "--n", "4")
        code, payload = self.run("le", stdin_text=text)
        assert json.loads(payload)["le"] == 5.0
        code, payload = self.run("charpoly", stdin_text=text)
        assert json.loads(payload) == [0, -4, 9, -6, 1]

    def test_enumerate_blocks(self):
        code, text = self.run("enumerate", "--n", "4")
        assert code == 0
        blocks = text.strip().split("\n\n")
        assert len(blocks) == 2

    def test_enumerate_sharded_partition(self):
        full = self.run("enumerate", "--n", "8")[1]
        parts = [self.run("enumerate", "--n", "8", "--shards", f"{i}/4")[1] for i in range(4)]
        assert "\n\n".join(p.strip() for p in parts if p.strip()) == full.strip()

    def test_bounds_subcommand(self):
        _, text = self.run("family", "--family", "path", "--n", "6")
        code, payload = self.run("bounds", "--check", "lemma21,lemma26", stdin_text=text)
        assert code == 0
        rows = [json.loads(x) for x in payload.splitlines()]
        assert {r["bound_id"] for r in rows} == {"lemma21", "lemma26"}
        assert all(r["holds"] for r in rows)

    def test_check_conjecture_exit_code(self, tmp_path):
        report = tmp_path / "r.jsonl"
        code, out = self.run(
            "check-conjecture", "--n-min", "4", "--n-max", "6",
            "--report", str(report),
        )
        assert code == 0
        assert report.exists()
        assert "violations: 0" in out

    def test_coarse_tol_refines_the_path_side_too(self):
        code, out = self.run("check-conjecture", "--n-min", "4", "--n-max", "10", "--tol", "0.2")
        assert "violations: 0, undecided: 0" in out
        assert code == 0

    def test_console_entry_point(self):
        proc = run_cli("family", "--family", "path", "--n", "3")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "3"

    def test_out_of_memory_is_one_error_line(self):
        def cap():  # runs in the child only: 512 MB of address space
            resource.setrlimit(resource.RLIMIT_AS, (1 << 29, resource.getrlimit(resource.RLIMIT_AS)[1]))

        proc = run_cli("family", "--family", "path", "--n", "1000000000000", preexec_fn=cap)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory")

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--in", "{missing}/tree.txt"),
        ("spectrum", "--in", "{non_ascii}"),
        ("check-conjecture", "--n-max", "5", "--out", "{missing}/run.jsonl"),
        ("check-conjecture", "--n-max", "5", "--report", "{missing}/report.jsonl"),
        ("sweep", "--out", "{missing}/sweep.jsonl"),
    ], ids=["in-missing", "in-non-ascii", "out-missing-dir", "report-missing-dir", "sweep-out-missing-dir"])
    def test_file_errors_are_one_error_line(self, tmp_path, argv):
        non_ascii = tmp_path / "tree.txt"
        non_ascii.write_bytes(b"2\n0 1\xc3\n")
        paths = {"missing": tmp_path / "missing", "non_ascii": non_ascii}
        proc = run_cli(*(a.format(**paths) for a in argv))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("check-conjecture", "--n-max", "6", "--report", "{missing}/report.jsonl"),
        ("check-conjecture", "--n-max", "6", "--report", "{tmp}"),
        ("sweep", "--out", "{missing}/sweep.jsonl"),
        ("sweep", "--sns-random", "-1"),
    ], ids=["report-missing-dir", "report-is-a-dir", "sweep-out-missing-dir", "sweep-negative-sns-random"])
    def test_refused_before_the_run(self, tmp_path, argv):
        # no summary on stdout: the command stopped before evaluating a tree
        paths = {"missing": tmp_path / "missing", "tmp": tmp_path}
        proc = run_cli(*(a.format(**paths) for a in argv))
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("alias", ["fresh", "same", "dot", "symlink", "hardlink"])
    def test_a_report_naming_the_sink_is_refused(self, tmp_path, alias):
        # a report written over the resumable sink would leave a CSV where the next run resumes
        sink = tmp_path / "x.jsonl"
        if alias != "fresh":
            assert run_cli("check-conjecture", "--n-max", "5", "--out", str(sink)).returncode == 0
        report = {"dot": tmp_path / "." / "x.jsonl", "symlink": tmp_path / "link.jsonl",
                  "hardlink": tmp_path / "hard.jsonl"}.get(alias, sink)
        if alias == "symlink":
            report.symlink_to(sink)
        elif alias == "hardlink":
            os.link(sink, report)
        before = sink.read_bytes() if sink.exists() else None
        proc = run_cli("check-conjecture", "--n-max", "5", "--out", str(sink), "--report", str(report),
                       "--format", "csv")
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --report ")
        assert (sink.read_bytes() if sink.exists() else None) == before

    def test_a_refused_resume_leaves_a_partial_last_line_in_place(self, tmp_path, capsys):
        # the line a killed run left unfinished is cut only once the resume is accepted
        sink = tmp_path / "s.jsonl"
        assert self.run("check-conjecture", "--n-max", "5", "--out", str(sink))[0] == 0
        with open(sink, "ab") as fh:
            fh.write(b'{"code":"((')
        digest = hashlib.sha256(sink.read_bytes()).hexdigest()
        for other in (("--checks", "lemma21"), ("--tol", "1e-9")):
            code, out = self.run("check-conjecture", "--n-max", "5", "--out", str(sink), *other)
            err = capsys.readouterr().err
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.rstrip().endswith("write to another --out")
            assert hashlib.sha256(sink.read_bytes()).hexdigest() == digest

    def test_allow_large_is_an_unknown_option(self, capsys):
        code, out = self.run("check-conjecture", "--n-max", "17", "--allow-large")
        assert code == 1 and out == ""
        assert capsys.readouterr().err == "error: unrecognized arguments: --allow-large\n"

    def test_bad_input_exit_one(self):
        code, _ = self.run("spectrum", stdin_text="not a tree")
        assert code == 1

    @pytest.mark.parametrize("argv, stdin_text", [
        (("spectrum",), "3\n0 1\n1 x\n"),
        (("le", "--pruefer", "1,x"), None),
        (("family", "--family", "sns", "--p", "2", "--r", "3", "--s", "2,x,1"), None),
        (("spectrum", "--tol", "nan", "--pruefer", "1,1"), None),
        (("le", "--tol", "inf", "--pruefer", "1,1"), None),
        (("check-conjecture", "--n-max", "5", "--tol", "nan"), None),
        (("check-conjecture", "--n-max", "5", "--tol", "inf"), None),
        (("le", "--pruefer", "1,,2"), None),
        (("le", "--pruefer", "1,2,"), None),
        (("le", "--pruefer", ","), None),
        (("spectrum",), "1000000000000\n0 1\n"),
    ], ids=["edge-token", "pruefer-label", "family-s", "tol-nan", "tol-inf", "run-tol-nan", "run-tol-inf",
            "pruefer-empty-inner", "pruefer-empty-last", "pruefer-only-comma", "huge-order-one-edge"])
    def test_bad_input_is_an_error_not_a_traceback(self, argv, stdin_text, capsys):
        code, _ = self.run(*argv, stdin_text=stdin_text)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("field", ["tol", "le", "slack"])
    @pytest.mark.parametrize("number", ["1" + "0" * 400, "-1" + "0" * 400, "1e400"])
    def test_a_sink_number_beyond_the_double_range_is_not_a_record(self, tmp_path, capsys, field, number):
        # JSON reads 1 followed by 400 zeros as an int, which no float holds, and 1e400 as inf
        sink = tmp_path / "records.jsonl"
        assert self.run("check-conjecture", "--n-max", "5", "--out", str(sink))[0] == 0
        lines = sink.read_text().splitlines(keepends=True)
        rec = json.loads(lines[1])
        rec[field] = "NUMBER"
        lines[1] = json.dumps(rec).replace('"NUMBER"', number) + "\n"
        sink.write_text("".join(lines))
        capsys.readouterr()
        assert self.run("check-conjecture", "--n-max", "5", "--out", str(sink)) == (1, "")
        assert capsys.readouterr().err == f"error: {sink}:2: not a verification record ({field} is beyond the double range)\n"
        assert sink.read_text() == "".join(lines)

    @pytest.mark.parametrize("check", ["coru", "diam4", "lemma25", "bogus"])
    def test_check_conjecture_accepts_only_exhaustive_checks(self, check, capsys):
        code, _ = self.run("check-conjecture", "--n-max", "5", "--checks", check)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bounds_reports_a_repeated_id_once(self):
        once = self.run("bounds", "--check", "thm32", "--pruefer", "1,1,2")
        assert once[1].count("\n") == 1
        assert self.run("bounds", "--check", "thm32,thm32", "--pruefer", "1,1,2") == once
        both = self.run("bounds", "--check", "thm32,lemma21", "--pruefer", "1,1,2")
        assert self.run("bounds", "--check", "thm32,lemma21,thm32", "--pruefer", "1,1,2") == both

    def test_bounds_rejects_unknown_id_before_any_report(self):
        code, out = self.run("bounds", "--check", "lemma21,bogus", "--pruefer", "1,1")
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("argv", [
        ("enumerate", "--n", "abc"),
        ("check-conjecture",),
        ("bounds", "--check", "lemma21", "--tol", "nan", "--pruefer", "1,1"),
        ("bounds", "--tol", "nan", "--pruefer", "1,1"),
        ("sweep", "--tol", "0"),
        ("charpoly", "--tol", "1e-12", "--pruefer", "1,1"),
    ], ids=["bad-int", "missing-n-max", "bounds-one-tol-nan", "bounds-all-tol-nan", "sweep-tol-0",
            "charpoly-tol"])
    def test_usage_errors_exit_one_before_any_output(self, argv, capsys):
        # argparse's own exit code 2 is the documented code for a certified violation
        try:
            code, out = self.run(*argv)
        except SystemExit as exc:
            code, out = exc.code, ""
        assert (code, out) == (1, "")
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


def _edit_sink(sink, code, check, verdict):
    """Rewrite one recorded verdict in a run's sink."""
    lines = []
    for line in sink.read_text().splitlines():
        rec = json.loads(line)
        if rec["code"] == code:
            rec["checks"][check] = verdict
            line = record_to_json(VerifyRecord(**rec))
        lines.append(line + "\n")
    sink.write_text("".join(lines))


def test_resume_drops_a_partial_last_line(tmp_path):
    sink = tmp_path / "records.jsonl"
    run_exhaustive(RunConfig(n_min=5, n_max=5, out=str(sink)))
    whole = sink.read_bytes()
    sink.write_bytes(whole[:-7])  # the run was killed while writing its last record
    summary = run_exhaustive(RunConfig(n_min=5, n_max=5, out=str(sink)))
    assert (summary.skipped, summary.trees) == (2, 1)
    assert sink.read_bytes() == whole


_FIELDS_OF_P3 = '"code":"(()())","n":3,"diam":2,"s":1,"sigma":1,"le":4,"le_err":0,"le_path":4,"le_star":4,"slack":0'


@pytest.mark.parametrize("line", [
    "not json", '{"code": "(()())"}', "[1, 2]",
    "{" + _FIELDS_OF_P3 + ',"tol":"x","checks":{"conjecture":true}}',
    "{" + _FIELDS_OF_P3 + ',"tol":1e-12,"checks":5}',
])
def test_resume_rejects_a_malformed_complete_line(tmp_path, capsys, line):
    sink = tmp_path / "records.jsonl"
    sink.write_text(line + "\n")
    with pytest.raises(BadParam):
        run_exhaustive(RunConfig(n_min=4, n_max=4, out=str(sink)))
    assert cli_main(["check-conjecture", "--n-max", "4", "--out", str(sink)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sink.read_text() == line + "\n"


@pytest.mark.parametrize("field, value", [
    ("n", "4"), ("n", 4.0), ("n", True), ("slack", "x"), ("le", None), ("code", 5),
    ("checks", {"conjecture": "yes"}), ("checks", {"conjecture": 1}),
], ids=["n-text", "n-float", "n-bool", "slack-text", "le-null", "code-int", "verdict-text", "verdict-int"])
def test_resume_rejects_a_field_of_the_wrong_type(tmp_path, capsys, field, value):
    sink = tmp_path / "records.jsonl"
    run_exhaustive(RunConfig(n_min=4, n_max=4, out=str(sink)))
    rows = [json.loads(line) for line in sink.read_text().splitlines()]
    rows[0][field] = value
    text = "".join(json.dumps(row) + "\n" for row in rows)
    sink.write_text(text)
    with pytest.raises(BadParam):
        run_exhaustive(RunConfig(n_min=4, n_max=4, out=str(sink)))
    assert cli_main(["check-conjecture", "--n-max", "4", "--out", str(sink)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {sink}:1: not a verification record")
    assert sink.read_text() == text


@pytest.mark.parametrize("field, value", [("slack", math.nan), ("le", math.inf), ("le_err", -math.inf)])
def test_resume_rejects_a_non_json_constant(tmp_path, capsys, field, value):
    # json.dumps writes these as NaN, Infinity and -Infinity, which json.loads reads by default
    sink, report = tmp_path / "records.jsonl", tmp_path / "report.jsonl"
    run_exhaustive(RunConfig(n_min=4, n_max=5, out=str(sink)))
    rows = [json.loads(line) for line in sink.read_text().splitlines()]
    rows[2][field] = value
    text = "".join(json.dumps(row) + "\n" for row in rows)
    sink.write_text(text)
    with pytest.raises(BadParam):
        run_exhaustive(RunConfig(n_min=4, n_max=5, out=str(sink)))
    assert cli_main(["check-conjecture", "--n-max", "5", "--out", str(sink), "--report", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {sink}:3: not a verification record")
    assert captured.out == "" and not report.exists()
    assert sink.read_text() == text


@pytest.mark.parametrize("verdict, exit_code", [(False, 2), (None, 3)])
def test_resumed_run_reports_and_exits_with_earlier_verdicts(tmp_path, capsys, verdict, exit_code):
    sink, report = tmp_path / "records.jsonl", tmp_path / "report.jsonl"
    run_exhaustive(RunConfig(n_min=4, n_max=6, out=str(sink), checks=("conjecture", "lemma21")))
    star6 = max(read_records(sink), key=lambda r: r.le).code
    _edit_sink(sink, star6, "lemma21", verdict)
    argv = ["check-conjecture", "--n-min", "4", "--n-max", "6", "--checks", "lemma21",
            "--out", str(sink), "--report", str(report)]
    assert cli_main(argv) == exit_code
    assert "trees evaluated: 0 (skipped 11 already recorded)" in capsys.readouterr().out
    rows = [json.loads(x) for x in report.read_text().splitlines()]
    assert len(rows) == 11
    assert [r["checks"]["lemma21"] for r in rows if r["code"] == star6] == [verdict]
    # a narrower resume reports only the trees of its own range
    narrow_report = tmp_path / "narrow.jsonl"
    narrow = run_exhaustive(RunConfig(n_min=5, n_max=5, out=str(sink), checks=("conjecture", "lemma21"),
                                      report=str(narrow_report)))
    assert (narrow.trees, len(read_records(narrow_report))) == (0, 3)
    assert narrow.violations == narrow.undecided == 0


def test_resume_refuses_a_sink_of_other_checks(tmp_path, capsys):
    sink, report = tmp_path / "records.jsonl", tmp_path / "report.jsonl"
    assert cli_main(["check-conjecture", "--n-max", "5", "--out", str(sink)]) == 0
    recorded = sink.read_bytes()
    argv = ["check-conjecture", "--n-max", "5", "--checks", "lemma21",
            "--out", str(sink), "--report", str(report)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "checks conjecture," in err and "asks for conjecture,lemma21" in err
    assert sink.read_bytes() == recorded
    assert not report.exists()


def test_resume_refuses_a_sink_made_at_another_tolerance(tmp_path, capsys):
    sink, report = tmp_path / "records.jsonl", tmp_path / "report.jsonl"
    assert cli_main(["check-conjecture", "--n-max", "5", "--out", str(sink)]) == 0
    recorded = sink.read_bytes()
    argv = ["check-conjecture", "--n-max", "5", "--tol", "0.3", "--out", str(sink), "--report", str(report)]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "tol 1e-12" in err and "tol 0.3" in err
    assert sink.read_bytes() == recorded
    assert not report.exists()


@pytest.mark.parametrize("tol, written", [("0.3", "0.3"), (repr(1 / 3), "0.333333333333333")])
def test_resume_accepts_a_sink_made_at_the_same_tolerance(tmp_path, capsys, tol, written):
    # 1/3 is written as 0.333333333333333, which reads back as another float
    sink = tmp_path / "records.jsonl"
    run = ["check-conjecture", "--n-min", "4", "--tol", tol, "--out", str(sink), "--n-max"]
    assert cli_main([*run, "4"]) == 0
    assert cli_main([*run, "5"]) == 0
    assert "trees evaluated: 3 (skipped 2 already recorded)" in capsys.readouterr().out
    lines = sink.read_text().splitlines()
    assert len(lines) == 5 and all(f'"tol":{written},' in line for line in lines)


def test_a_jsonl_report_serializes_each_record_once(tmp_path, monkeypatch):
    # a fresh record's sink line is reused by the report; a record read back
    # from the sink is serialized again, since the sink's bytes need not be canonical
    calls = []
    real = verify.record_to_json
    monkeypatch.setattr(verify, "record_to_json", lambda rec: calls.append(rec.code) or real(rec))
    sink, report = tmp_path / "records.jsonl", tmp_path / "report.jsonl"
    argv = ["check-conjecture", "--n-min", "4", "--n-max", "7", "--out", str(sink), "--report", str(report)]
    assert cli_main(argv) == 0
    lines = sink.read_text().splitlines()
    assert calls == [json.loads(line)["code"] for line in lines] and len(calls) == 22
    first = report.read_bytes()
    assert sorted(first.decode().splitlines()) == sorted(lines)

    sink.write_text("".join(line.replace('"code":', ' "code":') + "\n" for line in lines[:10]))
    calls.clear()
    assert cli_main(argv) == 0
    assert len(calls) == 22 and sorted(calls) == sorted(json.loads(line)["code"] for line in lines)
    assert report.read_bytes() == first


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_a_multi_order_report_is_the_single_order_reports_joined(tmp_path, fmt):
    # each order's slice is written when it ends, in ascending n: a CSV report keeps one header
    whole = tmp_path / f"4-9.{fmt}"
    run_exhaustive(RunConfig(n_min=4, n_max=9, report=str(whole), fmt=fmt))
    joined = []
    for n in range(4, 10):
        part = tmp_path / f"{n}.{fmt}"
        run_exhaustive(RunConfig(n_min=n, n_max=n, report=str(part), fmt=fmt))
        lines = part.read_text().splitlines(keepends=True)
        joined += lines[1:] if fmt == "csv" and joined else lines
    assert whole.read_text() == "".join(joined)
    assert len(joined) == (fmt == "csv") + 2 + 3 + 6 + 11 + 23 + 47


@pytest.mark.parametrize("alias", ["same", "hardlink"])
def test_run_exhaustive_refuses_what_the_cli_refuses(tmp_path, alias, monkeypatch):
    # a report naming the sink, or a path that cannot be written, is refused before the sink is read
    def no_sink(*args):
        raise AssertionError("the sink was read before the report path was checked")

    sink = tmp_path / "records.jsonl"
    run_exhaustive(RunConfig(n_min=4, n_max=5, out=str(sink)))
    before = sink.read_bytes()
    report = sink if alias == "same" else tmp_path / "hard.jsonl"
    if alias == "hardlink":
        os.link(sink, report)
    monkeypatch.setattr(verify, "_load_sink", no_sink)
    with pytest.raises(BadParam, match="names the --out sink"):
        run_exhaustive(RunConfig(n_min=4, n_max=5, out=str(sink), report=str(report)))
    for bad in (tmp_path / "missing" / "report.jsonl", tmp_path):
        with pytest.raises(BadParam, match="cannot write"):
            run_exhaustive(RunConfig(n_min=4, n_max=5, out=str(sink), report=str(bad)))
    assert sink.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == sorted({"records.jsonl", report.name})
    with pytest.raises(BadParam, match="format"):
        RunConfig(report=str(tmp_path / "report.xml"), fmt="xml")


def test_main_builds_its_parser_once_and_keeps_no_parsed_state(monkeypatch):
    from treelap import cli

    built, configs = [], []
    real_build, real_run = cli.build_parser, cli.run_exhaustive
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real_build())
    monkeypatch.setattr(cli, "run_exhaustive", lambda config: configs.append(config) or real_run(config))
    cli._parser.cache_clear()
    argv = ["check-conjecture", "--n-min", "4", "--n-max", "6", "--checks", "lemma21",
            "--tol", "1e-9", "--shards", "1/2"]
    assert cli_main(argv) == 0
    assert cli_main(["check-conjecture", "--n-max", "5"]) == 0
    assert built == [1]
    assert configs == [RunConfig(n_min=4, n_max=6, tol=1e-9, shard_index=1, shard_count=2,
                                 checks=("conjecture", "lemma21")),
                       RunConfig(n_min=4, n_max=5)]


def test_a_shard_of_order_19_is_certified_and_order_21_is_refused(tmp_path, capsys):
    # past the old ceiling of 18: the first of 10000 shards of the 317,955 trees on 19 vertices
    sink, report = tmp_path / "run.jsonl", tmp_path / "report.jsonl"
    argv = ["check-conjecture", "--n-min", "19", "--n-max", "19", "--shards", "0/10000",
            "--out", str(sink), "--report", str(report)]
    assert cli_main(argv) == 0
    assert capsys.readouterr().err == ""
    codes = [canonical_code(t).decode("ascii") for t in free_trees_sharded(EnumRange(19, 0, 10000))]
    assert len(codes) == 317955 // 10000
    lines = sink.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["code"] for r in records] == codes
    assert all(r["n"] == 19 and r["checks"] == {"conjecture": True} for r in records)
    by_code = dict(zip(codes, lines))
    assert report.read_text().splitlines() == [by_code[code] for code in sorted(codes)]
    # n = 21 is refused before the sink is read, so even a killed run's partial last line stays
    with open(sink, "ab") as fh:
        fh.write(b'{"code":"((')
    before = sink.read_bytes()
    argv[argv.index("--n-max") + 1] = "21"
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "n = 20" in err
    assert sink.read_bytes() == before


def test_a_large_sharded_run_counts_each_order_once(monkeypatch):
    # a shard split counts each order once per process; an unsharded run counts none
    from treelap import enumeration

    counted = []
    real = enumeration.count_free_trees
    monkeypatch.setattr(enumeration, "count_free_trees", lambda n: counted.append(n) or real(n))
    enumeration._order_count.cache_clear()
    assert cli_main(["check-conjecture", "--n-min", "4", "--n-max", "7"]) == 0
    assert counted == []
    for shard in ("0/2", "1/2"):
        assert cli_main(["check-conjecture", "--n-min", "4", "--n-max", "7", "--shards", shard]) == 0
    assert sorted(counted) == [4, 5, 6, 7]
