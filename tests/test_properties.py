"""Property tests: record round trips and resuming a killed run."""

import functools
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from treelap.cli import main as cli_main
from treelap.verify import SweepRecord, VerifyRecord, record_to_json

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
