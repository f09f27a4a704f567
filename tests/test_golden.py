"""Byte pins of the reports and CLI payloads.

Each case runs one command in process and compares the sha256 of its output
with a recorded digest.  A refactor that keeps every verdict, slack value
and formatting rule keeps these digests; a change that alters an output
byte on purpose updates the digest and says why.

The printed values are certified-enclosure midpoints, and the float
estimates from `numpy.linalg.eigvalsh` choose where the enclosures are
probed, so a LAPACK build whose estimates differ may move the last printed
digits and with them these digests.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from treelap import bounds
from treelap.cli import main as cli_main
from treelap.verify import SweepConfig, run_family_sweep

PAPER_CHECKS = "lemma21,lemma22,lemma26,lemma31,cor31,thm31,thm32"

# every record carries the tolerance it was made at (a `tol` field before `checks`)
REPORT_DIGESTS = {
    "jsonl": "9b981f97a95792c6e3a0acbe4c6f421cf3e46f381941e76a932d0c2a9782039b",
    "csv": "7901626842fe451aca5c2b60eb150d368bf91e81c310849d1792145147e24980",
}

# n = 10 alone: 106 trees whose 398 non-pendant edges give 796 T - e components
# of only 47 isomorphism classes, so thm32 reads shared component spectra
N10_REPORT_DIGEST = "59dad241c25d7e1d6b88c882bdb5b25adde97c5603307981361b209f5dd0777d"

# n = 11 alone: the 235 trees of the benchmark's largest bound-checks order
N11_REPORT_DIGEST = "503b1aafd80180f3ee50561ccd67b27b299c52fe39316c79d88bd3012d412ed3"

# n <= 10 at tol 1.0: 46 of the records stay undecided (exit 3), so this pins
# which checks halve the tolerance and how often; the digests above run at
# tol 1e-12, where no check refines
COARSE_TOL_REPORT_DIGEST = "33a96d4331e0b3a725ec766448d2a51c43dbf5b3f856df1f614a003d2e0f32e8"

# family arguments -> (exit code, digest of the `bounds --check all` stdout)
BOUNDS_DIGESTS = {
    ("path", "--n", "6"): (0, "9840865cfdc4882171ea1ff8b89e0a4f36d6b713e88a7dd60f274ee3fb97fc9c"),
    ("star", "--n", "6"): (0, "feed1d63848bb57a6c1d30da0e9dd8afc0c37ed04043914c37f183ac9aa1a0de"),
    ("sns", "--p", "2", "--r", "3", "--s", "2,1,1"): (0, "2929ae4d6a23ec224b209df04c0e4721943720d147fecc5ceac2846a8d7fa452"),
}

# the same at --tol 0.3, where the reports of many checks are refined
BOUNDS_COARSE_TOL_DIGESTS = {
    ("path", "--n", "6"): (0, "c6a928aa13893f67d9488d9e3a5666cdc21f16a415f2b38ea3152167f7f3a877"),
    ("star", "--n", "6"): (0, "ee7eccd3dfeba70137da1cd6d8e3817ef5d6392c1253f1009d071a11986aea9d"),
    ("sns", "--p", "2", "--r", "3", "--s", "2,1,1"): (0, "5bf522b3788fc86a01771036d832fcff65e3870fdfd8e52de2988db763d4752e"),
}

SWEEP_DIGESTS = {
    "jsonl": "a2a42f262f57909e1cfc59fc7a6556abbe780fb287847a81e873ab41fb71b45f",
    # params such as "r=2,s1=2" are quoted, so every row has the header's width
    "csv": "f97d4e402c3079df2bf0022e2f8c490ec9a6a1cbb7f49f7dbb02c067af16302c",
}

PAYLOAD_TREE = "1,1,2,3,3"  # Pruefer labels of a 7-vertex tree with diameter 4
PAYLOAD_DIGESTS = {
    "spectrum": "de32095e6e81d0ac9a39c1edb87aa9ee9bd763a0f576debc9dc6636e3661c27b",
    "le": "21d59a80a6d304fd6d1eb2eda6f8ac8ee2e7ae2ce79b28491581b03333b533f3",
    "charpoly": "7576f5c57f45901f36f8bea83fbe3d99f636b4f678e5de526760f73ec8581fcc",
}


def _run(*argv: str) -> tuple[int, bytes]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue().encode()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fmt", sorted(REPORT_DIGESTS))
def test_check_conjecture_report_bytes(tmp_path, fmt):
    report = tmp_path / f"report.{fmt}"
    code, _ = _run("check-conjecture", "--n-max", "9", "--checks", PAPER_CHECKS,
                   "--report", str(report), "--format", fmt)
    assert code == 0
    assert _sha(report.read_bytes()) == REPORT_DIGESTS[fmt]


def _single_order_report_digest(tmp_path, n: int) -> str:
    report = tmp_path / "report.jsonl"
    code, _ = _run("check-conjecture", "--n-min", str(n), "--n-max", str(n), "--checks", PAPER_CHECKS,
                   "--report", str(report))
    assert code == 0
    return _sha(report.read_bytes())


def test_check_conjecture_n10_report_bytes(tmp_path):
    assert _single_order_report_digest(tmp_path, 10) == N10_REPORT_DIGEST


def test_check_conjecture_n11_report_bytes(tmp_path):
    assert _single_order_report_digest(tmp_path, 11) == N11_REPORT_DIGEST


def test_check_conjecture_coarse_tol_report_bytes(tmp_path):
    report = tmp_path / "report.jsonl"
    code, _ = _run("check-conjecture", "--n-max", "10", "--checks", PAPER_CHECKS, "--tol", "1.0",
                   "--report", str(report))
    assert code == 3
    assert _sha(report.read_bytes()) == COARSE_TOL_REPORT_DIGEST


def test_conjecture_sides_are_kept_per_tolerance(tmp_path, monkeypatch):
    # one process, from cold reference caches: the sides filed on each cached
    # n-path at one tolerance must not be read by a run at another
    monkeypatch.setattr(bounds, "_path_code_cache", {})
    monkeypatch.setattr(bounds, "_star_code_cache", {})
    runs = [("1.0", "10", 3, COARSE_TOL_REPORT_DIGEST), ("1e-12", "9", 0, REPORT_DIGESTS["jsonl"]),
            ("1.0", "10", 3, COARSE_TOL_REPORT_DIGEST)]
    for tol, n_max, exit_code, digest in runs:
        report = tmp_path / f"report-{tol}-{n_max}.jsonl"
        code, _ = _run("check-conjecture", "--n-max", n_max, "--checks", PAPER_CHECKS, "--tol", tol,
                       "--report", str(report))
        assert (code, _sha(report.read_bytes())) == (exit_code, digest)


@pytest.mark.parametrize("family", sorted(BOUNDS_DIGESTS))
def test_bounds_all_stdout_bytes(tmp_path, family):
    code, text = _run("family", "--family", *family)
    assert code == 0
    tree_file = tmp_path / "tree.txt"
    tree_file.write_bytes(text)
    code, out = _run("bounds", "--check", "all", "--in", str(tree_file))
    assert (code, _sha(out)) == BOUNDS_DIGESTS[family]


@pytest.mark.parametrize("family", sorted(BOUNDS_COARSE_TOL_DIGESTS))
def test_bounds_all_coarse_tol_stdout_bytes(tmp_path, family):
    code, text = _run("family", "--family", *family)
    assert code == 0
    tree_file = tmp_path / "tree.txt"
    tree_file.write_bytes(text)
    code, out = _run("bounds", "--check", "all", "--in", str(tree_file), "--tol", "0.3")
    assert (code, _sha(out)) == BOUNDS_COARSE_TOL_DIGESTS[family]


@pytest.mark.parametrize("fmt", sorted(SWEEP_DIGESTS))
def test_family_sweep_report_bytes(tmp_path, fmt):
    out = tmp_path / f"sweep.{fmt}"
    config = SweepConfig(
        tol=1e-9,
        t4_ab=(9, 11),
        tprime_r=(2, 3),
        tprime_s1=(2, 4),
        tdprime_r=(3, 3),
        tdprime_s=(2, 3),
        broom_ab=(1, 3),
        sns_random=3,
        out=str(out),
        fmt=fmt,
    )
    run_family_sweep(config)
    assert _sha(out.read_bytes()) == SWEEP_DIGESTS[fmt]


@pytest.mark.parametrize("command", sorted(PAYLOAD_DIGESTS))
def test_payload_bytes(command):
    code, out = _run(command, "--pruefer", PAYLOAD_TREE)
    assert code == 0
    assert _sha(out) == PAYLOAD_DIGESTS[command]
