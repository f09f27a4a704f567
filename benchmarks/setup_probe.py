"""One fresh-process set-up: import treelap, then one small warm-up call.

    python3 benchmarks/setup_probe.py

prints two numbers: the seconds from just before `import treelap` to the
end of the warm-up (the interpreter's own start-up is not counted), and the
calibration kernel's time right after, which tells how fast the machine ran.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def warm_up() -> None:
    """Small calls down every entry point the workloads time."""
    from treelap import bounds, charpoly, cli, families, spectral

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["check-conjecture", "--n-max", "7", "--checks", "lemma22,thm32"])
    if rc != 0:
        raise RuntimeError(f"warm-up check-conjecture exited {rc}")
    spectral.laplacian_energy(families.path(32), 1e-12)
    spider = families.t4_spider(9, 1)
    bounds.diam4_energy_check(spider, 1e-12)
    charpoly.char_poly(spider)


def main() -> None:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    warm_up()
    setup_s = time.perf_counter() - t0
    import calibrate

    print(f"{setup_s:.6f} {calibrate.kernel_seconds():.6f}")


if __name__ == "__main__":
    main()
