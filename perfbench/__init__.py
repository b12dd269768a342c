"""perfbench: the repository's benchmark.

Five end-to-end workloads (``torus_packet``, ``zoo_checked``,
``hybrid_1m``, ``exec_paths``, ``rt_loopback``), each run in its own
child process, timed with tracing off and attributed layer by layer from
a separate traced run.  ``BENCHMARK.json`` at the repository root is the
catalogue of metric names, units, directions and regression bounds;
``perfbench/README.md`` explains every choice.

Run it from the repository root::

    python3 -m perfbench --workload torus_packet --seed 1 --seconds 15 --trace 0
    python3 -m perfbench --out results/a          # all five, untraced
    python3 -m perfbench --trace 1 --out results/a
    python3 -m perfbench --compare results/a results/b

The benchmark only drives ``repro`` through its public API; nothing
under ``src/`` knows it exists.
"""

import pathlib
import sys

#: The checkout this package sits in (``perfbench/`` is top-level).
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def bootstrap() -> None:
    """Make ``repro`` importable from ``<root>/src`` (entry points only).

    Exits non-zero when the checkout holds no simulator to measure —
    e.g. a directory with only ``BENCHMARK.json`` and ``perfbench/``.
    """
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no simulator to measure: {src / 'repro'} is missing"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
