"""Per-seed failure table of the benchmark's newton-recover draws.

For each seed, the 209 linear-solution problems of ``bench/workloads.py``
are drawn as ``NewtonRecover`` draws them for that seed (each started
within 5% of 1 + |k| of (k, k)) and solved by ``solver.solve`` at the
default config.  A miss is a ``CohomError`` or a residual above
``workloads.RESIDUAL_TOL``, as the benchmark counts it.  Prints one line
per seed with its misses, each as its row (G, M0, M1, k) and its kind,
then the total, and exits 1 if a row outside ``DEGENERATE`` missed.
pytest does not collect this file.

    PYTHONPATH=src python tests/seed_misses.py [first_seed last_seed]
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

from cohom1 import solver  # noqa: E402
from cohom1.errors import CohomError  # noqa: E402

# Rows whose misses the solver does not yet rule out: the degenerate
# linear solutions (4,2,2,-3) and (3,3,3,-2), and the (1,1,1,+-1) family,
# whose rank-deficient Jacobian leaves Newton to stop on the gap alone.
DEGENERATE = ("(4,2,2,-3)", "(3,3,3,-2)", "(1,1,1,1)", "(1,1,1,-1)")


def misses(inputs, seed: int) -> list[str]:
    """The misses of one seed's draws, each as 'row kind'."""
    name = workloads.NewtonRecover.name
    draw = workloads.NewtonRecover(
        inputs, random.Random(f"{seed}/{name}"), companion=False, tiny=False
    )
    out = []
    for spec, init in draw.ops:
        row = f"({spec.G},{spec.M0},{spec.M1},{spec.k})"
        try:
            residual = solver.solve(spec, init=init).residual
        except CohomError as exc:
            out.append(f"{row} {type(exc).__name__}")
            continue
        if not residual <= workloads.RESIDUAL_TOL:
            out.append(f"{row} residual {residual:.3g}")
    return out


def isolated(found: list[str]) -> list[str]:
    """The misses of ``found`` on rows outside ``DEGENERATE``."""
    return [m for m in found if m.split()[0] not in DEGENERATE]


def main(argv: list[str]) -> int:
    first, last = map(int, argv) if argv else (1, 10)
    inputs = workloads.build_inputs()
    total, outside, start = 0, 0, time.perf_counter()
    for seed in range(first, last + 1):
        found = misses(inputs, seed)
        total, outside = total + len(found), outside + len(isolated(found))
        print(f"seed {seed}: {len(found)}" + "".join(f"; {m}" for m in found))
    print(f"total {total} misses over seeds {first}-{last} "
          f"in {time.perf_counter() - start:.1f} s; {outside} outside {', '.join(DEGENERATE)}")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
