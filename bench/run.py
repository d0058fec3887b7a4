"""Benchmark of the cohom1 package; see NOTES.md for the design.

    python3 bench/run.py --workload newton-recover --seed 1 --seconds 10 --trace 0

Imports ``cohom1`` from the ``src`` directory next to this one (nothing is
built or installed).  A run times the workload's own operations for
``--seconds`` seconds, interleaved with small companion lists of the other
workloads' operations.  ``--trace 0`` reports every end-to-end metric.
``--trace 1`` then replays the library operations once under the span
tracer and reports the per-layer metrics and the tracing overhead.

Standard output ends with one JSON line: correct, attempted, failed and
metrics.  The lines before it record the environment, the operation counts,
the raw (not host-normalised) metrics and any violated checks.  Exits 2
without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3                  # before the window, and again after it
OWNER_SHARE = 0.6
HOST_PROBE_ITERS = 8000
HOST_PROBE_REF_S = 0.8e-3       # the loop's time on the reference host
IN_OP_PROBE_PERIOD_S = 0.05
CHILD_PROBE = (sys.executable, "-c", "import numpy")
CHILD_PROBE_REF_S = 0.16        # its wall time on the reference host
RHS_BATCH_REPS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cohom1.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["newton-recover", "sweep-refine", "oracle-check", "cli-mix"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrink every operation (smoke test)"
    )
    return parser.parse_args(argv)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Context:
    """What operations share: the scratch directory and the child environment."""

    def __init__(self, work: Path, child_env: dict):
        self.work = work
        self.child_env = child_env


def child_import_s(ctx: Context) -> float:
    """Import time of ``cohom1.cli`` (numpy included) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
        env=ctx.child_env, cwd=ctx.work, timeout=60, check=True,
    )
    return float(proc.stdout)


def host_speed(loops: int) -> float:
    """Median time of ``loops`` runs of a fixed pure-Python float loop, over
    HOST_PROBE_REF_S: 1.0 on the reference host, 1.4 when it runs 1.4x slower."""
    times = []
    for _ in range(loops):
        start = time.perf_counter()
        acc = 0.0
        for i in range(HOST_PROBE_ITERS):
            acc += math.sin(i * 1e-3)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / HOST_PROBE_REF_S


def child_speed(ctx: Context) -> float:
    """Wall time of a fresh interpreter that imports numpy, over
    CHILD_PROBE_REF_S: the host probe for work done in child processes,
    whose start-up and imports a pure-Python loop does not track."""
    start = time.perf_counter()
    subprocess.run(
        CHILD_PROBE, capture_output=True, env=ctx.child_env, cwd=ctx.work, timeout=60,
        check=True,
    )
    return (time.perf_counter() - start) / CHILD_PROBE_REF_S


class InOpProbe:
    """Host-speed samples taken while an in-process operation runs.

    A SIGALRM timer interrupts the operation every IN_OP_PROBE_PERIOD_S of
    wall time and runs the host probe loop once.  ``spent`` is the time the
    interruptions took, which the caller takes off the operation's time.
    """

    def __enter__(self):
        self.speeds, self.spent = [], 0.0
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, IN_OP_PROBE_PERIOD_S, IN_OP_PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.previous)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.speeds.append(host_speed(1))
        self.spent += time.perf_counter() - start


class Window:
    """Closed loop, one client: operations back to back for ``seconds``.

    Each kind cycles through its op list.  The owner gets OWNER_SHARE of
    the time and the companions share the rest; the next operation goes to
    the kind furthest below its share, so every kind's repeats are spread
    over the whole window.  After ``seconds`` each kind stops once it has
    run its list ``owner_cycles`` times (as the owner) or
    ``companion_cycles`` times (as a companion).

    The host's speed drifts by up to 1.7x within a minute, with other
    tenants' load and with the core the process runs on.  So for an
    operation in this process the host probe runs just before and just
    after it (more loops for a workload with long operations) and every
    IN_OP_PROBE_PERIOD_S while it runs (``InOpProbe``); a CLI call is
    followed by the child probe (``child_speed``).  "s" of a sample is its
    raw time divided by the mean of its probes: the time at reference
    speed.  The raw time, less the probes inside it, is kept as "raw_s".

    An operation's outcome is counted in ``tally`` once, on its first run;
    a repeat is a timing sample and must reproduce that outcome (see
    ``record``).  So attempted and failed depend on the seed alone, not on
    how many repeats the host's speed allowed.
    """

    def __init__(self, owner, companions, seconds: float, tally, ctx):
        self.tally = tally
        self.outcomes = {}
        kinds = [owner, *companions]
        share = {owner.name: OWNER_SHARE}
        share.update({c.name: (1.0 - OWNER_SHARE) / len(companions) for c in companions})
        spent = {w.name: 0.0 for w in kinds}
        self.runs = {w.name: 0 for w in kinds}
        self.samples = {w.name: [[] for _ in w.ops] for w in kinds}
        self.slowdowns = []
        start = time.perf_counter()
        while True:
            if time.perf_counter() - start < seconds:
                candidates = kinds
            else:
                candidates = [
                    w for w in kinds
                    if self.runs[w.name] < len(w.ops) * (w.owner_cycles if w is owner else w.companion_cycles)
                ]
                if not candidates:
                    break
            w = min(candidates, key=lambda k: spent[k.name] / share[k.name])
            i = self.runs[w.name] % len(w.ops)
            local = type(tally)()
            if w.in_process:
                before = host_speed(w.probe_loops)
                with InOpProbe() as during:
                    t0 = time.perf_counter()
                    sample = w.run(w.ops[i], local, ctx)
                    sample["raw_s"] = time.perf_counter() - t0 - during.spent
                slowdown = statistics.fmean([before, host_speed(w.probe_loops), *during.speeds])
            else:
                t0 = time.perf_counter()
                sample = w.run(w.ops[i], local, ctx)
                sample["raw_s"] = time.perf_counter() - t0
                slowdown = child_speed(ctx)
            self.record(w, i, local)
            self.slowdowns.append(slowdown)
            sample["s"] = sample["raw_s"] / slowdown
            spent[w.name] += sample["raw_s"]
            self.runs[w.name] += 1
            self.samples[w.name][i].append(sample)

    def record(self, w, i, local) -> None:
        """Count the outcome of op ``i`` of ``w`` on its first run; check
        that a repeat (operations are deterministic) reproduces it."""
        key, outcome = (w.name, i), (local.attempted, local.failed)
        first = self.outcomes.get(key)
        if first is None:
            self.outcomes[key] = outcome
            self.tally.merge(local)
        elif outcome != first:
            self.tally.check(False, f"{w.name} op {i} repeated as {outcome}, first {first}")


def cli_in_process(cli, argvs, tally) -> None:
    """Run ``cli.main`` in this process over argvs, output discarded."""
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        tally.check(code == 0, f"in-process cli {argv[0]} exit {code}")


def rhs_ns(ode, solver, wl) -> float:
    """ns per call of a prebuilt ``ode.rhs`` closure over a fixed batch of
    states recorded from two escaping sweep trajectories (loop included)."""
    states = []
    factory = ode.rhs

    def recording(spec, *args, **kwargs):
        accel = factory(spec, *args, **kwargs)

        def record(t, r, rdot):
            states.append((t, r, rdot))
            return accel(t, r, rdot)

        return record

    ode.rhs = recording
    try:
        solver.sweep(wl.SWEEP_SPEC, solver.ShootingConfig(bracket=(2.0, 5.0), sweep_points=2))
    finally:
        ode.rhs = factory
    accel = ode.rhs(wl.SWEEP_SPEC)
    per_call = []
    for _ in range(RHS_BATCH_REPS):
        start = time.perf_counter()
        for t, r, rdot in states:
            accel(t, r, rdot)
        per_call.append((time.perf_counter() - start) / len(states))
    return statistics.median(per_call) * 1e9


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cohom1" / "__init__.py").is_file():
        print(f"bench: no cohom1 package under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM unwind: a running child is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads_was_set = os.environ.pop("COHOM1_THREADS", None) is not None
    sys.path.insert(0, str(SRC))
    import numpy
    import cohom1
    from cohom1 import cli, ode, solver

    if Path(cohom1.__file__).resolve().parent != (SRC / "cohom1").resolve():
        print(f"bench: cohom1 imported from {cohom1.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tr
    import workloads as wl

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "COHOM1_THREADS": "unset (removed from the environment)" if threads_was_set else "unset",
        "cli_default_sweep_threads": cli._resolve_threads(argparse.Namespace(threads=None)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }
    print(json.dumps({"env": env}), flush=True)

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as work:
        ctx = Context(Path(work), wl.child_env(SRC))
        tally = wl.Tally()

        def set_up():
            inputs = wl.build_inputs()
            # Only the owner's inputs follow the seed: a companion runs a
            # fixed probe, so that its few samples vary with the host alone.
            made = {
                name: cls(
                    inputs,
                    random.Random(f"{args.seed}/{name}" if name == args.workload else name),
                    companion=name != args.workload,
                    tiny=args.tiny,
                )
                for name, cls in wl.WORKLOADS.items()
            }
            return inputs, made

        setups, imports = [], []

        def time_set_ups():
            for _ in range(SETUP_REPS):
                start = time.perf_counter()
                imports.append(child_import_s(ctx))
                made = set_up()
                elapsed = time.perf_counter() - start
                setups.append(elapsed / child_speed(ctx))
            return made

        inputs, made = time_set_ups()
        for what in inputs.count_errors:
            tally.check(False, what)
        owner = made.pop(args.workload)
        companions = list(made.values())
        kinds = [owner, *companions]
        window = Window(owner, companions, args.seconds, tally, ctx)
        if args.trace == 0:
            time_set_ups()   # the host drifts: set up again at the window's end
        cli_mix = next(w for w in kinds if isinstance(w, wl.CliMix))
        if args.trace == 0:
            metrics, raw = {}, {}
            for w in kinds:
                metrics.update(w.metrics(window.samples[w.name]))
                raw.update(w.metrics([
                    [{**x, "s": x["raw_s"]} for x in samples] for samples in window.samples[w.name]
                ]))
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (wl.peak_rss_mb(from_children=owner is cli_mix), "MB")
            metrics["ok_frac"] = (1.0 - tally.failed / tally.attempted, "frac")
        else:
            # Replay each library op list once under the tracer and compare
            # with the median untraced repeat.  CLI subprocesses cannot be
            # traced from here; their in-process main is traced below.
            library = [w for w in kinds if w is not cli_mix]
            untraced_s = sum(
                statistics.median(x["raw_s"] for x in samples)
                for w in library for samples in window.samples[w.name]
            )
            with tr.Tracer(tr.LIBRARY_TARGETS, count_rhs=True) as lib:
                start = time.perf_counter()
                for w in library:
                    for i, x in enumerate(w.ops):
                        local = wl.Tally()
                        w.run(x, local, ctx)
                        window.record(w, i, local)
                traced_s = time.perf_counter() - start
            metrics = tr.layer_metrics(lib.spans)
            metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
            metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "frac")

            # One full round of the mix in process.  Startup is a call's
            # median subprocess wall time minus its in-process main time.
            argvs = cli_mix.full_round(ctx)
            with tr.Tracer(tr.CLI_TARGETS, count_rhs=False) as cli_tracer:
                cli_in_process(cli, argvs, tally)
            main_ms = {argv[0]: span.duration * 1e3 for argv, span in zip(argvs, cli_tracer.spans)}
            for sub, ms in main_ms.items():
                metrics[f"cli.main_ms.{sub}"] = (ms, "ms")
            first_round = [tuple(argv) for argv in argvs]
            walls = {
                samples[0]["argv"][0]: statistics.median(x["raw_s"] for x in samples)
                for samples in window.samples[cli_mix.name]
                if tuple(samples[0]["argv"]) in first_round
            }
            metrics["cli.startup_ms"] = (
                statistics.median(wall * 1e3 - main_ms[sub] for sub, wall in walls.items()),
                "ms",
            )
            metrics["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
            metrics["ode.rhs_ns"] = (rhs_ns(ode, solver, wl), "ns")

    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value!r}")
    print(json.dumps({"detail": {
        "operations": window.runs,
        "raw": {k: v for k, (v, _unit) in raw.items()} if args.trace == 0 else None,
        "host_slowdown_median": statistics.median(window.slowdowns),
        "violations": tally.violations,
    }}))
    print(json.dumps({
        "correct": not tally.violations,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
