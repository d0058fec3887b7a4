"""Command-line front end.

Subcommands: classify, solve, sweep, residual, identity-check, degree,
table.  Every JSON payload embeds a run manifest (subcommand, resolved
parameters, tool version, timestamp, output paths) so downstream tooling
can trace which invocation produced a file.  All data outputs are
deterministic for identical flags; only the manifest timestamp varies.
Non-finite sweep gaps are emitted with Python's JSON extensions
(Infinity/-Infinity/NaN); the CSV format spells them inf/-inf/nan.  The
sweep JSON gives the tolerances its gaps were integrated at under
``gap_tolerances``.

Exit codes: 0 success, 2 invalid input, 3 no convergence (metadata still
written), 4 trajectory escape.

Each subcommand imports only what it uses: the handlers import numpy and
the numerical modules where they use them.  ``classify``, ``degree`` and
``table`` are integer arithmetic in ``actions`` and ``classify`` and import
no numpy.  ``residual`` imports numpy and ``ode``; ``identity-check``
imports ``identities``, which imports both; only ``solve`` and ``sweep``
import ``solver``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, actions, classify
from .errors import CohomError, IntegratorStall, NoConvergence, TrajectoryEscaped

if TYPE_CHECKING:
    from . import ode, solver

#: Exit code of each failure, first match wins; ``main`` catches exactly
#: these.  The last row is invalid input, an unreadable file included.
_EXIT_CODES = (
    ((NoConvergence, IntegratorStall), 3),
    ((TrajectoryEscaped,), 4),
    ((CohomError, ValueError, OSError), 2),
)
_FAILURES = tuple(kind for kinds, _code in _EXIT_CODES for kind in kinds)


def _exit_code(exc: Exception) -> int:
    return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


def _payload_json(args, params: dict, outputs: list[str], body: dict) -> str:
    """``body`` under the run manifest of this invocation, as JSON text."""
    manifest = {
        "subcommand": args.command,
        "parameters": params,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }
    return json.dumps({"manifest": manifest, **body}, indent=2)


def _report(args, params: dict, body: dict, forms=None) -> int:
    """Emit ``body`` as JSON under the run manifest, or, when ``--format``
    names one of ``forms``, the text that form's callable renders."""
    render = (forms or {}).get(getattr(args, "format", "json"))
    if render is not None:
        text = render()
    else:
        text = _payload_json(args, params, [args.out] if args.out else [], body)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value!r}")
    return value


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects two comma-separated numbers, got {text!r}")
    return _finite(float(parts[0]), flag), _finite(float(parts[1]), flag)


def _action_from_args(args, strict: bool) -> actions.ActionDescriptor:
    return actions.make_action(args.space, args.g, args.m0, args.m1, strict=strict)


def _spec_from_args(args) -> ode.BvpSpec:
    from . import ode

    action = _action_from_args(args, strict=False)
    return ode.BvpSpec(G=action.bvp_g, M0=action.m0, M1=action.m1, k=args.k)


def _config_from_args(args) -> solver.ShootingConfig:
    from . import solver

    kwargs = {}
    for name in (
        "eps0", "eps1", "rel_tol", "abs_tol", "match_point", "sweep_points",
        "max_newton", "blowup_cap",
    ):
        value = getattr(args, name, None)
        if isinstance(value, float):
            _finite(value, "--" + name.replace("_", "-"))
        if value is not None:
            kwargs[name] = value
    if getattr(args, "bracket", None) is not None:
        kwargs["bracket"] = _parse_pair(args.bracket, "--bracket")
    return solver.ShootingConfig(**kwargs)


# Every sweep is one lane batch.  bench/run.py, the only caller, records
# this as the CLI's sweep batch count; the next benchmark change drops it.
def _resolve_threads(args) -> int:
    return 1


def _base_params(args, names) -> dict:
    return {name: getattr(args, name) for name in names}


def cmd_classify(args) -> int:
    action = _action_from_args(args, strict=True)
    verdicts = classify.classify_range(action, args.jmin, args.jmax)
    params = _base_params(args, ("space", "g", "m0", "m1", "jmin", "jmax"))
    return _report(
        args, params, {"verdicts": [v.to_dict() for v in verdicts]},
        {"text": lambda: classify.format_table(verdicts)},
    )


def cmd_degree(args) -> int:
    action = _action_from_args(args, strict=True)
    k = actions.admissible_k(action, args.j)
    degree = actions.degree_of_k_map(action, args.j)
    params = _base_params(args, ("space", "g", "m0", "m1", "j"))
    body = {"ambient": action.ambient, "j": args.j, "k": k, "degree": degree}
    return _report(args, params, body, {"text": lambda: str(degree)})


def cmd_table(args) -> int:
    verdicts = classify.examples_table()

    def csv() -> str:
        rows = (
            f"{v.action.ambient},{v.action.g},{v.action.m0},{v.action.m1},"
            f"{v.k},{int(v.harmonic)},{v.degree}"
            for v in verdicts
        )
        return "\n".join(["ambient,g,m0,m1,k,harmonic,degree", *rows])

    return _report(
        args, {}, {"verdicts": [v.to_dict() for v in verdicts]},
        {"text": lambda: classify.format_table(verdicts), "csv": csv},
    )


def _failure(exc: CohomError) -> dict:
    if isinstance(exc, NoConvergence):
        return {
            "error": "no-convergence",
            "final_gaps": list(exc.gaps),
            "final_iterate": list(exc.iterate),
            "iterations": exc.iterations,
        }
    kind = "trajectory-escaped" if isinstance(exc, TrajectoryEscaped) else "integrator-stall"
    return {"error": kind, "detail": str(exc)}


def cmd_solve(args) -> int:
    from . import solver

    spec = _spec_from_args(args)
    config = _config_from_args(args)
    init = _parse_pair(args.init, "--init") if args.init else None
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "profile.csv"
    json_path = outdir / "solve.json"
    params = _base_params(args, ("space", "g", "m0", "m1", "k"))
    params["init"] = list(init) if init else None

    def write_metadata(body: dict, outputs: list[str]) -> None:
        text = _payload_json(args, params, outputs, body)
        json_path.write_text(text + "\n", encoding="utf-8")
        print(text)

    try:
        profile = solver.solve(
            spec, config, init=init, profile_points=args.profile_points
        )
    except (NoConvergence, TrajectoryEscaped, IntegratorStall) as exc:
        # Write the metadata, then let main report the failure and exit code.
        write_metadata(
            {
                "converged": False,
                **_failure(exc),
                "spec": spec.to_dict(),
                "config": config.to_dict(spec),
            },
            [str(json_path)],
        )
        raise

    profile.write_csv(csv_path)
    body = {"converged": True, **profile.metadata(config), "profile_csv": str(csv_path)}
    write_metadata(body, [str(csv_path), str(json_path)])
    return 0


def cmd_sweep(args) -> int:
    from . import solver

    spec = _spec_from_args(args)
    config = _config_from_args(args)
    points = solver.sweep(spec, config)
    params = _base_params(args, ("space", "g", "m0", "m1", "k"))
    params["sweep_points"] = config.sweep_points
    params["bracket"] = list(config.resolved_bracket(spec))
    seed = solver._seed_config(config)     # what sweep integrates its lanes at
    body = {
        "spec": spec.to_dict(),
        "config": config.to_dict(spec),
        "gap_tolerances": {"rel_tol": seed.rel_tol, "abs_tol": seed.abs_tol},
        "points": [
            {"a": p.a, "sign_change": p.sign_change, "gap": p.gap} for p in points
        ],
    }

    def csv() -> str:
        rows = (f"{p.a:.17g},{int(p.sign_change)},{p.gap:.17g}" for p in points)
        return "\n".join(["a,sign_change,gap", *rows])

    return _report(args, params, body, {"csv": csv})


def cmd_residual(args) -> int:
    import numpy as np

    from . import ode

    spec = _spec_from_args(args)
    with open(args.profile, encoding="utf-8") as fh, warnings.catch_warnings():
        header = fh.readline()      # write_csv's; an empty file has no rows (below)
        found = header.rstrip("\r\n")
        if header and found != "t,r,rdot":
            raise ValueError(
                f"profile {args.profile} must start with the header t,r,rdot, found {found!r}"
            )
        # numpy warns on a file without data rows; the check below rejects it.
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[0] == 0:
        raise ValueError(f"profile {args.profile} has no sample rows")
    max_abs, boundary = ode.residual_norm(spec, data)
    params = _base_params(args, ("space", "g", "m0", "m1", "k", "profile"))
    body = {
        "spec": spec.to_dict(),
        "max_abs": max_abs,
        "boundary_err": list(boundary),
        "samples": int(data.shape[0]),
    }
    return _report(args, params, body)


def cmd_identity_check(args) -> int:
    from . import identities

    if args.seed is None:
        args.seed = identities.DEFAULT_SEED
    if args.margin is None:
        args.margin = identities.DEFAULT_SAMPLE_MARGIN
    report = identities.identity_suite(
        g_max=args.g_max, samples=args.samples, seed=args.seed, margin=args.margin
    )
    params = _base_params(args, ("g_max", "samples", "seed", "margin"))
    return _report(args, params, {"identities": report})


def _add_triple_flags(parser, with_k: bool) -> None:
    parser.add_argument("--space", required=True, choices=["sphere", "so", "sp2"])
    parser.add_argument("--g", required=True, type=int)
    parser.add_argument("--m0", required=True, type=int)
    parser.add_argument("--m1", required=True, type=int)
    if with_k:
        parser.add_argument("--k", required=True, type=int, help="winding target")


def _add_solver_flags(parser, sweep: bool) -> None:
    parser.add_argument("--eps0", type=float, help="left endpoint offset")
    parser.add_argument("--eps1", type=float, help="right endpoint offset")
    parser.add_argument("--rel-tol", dest="rel_tol", type=float)
    parser.add_argument("--abs-tol", dest="abs_tol", type=float)
    parser.add_argument("--match-point", dest="match_point", type=float)
    parser.add_argument("--max-newton", dest="max_newton", type=int)
    parser.add_argument("--blowup-cap", dest="blowup_cap", type=float)
    if sweep:
        parser.add_argument("--bracket", help="slope range LO,HI")
        parser.add_argument("--sweep-points", dest="sweep_points", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohom1",
        description="Boundary value problems of equivariant harmonic self-maps "
        "on cohomogeneity-one spheres and rotation groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="harmonicity verdicts over a j range")
    _add_triple_flags(p, with_k=False)
    p.add_argument("--jmin", type=int, default=-4)
    p.add_argument("--jmax", type=int, default=4)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="shoot for a solution profile")
    _add_triple_flags(p, with_k=True)
    _add_solver_flags(p, sweep=False)
    p.add_argument("--init", help="initial slopes A,B (default: k,k)")
    p.add_argument("--profile-points", dest="profile_points", type=int, default=513)
    p.add_argument("--outdir", default=".", help="directory for profile.csv/solve.json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="single-ended slope sweep with bracketing")
    _add_triple_flags(p, with_k=True)
    _add_solver_flags(p, sweep=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("residual", help="residual of a profile CSV")
    _add_triple_flags(p, with_k=True)
    p.add_argument("--profile", required=True, help="CSV with header t,r,rdot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("identity-check", help="trigonometric identity suite")
    p.add_argument("--g-max", dest="g_max", type=int, default=12)
    p.add_argument("--samples", type=int, default=10_000)
    # None: cmd_identity_check fills in the defaults of identities.
    p.add_argument("--seed", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_identity_check)

    p = sub.add_parser("degree", help="topological degree of the j-th k-map")
    _add_triple_flags(p, with_k=False)
    p.add_argument("--j", required=True, type=int)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("table", help="the concrete harmonic self-map examples")
    p.add_argument("--format", choices=["json", "text", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _FAILURES as exc:
        print(f"cohom1 {args.command}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
