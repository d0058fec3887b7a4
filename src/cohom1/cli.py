"""Command-line front end.

Subcommands: classify, solve, sweep, residual, identity-check, degree,
table.  Every JSON payload embeds a run manifest (subcommand, resolved
parameters, tool version, timestamp, output paths) so downstream tooling
can trace which invocation produced a file.  All data outputs are
deterministic for identical flags; only the manifest timestamp varies.
Non-finite sweep gaps are emitted with Python's JSON extensions
(Infinity/-Infinity/NaN); the CSV format spells them inf/-inf/nan.

Exit codes: 0 success, 2 invalid input, 3 no convergence (metadata still
written), 4 trajectory escape.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, actions, classify, identities, ode, solver
from .errors import (
    CohomError,
    InadmissibleJ,
    IntegratorStall,
    InvalidSpace,
    InvalidTriple,
    NoConvergence,
    OddG,
    PoleProximity,
    ProfileTooCoarse,
    TrajectoryEscaped,
    UnequalMultiplicities,
)

_INPUT_ERRORS = (
    InvalidTriple,
    InvalidSpace,
    InadmissibleJ,
    OddG,
    PoleProximity,
    ProfileTooCoarse,
    UnequalMultiplicities,
    ValueError,
)


def _manifest(subcommand: str, parameters: dict, outputs: list[str]) -> dict:
    return {
        "subcommand": subcommand,
        "parameters": parameters,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects two comma-separated numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


def _action_from_args(args, strict: bool) -> actions.ActionDescriptor:
    return actions.make_action(args.space, args.g, args.m0, args.m1, strict=strict)


def _spec_from_args(args) -> ode.BvpSpec:
    action = _action_from_args(args, strict=False)
    return ode.BvpSpec(G=action.bvp_g, M0=action.m0, M1=action.m1, k=args.k)


def _config_from_args(args) -> solver.ShootingConfig:
    kwargs = {}
    for attr, flag in (
        ("eps0", "eps0"),
        ("eps1", "eps1"),
        ("rel_tol", "rel_tol"),
        ("abs_tol", "abs_tol"),
        ("match_point", "match_point"),
        ("sweep_points", "sweep_points"),
        ("max_newton", "max_newton"),
        ("blowup_cap", "blowup_cap"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            kwargs[attr] = value
    if getattr(args, "bracket", None) is not None:
        kwargs["bracket"] = _parse_pair(args.bracket, "--bracket")
    return solver.ShootingConfig(**kwargs)


def _resolve_threads(args) -> int:
    if getattr(args, "threads", None) is not None:
        return max(1, args.threads)
    env = os.environ.get("COHOM1_THREADS")
    if env:
        return max(1, int(env))
    return 1


def _base_params(args, names) -> dict:
    return {name: getattr(args, name) for name in names}


def cmd_classify(args) -> int:
    action = _action_from_args(args, strict=True)
    verdicts = classify.classify_range(action, args.jmin, args.jmax)
    params = _base_params(args, ("space", "g", "m0", "m1", "jmin", "jmax"))
    payload = {
        "manifest": _manifest("classify", params, [args.out] if args.out else []),
        "verdicts": [v.to_dict() for v in verdicts],
    }
    if args.format == "text":
        _emit(classify.format_table(verdicts), args.out)
    else:
        _emit(_dump(payload), args.out)
    return 0


def cmd_degree(args) -> int:
    action = _action_from_args(args, strict=True)
    k = actions.admissible_k(action, args.j)
    degree = actions.degree_of_k_map(action, args.j)
    params = _base_params(args, ("space", "g", "m0", "m1", "j"))
    payload = {
        "manifest": _manifest("degree", params, [args.out] if args.out else []),
        "ambient": action.ambient,
        "j": args.j,
        "k": k,
        "degree": degree,
    }
    if args.format == "text":
        _emit(str(degree), args.out)
    else:
        _emit(_dump(payload), args.out)
    return 0


def cmd_table(args) -> int:
    verdicts = classify.examples_table()
    payload = {
        "manifest": _manifest("table", {}, [args.out] if args.out else []),
        "verdicts": [v.to_dict() for v in verdicts],
    }
    if args.format == "text":
        _emit(classify.format_table(verdicts), args.out)
    elif args.format == "csv":
        lines = ["ambient,g,m0,m1,k,harmonic,degree"]
        for v in verdicts:
            lines.append(
                f"{v.action.ambient},{v.action.g},{v.action.m0},{v.action.m1},"
                f"{v.k},{int(v.harmonic)},{v.degree}"
            )
        _emit("\n".join(lines), args.out)
    else:
        _emit(_dump(payload), args.out)
    return 0


def cmd_solve(args) -> int:
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
        payload = {"manifest": _manifest("solve", params, outputs), **body}
        json_path.write_text(_dump(payload) + "\n", encoding="utf-8")
        print(_dump(payload))

    try:
        profile = solver.solve(
            spec, config, init=init, profile_points=args.profile_points
        )
    except NoConvergence as exc:
        write_metadata(
            {
                "converged": False,
                "error": "no-convergence",
                "final_gaps": list(exc.gaps),
                "final_iterate": list(exc.iterate),
                "iterations": exc.iterations,
                "spec": spec.to_dict(),
                "config": config.to_dict(spec),
            },
            [str(json_path)],
        )
        print(f"cohom1 solve: {exc}", file=sys.stderr)
        return 3
    except (TrajectoryEscaped, IntegratorStall) as exc:
        code = 4 if isinstance(exc, TrajectoryEscaped) else 3
        write_metadata(
            {
                "converged": False,
                "error": "trajectory-escaped" if code == 4 else "integrator-stall",
                "detail": str(exc),
                "spec": spec.to_dict(),
                "config": config.to_dict(spec),
            },
            [str(json_path)],
        )
        print(f"cohom1 solve: {exc}", file=sys.stderr)
        return code

    profile.write_csv(csv_path)
    body = {"converged": True, **profile.metadata(config)}
    body["profile_csv"] = str(csv_path)
    write_metadata(body, [str(csv_path), str(json_path)])
    return 0


def cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    config = _config_from_args(args)
    points = solver.sweep(spec, config, threads=_resolve_threads(args))
    params = _base_params(args, ("space", "g", "m0", "m1", "k"))
    params["sweep_points"] = config.sweep_points
    params["bracket"] = list(config.resolved_bracket(spec))
    payload = {
        "manifest": _manifest("sweep", params, [args.out] if args.out else []),
        "spec": spec.to_dict(),
        "config": config.to_dict(spec),
        "points": [
            {"a": p.a, "sign_change": p.sign_change, "gap": p.gap} for p in points
        ],
    }
    if args.format == "csv":
        lines = ["a,sign_change,gap"]
        lines.extend(f"{p.a:.17g},{int(p.sign_change)},{p.gap:.17g}" for p in points)
        _emit("\n".join(lines), args.out)
    else:
        _emit(_dump(payload), args.out)
    return 0


def cmd_residual(args) -> int:
    spec = _spec_from_args(args)
    data = np.loadtxt(args.profile, delimiter=",", skiprows=1, ndmin=2)
    max_abs, boundary = ode.residual_norm(spec, data)
    params = _base_params(args, ("space", "g", "m0", "m1", "k", "profile"))
    payload = {
        "manifest": _manifest("residual", params, [args.out] if args.out else []),
        "spec": spec.to_dict(),
        "max_abs": max_abs,
        "boundary_err": list(boundary),
        "samples": int(data.shape[0]),
    }
    _emit(_dump(payload), args.out)
    return 0


def cmd_identity_check(args) -> int:
    report = identities.identity_suite(
        g_max=args.g_max, samples=args.samples, seed=args.seed, margin=args.margin
    )
    params = _base_params(args, ("g_max", "samples", "seed", "margin"))
    payload = {
        "manifest": _manifest("identity-check", params, [args.out] if args.out else []),
        "identities": report,
    }
    _emit(_dump(payload), args.out)
    return 0


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
        parser.add_argument(
            "--threads", type=int,
            help="lane batches run in parallel (default: COHOM1_THREADS or 1)",
        )


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
    p.add_argument("--seed", type=int, default=identities.DEFAULT_SEED)
    p.add_argument("--margin", type=float, default=identities.DEFAULT_SAMPLE_MARGIN)
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
    except _INPUT_ERRORS as exc:
        print(f"cohom1 {args.command}: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"cohom1 {args.command}: {exc}", file=sys.stderr)
        return 3
    except IntegratorStall as exc:
        print(f"cohom1 {args.command}: {exc}", file=sys.stderr)
        return 3
    except TrajectoryEscaped as exc:
        print(f"cohom1 {args.command}: {exc}", file=sys.stderr)
        return 4
    except CohomError as exc:  # pragma: no cover - safety net
        print(f"cohom1 {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
