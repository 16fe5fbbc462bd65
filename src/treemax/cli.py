"""Command-line front end: every operation as a reproducible, scriptable run.

All outputs echo the fully resolved configuration (including the seed) so a
run can be replayed exactly; floats are printed with 17 significant digits
and row/key order is fixed, making equal-seed runs byte-identical.

Exit status: 0 on success, 1 on validation errors (bad flags, unreadable
input, out-of-domain parameters, results that overflow), 2 when a
mathematically guaranteed invariant is violated beyond rounding slack.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import __version__
from .bellman import bellman_value, minimize_envelope
from .errors import DomainError, InvariantViolation, ShapeError
from .inequalities import IneqParams, extremizer_sweep, hardy_deficit, sharpness_G
from .maximal import linearize, reconstruct_maximal
from .rearrange import (
    LineStepFunction,
    PowerLawFunction,
    decreasing_rearrangement,
    discretize,
    hardy_power,
    random_rearrangement,
)
from .sweeps import (
    BATTERY_INEQUALITIES,
    BATTERY_SHAPES,
    CellOutcome,
    battery_cells,
    mixture_values,
    oracle_sup,
    orbit_sample_max,
    run_battery,
    thread_count,
    write_csv,
)
from .tree import Tree, load_step_function, moment


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_json(obj) -> str:
    if isinstance(obj, (float, np.floating)):
        text = f"{float(obj):.17g}"
        return _NON_FINITE.get(text, text)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _sequence_json(obj) -> str:
    """A list, tuple or array of scalars. Integers and finite floats are
    formatted in one pass; anything else goes value by value."""
    if isinstance(obj, np.ndarray):
        kind = obj.dtype.kind
        obj = obj.tolist()
    else:
        types = set(map(type, obj))
        kind = "f" if types <= {float} else "i" if types == {int} else "O"
    if kind in "iu":
        return "[" + ", ".join(map(str, obj)) + "]"
    if kind == "f" and obj:
        text = ("%.17g, " * len(obj))[:-2] % tuple(obj)
        if "nan" not in text and "inf" not in text:
            return "[" + text + "]"
    return "[" + ", ".join(map(_scalar_json, obj)) + "]"


def _key_json(key) -> str:
    key = str(key)
    return f'"{key}"' if key.isascii() and key.isdigit() else json.dumps(key)


def to_json(obj, indent: int = 0) -> str:
    """JSON with insertion-ordered keys and 17-significant-digit floats.

    Lists, tuples and arrays hold scalars only in every payload.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = " " * indent
        items = [
            f'{pad}  {_key_json(k)}: {to_json(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (np.ndarray, list, tuple)):
        return _sequence_json(obj)
    return _scalar_json(obj)


@contextlib.contextmanager
def _replacing(path: str):
    """A sibling file that replaces ``path`` only if the block completes."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _sink(path: str | None, default=None):
    """:func:`_replacing` for ``path``, or a context yielding ``default``
    when no path is given."""
    return _replacing(path) if path else contextlib.nullcontext(default)


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` and a newline to ``path``, or to stdout when no path
    is given."""
    with _sink(path, sys.stdout) as fh:
        fh.write(text + "\n")


def parse_profile(spec: str):
    """Profile argument: ``powerlaw:f=<v>,alpha=<v>`` or a CSV path with
    ``t_i,value_i`` rows (right endpoints of equal or unequal pieces)."""
    if spec.startswith("powerlaw:"):
        fields = dict(part.split("=") for part in spec[len("powerlaw:") :].split(","))
        try:
            f = float(fields["f"])
            alpha = float(fields["alpha"])
        except (KeyError, ValueError) as exc:
            raise DomainError(f"bad power-law spec {spec!r} ({exc})") from exc
        return PowerLawFunction.from_mean_and_exponent(f, alpha)
    rows = []
    with open(spec, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("t"):
                continue
            t_s, v_s = line.split(",")
            rows.append((float(t_s), float(v_s)))
    if not rows:
        raise ShapeError(f"{spec}: no profile rows")
    breakpoints = np.concatenate(([0.0], [r[0] for r in rows]))
    values = np.array([r[1] for r in rows])
    return LineStepFunction(breakpoints, values)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_maximal(args) -> int:
    phi = load_step_function(args.input)
    lin = linearize(phi)
    result = lin.result
    rebuilt = reconstruct_maximal(lin)
    exact = bool(np.array_equal(rebuilt, result.m_phi.leaf_values))
    config = {
        "command": "maximal",
        "input": args.input,
        "arity": phi.tree.arity,
        "depth": phi.tree.depth,
        "p": args.p,
    }
    payload = {
        "config": config,
        "phi": phi.leaf_values,
        "m_phi": result.m_phi.leaf_values,
        "attaining_node": result.attaining_node,
        "linearization": lin.to_dict(),
        "moments": {
            "f": moment(phi, 1.0),
            "F_p": moment(phi, args.p),
            "maximal_p": moment(result.m_phi, args.p),
        },
        "reconstruction_exact": exact,
    }
    _emit(to_json(payload), args.output)
    return 0 if exact else 2


def cmd_bellman(args) -> int:
    point = bellman_value(args.p, args.f, args.F)
    beta_opt, min_value = minimize_envelope(args.p, args.f, args.F)
    payload = {
        "config": {"command": "bellman", "p": args.p, "f": args.f, "F": args.F},
        "value": point.value,
        "alpha": point.alpha,
        "K": point.K,
        "beta_opt": beta_opt,
        "min_value": min_value,
    }
    _emit(to_json(payload), args.output)
    return 0


def _verify_line_profiles(args, config) -> int:
    """Deficit sweep of the line inequality over random decreasing profiles.

    ``hardy_deficit`` raises on a deficit below the rounding slack, so a
    sweep that finishes has no violations.
    """
    params = IneqParams(p=args.p, q=args.q, beta=args.beta, f=1.0)
    if args.trials < 1:
        raise DomainError(f"trials must be at least 1, got {args.trials}")
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    reports = []
    for trial in range(args.trials):
        if trial % 2 == 0:
            values = np.sort(mixture_values(rng, 1, 64)[0])[::-1]
            g = LineStepFunction(np.arange(65) / 64.0, values)
        else:
            alpha = rng.uniform(0.0, 0.95 / args.p)
            g = PowerLawFunction.from_mean_and_exponent(rng.uniform(0.5, 2.0), alpha)
        reports.append(hardy_deficit(g, params))

    def column(name):
        return np.array([getattr(r, name) for r in reports])

    outcome = CellOutcome(
        p=args.p,
        q=args.q,
        beta=args.beta,
        seed=args.seed,
        f=column("f"),
        F=column("F"),
        lhs={"1.10": column("lhs")},
        rhs={"1.10": column("rhs")},
        deficit={"1.10": column("deficit")},
    )
    worst = int(np.argmin(outcome.deficit["1.10"]))
    summary = {
        "config": config,
        "min_deficit": outcome.deficit["1.10"][worst],
        "argmin": {"ineq": "1.10", "trial": worst},
        "violations": 0,
    }
    with _sink(args.output) as sink:
        if sink is not None:
            write_csv(sink, (f"config: {json.dumps(config)}",), [outcome], ("1.10",))
        _emit(to_json(summary), args.summary)
    return 0


def cmd_verify(args) -> int:
    config = {
        "command": "verify",
        "ineq": args.ineq,
        "p": args.p,
        "q": args.q,
        "beta": args.beta,
        "trials": args.trials,
        "depth": args.depth,
        "arity": args.arity,
        "seed": args.seed,
        "threads": thread_count(),
    }
    if args.ineq == "1.10":
        return _verify_line_profiles(args, config)

    if args.ineq == "grid":
        cells = battery_cells()
        inequalities = BATTERY_INEQUALITIES
        shapes = BATTERY_SHAPES  # depths 2..10, arities 2 and 3
    else:
        cells = [(args.p, args.q, args.beta)]
        inequalities = (args.ineq,)
        shapes = [(args.arity, args.depth)]

    with _sink(args.output) as sink:
        summary = run_battery(
            base_seed=args.seed,
            trials_per_cell=args.trials,
            cells=cells,
            inequalities=inequalities,
            csv_sink=sink,
            header_lines=(f"config: {json.dumps(config)}",),
            shapes=shapes,
        )
        _emit(to_json({"config": config, **summary}), args.summary)
    return 0 if summary["violations"] == 0 else 2


def cmd_sharpness(args) -> int:
    config = {
        "command": "sharpness",
        "family": args.family,
        "p": args.p,
        "q": args.q,
        "beta": args.beta,
        "f": args.f,
        "grid": args.grid,
        "points": args.points,
    }
    params = IneqParams(p=args.p, q=args.q, beta=args.beta, f=args.f)
    if (args.family == "G" or args.grid is None) and args.points < 1:
        raise DomainError(f"points must be at least 1, got {args.points}")
    lines = [f"# config: {json.dumps(config)}"]
    if args.family == "G":
        lines.append("alpha,G,limit_q_over_p_minus_1")
        limit = args.q / (args.p - 1.0)
        for i in range(1, args.points + 1):
            alpha = i / (args.points + 1) / args.p
            lines.append(
                f"{alpha:.17g},{sharpness_G(alpha, args.p, args.q):.17g},{limit:.17g}"
            )
    else:
        if args.grid is not None:
            grid = [float(s) for s in args.grid.split(",")]
        else:
            upper = 1.0 / args.p if args.family == "g_alpha" else 1.0 / (args.p - 1.0)
            grid = [upper * i / (args.points + 1) for i in range(1, args.points + 1)]
        points = extremizer_sweep(params, args.family, grid)
        lines.append("family,grid_value,alpha,admissible,deficit,residual,residual_target,reason")
        for pt in points:
            deficit = pt.report.deficit if pt.report is not None else float("nan")
            lines.append(
                f"{pt.family},{pt.grid_value:.17g},{pt.alpha:.17g},{int(pt.admissible)},"
                f"{deficit:.17g},{pt.residual:.17g},{pt.residual_target:.17g},{pt.reason}"
            )
    _emit("\n".join(lines), args.output)
    return 0


def cmd_oracle(args) -> int:
    best, info = oracle_sup(
        args.p, args.f, args.F, args.depth, args.budget, args.seed, arity=args.arity
    )
    payload = {
        "config": {
            "command": "oracle",
            "p": args.p,
            "f": args.f,
            "F": args.F,
            "depth": args.depth,
            "arity": args.arity,
            "budget": args.budget,
            "seed": args.seed,
        },
        "best_value": best,
        **info,
        "ratio_requested": best / info["bound_requested"],
        "ratio_achieved": best / info["bound_achieved"],
    }
    _emit(to_json(payload), args.output)
    if best > info["bound_achieved"] * (1.0 + 1e-9):
        return 2  # would contradict the closed-form upper bound
    return 0


def cmd_symmetrize(args) -> int:
    tree = Tree(args.arity, args.depth)
    if args.g:
        profile = parse_profile(args.g)
    else:
        point = bellman_value(args.p, args.f, args.F)
        profile = PowerLawFunction.self_similar(args.f, point.alpha)
    cells = (
        profile
        if isinstance(profile, LineStepFunction)
        and profile.piece_count == tree.leaf_count
        else discretize(profile, tree.leaf_count)
    )
    target = hardy_power(profile, args.p)
    target_cells = hardy_power(cells, args.p)
    sampled = orbit_sample_max(cells, tree, args.p, args.seeds, args.seed)

    # round-trip sanity on one seeded arrangement
    phi = random_rearrangement(cells, tree, args.seed)
    back = decreasing_rearrangement(phi)
    roundtrip = bool(np.array_equal(np.sort(back.values), np.sort(cells.values)))

    payload = {
        "config": {
            "command": "symmetrize",
            "p": args.p,
            "f": args.f,
            "F": args.F,
            "arity": args.arity,
            "depth": args.depth,
            "seeds": args.seeds,
            "seed": args.seed,
            "g": args.g,
        },
        "sampled_max": sampled,
        "hardy_target": target,
        "hardy_target_discretized": target_cells,
        "ratio": sampled / target,
        "rearrangement_roundtrip_exact": roundtrip,
    }
    _emit(to_json(payload), args.output)
    return 0 if roundtrip and sampled <= target_cells * (1.0 + 1e-9) else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxtree",
        description="maximal-operator laboratory on probability trees",
    )
    parser.add_argument("--version", action="version", version=f"maxtree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--output", help="write the report to this path instead of stdout")

    sp = sub.add_parser("maximal", help="maximal function and linearization of a step-function file")
    sp.add_argument("--input", required=True, help="step-function CSV (header arity,depth)")
    sp.add_argument("--p", type=float, default=2.0, help="moment exponent for the report")
    add_common(sp)
    sp.set_defaults(func=cmd_maximal)

    sp = sub.add_parser("bellman", help="closed-form extremal value and envelope minimization")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--f", type=float, required=True)
    sp.add_argument("--F", type=float, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_bellman)

    sp = sub.add_parser("verify", help="randomized deficit sweeps")
    sp.add_argument(
        "--ineq",
        default="grid",
        choices=["1.2", "1.7", "1.8", "1.9", "1.10", "grid"],
        help="single inequality or the whole parameter grid",
    )
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--arity", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--summary", help="write the summary JSON to this path")
    add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sharpness", help="extremizer sweeps and the G(alpha) table")
    sp.add_argument("--family", default="g_beta", choices=["g_alpha", "g_beta", "G"])
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--f", type=float, default=1.0)
    sp.add_argument("--grid", help="comma-separated grid values")
    sp.add_argument("--points", type=int, default=50, help="auto-grid size when --grid is absent")
    add_common(sp)
    sp.set_defaults(func=cmd_sharpness)

    sp = sub.add_parser("oracle", help="rearrangement-orbit search vs closed form")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--f", type=float, required=True)
    sp.add_argument("--F", type=float, required=True)
    sp.add_argument("--depth", type=int, default=12)
    sp.add_argument("--arity", type=int, default=2)
    sp.add_argument("--budget", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("symmetrize", help="rearrangement sampling vs the 1-D averaging target")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--f", type=float, default=1.0)
    sp.add_argument("--F", type=float, default=2.0)
    sp.add_argument("--depth", type=int, default=10)
    sp.add_argument("--arity", type=int, default=2)
    sp.add_argument("--seeds", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--g", help="profile override: powerlaw:f=..,alpha=.. or CSV path")
    add_common(sp)
    sp.set_defaults(func=cmd_symmetrize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; our contract reserves 2 for
        # invariant violations, so remap
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: floating-point overflow: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # every package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
