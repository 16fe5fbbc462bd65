"""Command-line front end: every operation as a reproducible, scriptable run.

All outputs echo the fully resolved configuration (including the seed) so a
run can be replayed exactly; floats are printed with 17 significant digits
and row/key order is fixed, making equal-seed runs byte-identical.

Exit status: 0 on success, 1 on validation errors (bad flags, unreadable
input, out-of-domain parameters, overflowing results, no memory), 2 when a
mathematically guaranteed invariant is violated beyond rounding slack.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterable, NamedTuple

import numpy as np

from . import __version__
from .bellman import bellman_value, minimize_envelope
from .errors import DomainError, InvariantViolation, ShapeError
from .inequalities import IneqParams, beyond_slack, extremizer_sweep, sharpness_G
from .maximal import linearize
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
    battery_cells,
    oracle_sup,
    orbit_sample_max,
    run_battery,
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
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"no JSON form for a {type(obj).__name__}")


_CHUNK = 4096  # array items formatted by one ``%`` or ``join``


class _IntMap(NamedTuple):
    """A JSON object from integer keys to integers, held as two arrays."""

    keys: np.ndarray
    values: np.ndarray


class _Table(NamedTuple):
    """The array ``table[index]``, with ``text`` the :func:`_entries` of ``table``."""

    text: np.ndarray
    index: np.ndarray


def _chunk_json(chunk: list, kind: str) -> str:
    """Comma-separated scalars. Integers and finite floats are formatted in
    one pass; anything else goes value by value."""
    if kind in "iu":
        return ", ".join(map(str, chunk))
    if kind == "f":
        text = ("%.17g, " * len(chunk))[:-2] % tuple(chunk)
        if "nan" not in text and "inf" not in text:
            return text
    return ", ".join(map(_scalar_json, chunk))


def _entries(table: np.ndarray) -> np.ndarray:
    """The JSON text of each entry of ``table``, as bytes."""
    text = [np.empty(0, np.bytes_)]
    for start in range(0, table.size, _CHUNK):
        chunk = _chunk_json(table[start : start + _CHUNK].tolist(), table.dtype.kind)
        text.append(np.array(chunk.split(", "), dtype=np.bytes_))
    return np.concatenate(text)


def _array_pieces(size: int, chunk_json):
    """An array of ``size`` scalars, ``chunk_json(cut)`` the text of the slice ``cut``."""
    yield "["
    for start in range(0, size, _CHUNK):
        yield (", " if start else "") + chunk_json(slice(start, start + _CHUNK))
    yield "]"


def _int_map_pieces(obj: _IntMap, indent: int):
    if not len(obj.keys):
        yield "{}"
        return
    item = " " * indent + '  "%d": %d'
    yield "{\n"
    for start in range(0, len(obj.keys), _CHUNK):
        end = start + _CHUNK
        pairs = np.stack((obj.keys[start:end], obj.values[start:end]), axis=1).ravel().tolist()
        yield (",\n" if start else "") + ",\n".join([item] * (len(pairs) // 2)) % tuple(pairs)
    yield "\n" + " " * indent + "}"


def _json_pieces(obj, indent: int = 0):
    """The text of :func:`to_json`, in pieces of bounded size."""
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        pad = " " * indent
        separator = "{\n"
        for k, v in obj.items():
            yield f"{separator}{pad}  {json.dumps(str(k))}: "
            yield from _json_pieces(v, indent + 2)
            separator = ",\n"
        yield f"\n{pad}}}"
    elif isinstance(obj, _IntMap):
        yield from _int_map_pieces(obj, indent)
    elif isinstance(obj, _Table):
        yield from _array_pieces(
            obj.index.size, lambda cut: b", ".join(obj.text[obj.index[cut]].tolist()).decode("ascii"))
    elif isinstance(obj, np.ndarray):
        yield from _array_pieces(obj.size, lambda cut: _chunk_json(obj[cut].tolist(), obj.dtype.kind))
    else:
        yield _scalar_json(obj)


def to_json(obj, indent: int = 0) -> str:
    """JSON with insertion-ordered keys and 17-significant-digit floats.

    A sequence is a one-dimensional numpy array of scalars; no payload
    holds a list or a tuple.
    """
    return "".join(_json_pieces(obj, indent))


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


def _emit(text: str | Iterable[str], path: str | None) -> None:
    """Write ``text``, a string or an iterable of string pieces, and a
    newline to ``path``, or to stdout when no path is given."""
    with _sink(path, sys.stdout) as fh:
        fh.writelines((text,) if isinstance(text, str) else text)
        fh.write("\n")


def parse_profile(spec: str):
    """Profile argument: ``powerlaw:f=<v>,alpha=<v>`` or a CSV path with
    ``t_i,value_i`` rows (right endpoints of equal or unequal pieces)."""
    if spec.startswith("powerlaw:"):
        parts = [part.partition("=") for part in spec[len("powerlaw:") :].split(",")]
        fields = {key.strip(): value for key, sep, value in parts if sep}
        try:
            if len(fields) != len(parts) or set(fields) != {"f", "alpha"}:
                raise ValueError("expected powerlaw:f=<v>,alpha=<v>")
            f = float(fields["f"])
            alpha = float(fields["alpha"])
        except ValueError as exc:
            raise DomainError(f"bad power-law spec {spec!r} ({exc})") from None
        return PowerLawFunction.from_mean_and_exponent(f, alpha)
    rows = []
    with open(spec, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("t"):
                continue
            t_s, _, v_s = line.partition(",")
            try:
                rows.append((float(t_s), float(v_s)))
            except ValueError:
                raise ShapeError(f"{spec} line {number}: expected 't,value', got {line!r}") from None
    if not rows:
        raise ShapeError(f"{spec}: no profile rows")
    breakpoints = np.concatenate(([0.0], [r[0] for r in rows]))
    profile = LineStepFunction(breakpoints, np.array([r[1] for r in rows]))
    if not profile.is_non_increasing() or profile.integral() == 0.0:  # the Hardy ratio needs both
        raise DomainError(f"{spec}: profile must be non-increasing with a positive integral")
    return profile


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _config(args) -> dict:
    """The echoed configuration: every parsed argument but the output paths,
    in parser order, so the echo replays the run."""
    return {k: v for k, v in vars(args).items() if k not in ("func", "output", "summary")}


def _gathered(array: np.ndarray, table: np.ndarray, text: np.ndarray, index: np.ndarray):
    """``array`` as a :class:`_Table` if ``table[index]`` is it bit for bit (-0.0 is not 0.0)."""
    if np.array_equal(table[index].view(np.int64), array.view(np.int64)):
        return _Table(text, index)
    return array


def cmd_maximal(args) -> int:
    """The report is built of arrays and written in bounded pieces; all that
    can fail runs before its first byte. Mphi repeats the members' averages,
    so each distinct number is formatted once."""
    phi = load_step_function(args.input)
    lin = linearize(phi)
    member = np.searchsorted(lin.s_phi, lin.attaining_node)
    exact = bool(np.array_equal(lin.average[member], lin.m_phi.leaf_values))
    y, ids = _entries(lin.average), _entries(lin.s_phi)
    masses, mass_index = np.unique(lin.mass, return_inverse=True)
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
        "m_phi": _gathered(lin.m_phi.leaf_values, lin.average, y, member),
        "attaining_node": _gathered(lin.attaining_node, lin.s_phi, ids, member),
        "linearization": {
            "s_phi": _Table(ids, np.arange(ids.size)),
            "a": _gathered(lin.mass, masses, _entries(masses), mass_index),
            "y": _Table(y, np.arange(y.size)),
            "star": _IntMap(lin.s_phi[1:], lin.star_parent[1:]),
        },
        "moments": {
            "f": moment(phi, 1.0),
            "F_p": moment(phi, args.p),
            "maximal_p": moment(lin.m_phi, args.p),
        },
        "reconstruction_exact": exact,
    }
    del lin  # the leaf arrays a table stands for are freed before writing
    _emit(_json_pieces(payload), args.output)
    return 0 if exact else 2


def cmd_bellman(args) -> int:
    point = bellman_value(args.p, args.f, args.F)
    beta_opt, min_value = minimize_envelope(args.p, args.f, args.F)
    payload = {
        "config": _config(args),
        "value": point.value,
        "alpha": point.alpha,
        "K": point.K,
        "beta_opt": beta_opt,
        "min_value": min_value,
    }
    _emit(to_json(payload), args.output)
    return 0


def cmd_verify(args) -> int:
    config = _config(args)
    # every echoed option is validated, whether or not this mode reads it
    IneqParams(args.p, args.q, args.beta)
    Tree(args.arity, args.depth)
    if args.ineq == "grid":
        cells = battery_cells()
        inequalities = BATTERY_INEQUALITIES
        shapes = BATTERY_SHAPES  # depths 2..10, arities 2 and 3
    else:
        cells = [(args.p, args.q, args.beta)]
        inequalities = (args.ineq,)
        shapes = [(args.arity, args.depth)]  # unused by the line inequality 1.10

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
    config = _config(args)
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
            try:
                grid = [float(s) for s in args.grid.split(",")]
            except ValueError as exc:  # the message quotes the bad item
                raise DomainError(f"bad --grid item: {exc}") from None
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
        "config": _config(args),
        "best_value": best,
        **info,
        "ratio_requested": best / info["bound_requested"],
        "ratio_achieved": best / info["bound_achieved"],
    }
    _emit(to_json(payload), args.output)
    bound = info["bound_achieved"]
    return 2 if beyond_slack(bound - best, bound) else 0  # above the closed-form bound


def cmd_symmetrize(args) -> int:
    tree = Tree(args.arity, args.depth)
    if args.g:
        profile = parse_profile(args.g)
    else:
        point = bellman_value(args.p, args.f, args.F)
        profile = PowerLawFunction.self_similar(args.f, point.alpha)
    cells = discretize(profile, tree.leaf_count)
    target = hardy_power(profile, args.p)
    target_cells = hardy_power(cells, args.p)
    sampled = orbit_sample_max(cells, tree, args.p, args.seeds, args.seed)

    # round-trip sanity on one seeded arrangement
    phi = random_rearrangement(cells, tree, args.seed)
    back = decreasing_rearrangement(phi)
    roundtrip = bool(np.array_equal(np.sort(back.values), np.sort(cells.values)))

    payload = {
        "config": _config(args),
        "sampled_max": sampled,
        "hardy_target": target,
        "hardy_target_discretized": target_cells,
        "ratio": sampled / target,
        "rearrangement_roundtrip_exact": roundtrip,
    }
    _emit(to_json(payload), args.output)
    return 0 if roundtrip and not beyond_slack(target_cells - sampled, target_cells) else 2


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
    sp.add_argument("--arity", type=int, default=2)
    sp.add_argument("--depth", type=int, default=10)
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    # every other package error is a ValueError; a RuntimeError here is a
    # battery CSV worker that died (BrokenProcessPool)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
