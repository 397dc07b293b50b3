"""Command-line surface.

Exit codes: 0 all assertions passed, 1 a suite found a counterexample,
2 usage or certification errors.  Exact values are printed as "p/q"
strings; approximate values are tagged.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .bmo import DomainError, bmo_norm, hormander_constant
from .funcs import FinFunc
from .hardy import (
    MAX_CANDIDATES,
    MAX_FAMILY,
    MAX_HORMANDER_FAMILY,
    good_bad_split,
    h1_estimate,
    telescoping_h1_upper,
)
from .maximal import hl_field, sharp_field
from .randgen import RunConfig, nonzero_function
from .sets import (
    EnumerationError,
    covering_family,
    covering_index,
    cz_in_window,
    cz_in_window_count,
    envelope,
    set_measure,
)
from .simplex import InfeasibleError
from .tree import (
    Tree,
    Vertex,
    Window,
    check_power,
    level,
    parse_vertex,
    parse_window,
)

USAGE_ERROR = 2
COUNTEREXAMPLE = 1
# the `check` choices, in `suites.SUITES` order; `suites` loads the
# brute-force oracles, so only `check` and `constants` import it
SUITES = ("geometry", "sharp", "bmo", "decompose", "lp-ratio")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return USAGE_ERROR
    try:
        payload, code = dispatch(args)
        text = jsonio.dumps(jsonio.report_json(Tree(args.m), payload))
    except (EnumerationError, DomainError, InfeasibleError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treebmo",
        description="Exact CZ-set geometry, BMO/Hardy norms and maximal functions "
        "on weighted homogeneous trees.",
    )
    parser.add_argument("--m", type=int, default=2, help="branching factor (>= 2)")
    parser.add_argument("--seed", type=int, default=0, help="seed for generated suites")
    parser.add_argument(
        "--window",
        default="root=2:,depth=4",
        help="window spec 'root=<vertex>,depth=<int>'",
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("measure", help="exact measure of a vertex, ball, trapezoid or CZ set")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--vertex", help='vertex "n:w"')
    g.add_argument("--ball", nargs=2, metavar=("VERTEX", "RADIUS"))
    g.add_argument("--cz", help='CZ set "cz root=<v> h=<int> [deg]"')
    g.add_argument("--trapezoid", help='"trapezoid root=<v> h=<int> [deg]"')

    p = sub.add_parser("ball", help="enumerate a ball and check the closed form")
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--members", action="store_true", help="include the member list")

    p = sub.add_parser("cz", help="envelope and enlargement data of an admissible trapezoid")
    p.add_argument("--trapezoid", required=True, help='"trapezoid root=<v> h=<int> [deg]"')

    p = sub.add_parser("cover", help="the nested covering family")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--vertex")

    p = sub.add_parser("bmo-norm", help="BMO_q norm of a function")
    p.add_argument("--q", default="1")
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("sharp", help="sharp maximal function at a point or on a window")
    p.add_argument("--q", default="1")
    p.add_argument("--at", default=None, help="single vertex")
    p.add_argument(
        "--window",
        dest="window_override",
        default=None,
        help="evaluate on this window instead of a single point",
    )
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("maximal", help="Hardy-Littlewood-type maximal function")
    p.add_argument("--at", default=None)
    p.add_argument(
        "--window", dest="window_override", default=None, help="evaluate on this window"
    )
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("decompose", help="good/bad split(s) of a function")
    p.add_argument("--q", default="2")
    p.add_argument("--in", dest="infile", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--j", type=int)
    g.add_argument("--all", action="store_true", help="full telescoping decomposition")

    p = sub.add_parser("h1", help="two-sided atomic-norm estimate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--family", default=None, help="'auto:<window>' (defaults to the global window)")
    p.add_argument("--candidates", default="random:0:8", help="'random:<seed>:<count>'")

    p = sub.add_parser("hormander", help="kernel regularity constant over a CZ family")
    p.add_argument("--kernel", required=True, help="kernel JSON file")
    p.add_argument("--family", default=None, help="'auto:<window>'")
    p.add_argument("--h-max", type=int, default=2)

    for name, help_text in (
        ("check", "run a property suite; exit 1 on counterexample"),
        ("constants", "run every suite and report empirical constants"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "check":
            p.add_argument("suite", choices=("all",) + SUITES)
        p.add_argument("--size", type=int, default=25)
        p.add_argument("--q", default="1", help="oscillation exponent for the sharp suite")
        p.add_argument("--p", default="2", help="norm exponent for the lp-ratio suite")
        p.add_argument("--p0", default="3/2", help="sharp exponent for the lp-ratio suite")
    return parser


def _config(args, size: int | None = None) -> RunConfig:
    tree = Tree(args.m)
    window = parse_window(tree, args.window)
    return RunConfig(
        m=args.m,
        window=window,
        q=jsonio.parse_frac(getattr(args, "q", "1")),
        p=jsonio.parse_frac(getattr(args, "p", "2")),
        p0=jsonio.parse_frac(getattr(args, "p0", "3/2")),
        seed=args.seed,
        size=size if size is not None else 25,
    )


def _load_func(tree: Tree, path: str) -> FinFunc:
    with open(path) as fh:
        return jsonio.parse_finfunc(tree, json.load(fh))


def _points(tree: Tree, args) -> list[Vertex]:
    """The points of --at or --window, refused at a level whose weight is
    unprintable: a climb from there runs as many waves as that level is far."""
    if args.at is not None:
        points = [parse_vertex(tree, args.at)]
    elif getattr(args, "window_override", None) is not None:
        points = parse_window(tree, args.window_override).members(tree)
    else:
        raise ValueError("give --at <vertex> or --window <spec>")
    for x in points:
        check_power(tree.m, level(x))
    return points


def dispatch(args) -> tuple[object, int]:
    """The command's result, for `jsonio.report_json`, and the exit code."""
    tree = Tree(args.m)
    cmd = args.command

    if cmd == "measure":
        if args.vertex is not None:
            v = parse_vertex(tree, args.vertex)
            return {"vertex": v, "measure": tree.weight(v)}, 0
        if args.ball is not None:
            v = parse_vertex(tree, args.ball[0])
            r = int(args.ball[1])
            return {"center": v, "radius": r, "measure": tree.ball_measure_closed(v, r)}, 0
        if args.cz is not None:
            return jsonio.parse_cz(tree, args.cz), 0
        return jsonio.parse_trapezoid(tree, args.trapezoid), 0

    if cmd == "ball":
        v = parse_vertex(tree, args.center)
        closed = tree.ball_measure_closed(v, args.radius)
        enumerated = tree.ball_measure_enumerated(v, args.radius)
        payload = {
            "center": v,
            "radius": args.radius,
            "measure_closed": closed,
            "measure_enumerated": enumerated,
            "agree": closed == enumerated,
        }
        if args.members:
            payload["members"] = tree.ball(v, args.radius)
        return payload, 0 if closed == enumerated else COUNTEREXAMPLE

    if cmd == "cz":
        from .sets import enlargement_depth_range, enlargement_measure

        r = jsonio.parse_trapezoid(tree, args.trapezoid)
        s = envelope(r)
        return {
            "trapezoid": r,
            "envelope": s,
            "envelope_ratio": set_measure(tree, s) / set_measure(tree, r),
            "enlargement_depths": enlargement_depth_range(s),
            "enlargement_measure": enlargement_measure(tree, s),
            "enlargement_ratio": enlargement_measure(tree, s) / set_measure(tree, s),
        }, 0

    if cmd == "cover":
        if args.n is not None:
            return {"n": args.n, "set": covering_family(args.n)}, 0
        v = parse_vertex(tree, args.vertex)
        check_power(tree.m, level(v))  # the index scan runs about |level(v)| steps
        n = covering_index(v)
        return {"vertex": v, "index": n, "set": covering_family(n)}, 0

    if cmd == "bmo-norm":
        f = _load_func(tree, args.infile)
        return bmo_norm(tree, f, jsonio.parse_frac(args.q)), 0

    if cmd == "sharp":
        f = _load_func(tree, args.infile)
        return sharp_field(tree, f, jsonio.parse_frac(args.q), _points(tree, args)), 0

    if cmd == "maximal":
        phi = _load_func(tree, args.infile)
        return hl_field(tree, phi, _points(tree, args)), 0

    if cmd == "decompose":
        g = _load_func(tree, args.infile)
        q = jsonio.parse_frac(args.q)
        if args.all:
            return telescoping_h1_upper(tree, g, q), 0
        return good_bad_split(tree, g, q, args.j), 0

    if cmd == "h1":
        g = _load_func(tree, args.infile)
        window = _family_window(tree, args)
        family = _auto_family(tree, window, max(1, (window.depth + 1) // 4), MAX_FAMILY)
        candidates = _candidates(tree, window, args.candidates)
        return h1_estimate(tree, g, family, candidates), 0

    if cmd == "hormander":
        if args.h_max < 1:
            raise ValueError(f"--h-max {args.h_max} is below 1")
        with open(args.kernel) as fh:
            kernel = jsonio.parse_kernel(tree, json.load(fh))
        window = _family_window(tree, args)
        family = _auto_family(tree, window, args.h_max, MAX_HORMANDER_FAMILY)
        return hormander_constant(tree, kernel, family), 0

    if cmd in ("check", "constants"):
        from .suites import run_suite

        suite = args.suite if cmd == "check" else "all"
        report = run_suite(_config(args, args.size), suite)
        return report.to_json(), 0 if report.ok else COUNTEREXAMPLE

    raise ValueError(f"unknown command {cmd!r}")


def _family_window(tree: Tree, args) -> Window:
    spec = getattr(args, "family", None)
    if spec is None:
        return parse_window(tree, args.window)
    if not spec.startswith("auto:"):
        raise ValueError("family spec must be 'auto:root=<vertex>,depth=<int>'")
    return parse_window(tree, spec[len("auto:") :])


def _auto_family(tree: Tree, window: Window, h_max: int, cap: int):
    """The CZ sets of height <= h_max in the window, refused from their
    closed-form count, before any is listed, if they are more than cap."""
    if cz_in_window_count(tree, window, h_max, cap) > cap:
        raise ValueError(f"family auto:{window} holds more than the cap of {cap} CZ sets")
    return cz_in_window(tree, window, h_max)


def _candidates(tree: Tree, window: Window, spec: str) -> list[FinFunc]:
    parts = spec.split(":")
    if len(parts) != 3 or parts[0] != "random":
        raise ValueError("candidates spec must be 'random:<seed>:<count>'")
    seed, count = int(parts[1]), int(parts[2])
    if not 0 <= count <= MAX_CANDIDATES:
        raise ValueError(f"candidate count {count} is not in 0..{MAX_CANDIDATES}")
    return [
        nonzero_function(tree, window, seed, "sparse", i) for i in range(count)
    ]


if __name__ == "__main__":
    sys.exit(main())
