"""Command-line interface.

Every subcommand is a pure function of its flags: output ordering follows the
presentation's display order, so identical invocations are byte-identical.
Exit codes: 0 success, 1 a verification suite found a counterexample, 2 bad
input (unknown flags, malformed files, unknown vertices, undefined products),
3 an internal error: any other exception, reported as one line
"internal error: <Type>: <message>" instead of a traceback.  No command takes
a degree cap: resolutions run until their cokernel is zero and the suites
compare every degree where Ext can be nonzero, so exit 1 is never an artefact
of truncation.  `ext --max-degree` only sets how many rows are printed.
"""

import argparse
import functools
import json
import sys

from . import artranslate, cartan, coxeter, lazymatrix, presentations, resolutions
from .comodules import interval_comodule
from .errors import CoxError, PresentationError


def _load_presentation(args):
    if getattr(args, "family", None):
        return presentations.parse_family_flag(args.family)
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as fh:
            return presentations.parse_presentation(fh.read())
    raise CoxError("one of --family or --file is required")


def _window(pres, args):
    if not getattr(args, "window", None):
        raise CoxError("--window is required for this command")
    return pres.window(args.window)


def _emit_matrix(pres, matrix, win, fmt, out):
    """Print matrix on win x win; tsv and json-lines print the rows of one
    `evaluate_window`, so nothing is printed when an entry raises."""
    window = lazymatrix.evaluate_window(matrix, win, win)
    if fmt == "tsv":
        out.write(window.to_tsv())
        return
    for v, row in zip(win, window.data):
        entries = [[pres.display(w), x] for w, x in zip(win, row)]
        out.write(json.dumps({"row": pres.display(v), "entries": entries}) + "\n")


def _add_common(sub, window=True, formats=None):
    sub.add_argument("--family", help="built-in family, e.g. a-infinity, garland:2")
    sub.add_argument("--file", help="presentation file path")
    if window:
        sub.add_argument("--window", help="window spec: a..b or comma list")
    if formats:
        sub.add_argument("--format", default="tsv", choices=formats, help="output format")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cox",
        description="Exact Cartan/Coxeter matrices, resolutions and translates "
        "for quiver and poset presentations.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("cartan", "inverse"):
        sub = subs.add_parser(name, help=f"print the {name} matrix on a window")
        _add_common(sub, formats=["tsv", "json-lines"])

    sub = subs.add_parser("coxeter", help="print a Coxeter matrix on a window")
    _add_common(sub, formats=["tsv", "json-lines"])
    sub.add_argument("--direction", default="forward", choices=["forward", "inverse"])

    sub = subs.add_parser("apply", help="apply a Coxeter transformation to a vector")
    _add_common(sub, window=False)
    sub.add_argument("--vector", required=True, help="sparse literal coeff@vertex,...")
    sub.add_argument("--direction", default="forward", choices=["forward", "inverse"])
    sub.add_argument("--eval", required=True, help="coordinates to evaluate: a..b or list")

    sub = subs.add_parser("resolve", help="minimal injective resolution of a simple")
    _add_common(sub, window=False)
    sub.add_argument("--vertex", required=True)
    sub.add_argument("--side", default="left", choices=["left", "right"])

    sub = subs.add_parser("ext", help="Ext dimensions between two simples")
    _add_common(sub, window=False)
    sub.add_argument("--from", dest="src", required=True)
    sub.add_argument("--to", dest="tgt", required=True)
    sub.add_argument("--max-degree", type=int, default=6)

    sub = subs.add_parser("tau", help="translate of an interval module (linear families)")
    _add_common(sub, window=False)
    sub.add_argument("--interval", required=True, help="lo,hi")
    sub.add_argument("--direction", default="tau-minus", choices=["tau", "tau-minus"])

    sub = subs.add_parser("mesh", help="almost split mesh at an interval module")
    _add_common(sub, window=False)
    sub.add_argument("--interval", required=True, help="lo,hi")
    sub.add_argument(
        "--direction", default="ending-at", choices=["ending-at", "starting-from"]
    )

    sub = subs.add_parser("knit", help="knit a translation-quiver fragment")
    _add_common(sub, window=False, formats=["tsv", "dot"])
    sub.add_argument("--steps", type=int, required=True)
    sub.add_argument("--section", help="injective section window: a..b or list")
    sub.add_argument(
        "--seed-column",
        help="explicit seed for linear families: lo..hi gives the intervals "
        "[lo,lo], [lo,lo+1], ..., [lo,hi]",
    )

    sub = subs.add_parser("verify", help="run a named verification suite")
    _add_common(sub)
    sub.add_argument(
        "--suite",
        required=True,
        choices=["inverse", "coxeter", "tau", "euler", "mobius"],
    )

    sub = subs.add_parser("classify", help="row/column finiteness and semiperfectness")
    _add_common(sub)
    return parser


def _cmd_matrix(args, out):
    pres = _load_presentation(args)
    win = _window(pres, args)
    if args.command == "cartan":
        matrix = cartan.cartan_matrix(pres)
    else:
        matrix = cartan.cartan_inverse(pres)
    _emit_matrix(pres, matrix, win, args.format, out)
    return 0


def _cmd_coxeter(args, out):
    pres = _load_presentation(args)
    win = _window(pres, args)
    op = coxeter.CoxeterOperator(cartan.cartan_pair(pres))
    _emit_matrix(pres, op.matrix(args.direction), win, args.format, out)
    return 0


def _cmd_apply(args, out):
    pres = _load_presentation(args)
    op = coxeter.CoxeterOperator(cartan.cartan_pair(pres))
    x = lazymatrix.parse_vector_literal(pres, args.vector)
    result = op.apply(x, args.direction)
    coords = pres.window(args.eval)
    entries = {v: result.entry(v) for v in coords}
    vec = lazymatrix.DimensionVector(entries)
    out.write(vec.sparse_str(pres) + "\n")
    return 0


def _cmd_resolve(args, out):
    pres = _load_presentation(args)
    j = pres.parse_token(args.vertex)
    summary = resolutions.minimal_injective_resolution(pres, j, args.side)
    out.write("degree\tvertex\tmultiplicity\n")
    for m, term in enumerate(summary.terms):
        for v in sorted(term, key=pres.sort_key):
            out.write(f"{m}\t{pres.display(v)}\t{term[v]}\n")
    return 0


def _count(value, flag):
    """`value`, given to the count flag `flag`, refused when negative."""
    if value < 0:
        raise CoxError(f"{flag} must be >= 0, got {value}")
    return value


def _cmd_ext(args, out):
    max_degree = _count(args.max_degree, "--max-degree")
    pres = _load_presentation(args)
    src = pres.parse_token(args.src)
    tgt = pres.parse_token(args.tgt)
    out.write("m\tdim\n")
    for m in range(max_degree + 1):
        out.write(f"{m}\t{resolutions.ext_dim(pres, src, tgt, m)}\n")
    return 0


def _parse_interval(pres, text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise CoxError("--interval expects lo,hi")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        lo = None
    if lo is None or pres.kind != "quiver":
        raise PresentationError("interval modules need a path presentation on integer vertices")
    return interval_comodule(pres, lo, hi)


def _cmd_tau(args, out):
    pres = _load_presentation(args)
    module = _parse_interval(pres, args.interval)
    result = artranslate.tau(module, args.direction)
    out.write(result.dim_vector().sparse_str(pres) + "\n")
    return 0


def _cmd_mesh(args, out):
    pres = _load_presentation(args)
    module = _parse_interval(pres, args.interval)
    mesh = artranslate.almost_split_mesh(module, args.direction)
    left = mesh.left.dim_vector().sparse_str(pres)
    mid = " + ".join(m.dim_vector().sparse_str(pres) for m in mesh.middle)
    right = mesh.right.dim_vector().sparse_str(pres)
    out.write(f"0 -> {left} -> {mid} -> {right} -> 0\n")
    return 0


def _cmd_knit(args, out):
    steps = _count(args.steps, "--steps")
    pres = _load_presentation(args)
    if args.seed_column:
        try:
            lo, hi = map(int, args.seed_column.split(".."))
        except ValueError:
            raise CoxError("--seed-column expects lo..hi") from None
        nodes, arrows = artranslate.interval_column_seed(
            pres, lo, list(range(lo, hi + 1))
        )
        seed = ("explicit", nodes, arrows)
    elif args.section:
        seed = ("injectives", list(pres.window(args.section)))
    else:
        raise CoxError("knit needs --section or --seed-column")
    frag = artranslate.knit_component(pres, seed, steps)
    if args.format == "dot":
        out.write(frag.to_dot())
    else:
        out.write(frag.to_text())
    return 0


def _cmd_classify(args, out):
    pres = _load_presentation(args)
    win = _window(pres, args)
    report = cartan.classify_finiteness(pres, list(win))

    def show(flag):
        return {True: "yes", False: "no", None: "unknown"}[flag]

    out.write(f"row-finite\t{show(report['row_finite'])}\n")
    out.write(f"col-finite\t{show(report['col_finite'])}\n")
    out.write(f"right-semiperfect\t{show(report['right_semiperfect'])}\n")
    out.write(f"left-semiperfect\t{show(report['left_semiperfect'])}\n")
    for v in win:
        pv = report["per_vertex"][v]
        out.write(
            f"vertex\t{pres.display(v)}\trow:{show(pv['row_finite'])}\t"
            f"col:{show(pv['col_finite'])}\n"
        )
    return 0


def _suite_inverse(pres, win, out):
    pair = cartan.cartan_pair(pres)
    ok, ce = lazymatrix.verify_identity_on_window(pair.inverse, pair.cartan, win)
    if not ok:
        out.write(f"FAIL: left inverse identity at {ce}\n")
        return 1
    # c.c^-1 read through its transpose: the rows of c^-tr are the certified
    # columns of c^-1, where c's rows may be long or not certified
    ok, ce = lazymatrix.verify_identity_on_window(pair.cartan, pair.inverse, win, transposed=True)
    if not ok:
        out.write(f"FAIL: right inverse identity at {ce}\n")
        return 1
    out.write("OK: left and right inverse identities hold on window\n")
    return 0


def _suite_coxeter(pres, win, out):
    op = coxeter.CoxeterOperator(cartan.cartan_pair(pres))
    ok, a = op.verify_generator_identities(win)
    if not ok:
        out.write(f"FAIL: generator identity at {pres.display(a)}\n")
        return 1
    fwd = op.matrix("forward")
    for a in win:
        x = lazymatrix.DimensionVector.unit(a)
        row = fwd.row(a)    # Phi(e_a), None when no Cartan row certifies it
        if row is not None:
            mid = lazymatrix.DimensionVector(row)
        else:
            # Phi(e_a) = sum_b y_b dim E(b) with y = -(e_a . c^{-tr}) finite
            mid = coxeter.GeneratorCombination(
                "injectives", dict((-coxeter._scatter(x, op.cinv_tr)).items())
            )
        back = op.apply(mid, "inverse")
        for v in win:
            if back.entry(v) != x[v]:
                out.write(f"FAIL: round trip at {pres.display(a)}\n")
                return 1
    out.write("OK: generator identities and round trips hold on window\n")
    return 0


def _suite_tau(pres, win, out):
    if pres.kind != "quiver":
        raise PresentationError("tau suite needs a path presentation")
    if pres.linear:
        ints = [v for v in win if isinstance(v, int)]
        op = coxeter.CoxeterOperator(cartan.cartan_pair(pres))
        checked = 0
        for lo in ints:
            for hi in ints:
                if lo > hi:
                    continue
                if not pres.has_vertex(lo - 1):
                    continue  # projective end: translate vanishes
                module = interval_comodule(pres, lo, hi)
                result = artranslate.verify_translate_formula(module, op)
                if not result["holds"]:
                    out.write(f"FAIL: translate formula at interval [{lo},{hi}]\n")
                    return 1
                checked += 1
        out.write(f"OK: translate formula holds for {checked} interval modules\n")
        return 0
    frag = artranslate.knit_component(pres, ("injectives", list(win)), 4, section_flag="--window")
    out.write(f"OK: knitting completed {len(frag.tau_links)} coherent meshes\n")
    return 0


def _suite_euler(pres, win, out):
    failures = resolutions.check_sharp_euler(pres, list(win))
    if failures:
        out.write("FAIL: " + "; ".join(failures[:3]) + "\n")
        return 1
    out.write("OK: sampled simples have finite socle-finite resolutions, Ext symmetric\n")
    return 0


def _suite_mobius(pres, win, out):
    if pres.kind != "poset":
        raise PresentationError("mobius suite needs an incidence presentation")
    cinv = cartan.cartan_inverse(pres)
    for p in win:
        for j in win:
            by_res = cinv.entry(j, p)
            by_mu = resolutions.mobius(pres, p, j)
            by_cx = sum(
                (-1) ** m * resolutions.ext_dim(pres, p, j, m, method="complex")
                for m in resolutions.ext_degrees(pres, p, j)
            )
            if not (by_res == by_mu == by_cx):
                out.write(
                    f"FAIL: cross-oracle at ({pres.display(p)},{pres.display(j)}): "
                    f"resolution {by_res}, mobius {by_mu}, complex {by_cx}\n"
                )
                return 1
    out.write("OK: resolution, Mobius and order-complex oracles agree on window\n")
    return 0


_SUITES = {
    "inverse": _suite_inverse,
    "coxeter": _suite_coxeter,
    "tau": _suite_tau,
    "euler": _suite_euler,
    "mobius": _suite_mobius,
}


def _cmd_verify(args, out):
    pres = _load_presentation(args)
    win = _window(pres, args)
    return _SUITES[args.suite](pres, win, out)


_COMMANDS = {
    "cartan": _cmd_matrix,
    "inverse": _cmd_matrix,
    "coxeter": _cmd_coxeter,
    "apply": _cmd_apply,
    "resolve": _cmd_resolve,
    "ext": _cmd_ext,
    "tau": _cmd_tau,
    "mesh": _cmd_mesh,
    "knit": _cmd_knit,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
}


# the one parser of `run`, built on the first call rather than at import
_parser = functools.cache(build_parser)


def run(argv, out=None):
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args, out)
    except (CoxError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
