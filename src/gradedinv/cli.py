"""Command-line interface: load a script, run computations, emit reports.

Exit codes: 0 success (a failed mathematical inequality is a result, not a
failure), 1 internal error, 2 input error.
"""

import argparse
import csv
import io
import json
import os
import random
import sys

from . import __version__
from .constructions import (
    AMBIENT,
    REGRADED,
    frobenius_power_presentation,
    veronese_presentation,
)
from .dsl import ScriptError, Session, parse_script
from .groebner import ring_map_kernel
from .hilbert import hilbert_series
from .resolution import betti_table
from .theorems import ALL_CHECKS, invariant_report, run_suite

DEFAULT_SEED = 2024


class InputError(Exception):
    pass


def _seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GI_SEED")
    return int(env) if env else DEFAULT_SEED


def _load_session(args):
    if not args.script:
        raise InputError("this command needs a script (--script FILE)")
    try:
        with open(args.script, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (args.script, exc))
    try:
        return Session(parse_script(text))
    except ScriptError as exc:
        raise InputError("%s: %s" % (args.script, exc))


def _presentation(session, name):
    try:
        return session.presentations[name]
    except KeyError:
        raise InputError("no ring or ideal named %r is declared" % name)


def _envelope(seed, instances=(), verdicts=()):
    return {
        "tool-version": __version__,
        "seed": seed,
        "instances": list(instances),
        "verdicts": list(verdicts),
    }


def _emit(args, payload, text, csv_rows=None):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.csv:
        if csv_rows is None:
            raise InputError("this command has no CSV form")
        out = io.StringIO()
        writer = csv.writer(out)
        for row in csv_rows:
            writer.writerow(row)
        sys.stdout.write(out.getvalue())
    else:
        print(text)


def _hilbert_dict(hs):
    return {
        "numerator_coeffs": hs.numerator.coefficient_list(),
        "denominator_weights": list(hs.denominator_weights),
    }


def _report_rows(named_reports):
    header = [
        "name", "dim", "depth", "edim", "multiplicity", "regularity",
        "a_invariant", "is_cm", "is_r1", "has_min_mult",
    ]
    rows = [header]
    for name, rep in named_reports:
        d = rep.to_dict()
        rows.append([name] + [d[k] for k in header[1:]])
    return rows


def _format_table(rows):
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(str(x).ljust(w) for x, w in zip(r, widths)).rstrip() for r in rows
    )


def _verdict_text(v):
    lines = ["%s on %s: %s" % (v.theorem_id, v.instance, v.conclusion)]
    for n, s in v.hypotheses:
        lines.append("  hypothesis %-40s %s" % (n, s))
    if v.lhs is not None:
        lines.append("  lhs = %s, rhs = %s" % (v.lhs, v.rhs))
    if v.notes:
        lines.append("  " + v.notes)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_invariants(args):
    session = _load_session(args)
    A = _presentation(session, args.name)
    rep = invariant_report(A, random.Random(_seed(args)))
    payload = _envelope(
        _seed(args), [{"name": args.name, "invariants": rep.to_dict()}]
    )
    rows = _report_rows([(args.name, rep)])
    _emit(args, payload, _format_table(rows), rows)


def cmd_hilbert(args):
    session = _load_session(args)
    A = _presentation(session, args.name)
    hs = hilbert_series(A)
    payload = _envelope(
        _seed(args), [{"name": args.name, "hilbert_series": _hilbert_dict(hs)}]
    )
    _emit(args, payload, "%s: %r" % (args.name, hs))


def cmd_betti(args):
    session = _load_session(args)
    A = _presentation(session, args.name)
    bt = betti_table(A)
    entries = [
        {"homological_index": i, "degree": j, "rank": b} for (i, j), b in bt.rows()
    ]
    payload = _envelope(
        _seed(args),
        [{
            "name": args.name,
            "betti": entries,
            "projective_dimension": bt.projective_dimension(),
            "regularity": bt.regularity() if A.is_standard_graded else None,
        }],
    )
    rows = [["i", "j", "beta"]] + [[i, j, b] for (i, j), b in bt.rows()]
    _emit(args, payload, "%s:\n%s" % (args.name, _format_table(rows)), rows)


def cmd_kernel(args):
    session = _load_session(args)
    try:
        phi = session.maps[args.name]
    except KeyError:
        raise InputError("no map named %r is declared" % args.name)
    kernel = ring_map_kernel(phi)
    payload = _envelope(
        _seed(args), [{"name": args.name, "kernel": [repr(g) for g in kernel]}]
    )
    text = "kernel(%s) = (%s)" % (args.name, ", ".join(map(repr, kernel)) or "0")
    _emit(args, payload, text)


def cmd_veronese(args):
    session = _load_session(args)
    A = _presentation(session, args.name)
    convention = AMBIENT if args.ambient else REGRADED
    V = veronese_presentation(A, args.degree, convention)
    pres = V.presentation
    payload = _envelope(
        _seed(args),
        [{
            "name": args.name,
            "veronese_degree": args.degree,
            "convention": convention,
            "variables": list(pres.ring.names),
            "weights": list(pres.ring.weights),
            "relations": [repr(g) for g in pres.ideal_gens],
        }],
    )
    text = "Veronese_%d(%s) [%s] = %r" % (args.degree, args.name, convention, pres)
    _emit(args, payload, text)


def cmd_frobenius(args):
    session = _load_session(args)
    B = _presentation(session, args.name)
    pres = frobenius_power_presentation(B, args.power)
    payload = _envelope(
        _seed(args),
        [{
            "name": args.name,
            "frobenius_power": args.power,
            "variables": list(pres.ring.names),
            "weights": list(pres.ring.weights),
            "relations": [repr(g) for g in pres.ideal_gens],
        }],
    )
    _emit(args, payload, "%s^[%d] = %r" % (args.name, args.power, pres))


def cmd_check(args):
    session = _load_session(args)
    if args.theorem == "minmult-eq":
        from .theorems import check_min_mult_equivalences

        A = _presentation(session, args.instance)
        v = check_min_mult_equivalences(A, random.Random(_seed(args)), name=args.instance)
    else:
        inst = session.instances.get(args.instance)
        if inst is None:
            raise InputError("no instance named %r is declared" % args.instance)
        try:
            v = ALL_CHECKS[args.theorem](inst, random.Random(_seed(args)))
        except ValueError as exc:
            raise InputError(str(exc))
    payload = _envelope(
        _seed(args),
        [{"name": v.instance}],
        [v.to_dict()],
    )
    _emit(args, payload, _verdict_text(v))


def cmd_suite(args):
    seed = _seed(args)
    verdicts = run_suite(seed, workers=args.parallel or 1)
    payload = _envelope(
        seed,
        [{"name": n} for n in sorted({v.instance for v in verdicts})],
        [v.to_dict() for v in verdicts],
    )
    text = "\n\n".join(_verdict_text(v) for v in verdicts)
    summary = "\n\n%d verdicts: %s" % (
        len(verdicts),
        ", ".join(
            "%d %s" % (sum(1 for v in verdicts if v.conclusion == c), c)
            for c in sorted({v.conclusion for v in verdicts})
        ),
    )
    _emit(args, payload, text + summary)


def cmd_run(args):
    session = _load_session(args)
    for command in session.script.commands:
        words = list(command.words)
        sub = _build_parser().parse_args(
            words + (["--script", args.script] if args.script else [])
            + (["--json"] if args.json else [])
        )
        sub.func(sub)


# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--script", help="declaration script to load")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--csv", action="store_true", help="emit CSV (tables only)")
    p.add_argument("--seed", type=int, help="sop-sampling seed (default GI_SEED or %d)" % DEFAULT_SEED)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gradedinv",
        description="Graded-algebra invariants and extension-theorem checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("invariants", help="invariant report for a ring or ideal")
    p.add_argument("name")
    _add_common(p)
    p.set_defaults(func=cmd_invariants)

    p = subs.add_parser("hilbert", help="Hilbert series")
    p.add_argument("name")
    _add_common(p)
    p.set_defaults(func=cmd_hilbert)

    p = subs.add_parser("betti", help="graded Betti numbers")
    p.add_argument("name")
    _add_common(p)
    p.set_defaults(func=cmd_betti)

    p = subs.add_parser("kernel", help="kernel of a declared map")
    p.add_argument("name")
    _add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = subs.add_parser("veronese", help="Veronese subring presentation")
    p.add_argument("name")
    p.add_argument("degree", type=int)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--regraded", action="store_true")
    g.add_argument("--ambient", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_veronese)

    p = subs.add_parser("frobenius", help="Frobenius power presentation")
    p.add_argument("name")
    p.add_argument("power", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_frobenius)

    p = subs.add_parser("check", help="verify one theorem on one instance")
    p.add_argument("theorem", choices=sorted(ALL_CHECKS) + ["minmult-eq"])
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("suite", help="run every check on the built-in instances")
    p.add_argument("--parallel", type=int, metavar="N")
    _add_common(p)
    p.set_defaults(func=cmd_suite)

    p = subs.add_parser("run", help="execute the commands embedded in a script")
    p.add_argument("script_file", nargs="?")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "script_file", None) and not args.script:
        args.script = args.script_file
    try:
        args.func(args)
    except (InputError, ScriptError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print("internal error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
