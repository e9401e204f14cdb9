"""Command-line front end: load structures, run the constructions and
theorem checks, emit JSON or DOT, run the property suites.

Exit codes: 0 success or property true, 1 property false (witness printed),
2 input error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import boolalg, invsgp, lcmhull, semilattice, suites
from .bisection import check_presentation, iota, theorem_quotients_check
from .groupoid import germ_groupoid, groupoid_to_dot, groupoid_to_json
from .semilattice import LawViolation


def _read(path: str) -> str:
    return Path(path).read_text()


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _x_relations_semilattice(E, spec: str):
    if spec in semilattice.BUILTIN_RELATION_SETS:
        return semilattice.builtin_relations(E, spec)
    return semilattice.relations_from_json(E, _read(spec))


def _x_relations_semigroup(S, spec: str):
    return _x_relations_semilattice(S.semilattice, spec)


def _cmd_semilattice(args) -> int:
    E = semilattice.semilattice_from_json(_read(args.input))
    if args.format == "json":
        _emit(semilattice.semilattice_to_json(E), args.out)
        return 0
    lines = [f"elements={E.n}", f"atoms={len(E.atoms())}"]
    if args.x is not None:
        rels = _x_relations_semilattice(E, args.x)
        spec = semilattice.spectrum(E, rels)
        lines.append(f"relations={len(rels)}")
        lines.append(f"spectrum={len(spec)}")
        gens = ",".join(E.label(c.gen) for c in sorted(spec))
        lines.append(f"spectrum_generators={gens}")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_invsgp(args) -> int:
    S = invsgp.invsgp_from_json(_read(args.input))
    if args.format == "json":
        _emit(invsgp.invsgp_to_json(S), args.out)
        return 0
    _emit(f"elements={S.n}\nidempotents={S.semilattice.n}", args.out)
    return 0


def _cmd_groupoid(args) -> int:
    S = invsgp.invsgp_from_json(_read(args.invsgp))
    gg = germ_groupoid(S, _x_relations_semigroup(S, args.x))
    G = gg.groupoid
    if args.format == "dot":
        _emit(groupoid_to_dot(G), args.out)
    elif args.format == "json":
        _emit(groupoid_to_json(G), args.out)
    else:
        _emit(f"units={G.n_units}\narrows={G.n_arrows}", args.out)
    return 0


def _cmd_booleanize(args) -> int:
    if args.semilattice:
        E = semilattice.semilattice_from_json(_read(args.semilattice))
        rels = _x_relations_semilattice(E, args.x)
        B, rep = boolalg.booleanization(E, rels)
        if args.format == "json":
            _emit(boolalg.rep_to_json(rep), args.out)
        else:
            _emit(f"spectrum={B.m} elements={B.size}", args.out)
        return 0
    S = invsgp.invsgp_from_json(_read(args.invsgp))
    rels = _x_relations_semigroup(S, args.x)
    rep = iota(S, rels)
    G = rep.germs.groupoid
    if args.format == "dot":
        _emit(groupoid_to_dot(G), args.out)
    elif args.format == "json":
        from .bisection import bis_to_json

        _emit(bis_to_json(rep.algebra), args.out)
    else:
        _emit(
            f"units={G.n_units} arrows={G.n_arrows} elements={len(rep.algebra)}",
            args.out,
        )
    return 0


def _cmd_quotient_check(args) -> int:
    S = invsgp.invsgp_from_json(_read(args.invsgp))
    rels = _x_relations_semigroup(S, args.x)
    chi = semilattice.spectrum(S.semilattice, invsgp.invariant_closure(S, rels))
    report = theorem_quotients_check(S, chi)
    line = (
        f"classes={report.class_count} quotient={report.quotient_size} "
        f"wmp={str(report.weakly_meet_preserving).lower()} ok={str(report.ok).lower()}"
    )
    if not report.ok:
        line += (
            f"\nspectrum_ok={str(report.spectrum_ok).lower()}"
            f" germs_ok={str(report.germs_ok).lower()}"
            f" bijective={str(report.bijective).lower()}"
        )
    _emit(line, args.out)
    return 0 if report.ok else 1


def _cmd_presentation_check(args) -> int:
    S = invsgp.invsgp_from_json(_read(args.invsgp))
    rels = _x_relations_semigroup(S, args.x)
    report = check_presentation(S, rels)
    _emit(
        f"relations={'ok' if report.relations_ok else 'fail'} "
        f"generated={report.generated} total={report.total} ok={str(report.ok).lower()}",
        args.out,
    )
    return 0 if report.ok else 1


def _cmd_hull(args) -> int:
    P = lcmhull.monoid_from_spec(args.monoid)
    if args.hull_op == "mul":
        x = lcmhull.parse_hull(P, args.x)
        y = lcmhull.parse_hull(P, args.y)
        z = lcmhull.hull_mul(P, x, y)
        _emit(f"result={z.format(P)}", args.out)
        return 0
    if args.hull_op == "foundation":
        F = [P.parse(w) for w in args.set.split(",") if w]
        verdict = lcmhull.is_foundation_set(P, F, depth=args.depth)
        line = f"verdict={verdict.kind}"
        if verdict.witness is not None:
            line += f" witness={P.format(verdict.witness)}"
        if verdict.depth is not None:
            line += f" depth={verdict.depth}"
        _emit(line, args.out)
        return 0 if verdict.kind != "no" else 1
    if args.hull_op == "lemma":
        F = [P.parse(w) for w in args.set.split(",") if w]
        agree = lcmhull.lemma_found_check(P, F, depth=args.depth)
        _emit(f"agree={str(agree).lower()} depth={args.depth}", args.out)
        return 0 if agree else 1
    if args.hull_op in ("xa", "xu"):
        if not isinstance(P, lcmhull.ZappaSzepProduct):
            raise LawViolation("relation generation needs a Zappa-Szep monoid (try --monoid adding)")
        if args.hull_op == "xa":
            rels = lcmhull.gen_xa(P, args.depth)
        else:
            rels = lcmhull.gen_xu(P, args.depth, args.max_parts)
        _emit(lcmhull.hull_relations_to_json(P, rels), args.out)
        return 0
    raise LawViolation(f"unknown hull operation {args.hull_op!r}")


def _cmd_suite(args) -> int:
    results = suites.run_all(max_size=args.max_size)
    failed = 0
    for name, ok, detail in results:
        if ok:
            print(f"ok - {name}")
        else:
            failed += 1
            print(f"FAIL - {name}" + (f" ({detail})" if detail else ""))
    print(f"passed={len(results) - failed} failed={failed}")
    return 0 if failed == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built the first time it is asked for and then
    shared: parsing reads it and never changes it."""
    ap = argparse.ArgumentParser(prog="xjoin", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semilattice", help="validate and describe a semilattice")
    p.add_argument("--input", required=True)
    p.add_argument("--x", default=None, help="tight|prime|core|none or a relation JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_semilattice)

    p = sub.add_parser("invsgp", help="validate and describe an inverse semigroup")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_invsgp)

    p = sub.add_parser("groupoid", help="germ groupoid of an inverse semigroup")
    p.add_argument("--invsgp", required=True)
    p.add_argument("--x", default="none")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_groupoid)

    p = sub.add_parser("booleanize", help="Booleanization of a semilattice or semigroup")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--semilattice")
    src.add_argument("--invsgp")
    p.add_argument("--x", default="none")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_booleanize)

    p = sub.add_parser("quotient-check", help="quotient against the carved-out relation set")
    p.add_argument("--invsgp", required=True)
    p.add_argument("--x", default="tight")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_quotient_check)

    p = sub.add_parser("presentation-check", help="generators-and-relations check")
    p.add_argument("--invsgp", required=True)
    p.add_argument("--x", default="tight")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_presentation_check)

    p = sub.add_parser("hull", help="left inverse hull operations")
    p.add_argument("--monoid", default="free:2", help="free:K, free:<letters>, nat:K, nx, adding")
    hsub = p.add_subparsers(dest="hull_op", required=True)
    h = hsub.add_parser("mul", help="multiply two hull elements")
    h.add_argument("x")
    h.add_argument("y")
    h.add_argument("--out")
    h = hsub.add_parser("foundation", help="decide a foundation set")
    h.add_argument("--set", required=True, help="comma-separated elements")
    h.add_argument("--depth", type=int, default=4)
    h.add_argument("--out")
    h = hsub.add_parser("lemma", help="foundation set against the hull cover condition")
    h.add_argument("--set", required=True)
    h.add_argument("--depth", type=int, default=4)
    h.add_argument("--out")
    h = hsub.add_parser("xa", help="second-factor relation set")
    h.add_argument("--depth", type=int, default=3)
    h.add_argument("--out")
    h = hsub.add_parser("xu", help="first-factor relation set")
    h.add_argument("--depth", type=int, default=3)
    h.add_argument("--max-parts", type=int, default=None)
    h.add_argument("--out")
    p.set_defaults(func=_cmd_hull)

    p = sub.add_parser("suite", help="run the property suites")
    p.add_argument("--max-size", type=int, default=8)
    p.set_defaults(func=_cmd_suite)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # LawViolation and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
