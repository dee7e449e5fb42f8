"""Command-line interface.

Subcommands: check, ore, bosonize, analyze, example.  Exit codes: 0 all
checks pass, 1 a check failed, 2 parse/shape/usage errors and an
unwritable --out.  Set
HOPFFORGE_CONDUCTOR_CAP to override the conductor promotion cap.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .hopf import (
    HopfSC, check_algebra, check_bialgebra, check_hopf, verify_group_like,
)
from .linalg import SVec, ShapeMismatch, cone
from .cocycle import bosonize, check_cocycle, check_prebialgebra, is_radford_majid
from .construct import (
    CompatibleDatum, YDDatum, build_ore_hopf, validate_compatible_datum, validate_yd_datum,
)
from .analyze import Analysis, AnalysisError, ProjectionSetup
from .fileformat import (
    AlgebraFile, ParseError, format_scalar, parse_scalar,
    write_cocycle, write_hopf, write_map, write_prebialgebra,
)
from .reports import Report

USAGE_ERROR = 2


def _load(path: str) -> AlgebraFile:
    try:
        return AlgebraFile(path)
    except (OSError, ParseError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def cmd_check(args) -> int:
    f = _load(args.path)
    rep = Report(f"check {args.path}")
    if f.kind in ("hopf", "bialgebra", "algebra"):
        H = f.to_hopf()
        if H.antipode is not None:
            rep.absorb(check_hopf(H))
        elif f.section("COMULT") is not None:
            rep.absorb(check_bialgebra(H))
        else:
            rep.absorb(check_algebra(H))
    elif f.kind == "prebialgebra":
        ref = f.base_ref()
        if not ref:
            print("error: prebialgebra file needs a base header", file=sys.stderr)
            return USAGE_ERROR
        base = _load(str(f.path.parent / ref)).to_hopf()
        P = f.to_prebialgebra(base)
        rep.absorb(check_prebialgebra(P))
    else:
        print(f"error: cannot check files of kind {f.kind}", file=sys.stderr)
        return USAGE_ERROR
    print(rep.render())
    return rep.exit_code


def cmd_ore(args) -> int:
    f = _load(args.base)
    H = f.to_hopf()
    rep = Report(f"ore over {args.base}")
    # resolve g
    if args.g in H.group_likes:
        g = H.group_likes[args.g]
    else:
        try:
            idx = H.labels.index(args.g) if args.g in H.labels else int(args.g)
        except ValueError:
            print(f"error: unknown group-like {args.g!r}", file=sys.stderr)
            return USAGE_ERROR
        if not 0 <= idx < H.dim:
            print(f"error: index {idx} out of range", file=sys.stderr)
            return USAGE_ERROR
        g = {idx: cone()}
    if not verify_group_like(H, g):
        rep.status("g_group_like", False)
        print(rep.render())
        return rep.exit_code
    if args.chi not in H.characters:
        print(f"error: character {args.chi!r} not declared in {args.base}", file=sys.stderr)
        return USAGE_ERROR
    chi = H.characters[args.chi]
    try:
        lam = parse_scalar(args.lam, f.conductor)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    d = validate_yd_datum(H, g, chi)
    if not isinstance(d, YDDatum):
        rep.absorb(d)
        print(rep.render())
        return rep.exit_code
    rep.status("yd_datum", True)
    N = d.order()
    if N is None:
        rep.status("finite_order", False, "chi(g) is not a root of unity")
        print(rep.render())
        return rep.exit_code
    if args.N is not None and args.N != N:
        rep.status("order_matches", False, f"supplied N={args.N} but o(q)={N}")
        print(rep.render())
        return rep.exit_code
    c = validate_compatible_datum(d, lam)
    if isinstance(c, CompatibleDatum):
        rep.status("compatible_datum", True)
    else:
        rep.absorb(c)
        print(rep.render())
        return rep.exit_code
    ore = build_ore_hopf(c)
    rep.status("hopf_check", True, f"dim {ore.dim}")
    rep.set("dim", ore.dim)
    rep.set("N", N)
    rep.set("q", format_scalar(d.q, f.conductor))
    if args.out:
        base_ref = Path(args.base).name
        write_hopf(ore.O, args.out, kind="hopf",
                   maps={"sigma": (ore.sigma, base_ref), "p": (ore.p, base_ref)})
        rep.info(f"wrote {args.out}")
    print(rep.render())
    return rep.exit_code


def cmd_bosonize(args) -> int:
    rf = _load(args.r_path)
    xf = _load(args.xi_path)
    if rf.kind != "prebialgebra" or xf.kind != "cocycle":
        print("error: bosonize needs a prebialgebra file and a cocycle file", file=sys.stderr)
        return USAGE_ERROR
    ref = rf.base_ref()
    if not ref:
        print("error: prebialgebra file needs a base header", file=sys.stderr)
        return USAGE_ERROR
    H = _load(str(rf.path.parent / ref)).to_hopf()
    P = rf.to_prebialgebra(H)
    xi = xf.to_cocycle(P)
    rep = Report(f"bosonize {args.r_path} with {args.xi_path}")
    pre = check_prebialgebra(P)
    rep.absorb(pre)
    coc = check_cocycle(P, xi)
    rep.absorb(coc)
    if not (pre.ok and coc.ok):
        print(rep.render())
        return rep.exit_code
    bos = bosonize(P, xi, verify=False)
    bial = check_bialgebra(bos.B)
    rep.absorb(bial)
    rep.set("dim", bos.B.dim)
    rep.set("radford_majid", is_radford_majid(xi, P))
    if args.out and bial.ok:
        out = HopfSC(bos.B.dim, bos.B.mult, bos.B.unit, bos.B.comult, bos.B.counit,
                     None, conductor=H.conductor)
        write_hopf(out, args.out, kind="bialgebra",
                   maps={"sigma": (bos.sigma, Path(ref).name),
                         "pi": (bos.pi, Path(ref).name)})
        rep.info(f"wrote {args.out}")
    print(rep.render())
    return rep.exit_code


def run_analysis(setup: ProjectionSetup, rep: Report) -> None:
    """The analysis of a setup, rendered into rep.  An AnalysisError that
    stops it is recorded as a FAIL line naming the error."""
    try:
        _render(Analysis(setup), rep)
    except AnalysisError as exc:
        rep.status("analysis", False, f"{type(exc).__name__}: {exc}")


def _render(an: Analysis, rep: Report) -> None:
    setup = an.setup
    v = an.validation
    rep.absorb(v)
    if not v.ok:
        return
    rep.status("induced_structures", True, f"dim R = {an.induced.pre.dim}")
    rep.status("omega_roundtrip", an.roundtrip)
    basis = an.basis
    rep.set("thin", basis is not None)
    if basis is None:
        rep.skipped("cocycle_analysis", "carrier is not thin; structure theory does not apply")
        return
    conductor = setup.H.conductor
    rep.set("N", basis.N)
    rep.set("q", format_scalar(basis.q, conductor))

    def h_vec_text(v: SVec) -> str:
        labels = setup.H.labels
        parts = []
        for i, c in sorted(v.items()):
            coeff = format_scalar(c, conductor)
            if " " in coeff or coeff.startswith("-"):
                coeff = f"({coeff})"
            parts.append(f"{coeff}*{labels[i]}")
        return " + ".join(parts) if parts else "0"

    rep.set("g", h_vec_text(basis.g))
    rep.set("chi_on_basis", " ".join(format_scalar(c, conductor) for c in basis.chi))
    ana = an.cocycle
    rep.set("x", h_vec_text(ana.x))
    for (a, b), val in sorted(ana.table.items()):
        if val:
            rep.info(f"xi(y^{a}, y^{b}) = {h_vec_text(val)}")
    rep.absorb(ana.x_claims)
    rep.status("cocycle_support", ana.support_ok)
    rep.status("half_line_constant", ana.half_line_constant)
    if ana.full_line_constant is not None:
        rep.status("full_line_constant", ana.full_line_constant)
    if ana.three_half_line_zero is not None:
        rep.status("three_half_line_zero", ana.three_half_line_zero)
    rep.set("x_zero", ana.x_is_zero)
    if ana.lam is not None:
        rep.set("lambda", format_scalar(ana.lam, conductor))
        rep.status("lambda_datum_compatible", ana.lam_datum is not None)
    else:
        rep.skipped("lambda_extraction", ana.lam_missing())
    if ana.table_matches is not None:
        rep.status("cocycle_table", ana.table_matches)
    er = an.equivalences
    for k, val in er.equivalences.items():
        rep.set(f"eq_{k}", val)
    rep.status("equivalences_consistent", True)
    rep.set("colinear", er.equivalences["a_colinear"])
    rep.set("associative", er.associative)
    rep.set("powers_agree", er.equivalences["c_powers_agree"])
    A1 = an.A1
    rep.set("dim_A1", A1.dim)
    rep.status("wedge_criterion", A1.dim == 2 * setup.H.dim,
               f"dim A1 = {A1.dim}, 2 dim H = {2 * setup.H.dim}")


def cmd_analyze(args) -> int:
    af = _load(args.A)
    hf = _load(args.H)
    A = af.to_hopf()
    H = hf.to_hopf()
    sigma = _load(args.sigma).to_map()
    pi = _load(args.pi).to_map()
    if sigma.nrows != A.dim or sigma.ncols != H.dim or pi.nrows != H.dim or pi.ncols != A.dim:
        print("error: map shapes do not match A and H", file=sys.stderr)
        return USAGE_ERROR
    setup = ProjectionSetup(A, H, sigma, pi)
    rep = Report(f"analyze {args.A} over {args.H}")
    try:
        run_analysis(setup, rep)
    except (ShapeMismatch, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(rep.render())
    return rep.exit_code


def cmd_example(args) -> int:
    from . import catalog
    if args.name not in catalog.EXAMPLES:
        print(f"error: unknown example {args.name!r}; choose from "
              + ", ".join(sorted(catalog.EXAMPLES)), file=sys.stderr)
        return USAGE_ERROR
    entry = catalog.EXAMPLES[args.name]()
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    rep = Report(f"example {args.name}")
    if entry.name == "qline6":
        H = entry.extra["H"]
        ql = entry.extra["quantum_line"]
        xi = entry.extra["xi"]
        h_path = outdir / "qline6_base.alg"
        write_hopf(H, h_path)
        write_prebialgebra(ql, outdir / "qline6_r.alg", "qline6_base.alg")
        write_cocycle(xi, outdir / "qline6_xi.alg", H.conductor,
                      r_ref="qline6_r.alg", base_ref="qline6_base.alg")
        rep.info(f"wrote {h_path} and companions")
        rep.absorb(check_prebialgebra(ql))
        rep.absorb(check_cocycle(ql, xi))
        rep.set("dim", ql.dim)
    else:
        ore = entry.ore
        path = outdir / f"{entry.name}.alg"
        base_path = outdir / f"{entry.name}_base.alg"
        write_hopf(ore.base, base_path)
        write_hopf(ore.O, path, kind="hopf",
                   maps={"sigma": (ore.sigma, base_path.name),
                         "p": (ore.p, base_path.name)})
        rep.info(f"wrote {path} and {base_path}")
        rep.absorb(check_hopf(ore.O))
        rep.set("dim", ore.dim)
        run_analysis(entry.setup, rep)
        if entry.name == "xmas":
            setup_pi = entry.extra["setup_pi"]
            write_map(setup_pi.pi, outdir / "xmas_pi.alg", ore.base.conductor,
                      domain_ref=path.name, codomain_ref=base_path.name)
            write_map(setup_pi.sigma, outdir / "xmas_sigma.alg", ore.base.conductor,
                      domain_ref=base_path.name, codomain_ref=path.name)
            rep.info("wrote xmas_pi.alg and xmas_sigma.alg (the non-normalized projection)")
            sub = Report("non-normalized projection")
            run_analysis(setup_pi, sub)
            for line in sub.lines:
                rep.lines.append("pi: " + line)
            for k, v in sub.kv.items():
                rep.set("pi_" + k, v)
            rep.failed = rep.failed or sub.failed
            rep.status("pi_differs_from_p", setup_pi.pi != entry.setup.pi)
    print(rep.render())
    return rep.exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hopfforge",
        description="Exact construction and verification of Hopf algebras "
                    "with bilinear coalgebra projections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the axiom suite on a structure file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ore", help="build the Ore-extension Hopf algebra of a datum")
    p.add_argument("--base", required=True, help="base Hopf algebra file")
    p.add_argument("--g", required=True, help="group-like: declared name, label or index")
    p.add_argument("--chi", required=True, help="declared character name")
    p.add_argument("--lambda", dest="lam", default="0", help="deformation scalar")
    p.add_argument("--N", type=int, default=None, help="expected order of chi(g)")
    p.add_argument("--out", default=None, help="output file")
    p.set_defaults(func=cmd_ore)

    p = sub.add_parser("bosonize", help="bosonize a pre-bialgebra file with a cocycle file")
    p.add_argument("r_path")
    p.add_argument("xi_path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bosonize)

    p = sub.add_parser("analyze", help="full diagnosis of a projection setup")
    p.add_argument("--A", required=True)
    p.add_argument("--H", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--pi", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("example", help="build a catalog example and run its checks")
    p.add_argument("name")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_example)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:  # an --out path that cannot be written
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
