"""Command-line surface.

Exit codes: 0 success, 1 validation or usage error (a bound or sweep power
above the power cap included), 2 inconclusive certificate, a sweep with a
row that is not ok, or one verify cannot check within its caps (a declared
or word power above the power cap, or a word list above the word cap), 3
verification failure.
Diagnostics go to stderr, artifacts to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import dataio
from .cones import subcone_models
from .errors import BudgetError, CapabilityError, SubconeError, ValidationError
from .lattice import FiberedClass
from .laurent import char_poly, mat_pow
from .pipeline import certify, check_power_cap, sweep, verify_certificate
from .trackmap import LiftedGraphMap, build_transition_matrix, oracle_iterate, support_of_power

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_VERIFY_FAIL = 3


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:  # argparse reports only ValueError and TypeError
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from exc


def _parse_class(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.replace(",", " ").split())
    except ValueError as exc:
        raise ValidationError(f"class must be a list of integers, got {text!r}") from exc


def _load(path: str) -> tuple[LiftedGraphMap, str]:
    track = dataio.load_dataset(path)
    return track, dataio.dataset_hash(track)


def cmd_ingest(args) -> int:
    track, ds_hash = _load(args.dataset)
    print(f"dataset_hash: {ds_hash}")
    print(f"rank: {track.rank}")
    print(f"edges: {len(track.edges)}")
    print(f"k0: {track.k0 if track.k0 is not None else 'not primitive (warning)'}")
    print(f"inverse_data: {'yes' if track.inverse is not None else 'no'}")
    if track.k0 is None:
        print("warning: incidence matrix is not primitive; "
              "convergence-window checks are disabled", file=sys.stderr)
    return EXIT_OK


def cmd_charpoly(args) -> int:
    track, _ = _load(args.dataset)
    M = mat_pow(build_transition_matrix(track), args.p)
    F = char_poly(M)
    out = {
        "dim": F.dim,
        "rank": F.rank,
        "power": args.p,
        "coefficients": [
            [[list(e), c] for e, c in coeff.to_pairs()] for coeff in F.coeffs
        ],
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_support(args) -> int:
    """Print the hull of the p-th power's support by the subcommand's route."""
    track, _ = _load(args.dataset)
    hull = args.route(track, args.p)
    print(json.dumps({"p": args.p, "hull": [list(v) for v in hull]}, sort_keys=True))
    return EXIT_OK


def cmd_cone(args) -> int:
    track, _ = _load(args.dataset)
    dual, cone, _ = subcone_models(track, args.p_max, None)
    out = {
        "p_max": dual.p_max,
        "k0": dual.k0,
        "C": dual.C,
        "low_confidence": dual.low_confidence,
        "facets": [
            {"u": list(f.u), "slope": f"{f.slope.numerator}/{f.slope.denominator}",
             "c_window": f.c_window}
            for f in dual.facets
        ],
        "fibered_cone_generators": [list(g) for g in cone.generators],
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_bound(args) -> int:
    track, ds_hash = _load(args.dataset)
    check_power_cap((args.p_max,), "declared power")
    alpha = FiberedClass(_parse_class(args.alpha))
    dual, cone, P = subcone_models(track, args.p_max, args.slope_cap)
    cert = certify(
        track, dual, cone, P, alpha, args.p_max, ds_hash,
        safety=args.safety, kappa=args.kappa, allow_mirror=args.mirror,
        box_radius=args.box_radius,
    )
    text = dataio.emit_certificate(cert)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write certificate file: {exc}") from exc
    print(text, end="")
    if cert.status != "ok":
        print("inconclusive: " + "; ".join(cert.diagnostics), file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_sweep(args) -> int:
    missing = [opt for opt, value in (("--base", args.base), ("--direction", args.direction))
               if value is None]
    if not args.classes and missing:
        raise ValidationError("sweep needs --classes, or --base and --direction; "
                              f"missing {' and '.join(missing)}")
    track, ds_hash = _load(args.dataset)
    check_power_cap((args.p_max,), "declared power")
    if args.classes:
        try:
            classes = [dataio.json_ints(c, "--classes entry") for c in json.loads(args.classes)]
        except (ValueError, TypeError) as exc:
            raise ValidationError(
                f"--classes must be a JSON list of integer lists: {exc}"
            ) from exc
    else:
        base = _parse_class(args.base)
        direction = _parse_class(args.direction)
        if len(base) != len(direction):
            raise ValidationError("--base and --direction must have equal length")
        classes = [
            tuple(b + j * d for b, d in zip(base, direction))
            for j in range(args.start, args.stop)
        ]
    dual, cone, P = subcone_models(track, args.p_max, args.slope_cap)
    rows = sweep(
        track, dual, cone, P, classes, args.p_max, ds_hash,
        safety=args.safety, kappa=args.kappa, allow_mirror=args.mirror,
    )
    if args.format == "csv":
        print(dataio.sweep_to_csv(rows), end="")
    else:
        for row in rows:
            print(
                f"alpha={row.alpha} n={row.n} covol2={row.covol2} "
                f"systole2={row.systole2} K={row.K} "
                f"bound={row.bound} normalized={row.normalized} status={row.status}"
            )
    not_ok = [row for row in rows if row.status != "ok"]
    for row in not_ok:
        print(f"class {' '.join(map(str, row.alpha))}: {row.status}", file=sys.stderr)
    return EXIT_INCONCLUSIVE if not_ok else EXIT_OK


def cmd_verify(args) -> int:
    track, ds_hash = _load(args.dataset)
    cert = dataio.load_certificate(args.certificate)
    result = verify_certificate(cert, track, ds_hash)
    print(f"verification: {result.status}"
          + (f" ({result.reason})" if result.reason else ""))
    if result.status == "pass":
        return EXIT_OK
    if result.status == "unverifiable":
        return EXIT_INCONCLUSIVE
    return EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibercert",
        description="Fibered-cone reconstruction and curve-graph "
        "translation-length bound certificates from lifted train-track maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("dataset", help="dataset JSON file")

    p = sub.add_parser("ingest", help="validate a dataset and print its hash")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("charpoly", help="characteristic polynomial of the p-th power")
    common(p)
    p.add_argument("--p", type=int, default=1)
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("omega", help="hull of the p-th power's support (semiring route)")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_support, route=support_of_power)

    p = sub.add_parser("oracle", help="hull of the p-th power's support by path substitution")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_support, route=lambda track, q: oracle_iterate(track, q)[-1])

    p = sub.add_parser("cone", help="reconstruct the dual and fibered cones")
    common(p)
    p.add_argument("--p-max", type=int, default=20)
    p.set_defaults(func=cmd_cone)

    def bound_opts(p):
        p.add_argument("--p-max", type=int, default=32)
        p.add_argument("--slope-cap", type=_parse_fraction, default=Fraction(1, 2),
                       help="axis-centered subcone slope bound (default 1/2)")
        p.add_argument("--safety", type=int, default=1,
                       help="obstacle dilation margin")
        p.add_argument("--kappa", type=int, default=4,
                       help="box radius multiple of n^(1/r)")
        p.add_argument("--mirror", action="store_true",
                       help="enable mirror mode for negative powers")

    p = sub.add_parser("bound", help="produce a bound certificate for one class")
    common(p)
    p.add_argument("--alpha", required=True, help="class, e.g. '1,9'")
    p.add_argument("--out", default=None, help="also write the certificate here")
    p.add_argument("--box-radius", type=int, default=None)
    bound_opts(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="certify a sequence of classes")
    common(p)
    p.add_argument("--base", help="base class, e.g. '1,5'")
    p.add_argument("--direction", help="direction, e.g. '0,2'")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--stop", type=int, default=10)
    p.add_argument("--classes", default=None,
                   help="explicit JSON list of classes (overrides base/direction)")
    p.add_argument("--format", choices=["text", "csv"], default="csv")
    bound_opts(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="independently re-check a certificate")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 2:  # argparse's usage-error code, which here means inconclusive
            raise SystemExit(EXIT_VALIDATION) from None
        raise
    try:
        return args.func(args)
    except (ValidationError, SubconeError, CapabilityError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
