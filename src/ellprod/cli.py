"""Command-line front end.

Subcommands: certify, preimage, degree, constants, bounds, oracle.
Every report is JSON on stdout with schema_version "1" and a canonical
echo of the parsed inputs; no timestamps, so identical invocations give
byte-identical output.  Exit codes: 0 success (or CertifiedTransverse),
1 Inconclusive verdict or oracle failure, 2 input error (any ValueError,
argparse's usage errors included), 3 internal fault (traceback on
stderr), 141 stdout closed before the report was written (no message).

Varieties are read from JSON files (they carry polynomial text that goes
through the parser); isogenies are inline JSON arrays like '[2,1]'.

Each process runs one subcommand, so the module top imports only what
every subcommand needs: the loaders and each cmd_* import the modules
they run.  bounds loads heights and mpmath alone, no polynomial, curve,
product or isogeny module; constants loads heights and mpmath with the
curves; the other subcommands load no heights and no mpmath.
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .arith import unlimited_int_str

SCHEMA_VERSION = "1"


class InputError(ValueError):
    pass


def _load_variety(path):
    """The variety of a JSON file, and its canonical echo."""
    from .products import subvariety_from_dict, subvariety_to_dict
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read variety file: %s" % exc)
    except json.JSONDecodeError as exc:
        raise InputError("variety file is not valid JSON: %s" % exc)
    try:
        V = subvariety_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad variety payload: %s" % exc)
    return V, subvariety_to_dict(V)


def _load_isogeny(text):
    from .isogenies import DiagonalIsogeny
    from .products import exact_int
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("isogeny must be a JSON array: %s" % exc)
    if isinstance(data, dict) and "alphas" in data:
        data = data["alphas"]
    if not isinstance(data, list):
        raise InputError("isogeny must be a JSON array of integers")
    try:
        return DiagonalIsogeny([exact_int(a) for a in data])
    except (TypeError, ValueError) as exc:
        raise InputError("bad isogeny: %s" % exc)


def _load_int_list(text, what):
    from .products import exact_int
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("%s must be a JSON array: %s" % (what, exc))
    if isinstance(data, list):
        try:
            return [exact_int(v) for v in data]
        except ValueError:
            pass
    raise InputError("%s must be a JSON array of integers" % what)


def _decimal(text):
    """A real option as the exact Fraction of its decimal text, so that a
    bound encloses the number given and not its nearest float.  Its float
    (the echoed value) must be finite, and nonzero unless the text is 0:
    that bounds the exponent, so '1e-999999999' cannot make a huge
    Fraction."""
    from decimal import Decimal, InvalidOperation
    try:
        echo, exact = float(text), Decimal(text)
    except (ValueError, InvalidOperation):
        echo = exact = None
    if exact is None or not math.isfinite(echo) or (echo == 0) != (exact == 0):
        raise argparse.ArgumentTypeError(
            "%r is not a finite decimal in the range of a float" % text)
    return Fraction(exact)


def _report(command, inputs, result):
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "inputs": inputs, "result": result}


def _emit(report, out_path=None):
    # Exact integers longer than the interpreter's int->str digit limit are
    # valid output, so the limit is lifted for this conversion only; argument
    # parsing stays limited, and heights.MAX_EXACT_DIGITS bounds the length.
    with unlimited_int_str():
        text = json.dumps(report, indent=2)
    # the file first: a file that cannot be written leaves only the error line
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError("cannot write report file: %s" % exc)
    print(text)


# The criteria that need --isogeny, each with the checker in certificates
# it runs on the variety and the isogeny.
ISOGENY_CRITERIA = {
    "auto": "certify_auto",
    "corollary-curves": "check_corollary_curves",
    "theorem-main": "check_theorem_main",
    "theorem-weak": "check_theorem_weak",
}


def cmd_certify(args):
    crit = args.criterion
    if crit in ISOGENY_CRITERIA and not args.isogeny:
        raise InputError("--isogeny is required for criterion %s" % crit)
    from . import certificates
    V, echo = _load_variety(args.variety)
    inputs = {"variety": echo}
    if crit in ISOGENY_CRITERIA:
        phi = _load_isogeny(args.isogeny)
        inputs["isogeny"] = list(phi.alphas)
        cert = getattr(certificates, ISOGENY_CRITERIA[crit])(V, phi)
    elif crit == "theorem-a":
        if args.primes is None:
            raise InputError("theorem-a needs --primes")
        primes = _load_int_list(args.primes, "--primes")
        inputs["primes"] = primes
        cert = certificates.check_theorem_a(V, primes)
    elif crit == "corollary-identity":
        if (args.n is None) == (args.p is None):
            raise InputError("corollary-identity needs exactly one of --n / --p")
        if args.n is not None:
            inputs["n"] = args.n
            cert = certificates.check_corollary_identity(V, n=args.n)
        else:
            inputs["p"] = args.p
            cert = certificates.check_corollary_identity(V, p=args.p)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError("unknown criterion %r" % crit)
    _emit(_report("certify", inputs, {"certificate": cert.to_dict()}))
    return 0 if cert.certified() else 1


def cmd_preimage(args):
    from .preimages import generate_preimage
    V, echo = _load_variety(args.variety)
    phi = _load_isogeny(args.isogeny)
    pre = generate_preimage(V, phi)
    inputs = {"variety": echo, "isogeny": list(phi.alphas)}
    result = {
        "equations": [str(eq) for eq in pre.equations],
        "excluded_locus": [{"j": row["j"], "alpha": row["alpha"],
                            "t": str(row["t"])} for row in pre.excluded_locus],
        "multidegrees": pre.degrees.rows(),
        "total_degree": pre.total_degree(),
    }
    _emit(_report("preimage", inputs, result))
    return 0


def cmd_degree(args):
    from .products import preimage_multidegrees
    V, echo = _load_variety(args.variety)
    phi = _load_isogeny(args.isogeny)
    table = preimage_multidegrees(V, phi)
    inputs = {"variety": echo, "isogeny": list(phi.alphas)}
    result = {
        "variety_multidegrees": V.degrees.rows(),
        "variety_total_degree": V.total_degree(),
        "preimage_multidegrees": table.rows(),
        "preimage_total_degree": table.total_degree(),
        "isogeny_degree": phi.degree(),
    }
    _emit(_report("degree", inputs, result))
    return 0


def _load_curves(text):
    from .curves import WeierstrassCurve
    from .products import exact_int
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("--curves must be JSON: %s" % exc)
    if isinstance(data, dict):
        data = [data]
    try:
        return [WeierstrassCurve(exact_int(c["A"]), exact_int(c["B"])) for c in data]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad curve list: %s" % exc)


def _working_prec(args):
    """--prec, or the working precision heights uses by default."""
    from .heights import DEFAULT_PREC
    return DEFAULT_PREC if args.prec is None else args.prec


def cmd_constants(args):
    # heights (and mpmath) after the curves: loaded before them, mpmath
    # raised this subcommand's peak RSS from 18.7 to 20.3 MB
    if args.curves:
        curves = _load_curves(args.curves)
        inputs = {"curves": [{"A": E.A, "B": E.B} for E in curves]}
    elif args.variety:
        V, echo = _load_variety(args.variety)
        curves = list(V.system.curves)
        inputs = {"variety": echo}
    else:
        raise InputError("constants needs --curves or --variety")
    from .heights import curve_constants, directed_str
    prec = _working_prec(args)
    inputs["better"] = bool(args.better)
    inputs["precision_bits"] = prec
    rows, sums = curve_constants(curves, args.better, prec)
    texts = [[directed_str(c, "up") for c in row] for row in rows + [sums]]
    result = {"per_curve": [{"A": E.A, "B": E.B, "c1": c1, "c2": c2, "c3": c3}
                            for E, (c1, c2, c3) in zip(curves, texts)]}
    result.update(zip(("c1_sum", "c2_sum", "c3_sum"), texts[-1]), rounding="up")
    _emit(_report("constants", inputs, result))
    return 0


def cmd_bounds(args):
    from . import heights
    kind = args.kind
    prec = _working_prec(args)
    if kind == "c0":
        val = heights.c0(args.d1, args.d2, args.m, method=args.method, prec=prec)
        inputs = {"kind": kind, "d1": args.d1, "d2": args.d2, "m": args.m,
                  "method": args.method, "precision_bits": prec}
        result = {"value": heights.directed_str(val, "up"), "rounding": "up"}
    elif kind == "zhang":
        val = heights.zhang_special_bound(args.n_factors, args.h2q, args.c3,
                                          prec=prec)
        inputs = {"kind": kind, "N": args.n_factors, "h2_Q": float(args.h2q),
                  "c3_product": float(args.c3), "precision_bits": prec}
        result = {"value": heights.directed_str(val, "up"), "rounding": "up"}
    elif kind == "bezout":
        trivial, improved = heights.bezout_intersection_bounds(
            args.deg_pre, args.h2_pre, args.deg_b, args.h2_b, args.dim_b,
            args.n_factors, args.deg_phi, prec=prec)
        inputs = {"kind": kind, "deg_pre": args.deg_pre,
                  "h2_pre": float(args.h2_pre), "deg_B": args.deg_b,
                  "h2_B": float(args.h2_b), "dim_B": args.dim_b,
                  "N": args.n_factors, "deg_phi": args.deg_phi,
                  "precision_bits": prec}
        result = {"trivial": heights.directed_str(trivial, "up"),
                  "improved": heights.directed_str(improved, "up"),
                  "rounding": "up"}
    elif kind == "galateau-lambda":
        val = heights.galateau_lambda(args.n_factors, args.k)
        inputs = {"kind": kind, "N": args.n_factors, "k": args.k}
        result = {"value": val, "rounding": "exact"}
    elif kind == "essential-minimum":
        rep = heights.essential_minimum_image_bounds(
            args.n_factors, args.r, args.dl, args.alpha, args.degc,
            mode=args.mode, prec=prec)
        inputs = {"kind": kind, "precision_bits": prec}
        inputs.update(rep.inputs)
        result = rep.to_dict()
    else:  # pragma: no cover
        raise InputError("unknown bound kind %r" % kind)
    _emit(_report("bounds", inputs, result))
    return 0


def cmd_oracle(args):
    from .oracle import PrimeFieldCtx, verify_factor_maps, verify_preimage_membership
    from .preimages import generate_preimage
    V, echo = _load_variety(args.variety)
    phi = _load_isogeny(args.isogeny)
    primes = _load_int_list(args.primes, "--primes")
    if not primes:  # an empty list would check nothing and report ok
        raise InputError("--primes must name at least one prime")
    inputs = {"variety": echo, "isogeny": list(phi.alphas),
              "primes": primes}
    pre = generate_preimage(V, phi)
    results = []
    all_ok = True
    for p in primes:
        ctx = PrimeFieldCtx(p, V.system)
        maps_reports = verify_factor_maps(ctx, phi.alphas)
        membership = verify_preimage_membership(ctx, pre)
        all_ok = all_ok and membership["ok"] and all(rep["ok"] for rep in maps_reports)
        results.append({"p": p, "maps": maps_reports, "membership": membership})
    report = _report("oracle", inputs, {"ok": all_ok, "per_prime": results})
    _emit(report, args.out)
    return 0 if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ellprod",
        description="Preimages of subvarieties under diagonal isogenies on "
                    "products of elliptic curves: equations, transversality "
                    "certificates, degree bookkeeping, height-bound "
                    "constants, and a finite-field oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="emit a transversality certificate")
    p.add_argument("--variety", required=True, help="subvariety JSON file")
    p.add_argument("--isogeny", help="inline JSON array, e.g. '[2,1]'")
    p.add_argument("--criterion", default="auto",
                   choices=["auto", "corollary-curves", "theorem-main",
                            "theorem-weak", "theorem-a", "corollary-identity"])
    p.add_argument("--primes", help="JSON array for theorem-a")
    p.add_argument("--n", type=int, help="integer for corollary-identity")
    p.add_argument("--p", type=int, help="prime for corollary-identity")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("preimage", help="generate preimage equations")
    p.add_argument("--variety", required=True)
    p.add_argument("--isogeny", required=True)
    p.set_defaults(func=cmd_preimage)

    p = sub.add_parser("degree", help="degree and multidegree bookkeeping")
    p.add_argument("--variety", required=True)
    p.add_argument("--isogeny", required=True)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("constants", help="per-curve height-comparison constants")
    p.add_argument("--curves", help="inline JSON, e.g. '[{\"A\":0,\"B\":1}]'")
    p.add_argument("--variety", help="subvariety JSON file (its curves)")
    p.add_argument("--better", action="store_true")
    p.add_argument("--prec", type=int)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("bounds", help="explicit height/degree bound values")
    p.add_argument("--kind", required=True,
                   choices=["c0", "zhang", "bezout", "galateau-lambda",
                            "essential-minimum"])
    p.add_argument("--prec", type=int)
    p.add_argument("--d1", type=int, default=0)
    p.add_argument("--d2", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--method", default="double_sum",
                   choices=["double_sum", "harmonic"])
    p.add_argument("--n-factors", type=int, default=2)
    p.add_argument("--h2q", type=_decimal, default="0")
    p.add_argument("--c3", type=_decimal, default="0")
    p.add_argument("--deg-pre", type=int, default=1)
    p.add_argument("--h2-pre", type=_decimal, default="0")
    p.add_argument("--deg-b", type=int, default=1)
    p.add_argument("--h2-b", type=_decimal, default="0")
    p.add_argument("--dim-b", type=int, default=1)
    p.add_argument("--deg-phi", type=int, default=1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--dl", type=int, default=1)
    p.add_argument("--alpha", type=int, default=2)
    p.add_argument("--degc", type=int, default=1)
    p.add_argument("--mode", default="smart", choices=["smart", "naive"])
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("oracle", help="finite-field brute-force verification")
    p.add_argument("--variety", required=True)
    p.add_argument("--isogeny", required=True)
    p.add_argument("--primes", required=True, help="JSON array, e.g. '[7,11,13]'")
    p.add_argument("--out", help="also write the report to this path")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows up here, not at exit
        return code
    except BrokenPipeError:  # nobody reads the report
        return 141
    except ValueError as exc:  # InputError and the library's input errors
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception:  # a fault of ellprod itself, not of the input
        import traceback
        traceback.print_exc()
        return 3


def run():
    """Program entry (python -m ellprod.cli and the ellprod script): main,
    then exit with its code.  After a closed stdout, fd 1 is pointed at
    devnull so the interpreter's exit-time flush stays quiet too; main
    itself leaves the streams of its caller alone."""
    code = main()
    if code == 141:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    run()
