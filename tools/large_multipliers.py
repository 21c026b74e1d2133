"""Time the preimage and the maps at large multipliers, the table that
ROADMAP's State section keeps.

Usage, from the root of a checkout (its ``src`` is imported):

    python3 tools/large_multipliers.py [ALPHA ...]

For each ALPHA (21 and 31 by default) it times generate_preimage(C,
[ALPHA, 1]) for the curve C = {y2 = x1^3} in E x E, on y^2 = x^3 + 1
(C_3) and on the dense curve y^2 = x^3 - 45x + 53.  It then times
reading the fields r, s and t of multiplication_maps(alpha, curve) for
alpha = 15 and 21 on the dense curve.  Every figure is one run, from
fresh maps, in seconds of wall time.  With the defaults it takes about a
minute on a 2-core machine, so no test and no CI job runs it; compare two
checkouts by running it in each, in alternating order.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from ellprod.curves import WeierstrassCurve, multiplication_maps  # noqa: E402
from ellprod.isogenies import DiagonalIsogeny  # noqa: E402
from ellprod.preimages import generate_preimage  # noqa: E402
from ellprod.products import make_cn_curve  # noqa: E402

CURVES = (("y^2=x^3+1 (C_3)", WeierstrassCurve(0, 1)),
          ("y^2=x^3-45x+53", WeierstrassCurve(-45, 53)))
MAPS_ALPHAS = (15, 21)


def _timed(run):
    """The wall time of one call of run, in seconds."""
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def _read_fields(alpha, curve):
    maps = multiplication_maps(alpha, curve)
    return maps.r, maps.s, maps.t


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("alphas", nargs="*", type=int, default=[21, 31])
    args = parser.parse_args(argv)
    if 0 in args.alphas:
        parser.error("every ALPHA must be nonzero")
    print("| curve of C (C = y2 - x1^3) | %s |"
          % " | ".join("[%d,1]" % a for a in args.alphas))
    print("|---|%s" % ("---|" * len(args.alphas)))
    for name, curve in CURVES:
        C = make_cn_curve(curve, curve, 3)
        times = [_timed(lambda: generate_preimage(C, DiagonalIsogeny([a, 1])))
                 for a in args.alphas]
        print("| %s | %s |" % (name, " | ".join("%.2f s" % t for t in times)))
    name, curve = CURVES[1]
    for alpha in MAPS_ALPHAS:
        t = _timed(lambda: _read_fields(alpha, curve))
        print("r, s, t of [%d] on %s: %.3f s" % (alpha, name, t))


if __name__ == "__main__":
    main()
