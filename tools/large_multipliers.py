"""Time the preimage and the maps at large multipliers, the table that
ROADMAP's State section keeps.

Usage, from the root of a checkout (its ``src`` is imported):

    python3 tools/large_multipliers.py [ALPHA ...]

For each ALPHA (21 and 31 by default) it times generate_preimage(C,
[ALPHA, 1]) for the curve C = {y2 = x1^3} in E x E, on y^2 = x^3 + 1
(C_3) and on the dense curve y^2 = x^3 - 45x + 53.  It then times
reading the fields r, s and t of multiplication_maps(alpha, curve) for
alpha = 15 and 21 on the dense curve.  Every figure is the least of
RUNS runs, as in ``tools/large_primes.py``, in seconds of wall time;
each run is on a new curve object, so its maps are built from nothing.
With the defaults it takes about a minute and a half on a 2-core
machine, so no test and no CI job runs it; compare two checkouts by
running it in each, in alternating order.
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

CURVES = (("y^2=x^3+1 (C_3)", (0, 1)), ("y^2=x^3-45x+53", (-45, 53)))
MAPS_ALPHAS = (15, 21)
# single runs of a figure spread by up to a quarter (the dense [31,1]
# read 13.6-16.8 s over three runs of one tree), so each figure is run
# this often and the least time is reported
RUNS = 3


def _least(make, run):
    """The least wall time, in seconds, of RUNS calls run(make()); make
    builds new objects for each call and is not timed."""
    times = []
    for _ in range(RUNS):
        arg = make()
        t0 = time.perf_counter()
        run(arg)
        times.append(time.perf_counter() - t0)
    return min(times)


def _cn_curve(A, B):
    """C = {y2 = x1^3} in E x E, E: y^2 = x^3 + Ax + B."""
    curve = WeierstrassCurve(A, B)
    return make_cn_curve(curve, curve, 3)


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
    for name, (A, B) in CURVES:
        times = [_least(lambda: _cn_curve(A, B),
                        lambda C: generate_preimage(C, DiagonalIsogeny([a, 1])))
                 for a in args.alphas]
        print("| %s | %s |" % (name, " | ".join("%.2f s" % t for t in times)))
    name, (A, B) = CURVES[1]
    for alpha in MAPS_ALPHAS:
        t = _least(lambda: WeierstrassCurve(A, B), lambda curve: _read_fields(alpha, curve))
        print("r, s, t of [%d] on %s: %.3f s" % (alpha, name, t))


if __name__ == "__main__":
    main()
