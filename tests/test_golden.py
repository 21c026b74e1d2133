"""Golden corpus: canonical outputs frozen as a fixture.

Refactors of the preimage path must leave every entry byte-identical:
the equations and excluded loci of generate_preimage(C_3, phi) for the
eight corpus isogenies, the printed symbolic multiplication maps, and the
certify_auto dicts of the C_3 cases the certificate tests use.  Texts up
to TEXT_LIMIT characters are stored whole; longer ones as sha256 plus
term count.

The fixture was written by the code it now guards.  Rewrite it only for
a deliberate change of output, and record that change:

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import hashlib
import json
import os
import sys

import pytest

from ellprod.certificates import certify_auto
from ellprod.curves import WeierstrassCurve, multiplication_maps
from ellprod.isogenies import DiagonalIsogeny
from ellprod.preimages import generate_preimage
from ellprod.products import make_cn_curve

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "data", "golden_corpus.json")
TEXT_LIMIT = 2048

C3 = make_cn_curve(WeierstrassCurve(0, 1), WeierstrassCurve(0, 1), 3)
PREIMAGE_ALPHAS = [[2, 1], [1, 5], [3, 3], [2, 2], [4, 1], [5, 5], [1, 7], [7, 7]]
MAPS_ALPHAS = [a for k in range(2, 6) for a in (k, -k)]
CERTIFY_ALPHAS = [[2, 1], [3, 3], [1, 1]]


def _key(alphas):
    return ",".join(str(a) for a in alphas)


def _frozen(p):
    text = str(p)
    if len(text) <= TEXT_LIMIT:
        return text
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "terms": len(p.terms)}


def preimage_entry(alphas):
    pre = generate_preimage(C3, DiagonalIsogeny(alphas))
    return {"equations": [_frozen(eq) for eq in pre.equations],
            "excluded_locus": [{"j": row["j"], "alpha": row["alpha"],
                                "t": _frozen(row["t"])}
                               for row in pre.excluded_locus]}


def maps_entry(alpha):
    maps = multiplication_maps(alpha)
    return {f: _frozen(getattr(maps, f))
            for f in ("r", "s", "t", "r_tilde", "t_tilde")
            if getattr(maps, f) is not None}


def certify_entry(alphas):
    return certify_auto(C3, DiagonalIsogeny(alphas)).to_dict()


def build_corpus():
    return {
        "preimages": {_key(a): preimage_entry(a) for a in PREIMAGE_ALPHAS},
        "maps": {str(a): maps_entry(a) for a in MAPS_ALPHAS},
        "certify_auto": {_key(a): certify_entry(a) for a in CERTIFY_ALPHAS},
    }


def _load():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("alphas", PREIMAGE_ALPHAS, ids=_key)
def test_preimage_matches_golden(alphas):
    assert preimage_entry(alphas) == _load()["preimages"][_key(alphas)]


@pytest.mark.parametrize("alpha", MAPS_ALPHAS)
def test_symbolic_maps_match_golden(alpha):
    assert maps_entry(alpha) == _load()["maps"][str(alpha)]


@pytest.mark.parametrize("alphas", CERTIFY_ALPHAS, ids=_key)
def test_certify_auto_matches_golden(alphas):
    # through JSON, as the CLI prints it
    got = json.loads(json.dumps(certify_entry(alphas)))
    assert got == _load()["certify_auto"][_key(alphas)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden.py --write")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(build_corpus(), fh, indent=1, sort_keys=True)
        fh.write("\n")
