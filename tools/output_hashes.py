"""Print sha256 hashes of the program's outputs on fixed inputs, so that a
change that must keep output byte-identical can be checked against the
hashes recorded in ``tools/output_hashes.json``.

Usage, from anywhere (the ``src`` of the checkout this file belongs to
is imported, and the script works from that checkout's root):

    python3 tools/output_hashes.py [--write | --check] [PART ...]

PART is any of ``preimage-fresh``, ``oracle-scan``, ``cli-cold``,
``curve-maps``, ``symbolic-maps``; all by default.  Each line is
``<part> [seed <n>] <sha256 hex>``.  ``--write`` also records the lines
of the given parts in ``tools/output_hashes.json`` (other parts' entries
are kept); ``--check`` compares them with it instead, prints ``ok`` or
``CHANGED`` (with both hashes) per line, and exits 1 unless every line
is recorded and equal.  A deliberate change of output is recorded by
``--write``.  Running every part takes about a minute and a half on a
2-core machine, so no test runs it.  The jobs are the benchmark's: the
job lists of ``perfbench/joblists.py`` at 20 seconds, set up and run by
the workload's job class in ``perfbench/workloads.py``.  The hashed
texts are laid out as follows.

preimage-fresh, seeds 1..3 (204 timed jobs each, warm-up excluded):
    json.dumps([[equation texts, excluded-locus t texts] per timed job])
    where the texts are str() of the MultiPoly results of
    generate_preimage, in order.

oracle-scan, seed 1 (192 timed jobs, warm-up excluded):
    json.dumps([reports per timed job]); a job's reports are, per prime
    in order, verify_maps_vs_group_law for each factor and then
    verify_preimage_membership, each on one PrimeFieldCtx per prime: the
    benchmark's per-factor maps checks (tuples print as JSON lists).

cli-cold, seeds 1..3 (169 jobs each, the warm-up first):
    b"%d\\n%s\\n%s\\n" % (exit code, stdout, stderr) per job,
    concatenated; every job, the warm-up too, runs as a timed job of the
    benchmark: a fresh ``python -m ellprod.cli`` with the variety files
    of the job list in its working directory.

curve-maps (for each of the curves (A, B) = (-1, 0), (0, 1), (2, 3),
(-7, 6), (5, -3) in turn, alpha in 1..21 then -1..-21):
    newline-joined repr of [alpha, r, s, t, r~, t~] of
    multiplication_maps(alpha, curve).

symbolic-maps (alpha in 1..7 then -1..-7):
    newline-joined repr of [(alpha, r, s, t, r~, t~)] (a one-element
    list per line) of multiplication_maps(alpha).
"""

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import joblists  # noqa: E402
import workloads  # noqa: E402
from ellprod import curves  # noqa: E402

SECONDS = 20
SEEDS = (1, 2, 3)
RECORD = os.path.join(ROOT, "tools", "output_hashes.json")
MAP_CURVES = ((-1, 0), (0, 1), (2, 3), (-7, 6), (5, -3))
FIELDS = ("r", "s", "t", "r_tilde", "t_tilde")


def _sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _outputs(workload, lists):
    """The outputs of the timed jobs of lists, run by the benchmark's job class."""
    work = workloads.WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as workdir:
        ctx = work.setup(lists, workdir)
        return [work.run(ctx, i) for i in range(len(lists["timed"]))]


def preimage_fresh():
    for seed in SEEDS:
        texts = [[[str(eq) for eq in pre.equations],
                  [str(row["t"]) for row in pre.excluded_locus]]
                 for pre in _outputs("preimage-fresh", joblists.preimage_fresh(seed, SECONDS))]
        yield "seed %d %s" % (seed, _sha(json.dumps(texts)))


def oracle_scan():
    reports = _outputs("oracle-scan", joblists.oracle_scan(1, SECONDS))
    yield "seed 1 %s" % _sha(json.dumps(reports))


def cli_cold():
    for seed in SEEDS:
        lists = joblists.cli_cold(seed, SECONDS)
        # the warm-up jobs run as the first timed jobs of a set-up without warm-up
        lists.update(warmup=[], timed=lists["warmup"] + lists["timed"])
        outputs = _outputs("cli-cold", lists)
        yield "seed %d %s" % (seed, _sha(b"".join(b"%d\n%s\n%s\n" % out for out in outputs)))


def curve_maps():
    lines = []
    for A, B in MAP_CURVES:
        for alpha in list(range(1, 22)) + list(range(-1, -22, -1)):
            maps = curves.multiplication_maps(alpha, curves.WeierstrassCurve(A, B))
            lines.append(repr([alpha] + [getattr(maps, f) for f in FIELDS]))
    yield _sha("\n".join(lines))


def symbolic_maps():
    lines = []
    for alpha in list(range(1, 8)) + list(range(-1, -8, -1)):
        maps = curves.multiplication_maps(alpha)
        lines.append(repr([(alpha,) + tuple(getattr(maps, f) for f in FIELDS)]))
    yield _sha("\n".join(lines))


PARTS = {
    "preimage-fresh": preimage_fresh,
    "oracle-scan": oracle_scan,
    "cli-cold": cli_cold,
    "curve-maps": curve_maps,
    "symbolic-maps": symbolic_maps,
}


def main(argv):
    os.chdir(ROOT)  # so that workloads.child_env() gives CLI children this checkout's src
    mode = argv[0] if argv[:1] in (["--write"], ["--check"]) else None
    parts = argv[1:] if mode else argv
    unknown = [part for part in parts if part not in PARTS]
    if unknown:
        sys.exit("unknown part(s) %s; choose from %s"
                 % (", ".join(unknown), ", ".join(PARTS)))
    record = {}
    if mode and os.path.exists(RECORD):
        with open(RECORD) as fh:
            record = json.load(fh)
    changed = 0
    for part in parts or PARTS:
        for line in PARTS[part]():
            key, digest = ("%s %s" % (part, line)).rsplit(" ", 1)
            if mode == "--check":
                ok = record.get(key) == digest
                changed += not ok
                print(key, digest, "ok" if ok else "CHANGED (recorded %s)"
                      % record.get(key), flush=True)
            else:
                record[key] = digest
                print(key, digest, flush=True)
    if mode == "--write":
        with open(RECORD, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if changed:
        sys.exit("%d line(s) differ from %s" % (changed, RECORD))


if __name__ == "__main__":
    main(sys.argv[1:])
