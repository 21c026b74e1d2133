"""Set-up, one timed job, and the output check of each workload.

A workload object has
  reference              how to read the machine's speed (machine.py)
  setup(lists, workdir)  build the program's inputs and warm up; returns ctx
  run(ctx, i)            timed job i of lists["timed"]; returns its output
  check(ctx, i, out)     untimed semantic check; returns a list of problems

ellprod is imported inside setup, never at module import, so that a
fresh process can time its own set-up from before the import.  Library
functions are looked up through their module at call time, so the spans
of tracing.py see every call.
"""

import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import machine

HERE = os.path.dirname(os.path.abspath(__file__))
# No job at the parent comes near this; a job that passes it counts as
# failed, and a CLI child that passes it is killed.
JOB_CAP_S = 10.0


def _inputs(spec, products, curves, isogenies):
    E1, E2 = (curves.WeierstrassCurve(A, B) for A, B in spec["curves"])
    return (products.make_cn_curve(E1, E2, spec["n"]),
            isogenies.DiagonalIsogeny(spec["alphas"]))


def _checked_a_tuple(scans):
    """Some scan met a tuple off the excluded locus (the check is not vacuous)."""
    return any(r["iterated"] > r["excluded"] for r in scans)


class PreimageFresh:
    """Each job is one generate_preimage call on inputs never seen before."""

    reference = machine.RATIONAL

    def setup(self, lists, workdir):
        from ellprod import curves, isogenies, oracle, preimages, products
        ctx = SimpleNamespace(oracle=oracle, preimages=preimages, jobs=lists["timed"])
        ctx.inputs = [_inputs(j, products, curves, isogenies) for j in ctx.jobs]
        for spec in lists["warmup"]:
            preimages.generate_preimage(*_inputs(spec, products, curves, isogenies))
        return ctx

    def run(self, ctx, i):
        return ctx.preimages.generate_preimage(*ctx.inputs[i])

    def check(self, ctx, i, pre):
        """The exhaustive oracle agrees at the job's good primes 13..31, in
        order, until one has an F_p tuple on the preimage; some scan must
        have checked a tuple off the excluded locus.  (A preimage can have
        no F_p tuple at any of them, which is no fault of the program.)"""
        oracle = ctx.oracle
        scans = []
        for p in ctx.jobs[i]["check_primes"]:
            report = oracle.verify_preimage_membership(
                oracle.PrimeFieldCtx(p, pre.system), pre)
            if not report["ok"]:
                return ["oracle mismatch at p=%d: %r" % (p, report["mismatches"][:2])]
            scans.append(report)
            if report["image_on_subvariety"] > 0:
                break
        return [] if _checked_a_tuple(scans) else ["no oracle scan checked a tuple"]


class OracleScan:
    """Each job checks one preimage built in set-up at a short prime list,
    as ``ellprod oracle`` would: the group-law check of every factor's
    maps and the membership scan at each prime."""

    reference = machine.MODULAR

    def setup(self, lists, workdir):
        from ellprod import curves, isogenies, oracle, preimages, products
        ctx = SimpleNamespace(oracle=oracle, jobs=lists["timed"])
        ctx.pres = [preimages.generate_preimage(*_inputs(spec, products, curves, isogenies))
                    for spec in lists["preimages"]]
        for job in lists["warmup"]:
            self._scan(ctx, job)
        return ctx

    def _scan(self, ctx, job):
        oracle = ctx.oracle
        pre = ctx.pres[job["pre"]]
        reports = []
        for p in job["primes"]:
            field = oracle.PrimeFieldCtx(p, pre.system)
            for idx, alpha in enumerate(pre.isogeny.alphas):
                reports.append(oracle.verify_maps_vs_group_law(field, idx, alpha))
            reports.append(oracle.verify_preimage_membership(field, pre))
        return reports

    def run(self, ctx, i):
        return self._scan(ctx, ctx.jobs[i])

    def check(self, ctx, i, reports):
        problems = ["p=%d: report not ok" % r["p"] for r in reports if not r["ok"]]
        scans = [r for r in reports if "iterated" in r]
        if len(scans) != len(ctx.jobs[i]["primes"]):
            problems.append("%d membership scans for %d primes"
                            % (len(scans), len(ctx.jobs[i]["primes"])))
        if not _checked_a_tuple(scans):
            problems.append("no membership scan checked a tuple")
        return problems


def child_env():
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliCold:
    """Each job is one fresh ``python -m ellprod.cli`` process."""

    reference = machine.CHILD

    def setup(self, lists, workdir):
        from ellprod import certificates, polynomials, products
        ctx = SimpleNamespace(certificates=certificates, polynomials=polynomials,
                              products=products, workdir=workdir, env=child_env(),
                              jobs=lists["timed"], files=lists["files"],
                              trace_dir=None, stdout_seen={})
        for name, spec in lists["files"].items():
            with open(os.path.join(workdir, name), "w") as fh:
                json.dump(spec["variety"], fh)
        for job in lists["warmup"]:
            self._invoke(ctx, job, None)
        return ctx

    def _invoke(self, ctx, job, spans_path):
        if spans_path is None:
            cmd = [sys.executable, "-m", "ellprod.cli"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path]
        proc = subprocess.run(cmd + job["argv"], cwd=ctx.workdir, env=ctx.env,
                              capture_output=True, timeout=JOB_CAP_S)
        return proc.returncode, proc.stdout, proc.stderr

    def run(self, ctx, i):
        spans = None
        if ctx.trace_dir is not None:
            spans = os.path.join(ctx.trace_dir, "job%d.json" % i)
        return self._invoke(ctx, ctx.jobs[i], spans)

    def check(self, ctx, i, out):
        job = ctx.jobs[i]
        code, stdout, stderr = out
        if code not in job["expect"]:
            return ["exit code %d, expected %r; stderr %r" % (code, job["expect"], stderr[-300:])]
        key = json.dumps(job["argv"])
        if ctx.stdout_seen.setdefault(key, stdout) != stdout:
            return ["stdout differs from an earlier run of the same job"]
        if job["check"] == "error":
            if stdout or not (stderr.startswith(b"error:") or stderr.startswith(b"usage:")):
                return ["input error not reported on stderr alone"]
            return []
        try:
            report = json.loads(stdout)
        except ValueError as exc:
            return ["stdout is not JSON: %s" % exc]
        if report.get("schema_version") != "1":
            return ["schema_version %r" % report.get("schema_version")]
        return getattr(self, "_check_" + job["check"])(ctx, job, code, report["result"])

    def _check_certify(self, ctx, job, code, result):
        cert = result["certificate"]
        if (code == 0) != (cert["verdict"] == ctx.certificates.CERTIFIED):
            return ["exit code %d disagrees with verdict %s" % (code, cert["verdict"])]
        ok, problems = ctx.certificates.verify_certificate(cert)
        return [] if ok else ["certificate rejected: %r" % problems]

    def _table(self, ctx, job):
        spec = ctx.files[job["variety"]]
        a1, a2 = job["alphas"]
        return {(1, 0): 9 * a2 * a2, (0, 1): 6 * spec["n"] * a1 * a1}

    def _rows(self, rows):
        return {tuple(r["I"]): r["deg"] for r in rows}

    def _check_degree(self, ctx, job, code, result):
        expected = self._table(ctx, job)
        if self._rows(result["preimage_multidegrees"]) != expected:
            return ["preimage multidegrees %r, expected %r"
                    % (result["preimage_multidegrees"], expected)]
        if result["preimage_total_degree"] != sum(expected.values()):
            return ["preimage total degree disagrees with its table"]
        a1, a2 = job["alphas"]
        if result["isogeny_degree"] != (a1 * a2) ** 2:
            return ["isogeny degree %r" % result["isogeny_degree"]]
        return []

    def _check_preimage(self, ctx, job, code, result):
        ring = ctx.products.product_ring(2)
        for text in result["equations"] + [row["t"] for row in result["excluded_locus"]]:
            if str(ctx.polynomials.parse_poly(text, ring)) != text:
                return ["equation does not round-trip through parse_poly: %s" % text[:80]]
        if not result["equations"]:
            return ["no equations"]
        if self._rows(result["multidegrees"]) != self._table(ctx, job):
            return ["preimage multidegrees %r" % result["multidegrees"]]
        return []

    def _check_oracle(self, ctx, job, code, result):
        if not result["ok"]:
            return ["oracle reported a failure"]
        scans = [r["membership"] for r in result["per_prime"]]
        if len(scans) != len(json.loads(job["argv"][-1])):
            return ["%d membership scans for primes %s" % (len(scans), job["argv"][-1])]
        return [] if _checked_a_tuple(scans) else ["no membership scan checked a tuple"]

    def _check_numbers(self, ctx, job, code, result):
        """Every reported value is a finite decimal (or an exact integer)."""
        values = []

        def walk(node, key=None):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(v, k)
            elif isinstance(node, list):
                for v in node:
                    walk(v, key)
            elif key in ("value", "c1", "c2", "c3", "c1_sum", "c2_sum", "c3_sum",
                         "trivial", "improved"):
                values.append(node)
        walk(result)
        if not values:
            return ["no values reported"]
        for v in values:
            try:
                finite = math.isfinite(float(v))
            except (TypeError, ValueError):
                finite = False
            if not finite:
                return ["value %r is not a finite number" % (v,)]
        return []


WORKLOADS = {
    "preimage-fresh": PreimageFresh(),
    "oracle-scan": OracleScan(),
    "cli-cold": CliCold(),
}
