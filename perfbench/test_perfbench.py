"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import joblists
import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from ellprod import certificates, curves, isogenies, oracle, preimages, products  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
SECONDS = BENCH["run_seconds"]
NAMES = [w["name"] for w in BENCH["workloads"]]


def _lists(name, seed=7):
    return joblists.GENERATORS[name](seed, SECONDS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_lists(name):
    assert joblists.dumps(_lists(name)) == joblists.dumps(_lists(name))
    assert joblists.dumps(_lists(name)) != joblists.dumps(_lists(name, seed=8))


@pytest.mark.parametrize("name", NAMES)
def test_lists_are_big_enough_for_p90(name):
    # at least ten samples beyond the 90th percentile
    assert len(_lists(name)["timed"]) >= 100


def _key(spec):
    return json.dumps([spec["curves"], spec["n"], spec["alphas"]])


def test_preimage_fresh_inputs_never_repeat_and_warmup_is_disjoint():
    for seed in range(5):
        lists = _lists("preimage-fresh", seed)
        timed = [_key(j) for j in lists["timed"]]
        assert len(set(timed)) == len(timed)
        timed_curves = {json.dumps(j["curves"]) for j in lists["timed"]}
        assert not timed_curves & {json.dumps(j["curves"]) for j in lists["warmup"]}


def test_oracle_scan_warmup_is_disjoint():
    lists = _lists("oracle-scan")
    timed = {json.dumps(lists["preimages"][j["pre"]]["curves"]) for j in lists["timed"]}
    warm = {json.dumps(lists["preimages"][j["pre"]]["curves"]) for j in lists["warmup"]}
    assert not warm & timed


def _assert_good(p, curve_pairs, alphas):
    system = products.ProductSystem([curves.WeierstrassCurve(A, B) for A, B in curve_pairs])
    oracle.PrimeFieldCtx(p, system).require_separable(alphas)


def test_every_prime_is_good_for_its_job():
    lists = _lists("preimage-fresh")
    for job in lists["timed"] + lists["warmup"]:
        assert job["check_primes"]
        for p in job["check_primes"]:
            _assert_good(p, job["curves"], job["alphas"])
    lists = _lists("oracle-scan")
    for job in lists["timed"] + lists["warmup"]:
        pre = lists["preimages"][job["pre"]]
        assert job["primes"][0] <= 31
        for p in job["primes"]:
            _assert_good(p, pre["curves"], pre["alphas"])
    lists = _lists("cli-cold")
    for job in lists["timed"]:
        argv = job["argv"]
        if argv[0] == "oracle" and job["expect"] == [0]:
            spec = lists["files"][argv[argv.index("--variety") + 1]]
            alphas = json.loads(argv[argv.index("--isogeny") + 1])
            for p in json.loads(argv[argv.index("--primes") + 1]):
                _assert_good(p, spec["curves"], alphas)
        if "theorem-a" in argv and "--primes" in argv:
            primes = json.loads(argv[argv.index("--primes") + 1])
            assert all(p < 10 ** 13 for p in primes)
            assert all(map(certificates.is_prime, primes)) == (job["expect"] == [0])


def test_cli_jobs_cover_every_subcommand_and_bounds_kind():
    timed = _lists("cli-cold")["timed"]
    assert {j["argv"][0] for j in timed} == {
        "certify", "preimage", "degree", "constants", "bounds", "oracle"}
    kinds = {j["argv"][2] for j in timed if j["argv"][0] == "bounds" and j["expect"] == [0]}
    assert kinds == {"c0", "zhang", "bezout", "galateau-lambda", "essential-minimum"}
    argvs = [json.dumps(j["argv"]) for j in timed]
    assert len(set(argvs)) < len(argvs)  # some jobs repeat
    assert any(j["expect"] == [2] for j in timed)


def test_tracer_tells_call_sites_apart_and_uninstalls():
    original = preimages.exact_divide
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert preimages.exact_divide is not original
        E1, E2 = curves.WeierstrassCurve(-1, 1), curves.WeierstrassCurve(2, 3)
        V = products.make_cn_curve(E1, E2, 1)
        phi = isogenies.DiagonalIsogeny([2, 3])
        tracer.job = 0
        preimages.generate_preimage(V, phi)
        tracer.job = None
    finally:
        tracer.uninstall()
    assert preimages.exact_divide is original
    sites = {(s[0], s[1]) for s in tracer.spans}
    assert ("polynomials.exact_divide", "preimages") in sites
    assert ("polynomials.exact_divide", "curves") in sites
    top = [s for s in tracer.spans if s[4] == -1]
    assert [s[0] for s in top] == ["preimages.generate_preimage"]
    metrics = tracing.layer_metrics(tracer.records(), top[0][3] - top[0][2])
    assert metrics["curves.multiplication_maps.calls"] == 2
    assert 0 < metrics["share.polynomials.exact_divide.strip"] < 1


def _run(cwd, workload, seconds, trace=0):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", NAMES)
def test_every_job_passes_its_check_well_under_the_cap(name):
    # one block per workload: every job class, checked, timed
    proc = _run(ROOT, name, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    with open(os.path.join(ROOT, run.OUT_DIR, "%s-seed1-trace0.json" % name)) as fh:
        assert max(json.load(fh)["job_ms"]) < workloads.JOB_CAP_S * 1e3 / 4


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(str(tmp_path), NAMES[0], 1)
    assert proc.returncode != 0
    assert proc.stdout == ""
