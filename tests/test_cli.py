"""Tests for the ellprod command-line interface."""

import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from mpmath import nstr

from ellprod import heights
from ellprod.cli import main
from ellprod.curves import WeierstrassCurve
from ellprod.products import make_cn_curve, subvariety_to_dict

E01 = WeierstrassCurve(0, 1)


@pytest.fixture
def c3_file(tmp_path):
    V = make_cn_curve(E01, E01, 3)
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(subvariety_to_dict(V)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_report_envelope(capsys, c3_file):
    code, rep = run(capsys, ["degree", "--variety", c3_file,
                             "--isogeny", "[2,1]"])
    assert code == 0
    assert rep["schema_version"] == "1"
    assert rep["command"] == "degree"
    assert rep["inputs"]["isogeny"] == [2, 1]
    assert rep["inputs"]["variety"]["curves"] == [{"A": 0, "B": 1}] * 2
    assert set(rep) == {"schema_version", "command", "inputs", "result"}


def test_degree_values(capsys, c3_file):
    code, rep = run(capsys, ["degree", "--variety", c3_file,
                             "--isogeny", "[2,1]"])
    res = rep["result"]
    assert res["variety_total_degree"] == 27
    assert res["preimage_total_degree"] == 81
    assert res["isogeny_degree"] == 4
    assert {"I": [1, 0], "deg": 9} in res["variety_multidegrees"]
    # the alpha = 2 factor sits at position 1, scaling the indices that
    # omit it: (1,0) keeps 9, (0,1) picks up 18 * 2^2
    assert res["preimage_multidegrees"] == [{"I": [1, 0], "deg": 9},
                                            {"I": [0, 1], "deg": 72}]


def test_preimage_output(capsys, c3_file):
    code, rep = run(capsys, ["preimage", "--variety", c3_file,
                             "--isogeny", "[2,1]"])
    assert code == 0
    res = rep["result"]
    assert len(res["equations"]) == 1
    assert "x1^12" in res["equations"][0]
    assert res["excluded_locus"] == [{"j": 1, "alpha": 2, "t": "x1^3 + 1"}]
    assert res["total_degree"] == 81


def test_certify_exit_codes(capsys, c3_file):
    code, rep = run(capsys, ["certify", "--variety", c3_file,
                             "--isogeny", "[2,1]"])
    assert code == 0
    assert rep["result"]["certificate"]["verdict"] == "CertifiedTransverse"
    code, rep = run(capsys, ["certify", "--variety", c3_file,
                             "--isogeny", "[3,3]"])
    assert code == 1
    assert rep["result"]["certificate"]["verdict"] == "Inconclusive"


def test_certify_criteria_flags(capsys, c3_file):
    code, rep = run(capsys, ["certify", "--variety", c3_file,
                             "--criterion", "theorem-a",
                             "--primes", "[167,167]"])
    assert code == 0
    cert = rep["result"]["certificate"]
    assert cert["criterion"] == "TheoremA"
    code, _ = run(capsys, ["certify", "--variety", c3_file,
                           "--criterion", "corollary-identity", "--n", "5"])
    assert code == 0
    # exactly one of --n/--p
    code = main(["certify", "--variety", c3_file,
                 "--criterion", "corollary-identity"])
    capsys.readouterr()
    assert code == 2
    # theorem-a without primes
    code = main(["certify", "--variety", c3_file, "--criterion", "theorem-a"])
    capsys.readouterr()
    assert code == 2
    # missing isogeny for an isogeny criterion, reported before the variety
    # is read
    for criterion in ("auto", "corollary-curves", "theorem-main", "theorem-weak"):
        for variety in (c3_file, "missing.json"):
            code = main(["certify", "--variety", variety, "--criterion", criterion])
            assert code == 2
            assert capsys.readouterr() == (
                "", "error: --isogeny is required for criterion %s\n" % criterion)


def test_input_error_paths(capsys, c3_file, tmp_path):
    cases = [
        ["degree", "--variety", str(tmp_path / "missing.json"),
         "--isogeny", "[2,1]"],
        ["degree", "--variety", c3_file, "--isogeny", "not json"],
        ["degree", "--variety", c3_file, "--isogeny", "[2]"],       # arity
        ["degree", "--variety", c3_file, "--isogeny", "[2,0]"],     # zero
        ["degree", "--variety", c3_file, "--isogeny", "{\"x\":1}"],
        ["constants"],                                              # no source
        ["constants", "--curves", "[{\"A\":0}]"],
        ["bounds", "--kind", "c0", "--d1", "-1"],
        ["bounds", "--kind", "essential-minimum", "--alpha", "1", "--dl", "4"],
        ["oracle", "--variety", c3_file, "--isogeny", "[2,1]",
         "--primes", "[6]"],
        ["oracle", "--variety", c3_file, "--isogeny", "[2,1]",
         "--primes", "[7]", "--out", str(tmp_path)],              # a directory
        # numbers are JSON integers, never truncated or coerced
        ["certify", "--variety", c3_file, "--isogeny", "[2.5,1]"],
        ["certify", "--variety", c3_file, "--isogeny", "[true,1]"],
        ["degree", "--variety", c3_file, "--isogeny", "[\"2\",1]"],
        ["preimage", "--variety", c3_file, "--isogeny", "{\"alphas\": [2.0, 1]}"],
        ["certify", "--variety", c3_file, "--criterion", "theorem-a",
         "--primes", "[true,167]"],
        ["certify", "--variety", c3_file, "--criterion", "theorem-a",
         "--primes", "{}"],
        ["constants", "--curves", "[{\"A\": 0.9, \"B\": 1}]"],
        ["constants", "--curves", "[{\"A\": 0, \"B\": \"1\"}]"],
        ["constants", "--curves", "{\"A\": false, \"B\": 1}"],
    ]
    for argv in cases:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2, argv
        assert err.startswith("error:"), argv
        assert out == "", argv
    notjson = tmp_path / "bad.json"
    notjson.write_text("{nope")
    assert main(["degree", "--variety", str(notjson),
                 "--isogeny", "[1,1]"]) == 2
    capsys.readouterr()


def test_costly_equation_is_an_input_error(capsys, tmp_path):
    payload = subvariety_to_dict(make_cn_curve(E01, E01, 3))
    payload["equations"] = ["(x1+y1+x2+1)^50"]
    path = tmp_path / "costly.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    assert main(["degree", "--variety", str(path), "--isogeny", "[2,1]"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: bad variety payload: power too large at offset 12\n")


@pytest.mark.parametrize("field, value", [
    ("transverse", "false"),     # a string, not a JSON bool
    ("transverse", 0),
    ("dim", True),
    ("dim", 1.0),
    ("A", 0.9),
    ("deg", 9.9),
    ("I", [True, False]),
])
def test_variety_values_are_read_exactly(capsys, c3_file, tmp_path, field, value):
    # a value of the wrong JSON type is an input error, never coerced: the
    # string "false" is not a true flag and 9.9 is not the degree 9
    with open(c3_file) as fh:
        data = json.load(fh)
    if field == "A":
        data["curves"][0]["A"] = value
    elif field in ("deg", "I"):
        data["multidegrees"][0][field] = value
    else:
        data[field] = value
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(data))
    for argv in (["certify", "--isogeny", "[2,1]"], ["degree", "--isogeny", "[2,1]"]):
        code = main(argv[:1] + ["--variety", str(path)] + argv[1:])
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("error:") and not captured.out


def test_variety_table_with_a_repeated_row_is_refused(capsys, c3_file, tmp_path):
    # the last row used to win, so this file was read as the table (9, 18)
    with open(c3_file) as fh:
        data = json.load(fh)
    data["multidegrees"].append({"I": [1, 0], "deg": 5})
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(data))
    assert main(["degree", "--variety", str(path), "--isogeny", "[2,1]"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == ("error: bad variety payload: duplicate multidegree "
                            "index (1, 0)\n")


def test_variety_row_with_an_extra_key_still_loads(capsys, c3_file, tmp_path):
    # a variety file reads its rows as leniently as its top level; only a
    # certified payload, compared whole by verify_certificate, refuses the key
    with open(c3_file) as fh:
        data = json.load(fh)
    data["multidegrees"][0]["note"] = "from a survey"
    path = tmp_path / "annotated.json"
    path.write_text(json.dumps(data))
    code, rep = run(capsys, ["degree", "--variety", str(path), "--isogeny", "[2,1]"])
    assert code == 0
    assert rep["result"]["variety_multidegrees"] == [{"I": [1, 0], "deg": 9},
                                                     {"I": [0, 1], "deg": 18}]


def test_constants_command(capsys):
    code, rep = run(capsys, ["constants", "--curves",
                             "[{\"A\":0,\"B\":1},{\"A\":0,\"B\":1}]"])
    assert code == 0
    res = rep["result"]
    assert len(res["per_curve"]) == 2
    row = res["per_curve"][0]
    assert row["c1"].startswith("5.2411063970610275")
    assert row["c2"].startswith("5.5321063970610275")
    assert row["c3"].startswith("10.77321279412205515")
    assert res["c3_sum"].startswith("21.5464255882441103")
    assert res["rounding"] == "up"
    code, rep = run(capsys, ["constants", "--curves", "{\"A\":0,\"B\":1}",
                             "--better"])
    assert rep["result"]["per_curve"][0]["c1"].startswith("4.709")
    assert rep["inputs"]["better"] is True


def test_constants_from_variety(capsys, c3_file):
    code, rep = run(capsys, ["constants", "--variety", c3_file])
    assert code == 0
    assert len(rep["result"]["per_curve"]) == 2


def test_bounds_kinds(capsys):
    code, rep = run(capsys, ["bounds", "--kind", "c0", "--d1", "1", "--d2",
                             "1", "--m", "8"])
    assert code == 0
    assert rep["result"]["value"].startswith("6.01869693058628383")
    assert rep["result"]["rounding"] == "up"
    code, rep = run(capsys, ["bounds", "--kind", "c0", "--d1", "1", "--d2",
                             "1", "--m", "8", "--method", "harmonic"])
    assert rep["result"]["value"].startswith("6.01869693058628383")
    code, rep = run(capsys, ["bounds", "--kind", "zhang", "--n-factors", "3",
                             "--h2q", "0", "--c3", "1"])
    assert rep["result"]["value"] == "27.0"
    code, rep = run(capsys, ["bounds", "--kind", "bezout",
                             "--deg-pre", "243", "--h2-pre", "1",
                             "--deg-b", "3", "--h2-b", "1", "--dim-b", "1",
                             "--n-factors", "2", "--deg-phi", "25"])
    assert rep["result"]["trivial"].startswith("4633.6300623974")
    assert rep["result"]["improved"].startswith("185.345202495896")
    code, rep = run(capsys, ["bounds", "--kind", "galateau-lambda",
                             "--n-factors", "2", "--k", "1"])
    assert rep["result"]["value"] == 400
    assert rep["result"]["rounding"] == "exact"
    code, rep = run(capsys, ["bounds", "--kind", "essential-minimum",
                             "--n-factors", "2", "--r", "2", "--dl", "1",
                             "--alpha", "5", "--degc", "27"])
    rows = {r["label"]: r for r in rep["result"]["entries"]}
    assert rows["image_degree_bound_final"]["value"] == 16200
    assert rows["smart_multiplier_strong"]["symbolic_constant"] == "c7"
    assert rep["inputs"]["lambda"] == 400


@pytest.mark.parametrize("argv, message", [
    (["constants", "--curves", '[{"A":0,"B":1}]', "--prec", "1000000"], "prec"),
    (["constants", "--curves", "[]", "--prec", "63"], "prec"),
    (["bounds", "--kind", "c0", "--d1", "2", "--d2", "2", "--m", "3", "--prec", "1000000"],
     "prec"),
    (["bounds", "--kind", "essential-minimum", "--n-factors", "3", "--alpha", "5",
      "--prec", "100000"], "prec"),
    (["bounds", "--kind", "c0", "--d1", "100000", "--d2", "1", "--m", "1"], "c0"),
    (["bounds", "--kind", "bezout", "--dim-b", "100000"], "c0"),
])
def test_costly_height_requests_are_refused(capsys, argv, message):
    # each used to run for 7 to more than 60 s
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == {
        "prec": "error: working precision must be 64 to 20000 bits\n",
        "c0": "error: c0 takes d1 + d2 up to 20000, got 100001\n"}[message]


@pytest.mark.parametrize("argv, message", [
    (["--deg-pre", "-5", "--h2-pre", "-3", "--deg-b", "2"], "deg_pre and deg_b must be >= 1"),
    (["--h2-b", "-0.5"], "h2_pre and h2_b must be nonnegative"),
])
def test_impossible_bezout_inputs_are_refused(capsys, argv, message):
    # each used to print negative upper bounds with exit code 0
    assert main(["bounds", "--kind", "bezout"] + argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "error: %s\n" % message


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int->str digit limit in this Python")
def test_exact_integers_of_any_length_are_printed(capsys):
    limit = sys.get_int_max_str_digits()
    code = main(["bounds", "--kind", "galateau-lambda", "--n-factors", "2", "--k", "2000"])
    out = capsys.readouterr().out
    assert code == 0
    # the limit is lifted for the output only
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        value = json.loads(out)["result"]["value"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert value == heights.galateau_lambda(2, 2000)
    assert value.bit_length() > 4300 * 4


def test_oracle_command(capsys, c3_file, tmp_path):
    out = tmp_path / "oracle.json"
    code, rep = run(capsys, ["oracle", "--variety", c3_file,
                             "--isogeny", "[2,1]", "--primes", "[7,11]",
                             "--out", str(out)])
    assert code == 0
    assert rep["result"]["ok"] is True
    per_p = rep["result"]["per_prime"]
    assert [r["p"] for r in per_p] == [7, 11]
    assert per_p[0]["membership"]["mode"] == "exhaustive"
    assert len(per_p[0]["maps"]) == 2
    assert set(per_p[0]) == {"p", "maps", "membership"}
    # --out mirrors stdout
    assert json.loads(out.read_text()) == rep


def test_oracle_checks_equal_factors_once(capsys, c3_file, monkeypatch):
    # on E x E with equal multipliers the second factor's maps report is
    # the first's with its own curve_index, as a fresh per-factor check
    # gives it, and the check runs once per prime; [2,1] runs it twice
    from ellprod import oracle
    from ellprod.products import ProductSystem

    calls = []
    check = oracle.verify_maps_vs_group_law
    monkeypatch.setattr(oracle, "verify_maps_vs_group_law",
                        lambda *args: calls.append(args[1:]) or check(*args))
    system = ProductSystem([E01, E01])
    primes = [7, 13, 101]
    for alphas, runs in (([2, 2], [(0, 2)]), ([-3, -3], [(0, -3)]), ([2, 1], [(0, 2), (1, 1)])):
        del calls[:]
        code, rep = run(capsys, ["oracle", "--variety", c3_file, "--isogeny",
                                 json.dumps(alphas), "--primes", json.dumps(primes)])
        assert code == 0 and rep["result"]["ok"] is True
        assert calls == runs * len(primes)
        for p, per_p in zip(primes, rep["result"]["per_prime"]):
            fresh = [check(oracle.PrimeFieldCtx(p, system), idx, alpha)
                     for idx, alpha in enumerate(alphas)]
            assert per_p["maps"] == json.loads(json.dumps(fresh))
            assert [r["curve_index"] for r in per_p["maps"]] == [0, 1]


def test_oracle_needs_a_prime(capsys, c3_file):
    # an empty list checked nothing and reported "ok": true
    code = main(["oracle", "--variety", c3_file, "--isogeny", "[2,1]",
                 "--primes", "[]"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == "error: --primes must name at least one prime\n"


def test_oracle_refuses_huge_prime_quickly(capsys, c3_file):
    t0 = time.perf_counter()
    code = main(["oracle", "--variety", c3_file, "--isogeny", "[2,1]",
                 "--primes", "[1000000000000000003]"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""
    assert elapsed < 1.0


def test_theorem_a_with_huge_primes_is_bounded(capsys, c3_file):
    t0 = time.perf_counter()
    code, rep = run(capsys, ["certify", "--variety", c3_file,
                             "--criterion", "theorem-a", "--primes",
                             "[1000000000000000003,1000000000000000009]"])
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    assert rep["result"]["certificate"]["verdict"] == "CertifiedTransverse"
    # beyond the proven Miller-Rabin range: an input error, not a guess
    code = main(["certify", "--variety", c3_file, "--criterion", "theorem-a",
                 "--primes", "[3317044064679887385961981,167]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.out == ""


def test_determinism(capsys, c3_file):
    argv = ["bounds", "--kind", "bezout", "--deg-pre", "243", "--h2-pre", "1",
            "--deg-b", "3", "--h2-b", "1", "--dim-b", "1", "--n-factors", "2",
            "--deg-phi", "25"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    argv = ["certify", "--variety", c3_file, "--isogeny", "[1,5]"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("text", ["0.1", "0.3", "1e-30"])
def test_decimal_inputs_are_bounded_from_above(capsys, text):
    """Upper bounds hold for the exact decimal given, not only for its
    nearest float, and the echo stays the float JSON number."""
    q = Fraction(text)
    for n, c3 in ((1, "0"), (3, "1"), (2, text)):
        code, rep = run(capsys, ["bounds", "--kind", "zhang", "--n-factors",
                                 str(n), "--h2q", text, "--c3", c3])
        assert code == 0
        ref = heights.zhang_special_bound(n, q, Fraction(c3), prec=300)
        assert Fraction(rep["result"]["value"]) >= heights._exact(ref)
        assert rep["inputs"]["h2_Q"] == float(text)
        assert rep["inputs"]["c3_product"] == float(c3)
    for h2_pre, h2_b, dims in ((text, "0", (1, 1, 1)), ("0", text, (1, 1, 1)),
                               (text, text, (2, 2, 7))):
        dim_b, n, deg_phi = dims
        code, rep = run(capsys, ["bounds", "--kind", "bezout", "--deg-pre", "1",
                                 "--h2-pre", h2_pre, "--deg-b", "1",
                                 "--h2-b", h2_b, "--dim-b", str(dim_b),
                                 "--n-factors", str(n), "--deg-phi", str(deg_phi)])
        assert code == 0
        trivial, improved = heights.bezout_intersection_bounds(
            1, Fraction(h2_pre), 1, Fraction(h2_b), dim_b, n, deg_phi, prec=300)
        assert Fraction(rep["result"]["trivial"]) >= heights._exact(trivial)
        assert Fraction(rep["result"]["improved"]) >= heights._exact(improved)
        assert rep["inputs"]["h2_pre"] == float(h2_pre)
        assert rep["inputs"]["h2_B"] == float(h2_b)
    # the float route the options used to take falls below the bound
    low = heights.bezout_intersection_bounds(1, float("0.3"), 1, 0, 1, 1, 1)[0]
    exact = heights.bezout_intersection_bounds(1, Fraction("0.3"), 1, 0, 1, 1, 1,
                                               prec=300)[0]
    assert heights._exact(low) < heights._exact(exact)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "1e-400",
                                  "0.3x", "1/3", ""])
def test_bad_decimal_inputs_are_usage_errors(capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--kind", "zhang", "--h2q", text])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--h2q" in captured.err


def test_internal_fault_exits_3_with_traceback(capsys, c3_file, monkeypatch):
    def broken(V, phi):
        raise RuntimeError("broken invariant")
    monkeypatch.setattr("ellprod.preimages.generate_preimage", broken)
    code = main(["preimage", "--variety", c3_file, "--isogeny", "[2,1]"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert "RuntimeError: broken invariant" in captured.err


def test_closed_stdout_exits_quietly(c3_file):
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read the report
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ellprod.cli", "degree", "--variety",
             c3_file, "--isogeny", "[2,1]"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_closed_stdout_in_process_leaves_the_streams_alone(capsys, c3_file,
                                                          monkeypatch):
    class ClosedPipe:  # like a capture object: no file descriptor
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    fake = ClosedPipe()
    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", fake)
    code = main(["degree", "--variety", c3_file, "--isogeny", "[2,1]"])
    assert code == 141
    assert sys.stdout is fake
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
    monkeypatch.undo()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mode", ["smart", "naive"])
@pytest.mark.parametrize("alpha", ["2", "5"])
def test_essential_minimum_with_three_factors(capsys, alpha, mode):
    """lambda = 45^3, so the multipliers have exponents far past Python's
    4300-digit int-to-str limit; they still print, rounded down."""
    argv = ["bounds", "--kind", "essential-minimum", "--n-factors", "3",
            "--r", "2", "--dl", "1", "--alpha", alpha, "--mode", mode]
    code, rep = run(capsys, argv)
    assert code == 0
    assert rep["inputs"]["lambda"] == 45 ** 3
    ref = heights.essential_minimum_image_bounds(3, 2, 1, int(alpha), 1, mode=mode)
    rows = [row for row in rep["result"]["entries"] if row["rounding"] == "down"]
    assert len(rows) == (2 if mode == "smart" else 1)
    for row in rows:
        exact = heights._exact(ref.value(row["label"]))
        printed = Fraction(row["value"])
        assert printed <= exact
        assert exact - printed <= exact * Fraction(2, 10 ** 19)


def _small_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_essential_minimum_with_five_factors_is_prompt():
    """lambda = 125^5: the exponent of the multiplier has ten digits, so
    printing it must not go through exact rationals (a child process with
    1 GiB of address space and a time limit keeps a regression contained)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "ellprod.cli", "bounds", "--kind",
         "essential-minimum", "--n-factors", "5", "--r", "2", "--dl", "1",
         "--alpha", "5"],
        capture_output=True, env=env, timeout=60,
        preexec_fn=_small_address_space)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    ref = heights.essential_minimum_image_bounds(5, 2, 1, 5, 1)
    for row in rep["result"]["entries"][:2]:
        nearest = nstr(ref.value(row["label"]), 20)
        assert row["value"].endswith("e-6307196884")
        assert row["value"].split("e")[1] == nearest.split("e")[1]
        assert Decimal(row["value"]) <= Decimal(nearest)


@pytest.mark.parametrize("n", [300, 3000])
def test_essential_minimum_with_hundreds_of_factors(n):
    """lambda = (5N^2)^N has thousands of digits, and so has the decimal
    exponent of each multiplier: they still print, rounded down, in a
    child process with 1 GiB of address space and a time limit."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "ellprod.cli", "bounds", "--kind",
         "essential-minimum", "--n-factors", str(n), "--r", "2", "--dl", "1",
         "--alpha", "5"],
        capture_output=True, env=env, timeout=60,
        preexec_fn=_small_address_space)
    assert proc.returncode == 0, proc.stderr[-2000:]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # lambda is an exact integer in the report
    try:
        rows = json.loads(proc.stdout)["result"]["entries"][:2]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [row["rounding"] for row in rows] == ["down", "down"]
    if n == 300:  # mpmath's own printing still finishes in seconds here
        ref = heights.essential_minimum_image_bounds(n, 2, 1, 5, 1)
        for row in rows:
            mant, exp = row["value"].split("e")
            near_mant, near_exp = nstr(ref.value(row["label"]), 20).split("e")
            assert exp == near_exp and len(exp) > 1600
            step = Decimal(near_mant) - Decimal(mant)
            assert step in (0, Decimal("1e-19"))
    else:
        assert all(len(row["value"].split("e")[1]) > 22900 for row in rows)


def test_essential_minimum_smart_power_is_refused_within_a_second():
    """The strong smart multiplier takes alpha^(2(r-1)) exactly, which no
    printed value bounds: at N = r = 11000 and alpha = 10^4000 it would
    have about 8.8e7 digits, while lambda and the degree bounds pass the
    digit rule.  The digit rule refuses it, well within a second."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ellprod.cli", "bounds", "--kind",
         "essential-minimum", "--n-factors", "11000", "--r", "11000",
         "--alpha", "1" + "0" * 4000],
        capture_output=True, env=env, timeout=60,
        preexec_fn=_small_address_space)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b"" and b"alpha^(2(r-1)) would have about 8.8e+07" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["--kind", "galateau-lambda", "--n-factors", "2", "--k", "1000000"],
    ["--kind", "galateau-lambda", "--n-factors", "2", "--k", "9" * 400],
    ["--kind", "essential-minimum", "--n-factors", "100", "--r", "2",
     "--alpha", "1" + "0" * 3000],
    ["--kind", "bezout", "--n-factors", "20000000"],
])
def test_overlong_exact_integers_are_refused_at_once(argv):
    """An exact result of more than MAX_EXACT_DIGITS digits is an input
    error before it is computed, not minutes of int->str (a child process
    with 1 GiB of address space and a time limit keeps a regression
    contained)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ellprod.cli", "bounds"] + argv,
        capture_output=True, env=env, timeout=60,
        preexec_fn=_small_address_space)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b"" and b"decimal digits" in proc.stderr
