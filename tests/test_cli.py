import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import primopt

from primopt import cli, symfunc
from primopt.cli import main

ENVELOPE_KEYS = {"claim", "verdict", "lhs", "rhs", "runtime_ms", "detail"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_prime_zeta_command(capsys):
    code, report = run_json(capsys, "prime-zeta", "--t", "2", "--radius", "1e-8")
    assert code == 0
    assert set(report) == ENVELOPE_KEYS
    assert abs(report["lhs"]["value"] - 0.45224742) <= 1e-7
    assert report["lhs"]["radius"] <= 1e-8


def test_zeta_command(capsys):
    code, report = run_json(capsys, "zeta", "--s", "4", "--radius", "1e-10")
    assert code == 0
    assert abs(report["lhs"]["value"] - 1.0823232337) <= 1e-9


def test_tau_command(capsys):
    code, report = run_json(capsys, "tau", "--radius", "1e-6")
    assert code == 0
    assert abs(report["lhs"]["value"] - 1.1403659) <= 1e-6


def test_check_condition_exit_codes(capsys):
    code, report = run_json(capsys, "check-condition", "--primes", "2", "--t", "1")
    assert code == 0 and report["verdict"] == "holds"
    code, report = run_json(capsys, "check-condition", "--primes-below", "100", "--t", "1")
    assert code == 1 and report["verdict"] == "fails"
    code, report = run_json(capsys, "check-condition", "--all-primes", "--t", "1.05")
    assert code == 1 and report["verdict"] == "fails"


def test_all_primes_condition_where_2t_overflows(capsys):
    # 2t is inf at t = 1e308; P(2t) is then enclosed by [0, ulp(0.0)]
    code, report = run_json(capsys, "check-condition", "--all-primes", "--t", "1e308")
    assert code == 0 and report["verdict"] == "holds"
    assert abs(report["rhs"]["value"] - 2.0) <= 1e-12


def test_twin_sources_compose(capsys):
    code, report = run_json(
        capsys, "check-condition", "--twins-below", "1000", "--t", "1"
    )
    assert code == 0 and report["verdict"] == "holds"


def test_hk_command_exact(capsys):
    code, report = run_json(
        capsys, "hk", "--primes", "2,3", "--t", "1", "--kmax", "2", "--exact"
    )
    assert code == 0
    assert report["detail"]["h"] == ["1", "5/6", "19/36"]


def test_schur_command_with_weights(capsys):
    code, report = run_json(capsys, "schur", "--weights", "0.5,0.3,0.2", "--kmax", "6")
    assert code == 0 and report["verdict"] == "holds"


def test_chain_command(capsys):
    code, report = run_json(
        capsys, "chain", "--primes", "2,3,5", "--t", "1.5", "--kmax", "8"
    )
    assert code == 0 and report["verdict"] == "holds"


def test_identity_command(capsys):
    code, report = run_json(capsys, "identity", "--primes-below", "50", "--t", "1.3")
    assert code == 0 and report["verdict"] == "holds"
    assert report["detail"]["quadratic_equivalence"] is True


def test_decompose_command(capsys):
    code, report = run_json(
        capsys, "decompose", "--primes", "2,3", "--ell", "2", "--s", "6"
    )
    assert code == 0 and report["verdict"] == "holds"
    code, report = run_json(
        capsys, "decompose", "--primes-below", "10000", "--ell", "1", "--s", "2"
    )
    assert code == 0 and report["verdict"] == "holds"


def test_decompose_fails_on_a_wrong_block(capsys, monkeypatch):
    # level 2 of {2, 3} by s = 6: the block gcd(n, 6) = 2 is {4}, but over
    # the primes {2, 3} it would be predicted as 2 * {2, 3} = {4, 6}
    real = symfunc.gcd_blocks
    monkeypatch.setattr(
        symfunc, "gcd_blocks",
        lambda P, s: [(d, P if d == 2 else q, o) for d, q, o in real(P, s)],
    )
    assert not symfunc.decomposition_partition_check(primopt.PrimeSet([2, 3]), 2, 6)
    code, report = run_json(capsys, "decompose", "--primes", "2,3", "--ell", "2", "--s", "6")
    assert code == 1 and report["verdict"] == "fails"


def test_universe_and_oracle_commands(capsys):
    code, report = run_json(
        capsys, "universe", "--primes", "2,3", "--k-lo", "1",
        "--max-omega", "2", "--max-value", "100",
    )
    assert code == 0
    assert report["detail"]["elements"] == [2, 3, 4, 6, 9]

    code, report = run_json(
        capsys, "oracle", "--primes", "2,3", "--k-lo", "1",
        "--max-omega", "2", "--max-value", "100", "--t", "1",
    )
    assert code == 0
    assert report["detail"]["members"] == [2, 3]

    code, brute = run_json(
        capsys, "oracle", "--primes", "2,3", "--k-lo", "1",
        "--max-omega", "2", "--max-value", "100", "--t", "1", "--brute-force",
    )
    assert brute["lhs"]["value"] == report["lhs"]["value"]


def test_verify_commands(capsys):
    code, report = run_json(
        capsys, "verify-tbest", "--primes", "2,3,5", "--t", "1.5", "--k", "1",
        "--max-omega", "5", "--max-value", "100000",
    )
    assert code == 0 and report["verdict"] == "holds"
    assert report["detail"]["optimum_members"] == [2, 3, 5]

    code, report = run_json(
        capsys, "verify-erdos", "--primes", "5,7,11,13", "--k", "1",
        "--max-omega", "4", "--max-value", "1000000",
    )
    assert code == 0 and report["verdict"] == "holds"


def test_twin_brun_corollary_commands(capsys):
    code, report = run_json(capsys, "twin", "--below", "15")
    assert code == 0 and report["detail"]["members"] == [5, 7, 11, 13]

    code, report = run_json(capsys, "brun", "--limit", "13")
    assert code == 0
    assert abs(report["lhs"]["value"] - 1.0440226440226439) < 1e-12

    code, report = run_json(
        capsys, "corollary", "--brun-bound", "2.347", "--brun-source", "proven",
        "--limit", "100000",
    )
    assert code == 0 and report["verdict"] == "holds"

    code, report = run_json(
        capsys, "corollary", "--brun-bound", "2.347", "--with-three",
        "--limit", "1000000",
    )
    assert code == 1 and report["verdict"] == "fails"


def test_erdos_sum_and_bridge_commands(capsys):
    code, report = run_json(capsys, "erdos-sum", "--members", "4,6,9")
    assert code == 0
    assert abs(report["lhs"]["value"] - 0.3239241637933748) < 1e-12

    code, report = run_json(capsys, "bridge", "--members", "2,3,5")
    assert code == 0 and report["verdict"] == "holds"
    assert report["lhs"]["value"] <= report["rhs"]["value"] <= 1e-6
    # the enclosure's radius is derived, not given
    with pytest.raises(SystemExit) as exc:
        main(["bridge", "--members", "2,3,5", "--tolerance", "1e-4"])
    assert exc.value.code == 3


def test_suite_quick_passes_and_is_deterministic(capsys):
    code1, out1 = run_cli(capsys, "suite", "--quick", "--seed", "1")
    code2, out2 = run_cli(capsys, "suite", "--quick", "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical under a fixed seed
    report = json.loads(out1)
    checks = report["detail"]["checks"]
    assert len(checks) == 10
    assert all(row["verdict"] == "holds" for row in checks)
    assert all(
        {"claim", "computed", "expected", "verdict", "runtime_ms"} <= set(row)
        for row in checks
    )


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "prime-zeta", "--t", "2", "--radius", "1e-8", "--out", str(path)
    )
    assert code == 0
    assert path.read_text() == out

    missing = tmp_path / "missing-dir" / "report.json"
    assert main(["prime-zeta", "--t", "2", "--out", str(missing)]) == 3
    captured = capsys.readouterr()
    # a failed write prints no report that the exit code contradicts
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_text_format(capsys):
    code, out = run_cli(capsys, "check-condition", "--primes", "2", "--t", "1",
                        "--format", "text")
    assert code == 0
    assert out.startswith("claim:")
    assert "verdict: holds" in out


def test_usage_errors_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["prime-zeta", "--bogus"])
    assert exc.value.code == 3


def test_domain_error_exit_3(capsys):
    assert main(["zeta", "--s", "0.5"]) == 3
    assert main(["check-condition", "--t", "1"]) == 3  # no prime-set source
    oracle = ["oracle", "--primes", "2,3", "--max-omega", "2", "--max-value", "100"]
    for t in ("0", "-1"):
        assert main([*oracle, "--t", t]) == 3
        assert main([*oracle, "--t", t, "--brute-force"]) == 3
    assert main(["chain", "--primes", "2,3", "--kmax", "1", "--t", "2"]) == 3
    for limit in ("0", "-1"):
        assert main(["universe", "--primes", "2,3", "--max-omega", "2", "--max-value",
                     "100", "--max-elements", limit]) == 3
        assert main([*oracle, "--t", "1", "--max-elements", limit]) == 3
    for s in ("nan", "inf"):
        assert main(["zeta", "--s", s]) == 3
    capsys.readouterr()
    assert main(["corollary", "--brun-bound", "inf", "--limit", "1000"]) == 3
    assert "Brun bound must be finite" in capsys.readouterr().err
    # refused before the int64 conversion, which would fail with numpy's words
    assert main(["universe", "--primes", "99999999999999999999999999", "--max-omega", "2",
                 "--max-value", "100"]) == 3
    assert "must be <= MAX_ELEMENT = 9223372036854775807" in capsys.readouterr().err
    # the twin scan sieves to limit + 2, so 2^63 - 2 is the first limit refused
    too_far = str((1 << 63) - 2)
    for argv in (
        ["twin", "--below", too_far],
        ["brun", "--limit", too_far],
        ["corollary", "--brun-bound", "2.0959621", "--with-three", "--limit", too_far],
    ):
        assert main(argv) == 3, argv
        assert "twin limit must be <=" in capsys.readouterr().err, argv
    primes, caps = ["--primes", "2,3"], ["--max-omega", "2", "--max-value", "100"]
    for argv in (
        ["prime-zeta"],
        ["check-condition", *primes],
        ["check-condition", "--all-primes"],
        ["hk", *primes, "--kmax", "2"],
        ["hk", *primes, "--kmax", "2", "--exact"],
        ["chain", *primes, "--kmax", "2"],
        oracle,
        [*oracle, "--brute-force"],
        ["verify-tbest", *primes, "--k", "1", *caps],
    ):
        for t in ("nan", "inf"):
            assert main([*argv, "--t", t]) == 3, argv
            err = capsys.readouterr().err
            assert "finite t" in err or "integer t" in err, (argv, err)
    for argv in (
        ["zeta", "--s", "2"],
        ["prime-zeta", "--t", "2"],
        ["check-condition", "--all-primes", "--t", "2"],
        ["tau"],
    ):
        for radius in ("nan", "inf"):
            assert main([*argv, "--radius", radius]) == 3, argv
            assert "target_radius must be finite" in capsys.readouterr().err, argv
    one = ["oracle", "--primes", "2", "--k-lo", "0", "--max-omega", "60",
           "--max-value", "9223372036854775807", "--t", "1.5"]
    assert main(one) == 3
    assert "k_lo must be >= 1" in capsys.readouterr().err
    # refused whatever t is: at t = 0.3 the optimum is not {1}
    low_t = ["oracle", "--primes-below", "100", "--k-lo", "0", "--max-omega", "2",
             "--max-value", "1000", "--t", "0.3"]
    for argv in (low_t, [*low_t, "--brute-force"]):
        assert main(argv) == 3, argv
        assert "k_lo must be >= 1" in capsys.readouterr().err, argv


def test_precision_error_exit_2(capsys):
    assert main(["zeta", "--s", "1.01", "--radius", "1e-14"]) == 2
    # n^-t underflows to 0.0 for a valid t: the flow and the brute force agree
    assert main(["verify-tbest", "--primes", "2,3,5,7", "--k", "1", "--max-omega", "22",
                 "--max-value", "4611686018427387904", "--t", "40"]) == 2
    assert "123451776^-40.0 underflows" in capsys.readouterr().out
    oracle = ["oracle", "--primes", "2,3", "--k-lo", "1", "--max-omega", "3",
              "--max-value", "100", "--t", "1e308"]
    assert main(oracle) == 2
    assert main([*oracle, "--brute-force"]) == 2
    # every command that weighs primes by p^-t reports the same underflow
    kmax = ["--kmax", "2"]
    for argv in (["hk", *kmax], ["chain", *kmax], ["schur", *kmax], ["identity"]):
        assert main([*argv, "--primes", "2,3", "--t", "1e308"]) == 2, argv
        assert "2^-1e+308 underflows" in capsys.readouterr().out, argv
    # only the primes' weights underflow: 877 is the smallest prime with 877^-110 = 0.0
    assert main(["verify-tbest", "--primes-below", "1000", "--k", "1", "--max-omega", "2",
                 "--max-value", "100", "--t", "110"]) == 2
    assert "877^-110.0 underflows" in capsys.readouterr().out


def test_resource_error_exit_4(capsys):
    assert main([
        "universe", "--primes", "2,3,5", "--k-lo", "1", "--max-omega", "12",
        "--max-value", "1000000", "--max-elements", "50",
    ]) == 4


def test_sieve_past_its_budget_exits_4_before_allocating(capsys):
    for argv, limit in (
        (["check-condition", "--primes-below", "1000000000000000000", "--t", "2"], 10**18),
        (["twin", "--below", "100000000000"], 10**11 + 2),
    ):
        started = time.monotonic()
        assert main(argv) == 4, argv
        assert time.monotonic() - started < 1.0, argv
        assert f"sieve limit {limit} exceeds the sieve budget" in capsys.readouterr().err


def test_oversized_level_exits_4_before_enumerating(capsys):
    # level 6 of the 1229 primes below 10^4 has C(1234, 6) = 4.8e15 elements
    started = time.monotonic()
    assert main(["decompose", "--primes-below", "10000", "--ell", "6", "--s", "64"]) == 4
    assert time.monotonic() - started < 1.0
    assert "past the level budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hk", "--primes", "2,3", "--kmax", "100000000"],
    ["chain", "--primes", "2,3", "--kmax", "10000000"],
    ["schur", "--weights", "0.5,0.25", "--kmax", "100000000"],
])
def test_oversized_kmax_exits_4_before_allocating(capsys, argv):
    started = time.monotonic()
    assert main(argv) == 4
    assert time.monotonic() - started < 1.0
    assert "past the h_all budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # h_6000 over {1/2, 1/3} has a 4,669-digit denominator
    ["hk", "--primes", "2,3", "--t", "1", "--kmax", "6000", "--exact"],
    # 3^1000000 alone has 477,122 digits
    ["hk", "--primes", "2,3", "--t", "1000000", "--kmax", "1", "--exact"],
])
def test_oversized_exact_sums_exit_4_before_the_dp(capsys, argv):
    started = time.monotonic()
    assert main(argv) == 4
    assert time.monotonic() - started < 1.0
    assert "past the digit budget" in capsys.readouterr().err


@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 745. GiB for an array", "Unable to allocate 745. GiB for an array"),
    ("", "out of memory"),
])
def test_memory_error_exits_4_without_a_traceback(capsys, monkeypatch, message, shown):
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_cmd_hk", exhausted)
    assert main(["hk", "--primes", "2,3", "--kmax", "100000000"]) == 4
    assert capsys.readouterr() == ("", f"error: {shown}\n")


def test_python_m_primopt_runs_the_cli():
    src = str(Path(primopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    done = subprocess.run(
        [sys.executable, "-m", "primopt", "hk", "--primes", "2,3", "--kmax", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verdict"] == "holds"
