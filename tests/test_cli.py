import io
import json
import os
import subprocess
import sys

import pytest

from qgroups.cache import ResultCache, descriptor_hash
from qgroups import cli, uqrep
from qgroups.cli import (
    EXIT_FAILED,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_theta,
    parse_weight,
)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_helpers():
    assert parse_weight("1,2", 2) == (1, 2)
    assert parse_theta("", 3) == ()
    assert parse_theta("2,1", 3) == (1, 2)
    with pytest.raises(Exception):
        parse_weight("1,2", 3)


def test_irrep_command(capsys):
    code, out = run_cli(["irrep", "--algebra", "A1", "--weight", "3"], capsys)
    assert code == EXIT_OK
    assert "dimension: 4" in out
    code, out = run_cli(["irrep", "--algebra", "A2", "--weight", "1,1",
                         "--format", "json"], capsys)
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["dimension"] == 8
    assert obj["relations_ok"] is True
    qd = obj["quantum_dimension"]
    assert qd == json.loads(out)["quantum_dimension"]


def test_irrep_rejects_non_dominant(capsys):
    code = main(["irrep", "--algebra", "A1", "--weight", "-1"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_irrep_rejects_unknown_algebra(capsys):
    code = main(["irrep", "--algebra", "Z9", "--weight", "1"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_irrep_cache_cold_warm_identical(tmp_path, capsys):
    args = ["irrep", "--algebra", "A1", "--weight", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code1, out1 = run_cli(args, capsys)
    assert code1 == EXIT_OK
    assert list(tmp_path.glob("*.json"))
    code2, out2 = run_cli(args, capsys)
    assert code2 == EXIT_OK
    assert out1 == out2


def test_corrupted_cache_is_an_integrity_error(tmp_path, capsys):
    args = ["irrep", "--algebra", "A1", "--weight", "2", "--cache-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    capsys.readouterr()
    entry = next(tmp_path.glob("*.json"))
    entry.write_text("{\"descriptor\": {\"bogus\": 1}, \"payload\": {}}")
    assert main(args) == EXIT_USAGE
    capsys.readouterr()


def test_cache_store_and_load_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path))
    descriptor = {"kind": "irrep", "algebra": "A1", "weight": [1]}
    assert cache.load(descriptor) is None
    cache.store(descriptor, {"x": 1})
    assert cache.load(descriptor) == {"x": 1}
    other = {"kind": "irrep", "algebra": "A1", "weight": [2]}
    assert descriptor_hash(descriptor) != descriptor_hash(other)


def test_verify_quick_json_deterministic(capsys):
    args = ["verify", "--quick", "--check", "dimensions", "--check",
            "haar_positivity", "--format", "json"]
    code1, out1 = run_cli(args, capsys)
    code2, out2 = run_cli(args, capsys)
    assert code1 == code2 == EXIT_OK
    assert out1.encode() == out2.encode()
    report = json.loads(out1)
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == ["dimensions", "haar_positivity"]


def test_verify_unknown_check(capsys):
    code = main(["verify", "--check", "nonsense"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_sections_command(capsys):
    code, out = run_cli(["sections", "--algebra", "A2", "--theta", "1",
                         "--v", "trivial", "--trunc", "2", "--format", "json"], capsys)
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["dimensions"]["(1, 1)"] == 8
    assert obj["dimensions"]["(1, 0)"] == 0


def test_borel_weil_command(capsys):
    code, out = run_cli(["borel-weil", "--algebra", "A1", "--theta", "",
                         "--mu", "-2", "--trunc", "3"], capsys)
    assert code == EXIT_OK
    assert "dimension: 3" in out
    assert "(2,)" in out
    # truncation too small: distinct exit code
    code, out = run_cli(["borel-weil", "--algebra", "A1", "--theta", "",
                         "--mu", "-9", "--trunc", "2"], capsys)
    assert code == EXIT_INCONCLUSIVE


def test_frobenius_command(capsys):
    code, out = run_cli(["frobenius", "--algebra", "A1", "--theta", "",
                         "--w", "2", "--v", "0", "--trunc", "3",
                         "--format", "json"], capsys)
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["dims_equal"] is True and obj["dim_reductive"] == 1


def test_haar_command(capsys):
    code, out = run_cli(["haar", "--algebra", "A1", "--pair",
                         "t(1)[1,1]", "star t(1)[1,1]", "--v0", "2"], capsys)
    assert code == EXIT_OK
    assert "16/17" in out
    code, out = run_cli(["haar", "--algebra", "A1", "--pair",
                         "t(1)[1,2]", "t(1)[2,1]", "--format", "json"], capsys)
    assert code == EXIT_OK
    json.loads(out)


def test_haar_rejects_bad_expression(capsys):
    code = main(["haar", "--algebra", "A1", "--pair", "nonsense", "t(1)[1,1]"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_zero_denominator_v0_is_a_usage_error(capsys):
    code = main(["irrep", "--algebra", "A1", "--weight", "1", "--v0", "1/0"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: cannot parse v0 '1/0'\n"


@pytest.mark.parametrize("v0", ["abc", "0", "1"])
def test_bad_v0_is_rejected_before_any_work(v0, tmp_path, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before --v0 was checked")

    monkeypatch.setattr(uqrep, "build_irrep", no_work)
    monkeypatch.setattr(cli, "CoeffAlgebra", no_work)
    cache_dir = tmp_path / "cache"
    for argv in (["irrep", "--algebra", "A2", "--weight", "1,1",
                  "--cache-dir", str(cache_dir)],
                 ["haar", "--algebra", "A1", "--pair", "t(1)[1,1]", "t(1)[1,1]"]):
        code = main(argv + ["--v0", v0])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not cache_dir.exists() or list(cache_dir.iterdir()) == []


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "json"}))
    code, out = run_cli(["--config", str(cfg), "irrep", "--algebra", "A1",
                         "--weight", "1"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["dimension"] == 2


@pytest.mark.parametrize("text,reason", [
    ("[1, 2]", "expected a JSON object, not list"),
    ('"json"', "expected a JSON object, not str"),
    ("null", "expected a JSON object, not NoneType"),
    ('{"format": "xml"}', "--format is 'xml', not one of 'human', 'json', 'csv'"),
    ('{"format": ["json"]}', "--format is ['json'], not one of 'human', 'json', 'csv'"),
])
@pytest.mark.parametrize("command", [["irrep", "--algebra", "A1", "--weight", "1"],
                                     ["verify", "--quick", "--check", "relations"]])
def test_bad_config_is_one_usage_error_line(tmp_path, capsys, text, reason, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = main(["--config", str(cfg)] + command)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: cannot read config: {reason}\n"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["irrep", "--algebra", "A1", "--weight", "1",
                 "--format", "json", "--out", str(target)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(target.read_text())["dimension"] == 2
    # written atomically, but with the mode a plain open() gives
    plain = tmp_path / "plain.json"
    plain.write_text("")
    assert target.stat().st_mode == plain.stat().st_mode


def test_frobenius_inconclusive_when_truncation_too_small(capsys):
    code = main(["frobenius", "--algebra", "A1", "--theta", "", "--w", "5",
                 "--v", "1", "--trunc", "2"])
    capsys.readouterr()
    assert code == EXIT_INCONCLUSIVE


def test_unwritable_out_path_is_a_one_line_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["verify", "--quick", "--check", "schur", "--out", str(target)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert not target.parent.exists()


def test_cache_dir_beneath_a_regular_file_is_a_one_line_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    out = tmp_path / "report.json"
    code = main(["irrep", "--algebra", "A2", "--weight", "1,0", "--out", str(out),
                 "--cache-dir", str(blocker / "sub")])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("error: cannot write cache entry")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert blocker.read_text() == "x"


def test_failing_command_leaves_no_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["irrep", "--algebra", "A1", "--weight", "-1", "--out", str(target)])
    capsys.readouterr()
    assert code == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


def test_internal_invariant_failure_exits_2(tmp_path, capsys, monkeypatch):
    message = "isotypic dimensions sum to 3, product dimension is 4"

    def broken(module):
        raise ArithmeticError(message)

    monkeypatch.setattr(cli, "check_serre", broken)
    target = tmp_path / "report.json"
    code = main(["irrep", "--algebra", "A1", "--weight", "1", "--out", str(target)])
    err = capsys.readouterr().err
    assert code == EXIT_FAILED
    assert err == f"internal error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def edit_cached_payload(cache_dir, edit):
    entry = next(cache_dir.glob("*.json"))
    obj = json.loads(entry.read_text())
    edit(obj["payload"])
    entry.write_text(json.dumps(obj))


def test_cache_payload_missing_key_is_an_integrity_error(tmp_path, capsys):
    args = ["irrep", "--algebra", "A1", "--weight", "2", "--cache-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    edit_cached_payload(tmp_path, lambda payload: payload.pop("gram"))
    capsys.readouterr()
    assert main(args) == EXIT_USAGE
    assert "cache integrity error" in capsys.readouterr().err


def test_cache_payload_garbled_entry_is_an_integrity_error(tmp_path, capsys):
    args = ["irrep", "--algebra", "A1", "--weight", "2", "--cache-dir", str(tmp_path)]
    assert main(args) == EXIT_OK

    def garble(payload):
        payload["E"]["1"]["entries"][0][2] = "1*v^0 / 0"

    edit_cached_payload(tmp_path, garble)
    capsys.readouterr()
    assert main(args) == EXIT_USAGE
    assert "not a rational function" in capsys.readouterr().err


def test_argparse_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["irrep", "--algebra", "A1"])
    err = capsys.readouterr().err
    assert exc.value.code == EXIT_USAGE
    assert err.startswith("usage: qgroups irrep [-h] --algebra ALGEBRA --weight WEIGHT")
    assert err.endswith("qgroups irrep: error: the following arguments are required: --weight\n")
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == EXIT_USAGE
    assert "qgroups: error: argument command: invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == EXIT_OK
    capsys.readouterr()


def test_importing_cli_does_not_load_verify():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = "import sys, qgroups.cli; print('qgroups.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert proc.stdout == "False\n"


def test_importing_cli_does_not_load_hashlib():
    # -S: no site hooks, which may import hashlib on their own
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import qgroups.cli; print('hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout == "False\n"


def test_config_usage_error_names_qgroups(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--config"])
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "usage: qgroups [--config CONFIG]\n"
        "qgroups: error: argument --config: expected one argument\n")


@pytest.mark.parametrize("stamp", ["__version__", "IRREP_SCHEMA"])
def test_cache_entry_of_another_version_is_rebuilt(tmp_path, capsys, monkeypatch, stamp):
    args = ["irrep", "--algebra", "A1", "--weight", "2", "--format", "json"]
    expected = run_cli(args, capsys)
    cached = args + ["--cache-dir", str(tmp_path)]
    with monkeypatch.context() as m:
        m.setattr(cli, stamp, "older")
        assert main(cached) == EXIT_OK
        capsys.readouterr()
    (old_entry,) = tmp_path.glob("*.json")
    # reusing this entry would be a cache integrity error
    edit_cached_payload(tmp_path, lambda payload: payload.pop("gram"))
    assert run_cli(cached, capsys) == expected
    assert len(list(tmp_path.glob("*.json"))) == 2
    assert run_cli(cached, capsys) == expected
    assert old_entry.exists()


def test_negative_max_weight_is_a_usage_error(capsys):
    assert main(["verify", "--max-weight", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-weight must be non-negative, got -1\n"


def test_verify_unknown_algebra_is_a_usage_error(capsys):
    # an unsupported type would otherwise pass every suite having checked nothing
    assert main(["verify", "--algebra", "Q7", "--quick"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: unsupported algebra 'Q7' "
                            "(supported: A1, A2, A3, B2)\n")


def test_weight_too_large_for_memory_is_a_one_line_error(tmp_path):
    resource = pytest.importorskip("resource")
    # the address-space cap makes the allocation fail at once, whatever the
    # host's overcommit policy
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    target = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qgroups.cli", "irrep", "--algebra", "A1",
         "--weight", "999999999999", "--out", str(target)],
        capture_output=True, text=True, timeout=120, preexec_fn=limit,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory; the request is too large\n"
    assert list(tmp_path.iterdir()) == []
