import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from qgroups.cache import ResultCache, canonical_json, descriptor_hash, sha256_hex
from qgroups.cartan import cartan_data
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


@pytest.mark.parametrize("expr", ["t(1[1,1]", "star t(1[1,1]", "t(1) [1,1]", "t(1)[1,1"])
def test_haar_names_a_malformed_expression(expr, capsys):
    # the weight and the indices must meet as ")["
    code = main(["haar", "--algebra", "A1", "--pair", expr, "t(1)[1,1]"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == f"error: cannot parse coefficient expression {expr.removeprefix('star ')!r}\n"


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
    # the entry's checksum is made to match the edited payload, as in an
    # entry written by a faulty build, so the load reaches the payload checks
    entry = next(cache_dir.glob("*.json"))
    obj = json.loads(entry.read_text())
    edit(obj["payload"])
    obj["sha256"] = sha256_hex(canonical_json(obj["payload"]))
    entry.write_text(json.dumps(obj))


def test_cache_payload_missing_key_is_an_integrity_error(tmp_path, capsys):
    args = ["irrep", "--algebra", "A1", "--weight", "2", "--cache-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    edit_cached_payload(tmp_path, lambda payload: payload.pop("constructions"))
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


def assert_one_integrity_error(args, capsys):
    capsys.readouterr()
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("cache integrity error: ")
    return line


def test_cache_payload_with_unsorted_lowering_is_an_integrity_error(tmp_path, capsys):
    # loaded, it would list the check_serre records in another order than a build
    args = ["irrep", "--algebra", "A2", "--weight", "1,1", "--cache-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    edit_cached_payload(tmp_path, lambda payload: payload.update(lowering=[2, 1]))
    assert assert_one_integrity_error(args, capsys).endswith("lowering")


def test_cache_payload_of_a_levi_module_is_an_integrity_error(tmp_path, capsys):
    args = ["irrep", "--algebra", "A2", "--weight", "1,1", "--cache-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    levi = uqrep.irrep_to_json(uqrep.build_module(cartan_data("A2"), (1, 1), (1,)))
    assert levi["lowering"] == [1]
    edit_cached_payload(tmp_path, lambda payload: (payload.clear(), payload.update(levi)))
    assert "lowering [1]" in assert_one_integrity_error(args, capsys)


def test_cache_payload_of_another_weight_is_an_integrity_error(tmp_path, capsys):
    args = ["irrep", "--algebra", "A1", "--weight", "2", "--cache-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    other = uqrep.irrep_to_json(uqrep.build_irrep(cartan_data("A1"), (3,)))
    edit_cached_payload(tmp_path, lambda payload: (payload.clear(), payload.update(other)))
    assert "highest weight (3,), not (2,)" in assert_one_integrity_error(args, capsys)


def parent_off_level(payload):
    # the first vector two levels down gets the highest-weight vector as parent
    s = payload["weights"].index([0, 0])
    payload["constructions"][s][-1][0] = 0


def edge_entry_dropped(payload):
    # E_i[0, 1], the raising entry on the edge from vector 1 to its parent
    (parent, i, _), = payload["constructions"][1]
    entries = payload["E"][str(i)]["entries"]
    entries.remove(next(e for e in entries if e[:2] == [parent, 1]))


@pytest.mark.parametrize("edit, what", [(parent_off_level, "construction parent"),
                                        (edge_entry_dropped, "construction edge")])
def test_cache_payload_off_its_step_ratios_is_an_integrity_error(tmp_path, capsys, edit, what):
    # the loader reads the step ratios g_s / g_p(s) off the construction tree
    args = ["irrep", "--algebra", "A2", "--weight", "1,1", "--cache-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    edit_cached_payload(tmp_path, edit)
    assert assert_one_integrity_error(args, capsys).endswith(what)


@pytest.mark.parametrize("edit", ["huge", "shift"])
@pytest.mark.parametrize("coordinate", range(16))
def test_cache_payload_with_an_edited_weight_is_an_integrity_error(tmp_path, capsys,
                                                                  edit, coordinate):
    # A2 (1,1) has 8 weights of 2 coordinates; a huge one used to reach
    # check_serre's q-integers, a shifted one to load as a wrong module
    args = ["irrep", "--algebra", "A2", "--weight", "1,1", "--cache-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    row, col = divmod(coordinate, 2)

    def change(payload):
        weights = payload["weights"]
        assert len(weights) == 8
        weights[row][col] = 10 ** 30 if edit == "huge" else weights[row][col] + 1

    edit_cached_payload(tmp_path, change)
    assert assert_one_integrity_error(args, capsys).endswith("weights")


def test_cache_entry_with_an_edited_matrix_value_is_an_integrity_error(tmp_path, capsys):
    # a well-formed wrong value used to load and fail check_serre with exit 2
    args = ["irrep", "--algebra", "A2", "--weight", "1,1", "--cache-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    entry = next(tmp_path.glob("*.json"))
    obj = json.loads(entry.read_text())
    cell = obj["payload"]["E"]["1"]["entries"][0]
    num, den = cell[2].split(" / ")
    cell[2] = f"{num} + 1*v^99 / {den}"
    entry.write_text(json.dumps(obj))
    assert "payload checksum mismatch" in assert_one_integrity_error(args, capsys)


@pytest.mark.parametrize("text", ["[]", "3", "null"])
def test_cache_entry_that_is_not_an_object_is_an_integrity_error(tmp_path, capsys, text):
    # used to end in an AttributeError traceback
    args = ["irrep", "--algebra", "A1", "--weight", "2", "--cache-dir", str(tmp_path)]
    assert main(args) == EXIT_OK
    next(tmp_path.glob("*.json")).write_text(text)
    assert "descriptor mismatch" in assert_one_integrity_error(args, capsys)


def _entry_nodes(obj, path=()):
    """Every path below the root of a parsed cache entry, containers too."""
    if path:
        yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, x in items:
        yield from _entry_nodes(x, path + (key,))


def _edit_one_field(obj, rng):
    """Apply one random edit to one field of ``obj`` in place."""
    path = rng.choice(list(_entry_nodes(obj)))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    x = parent[key]
    if rng.random() < 0.15:
        parent.pop(key)
    elif isinstance(x, bool) or x is None:
        parent[key] = 0
    elif isinstance(x, int):
        parent[key] = rng.choice([x + 1, x - 1, -x, 0, 10 ** 30, str(x), [x]])
    elif isinstance(x, str):
        n = rng.randrange(len(x) + 1)
        parent[key] = rng.choice([
            x[:n] + rng.choice("0123456789v^*/+- ") + x[n:],
            x[:n] + x[n + 1:],
            x[:n] + x[n:].replace(rng.choice("0123456789"), rng.choice("0123456789"), 1),
            "", 0, None,
        ])
    elif isinstance(x, list):
        parent[key] = x + x[-1:] if x and rng.random() < 0.5 else x[:-1]
    else:
        parent[key] = {**x, "extra": 1} if rng.random() < 0.5 else []


def test_warm_run_gives_the_cold_report_or_an_integrity_error(tmp_path, capsys):
    args = ["irrep", "--algebra", "A2", "--weight", "1,1", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code, cold = run_cli(args, capsys)
    assert code == EXIT_OK
    (entry,) = tmp_path.glob("*.json")
    text = entry.read_text()
    assert run_cli(args, capsys) == (EXIT_OK, cold)
    rng = random.Random(17)
    errors = 0
    for _ in range(300):
        obj = json.loads(text)
        _edit_one_field(obj, rng)
        entry.write_text(json.dumps(obj))
        code = main(args)
        captured = capsys.readouterr()
        if code == EXIT_OK:
            assert (captured.out, captured.err) == (cold, "")
        else:
            assert code == EXIT_USAGE and captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("cache integrity error: ")
            errors += 1
    assert errors > 250


@pytest.mark.parametrize("text", ["", "abc", canonical_json({"kind": "irrep", "weight": [1, 2]}),
                                  "v^-3 · λ* " * 40])
def test_sha256_hex_is_hashlib_sha256(text):
    assert sha256_hex(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_cached_irrep_runs_do_not_load_hashlib(tmp_path):
    # -S: no site hooks, which may import hashlib on their own
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); from qgroups.cli import main; "
             "code = main(sys.argv[2:]); "
             "print(code, 'hashlib' in sys.modules, '_hashlib' in sys.modules, file=sys.stderr)")
    args = ["irrep", "--algebra", "A1", "--weight", "2", "--cache-dir", str(tmp_path)]
    for _ in ("cold", "warm"):
        proc = subprocess.run([sys.executable, "-S", "-c", probe, src, *args],
                              capture_output=True, text=True, timeout=120, check=True)
        assert proc.stderr == "0 False False\n"
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_cache_entry_without_the_builtin_sha256_module(tmp_path, capsys, monkeypatch):
    args = ["irrep", "--algebra", "A1", "--weight", "2", "--format", "json"]
    code, cold = run_cli(args + ["--cache-dir", str(tmp_path / "builtin")], capsys)
    assert code == EXIT_OK
    # the built-in module is _sha2 from Python 3.12 on, _sha256 before
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    fallback = args + ["--cache-dir", str(tmp_path / "fallback")]
    assert run_cli(fallback, capsys) == (EXIT_OK, cold)
    assert run_cli(fallback, capsys) == (EXIT_OK, cold)
    names = [sorted(p.name for p in (tmp_path / d).iterdir()) for d in ("builtin", "fallback")]
    assert names[0] == names[1] and len(names[0]) == 1
    assert ((tmp_path / "builtin" / names[0][0]).read_text()
            == (tmp_path / "fallback" / names[0][0]).read_text())


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


def test_cache_dir_is_refused_where_there_is_no_cache(tmp_path, capsys):
    # only irrep reads a cache; the other commands used to accept the flag
    # and ignore it
    cache_dir = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(["haar", "--algebra", "A1", "--pair", "t(1)[1,1]", "t(1)[1,1]",
              "--cache-dir", str(cache_dir)])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("usage: qgroups ")
    assert captured.err.count("error:") == 1
    assert captured.err.endswith(
        f"qgroups: error: unrecognized arguments: --cache-dir {cache_dir}\n")
    assert not cache_dir.exists()


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
    edit_cached_payload(tmp_path, lambda payload: payload.pop("constructions"))
    assert run_cli(cached, capsys) == expected
    assert len(list(tmp_path.glob("*.json"))) == 2
    assert run_cli(cached, capsys) == expected
    assert old_entry.exists()


def test_large_module_is_cached_cold_and_warm_in_a_small_entry(tmp_path):
    # the entry holds E, F and the constructions, each of a size linear in
    # the dimension; with the expanded Gram diagonal it was about 204 MB here,
    # and writing or reading it took longer than the deadline
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    deadline = time.monotonic() + 20

    def report(*extra):
        proc = subprocess.run(
            [sys.executable, "-m", "qgroups.cli", "irrep", "--algebra", "A1",
             "--weight", "120", "--format", "json", *extra],
            capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=max(deadline - time.monotonic(), 0.1))
        return proc.stdout

    uncached = report()
    assert report("--cache-dir", str(tmp_path)) == uncached
    (entry,) = tmp_path.glob("*.json")
    written = entry.stat().st_mtime_ns
    assert report("--cache-dir", str(tmp_path)) == uncached
    assert list(tmp_path.glob("*.json")) == [entry]
    assert entry.stat().st_mtime_ns == written
    assert entry.stat().st_size < 256 * 1024


def test_negative_max_weight_is_a_usage_error(capsys):
    assert main(["verify", "--max-weight", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-weight must be non-negative, got -1\n"


@pytest.mark.parametrize("max_weight, duality", [("0", 0), ("1", 15400)])
def test_max_weight_filters_hopf_duality_cases(max_weight, duality, capsys):
    # a case stays when both of its weights have sum <= --max-weight
    code, out = run_cli(["verify", "--check", "hopf", "--max-weight", max_weight,
                         "--format", "json"], capsys)
    assert code == EXIT_OK
    (hopf,) = json.loads(out)["checks"]
    assert hopf["passed"] and hopf["details"]["checked"]["duality"] == duality


def test_verify_unknown_algebra_is_a_usage_error(capsys):
    # an unsupported type would otherwise pass every suite having checked nothing
    assert main(["verify", "--algebra", "Q7", "--quick"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: unsupported algebra 'Q7' "
                            "(supported: A1, A2, A3, B2)\n")


def test_weight_too_large_for_memory_is_a_one_line_error(tmp_path):
    resource = pytest.importorskip("resource")
    # the address-space cap would make an allocation fail at once, whatever
    # the host's overcommit policy; the request is refused before any
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
    assert proc.stderr == ("error: the dimension of the module (999999999999,) is "
                           "1000000000000, above the bound 10000; the request is too large\n")
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    # an admitted request that still exhausts memory
    def exhausted(module):
        raise MemoryError

    monkeypatch.setattr(cli, "check_serre", exhausted)
    target = tmp_path / "report.json"
    code = main(["irrep", "--algebra", "A1", "--weight", "2", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err == "error: out of memory; the request is too large\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, size", [
    (["irrep", "--algebra", "A1", "--weight", "100000000000000000000"],
     "the dimension of the module (100000000000000000000,) is 100000000000000000001"),
    (["borel-weil", "--algebra", "A2", "--mu=-1,0", "--trunc", "1000000000"],
     "the number of grades of --trunc 1000000000 is 500000001500000001"),
    # one over the bound: the A1 module of dimension 10001
    (["irrep", "--algebra", "A1", "--weight", str(cli.MAX_REQUEST_SIZE)],
     "the dimension of the module (10000,) is 10001"),
    (["sections", "--algebra", "A2", "--trunc", "140"], "the number of grades of --trunc 140 is 10011"),
    (["frobenius", "--algebra", "A1", "--w", "1", "--v", "1", "--trunc", "10000"],
     "the number of grades of --trunc 10000 is 10001"),
    (["haar", "--algebra", "A2", "--pair", "t(100,100)[1,1]", "t(1,0)[1,1]"],
     "the dimension of the module (100, 100) is 1030301"),
])
def test_request_above_the_bound_is_refused_before_any_build(argv, size, capsys, monkeypatch):
    assert cli.MAX_REQUEST_SIZE == 10_000

    def refused(*args):
        raise AssertionError("built a module")

    monkeypatch.setattr(uqrep, "build_module", refused)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {size}, above the bound 10000; the request is too large\n"


@pytest.mark.parametrize("argv, size", [
    (["borel-weil", "--algebra", "A2", "--theta", "1,2", "--mu", "60,60", "--trunc", "1"],
     "the dimension of the module (60, 60) for theta (1, 2) is 226981"),
    (["frobenius", "--algebra", "A2", "--theta", "1,2", "--w", "1,0", "--v", "60,60",
      "--trunc", "1"],
     "the dimension of the module (60, 60) for theta (1, 2) is 226981"),
    (["borel-weil", "--algebra", "A1", "--theta", "1", "--mu", "20000", "--trunc", "1"],
     "the dimension of the module (20000,) for theta (1,) is 20001"),
])
def test_levi_fibre_above_the_bound_is_refused_at_once(argv, size):
    # the Levi fibre goes through the same size check as a full module; each
    # of these would otherwise build for minutes
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "qgroups.cli"] + argv,
                          capture_output=True, text=True, timeout=10,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr == f"error: {size}, above the bound 10000; the request is too large\n"


def test_levi_fibre_must_be_dominant_for_theta(capsys):
    for argv in (["borel-weil", "--algebra", "A2", "--theta", "1", "--mu=-1,0"],
                 ["frobenius", "--algebra", "A2", "--theta", "1", "--w", "1,0", "--v=-1,0"]):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: weight (-1, 0) is not dominant for theta (1,)\n"


def test_request_at_the_bound_is_admitted(capsys, monkeypatch):
    # C(9999 + 1, 1) = 10000 grades and a module of dimension 10000 pass
    # admission; the build is stubbed out
    def built(*args):
        raise ArithmeticError("admitted")

    monkeypatch.setattr(uqrep, "build_module", built)
    for argv in (["irrep", "--algebra", "A1", "--weight", "9999"],
                 ["frobenius", "--algebra", "A1", "--w", "9999", "--v", "1", "--trunc", "9999"]):
        assert main(argv) == EXIT_FAILED
        assert capsys.readouterr().err == "internal error: admitted\n"


@pytest.mark.parametrize("argv, line", [
    (["--check", "hopf", "--algebra", "A3"], "error: --check hopf ran no case under --quick --algebra A3"),
    (["--check", "projectivity", "--algebra", "B2"],
     "error: --check projectivity ran no case under --quick --algebra B2"),
    (["--check", "relations", "--check", "hopf", "--algebra", "A3", "--max-weight", "0"],
     "error: --check relations, hopf ran no case under --quick --algebra A3 --max-weight 0"),
])
def test_named_check_with_an_empty_grid_is_a_usage_error(argv, line, capsys):
    assert main(["verify", "--quick", "--format", "json"] + argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


def test_empty_suites_warn_without_check(capsys):
    from qgroups.verify import empty_checks, run_checks

    assert main(["verify", "--quick", "--algebra", "A3", "--format", "json"]) == EXIT_OK
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert "warning" not in captured.out
    empty = ["borel_weil", "frobenius", "haar_positivity", "hom_criterion", "hopf",
             "invariants", "projectivity"]
    assert captured.err.splitlines() == [
        f"warning: {name} ran no case under --quick --algebra A3" for name in empty]
    # the report is the suites' own, with no trace of the warnings
    want = run_checks(quick=True, algebra="A3")
    assert empty_checks(want) == empty
    assert report == json.loads(json.dumps(want))


def test_unfiltered_suites_are_never_empty(capsys):
    from qgroups.verify import ALL_CHECKS, empty_checks, run_checks

    report = run_checks(quick=True)
    assert [c["name"] for c in report["checks"]] == sorted(ALL_CHECKS)
    assert empty_checks(report) == []
    assert main(["verify", "--quick", "--check", "hopf", "--algebra", "A1"]) == EXIT_OK
    assert capsys.readouterr().err == ""
