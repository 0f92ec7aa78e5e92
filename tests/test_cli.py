"""The command-line front end: output schemas, exit codes, cache wiring."""

import argparse
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import severi
from severi import cli, engine, gyz, relative_severi, severi_degree
from severi.cli import CACHE_ENV_VAR, main


@pytest.fixture(autouse=True)
def isolated_cwd(tmp_path, monkeypatch):
    """Run every CLI test in a fresh directory with no cache env var."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out), err


# -------------------------------------------------------------------- schemas


def test_count_absolute(capsys):
    doc, _ = run_json(capsys, "count", "--d", "4", "--delta", "2")
    assert doc == {"d": 4, "delta": 2, "value": "225"}


def test_count_relative(capsys):
    doc, _ = run_json(
        capsys, "count", "--d", "4", "--delta", "1", "--alpha", "1", "--beta", "3"
    )
    expected = relative_severi(4, 1, (1,), (3,))
    assert doc == {
        "d": 4,
        "delta": 1,
        "alpha": "1",
        "beta": "3",
        "value": str(expected),
    }


def test_table_json(capsys):
    doc, _ = run_json(capsys, "table", "--dmax", "3", "--deltamax", "2")
    assert doc["dmax"] == 3 and doc["deltamax"] == 2
    assert doc["rows"] == [["1", "0", "0"], ["1", "3", "0"], ["1", "12", "21"]]


def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--dmax", "2", "--deltamax", "1", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["d,delta,value", "1,0,1", "1,1,0", "2,0,1", "2,1,3"]


def test_nodepoly(capsys):
    doc, _ = run_json(capsys, "nodepoly", "--delta", "1")
    assert doc == {
        "delta": 1,
        "coeffs": ["3", "-6", "3"],
        "fit_range": [3, 4, 5],
        "verified": True,
    }


def test_threshold(capsys):
    doc, err = run_json(capsys, "threshold", "--delta", "3")
    assert doc == {"delta": 3, "threshold": 3}
    assert "witness" in err


def test_logforms(capsys):
    doc, _ = run_json(capsys, "logforms", "--deltamax", "1")
    assert doc == {
        "deltamax": 1,
        "forms": [{"kappa": 1, "a2": "3", "a1": "-6", "a0": "3"}],
    }


def test_bell(capsys):
    doc, _ = run_json(capsys, "bell", "--delta", "3", "--values", "1,1,1")
    assert doc["value"] == "5"


def test_bell_rational_arguments(capsys):
    doc, _ = run_json(capsys, "bell", "--delta", "2", "--values", "1/2,1/3")
    assert doc["value"] == "7/12"


def test_bseries(capsys):
    doc, err = run_json(capsys, "bseries", "--order", "1", "--dlist", "2,3")
    assert doc["order"] == 1
    assert doc["b1"] == ["1", "-1"]
    assert doc["b2"] == ["1", "5"]
    assert doc["d_used"] == [2, 3]
    assert doc["consistent"] is True
    assert doc["integral"] is True
    # progress goes to stderr, naming the degrees read; stdout stayed one JSON document
    assert "extracting" in err and "degrees 1..3" in err


def test_predict(capsys):
    doc, err = run_json(
        capsys, "predict", "--d", "7", "--order", "2", "--dlist", "3,4,5"
    )
    expected = [str(severi_degree(7, delta)) for delta in range(3)]
    assert doc == {"d": 7, "order": 2, "values": expected}
    assert "in-sample" not in err


def test_predict_in_sample_notes_on_stderr(capsys):
    # an order-2 extraction counts at degrees 1..4, whatever --dlist says
    doc, err = run_json(
        capsys, "predict", "--d", "4", "--order", "2", "--dlist", "3,4"
    )
    assert "in-sample" in err and "(1..4)" in err
    assert doc["values"][1] == "27"


def test_bseries_and_predict_at_order_zero(capsys):
    doc, _ = run_json(capsys, "bseries", "--order", "0", "--dlist", "1,2")
    assert doc == {
        "order": 0, "b1": ["1"], "b2": ["1"], "d_used": [1, 2],
        "consistent": True, "integral": True,
    }
    doc, _ = run_json(capsys, "predict", "--d", "5", "--order", "0", "--dlist", "1,2")
    assert doc == {"d": 5, "order": 0, "values": ["1"]}


def test_forms(capsys):
    doc, _ = run_json(capsys, "forms", "--order", "3")
    assert doc == {
        "order": 3,
        "u": ["0", "1", "6", "12"],
        "b3": ["1", "6", "12", "28"],
        "b4": ["1", "-12", "0", "800"],
        "delta_form": ["0", "1", "-24", "252"],
    }


def test_forms_at_order_zero(capsys):
    doc, _ = run_json(capsys, "forms", "--order", "0")
    assert doc == {"order": 0, "u": ["0"], "b3": ["1"], "b4": ["1"], "delta_form": ["0"]}


# ---------------------------------------------------------------- cache wiring


def test_default_cache_file_is_created(capsys, isolated_cwd):
    run_json(capsys, "count", "--d", "3", "--delta", "1")
    assert (isolated_cwd / "severi.cache").exists()


def test_no_cache_writes_nothing(capsys, isolated_cwd):
    run_json(capsys, "count", "--d", "3", "--delta", "1", "--no-cache")
    assert list(isolated_cwd.iterdir()) == []


def test_cache_flag_sets_path(capsys, isolated_cwd):
    target = isolated_cwd / "custom.cache"
    run_json(capsys, "count", "--d", "3", "--delta", "1", "--cache", str(target))
    assert target.exists()
    assert not (isolated_cwd / "severi.cache").exists()


def test_cache_env_var(capsys, isolated_cwd, monkeypatch):
    target = isolated_cwd / "env.cache"
    monkeypatch.setenv(CACHE_ENV_VAR, str(target))
    run_json(capsys, "count", "--d", "3", "--delta", "1")
    assert target.exists()


def test_cache_flag_beats_env_var(capsys, isolated_cwd, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(isolated_cwd / "env.cache"))
    flag_target = isolated_cwd / "flag.cache"
    run_json(capsys, "count", "--d", "3", "--delta", "1", "--cache", str(flag_target))
    assert flag_target.exists()
    assert not (isolated_cwd / "env.cache").exists()


def test_empty_env_var_counts_as_unset(capsys, isolated_cwd, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, "")
    run_json(capsys, "count", "--d", "3", "--delta", "1")
    assert (isolated_cwd / "severi.cache").exists()


@pytest.mark.parametrize("command", [
    pytest.param(["count", "--d", "5", "--delta", "2"], id="count"),
    pytest.param(["table", "--dmax", "3", "--deltamax", "1"], id="table"),
    pytest.param(["cache", "stats"], id="stats"),
    pytest.param(["cache", "clear"], id="clear"),
])
def test_empty_cache_flag_is_usage_error(capsys, isolated_cwd, command):
    # refused before any work: no count, no cache or lock file, nothing cleared
    run_json(capsys, "count", "--d", "3", "--delta", "1")
    before = {path.name: path.read_bytes() for path in isolated_cwd.iterdir()}
    expect_error(capsys, 1, "UsageError", *command, "--cache", "")
    assert {path.name: path.read_bytes() for path in isolated_cwd.iterdir()} == before


def test_cache_stats_and_clear(capsys, isolated_cwd):
    doc, _ = run_json(capsys, "cache", "stats")
    assert doc["entries"] == 0
    run_json(capsys, "count", "--d", "4", "--delta", "2")
    doc, _ = run_json(capsys, "cache", "stats")
    assert doc["version"] == "v1"
    assert doc["entries"] > 0
    doc, _ = run_json(capsys, "cache", "clear")
    assert doc["cleared"] is True
    assert not (isolated_cwd / "severi.cache").exists()
    doc, _ = run_json(capsys, "cache", "clear")
    assert doc["cleared"] is False


def test_clear_racing_another_clear_reports_not_cleared(capsys, isolated_cwd, monkeypatch):
    run_json(capsys, "count", "--d", "4", "--delta", "2")
    remove = os.remove

    def racing_remove(path):
        remove(path)  # a concurrent clear gets there first
        remove(path)

    monkeypatch.setattr(os, "remove", racing_remove)
    doc, _ = run_json(capsys, "cache", "clear")
    assert doc["cleared"] is False
    assert not (isolated_cwd / "severi.cache").exists()


def test_cache_stats_reports_what_is_persisted(capsys, isolated_cwd):
    doc, _ = run_json(capsys, "cache", "stats")
    assert doc == {
        "path": "./severi.cache", "version": "v1", "entries": 0,
        "absolute": 0, "relative": 0, "bytes": 0,
    }
    run_json(capsys, "count", "--d", "4", "--delta", "2")
    run_json(capsys, "count", "--d", "4", "--delta", "1", "--alpha", "1", "--beta", "3")
    doc, _ = run_json(capsys, "cache", "stats")
    assert doc == {
        "path": "./severi.cache", "version": "v1", "entries": 2,
        "absolute": 1, "relative": 1,
        "bytes": (isolated_cwd / "severi.cache").stat().st_size,
    }


def test_relative_root_is_persisted_and_served_warm(capsys, isolated_cwd):
    argv = ("count", "--d", "5", "--delta", "1", "--alpha", "0,1", "--beta", "1,1")
    cold, _ = run_json(capsys, *argv)
    key = (5, 1, (0, 1), (1, 1))
    warm = engine.cache_load(isolated_cwd / "severi.cache")
    assert dict(warm.items()) == {key: int(cold["value"])}
    assert str(relative_severi(5, 1, (0, 1), (1, 1), cache=warm)) == cold["value"]
    assert (warm.hits, warm.misses) == (1, 0)
    assert run_json(capsys, *argv)[0] == cold


def test_read_only_call_leaves_the_file_alone(capsys, isolated_cwd):
    run_json(capsys, "table", "--dmax", "8", "--deltamax", "2")
    path = isolated_cwd / "severi.cache"
    before = path.stat()
    run_json(capsys, "count", "--d", "4", "--delta", "2")
    run_json(capsys, "nodepoly", "--delta", "1")
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_warm_run_output_is_byte_identical(capsys):
    args = ("table", "--dmax", "5", "--deltamax", "3")
    code, cold, _ = run_cli(capsys, *args)
    assert code == 0
    code, warm, _ = run_cli(capsys, *args)
    assert code == 0
    code, nocache, _ = run_cli(capsys, *args, "--no-cache")
    assert code == 0
    assert cold == warm == nocache


# ------------------------------------------------------------------ exit codes


def expect_error(capsys, expected_code, expected_type, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == expected_code
    doc = json.loads(out)
    assert doc["error"]["type"] == expected_type
    assert doc["error"]["message"]
    return doc["error"]["message"]


def test_invalid_state_is_input_error(capsys):
    expect_error(
        capsys, 1, "InvalidState", "count", "--d", "0", "--delta", "0", "--no-cache"
    )


def test_beta_weight_mismatch_is_input_error(capsys):
    expect_error(
        capsys, 1, "InvalidState",
        "count", "--d", "3", "--delta", "0", "--beta", "1", "--no-cache",
    )


def test_alpha_heavier_than_degree_is_input_error(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--d", "1", "--delta", "0", "--alpha", "0,1", "--no-cache"
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "InvalidState"
    assert error["message"] == "weight(alpha) + weight(beta) = 2+0 != d = 1"


def test_unknown_flag_is_usage_error(capsys):
    expect_error(capsys, 1, "UsageError", "count", "--degree", "3")


def test_missing_required_flag_is_usage_error(capsys):
    expect_error(capsys, 1, "UsageError", "count", "--d", "3")


def test_csv_outside_table_is_rejected(capsys):
    expect_error(
        capsys, 1, "UsageError",
        "count", "--d", "2", "--delta", "0", "--format", "csv", "--no-cache",
    )


def test_bad_dlist_is_usage_error(capsys):
    expect_error(
        capsys, 1, "UsageError",
        "bseries", "--order", "1", "--dlist", "2;3", "--no-cache",
    )


@pytest.mark.parametrize("values", ["1,x", "1/0"])
def test_bad_bell_values_are_usage_error(capsys, values):
    expect_error(capsys, 1, "UsageError", "bell", "--delta", "2", "--values", values)


def test_empty_table_is_input_error(capsys):
    expect_error(
        capsys, 1, "InvalidState", "table", "--dmax", "0", "--deltamax", "1", "--no-cache"
    )


def test_degree_too_small_is_input_error(capsys):
    expect_error(
        capsys, 1, "DegreeTooSmall",
        "bseries", "--order", "3", "--dlist", "2,3", "--no-cache",
    )


def test_negative_bseries_order_is_input_error(capsys):
    message = expect_error(
        capsys, 1, "ValueError",
        "bseries", "--order", "-1", "--dlist", "1,2", "--no-cache",
    )
    assert message == "order must be nonnegative"


def test_negative_predict_order_is_input_error(capsys):
    message = expect_error(
        capsys, 1, "ValueError",
        "predict", "--d", "3", "--order", "-1", "--dlist", "1,2", "--no-cache",
    )
    assert message == "order must be nonnegative"


def test_negative_forms_order_is_input_error(capsys):
    message = expect_error(capsys, 1, "ValueError", "forms", "--order", "-1")
    assert message == "order must be nonnegative"


@pytest.mark.parametrize("command", [
    ["bseries", "--order", "-1", "--dlist", "1,2"],
    ["predict", "--d", "1", "--order", "-1", "--dlist", "1,2"],
])
def test_rejected_extraction_prints_no_progress(capsys, command):
    # the notes follow extraction, so input it rejects leaves stderr empty
    code, _, err = run_cli(capsys, *command, "--no-cache")
    assert code == 1
    assert err == ""


@pytest.mark.parametrize("command", [
    pytest.param(["cache", "stats", "--no-cache"], id="stats"),
    pytest.param(["cache", "clear", "--no-cache"], id="clear"),
    pytest.param(["bell", "--delta", "2", "--values", "1,1", "--no-cache"], id="bell"),
    pytest.param(
        ["bell", "--delta", "2", "--values", "1,1", "--cache", "x.cache"], id="bell-cache"
    ),
    pytest.param(["forms", "--order", "3", "--no-cache"], id="forms"),
    pytest.param(["forms", "--order", "3", "--cache", "x.cache"], id="forms-cache"),
])
def test_cache_command_refuses_no_cache(capsys, isolated_cwd, command):
    # --no-cache reads and writes no file; the cache command acts on the
    # file, and bell and forms compute no count, so a mode flag they do not
    # take is a usage error and the directory stays as it was
    run_json(capsys, "count", "--d", "3", "--delta", "1")
    before = {path.name: path.read_bytes() for path in isolated_cwd.iterdir()}
    expect_error(capsys, 1, "UsageError", *command)
    assert {path.name: path.read_bytes() for path in isolated_cwd.iterdir()} == before


def test_predict_checks_the_degree_before_extracting(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("extract_b_series ran for a bad --d")

    monkeypatch.setattr(gyz, "extract_b_series", refuse)
    message = expect_error(
        capsys, 1, "ValueError",
        "predict", "--d", "0", "--order", "12", "--dlist", "13,14", "--no-cache",
    )
    assert message == "degree must be positive"


def test_unreadable_cache_header_is_input_error(capsys, isolated_cwd):
    bad = isolated_cwd / "bad.cache"
    bad.write_text("junk\n")
    expect_error(
        capsys, 1, "ParseError",
        "count", "--d", "2", "--delta", "0", "--cache", str(bad),
    )


def test_non_utf8_cache_is_input_error(capsys, isolated_cwd):
    bad = isolated_cwd / "bad.cache"
    bad.write_bytes(b"\xff\xfe\n")
    expect_error(capsys, 1, "ParseError", "cache", "stats", "--cache", str(bad))


def test_old_cache_version_is_input_error(capsys, isolated_cwd):
    old = isolated_cwd / "old.cache"
    old.write_text("SEVERI-CACHE v0\n")
    expect_error(
        capsys, 1, "VersionMismatch",
        "cache", "stats", "--cache", str(old),
    )


def test_corrupted_cache_is_internal_error(capsys, isolated_cwd):
    bad = isolated_cwd / "bad.cache"
    bad.write_text("SEVERI-CACHE v1\n2 1 - 2 3\n2 1 - 2 4\n")
    expect_error(
        capsys, 2, "CacheCorruption",
        "count", "--d", "2", "--delta", "0", "--cache", str(bad),
    )


def test_non_integral_prediction_is_internal_error(capsys, monkeypatch):
    # the other cross-checks exit 2 in test_corrupted_cache_is_internal_error
    # and in test_nodepoly's CLI tests
    def fail(*args, **kwargs):
        raise gyz.NonIntegralPrediction("n_1 = 1/2 is not an integer")

    monkeypatch.setattr(gyz, "gyz_predict", fail)
    message = expect_error(
        capsys, 2, "NonIntegralPrediction",
        "predict", "--d", "5", "--order", "1", "--dlist", "2,3", "--no-cache",
    )
    assert message == "n_1 = 1/2 is not an integer"


@pytest.mark.parametrize("command, callee", [
    ("nodepoly", "fit_node_polynomial"), ("threshold", "threshold_report"),
])
def test_a_delta_too_large_to_hold_is_an_environment_error(capsys, monkeypatch, command, callee):
    # a MemoryError, such as an allocation past what the machine holds,
    # is the environment's: the callee raises it without allocating
    from severi import nodepoly

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(nodepoly, callee, exhausted)
    code, out, _ = run_cli(capsys, command, "--delta", "100000000000000", "--no-cache")
    assert code == 1
    assert json.loads(out) == {"error": {"type": "MemoryError", "message": ""}}


_HUGE = "100000000000000"  # 10^14: far past MAX_READ_DELTA, rows of delta + 1 counts
_HUGE_READS = [
    ["bseries", "--order", _HUGE, "--dlist", "100000000000001,100000000000002"],
    ["predict", "--d", "100000000000003", "--order", _HUGE,
     "--dlist", "100000000000001,100000000000002"],
    ["logforms", "--deltamax", _HUGE],
    ["nodepoly", "--delta", _HUGE],
    ["threshold", "--delta", _HUGE],
]


@pytest.mark.parametrize("argv", _HUGE_READS, ids=lambda argv: argv[0])
def test_a_read_too_large_to_hold_is_an_environment_error(capsys, monkeypatch, argv):
    # all five read through nodepoly's node_values, which raises
    # MemoryError here without allocating
    from severi import nodepoly

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(nodepoly, "node_values", exhausted)
    code, out, _ = run_cli(capsys, *argv, "--no-cache")
    assert code == 1
    assert json.loads(out) == {"error": {"type": "MemoryError", "message": ""}}


def _under_a_gib(code: str, *args: str) -> subprocess.CompletedProcess:
    # the child caps its own address space, so a read that did allocate
    # would fail instead of taking the machine's memory
    script = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n" + code
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=child_env(), timeout=60)


def test_a_read_too_large_to_hold_fails_before_its_first_count():
    proc = _under_a_gib(
        "from severi import engine\n"
        "def counted(*args, **kwargs):\n"
        "    raise AssertionError('counted before the read was refused')\n"
        "engine.relative_severi = counted\n"
        "try:\n"
        "    engine.node_values([1], 10**14)\n"
        "except engine.ReadTooLarge:\n"
        "    print('ReadTooLarge')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ReadTooLarge\n"


@pytest.mark.parametrize("argv", _HUGE_READS, ids=lambda argv: argv[0])
def test_a_read_too_large_to_hold_returns_at_once(argv):
    # the bound on delta refuses the read before any allocation or any
    # count at degree 5 . 10^13, which would never return
    proc = _under_a_gib("import sys\nfrom severi.cli import main\nsys.exit(main(sys.argv[1:]))\n",
                        *argv, "--no-cache")
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout) == {"error": {
        "type": "ReadTooLarge",
        "message": f"a read at delta = {_HUGE} is past MAX_READ_DELTA = {engine.MAX_READ_DELTA}",
    }}


@pytest.mark.parametrize("argv", [
    ["nodepoly", "--delta", "7"], ["threshold", "--delta", "7"], ["logforms", "--deltamax", "7"],
    ["bseries", "--order", "7", "--dlist", "8,9"],
    ["predict", "--d", "9", "--order", "7", "--dlist", "8,9"],
    ["count", "--d", "8", "--delta", "7"],  # read_degrees(7) = 4..7
    ["table", "--dmax", "8", "--deltamax", "7"],
], ids=lambda argv: argv[0])
def test_a_read_past_the_bound_is_refused_before_it_counts(capsys, monkeypatch, argv):
    monkeypatch.setattr(engine, "MAX_READ_DELTA", 6)
    if argv[0] != "table":  # a table counts its cells below the read first
        monkeypatch.setattr(engine, "relative_severi", None)  # no count may be asked for
    message = expect_error(capsys, 1, "ReadTooLarge", *argv, "--no-cache")
    assert message == "a read at delta = 7 is past MAX_READ_DELTA = 6"


def test_the_bound_is_on_reads_only(capsys, monkeypatch):
    # a read at the bound answers, and so does a count the recursion makes
    monkeypatch.setattr(engine, "MAX_READ_DELTA", 6)
    doc, _ = run_json(capsys, "nodepoly", "--delta", "6", "--no-cache")
    assert doc["fit_range"] == list(range(8, 21))
    doc, _ = run_json(capsys, "count", "--d", "7", "--delta", "7", "--no-cache")
    assert doc["value"] == str(relative_severi(7, 7))


def test_the_found_read_fails_within_a_second():
    # order 2 . 10^7 fits in memory but can never be counted
    argv = ["bseries", "--order", "20000000", "--dlist", "20000001,20000002", "--no-cache"]
    script = ("import sys, time\nfrom severi.cli import main\nstart = time.perf_counter()\n"
              "code = main(sys.argv[1:])\nprint(time.perf_counter() - start, file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = _under_a_gib(script, *argv)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "ReadTooLarge"
    assert float(proc.stderr) < 1.0


@pytest.mark.parametrize("argv", [["count", "--d", "3", "--delta", "1"], ["cache", "stats"]])
def test_cache_file_removed_mid_call_counts_as_empty(capsys, isolated_cwd, monkeypatch, argv):
    run_json(capsys, "count", "--d", "2", "--delta", "1")
    load = engine.cache_load

    def removed_first(path):
        if os.path.exists(path):
            os.remove(path)  # as by `severi cache clear` in another process
        return load(path)

    monkeypatch.setattr(engine, "cache_load", removed_first)
    doc, _ = run_json(capsys, *argv)
    if argv[0] == "cache":
        assert (doc["entries"], doc["bytes"]) == (0, 0)
    else:
        assert doc["value"] == "12"
        assert (isolated_cwd / "severi.cache").read_text() == "SEVERI-CACHE v1\n3 1 - 3 12\n"


def test_bseries_takes_one_exp_per_series(capsys, monkeypatch):
    exps = []
    exp = severi.RatSeries.exp

    def counting(series):
        exps.append(series)
        return exp(series)

    monkeypatch.setattr(severi.RatSeries, "exp", counting)
    run_json(capsys, "bseries", "--order", "6", "--dlist", "7,8,9", "--no-cache")
    assert len(exps) == 2  # exp(log B1) and exp(log B2), read twice each


# ------------------------------------------------------- one parser per process


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    run_json(capsys, "count", "--d", "3", "--delta", "1", "--no-cache")
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    # subparsers are _Parser instances too, so any rebuild shows here
    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    run_json(capsys, "count", "--d", "4", "--delta", "2", "--no-cache")
    expect_error(capsys, 1, "UsageError", "count", "--degree", "3")
    code, out, _ = run_cli(
        capsys, "table", "--dmax", "2", "--deltamax", "1", "--format", "csv", "--no-cache"
    )
    assert code == 0
    assert out.startswith("d,delta,value\n")
    assert built == []


def test_optional_flags_do_not_carry_over(capsys):
    first, _ = run_json(
        capsys, "count", "--d", "3", "--delta", "0", "--alpha", "1", "--beta", "2",
        "--no-cache",
    )
    assert set(first) == {"d", "delta", "alpha", "beta", "value"}
    second, _ = run_json(capsys, "count", "--d", "3", "--delta", "0", "--no-cache")
    assert set(second) == {"d", "delta", "value"}


def test_usage_error_leaves_the_parser_usable(capsys):
    expect_error(capsys, 1, "UsageError", "count", "--d", "4", "--delta", "two")
    doc, _ = run_json(capsys, "count", "--d", "4", "--delta", "2", "--no-cache")
    assert doc["value"] == "225"


def test_help_exits_zero_and_the_next_call_works(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: severi count")
    doc, _ = run_json(capsys, "count", "--d", "4", "--delta", "2", "--no-cache")
    assert doc["value"] == "225"


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_every_subcommand_has_a_runner(capsys):
    # main calls the `run` default its subcommand's parser sets
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    choices = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1).split(",")
    parsers = subcommand_parsers()
    for name in choices:
        assert callable(parsers[name].get_default("run")), name


# ------------------------------------------------------------------ entry point


def child_env() -> dict:
    # A child starts in the tmp directory of isolated_cwd, where a relative
    # PYTHONPATH entry such as "src" no longer points at the package. Put the
    # directory of the severi this suite imported first, so the child runs
    # the code under test wherever that came from.
    package_root = str(pathlib.Path(severi.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, inherited]))
    return env


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "severi", "count", "--d", "5", "--delta", "2", "--no-cache"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"d": 5, "delta": 2, "value": "882"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_unwritable_stdout_reports_on_stderr():
    # every write to /dev/full fails with ENOSPC: the error goes to stderr
    # as the one JSON document there, with no traceback and nothing printed
    # at shutdown
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "severi", "count", "--d", "3", "--delta", "1", "--no-cache"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"]["type"] == "OSError", proc.stderr


def test_failed_flush_of_the_document_is_input_error(capsys, monkeypatch):
    class Full(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["count", "--d", "3", "--delta", "1", "--no-cache"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "OSError", "message": "[Errno 28] No space left on device"}


def test_concurrent_processes_keep_both_roots(isolated_cwd):
    # the quick run saves while the slow one still computes; the slow one's
    # save must merge the file under the lock instead of replacing it.  The
    # slow run is a relative count, which keeps the recursion; the quick one
    # is past degree lo + 2 and also persists the counts it read there
    path = isolated_cwd / "shared.cache"
    queries = [["--d", "25", "--delta", "7", "--alpha", "1", "--beta", "24"],
               ["--d", "50", "--delta", "1"]]
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "severi", "count", *query, "--cache", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
        for query in queries
    ]
    values = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        values.append(int(json.loads(out)["value"]))
    read = {(e, k, (), (e,)): engine.severi_degree(e, k, cache=engine.CacheStore())
            for e in range(1, 4) for k in range(2)}
    assert dict(engine.cache_load(path).items()) == {
        (25, 7, (1,), (24,)): values[0],
        (50, 1, (), (50,)): values[1],
        **read,
    }
    assert values[1] == 3 * 49**2


def test_console_script_if_installed():
    import shutil

    exe = shutil.which("severi")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "forms", "--order", "1"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["u"] == ["0", "1"]
