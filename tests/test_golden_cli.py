"""Golden CLI transcript: the README's commands answer byte for byte as recorded.

The fixture holds the exit code and standard output of each command run
three ways: with --no-cache, against a fresh cache file, and again
against the now warm file.  `bell` and `forms` take no store, so they run
without those flags in every mode.  A second fixture holds the deep
commands, up to delta = 20, run with --no-cache only.  A change that
alters any answer fails here.  Regenerate the fixtures only when an
answer is meant to change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import pathlib
import re
import sys
import tempfile

FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "golden_cli.json"
DEEP_FIXTURE = FIXTURE.with_name("golden_cli_deep.json")
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# the README's command list; `cache stats` and `cache clear` describe the
# file rather than the counts and are covered in test_cli.py
COMMANDS = [
    "count --d 4 --delta 2",
    "count --d 4 --delta 1 --alpha 1 --beta 3",
    "count --d 100000000000000000000 --delta 3",
    "table --dmax 6 --deltamax 4 --format csv",
    "nodepoly --delta 3",
    "threshold --delta 4",
    "logforms --deltamax 4",
    "bell --delta 3 --values 1,1,1",
    "bseries --order 6 --dlist 7,8,9,10,11",
    "predict --d 12 --order 6 --dlist 7,8,9,10,11",
    "forms --order 8",
]

MODES = {
    "no-cache": ["--no-cache"],
    "cold": ["--cache", "golden.cache"],
    "warm": ["--cache", "golden.cache"],
}

STORELESS = ("bell", "forms")

# the README stops at delta = 4; these read the counts up to delta = 20
DEEP_COMMANDS = [
    "threshold --delta 12",
    "nodepoly --delta 12",
    "logforms --deltamax 12",
    "bseries --order 12 --dlist 13,14",
    "threshold --delta 16",
    "logforms --deltamax 16",
    "nodepoly --delta 20",
    "threshold --delta 20",
    "nodepoly --delta 17",
    "bseries --order 17 --dlist 18,19",
]


def transcript(commands=COMMANDS, modes=MODES) -> list[dict]:
    """Run every command in every mode from the current directory."""
    from severi.cli import main

    records = []
    for mode, extra in modes.items():
        for command in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                argv = command.split()
                code = main(argv + ([] if argv[0] in STORELESS else extra))
            records.append(
                {"mode": mode, "command": command, "exit": code, "stdout": out.getvalue()}
            )
    return records


def deep_transcript() -> list[dict]:
    return transcript(DEEP_COMMANDS, {"no-cache": MODES["no-cache"]})


def assert_matches(got, fixture):
    expected = json.loads(fixture.read_text(encoding="utf-8"))
    assert [(r["mode"], r["command"]) for r in got] == [
        (r["mode"], r["command"]) for r in expected
    ]
    for g, e in zip(got, expected):
        assert (g["exit"], g["stdout"]) == (e["exit"], e["stdout"]), (g["mode"], g["command"])


def test_transcript_matches_fixture(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SEVERI_CACHE", raising=False)
    assert_matches(transcript(), FIXTURE)


def test_deep_commands_match_their_fixture(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SEVERI_CACHE", raising=False)
    assert_matches(deep_transcript(), DEEP_FIXTURE)


def test_commands_are_the_readme_list_and_the_parser_choices():
    from test_cli import subcommand_parsers

    readme = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, flags=re.DOTALL).group(1)
    lines = [line.removeprefix("severi ") for line in block.splitlines()]
    assert [line for line in lines if not line.startswith("cache ")] == COMMANDS
    subcommands = list(dict.fromkeys(line.split()[0] for line in lines))
    assert subcommands == list(subcommand_parsers())


if __name__ == "__main__":
    os.environ.pop("SEVERI_CACHE", None)
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        fixtures = {FIXTURE: transcript(), DEEP_FIXTURE: deep_transcript()}
    for fixture, records in fixtures.items():
        fixture.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(records)} records to {fixture}", file=sys.stderr)
