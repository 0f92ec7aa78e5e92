"""Every walkthrough in demos/ runs to completion against this package."""

import pathlib
import subprocess
import sys

import pytest

from test_cli import child_env

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
