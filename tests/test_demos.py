"""Every walkthrough in demos/ runs to completion against this package."""

import pathlib
import subprocess
import sys

import pytest

from test_cli import child_env

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) >= 5


def run_demo(demo, cwd) -> str:
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    assert run_demo(demo, tmp_path).strip()


def test_node_polynomial_demo_names_the_degrees_the_engine_reads(tmp_path):
    # T_4 is read at lo = ceil(4/2) + 1 = 3 and lo + 1, checked at lo - 1 and
    # lo + 2, not at Block's delta = 4
    demo = DEMOS[0].with_name("node_polynomials.py")
    lines = run_demo(demo, tmp_path).splitlines()
    t4 = lines.index(next(line for line in lines if line.startswith("  T_4(d) = ")))
    assert lines[t4 + 1] == (
        "      fitted on d = 6..14 from the counts at d = 2..5, checked against q(u)/u"
    )


def test_b_series_demo_names_the_degrees_the_engine_reads(tmp_path):
    demo = DEMOS[0].with_name("b_series.py")
    first = run_demo(demo, tmp_path).splitlines()[0]
    assert first == "Extracting B1, B2 to order 6 from degrees 3..6..."
