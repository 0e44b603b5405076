"""The scripts under scripts/ run against the current sources."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_worked_traces():
    lines = run_script("worked_traces.py")
    headers = [line for line in lines if line.startswith("== ")]
    assert headers == [
        "== left-recursive transitive closure  (query: p(a,Y0))",
        "== two-fact self join  (query: p(X),p(Y))",
        "== fresh-subgoal guard  (query: p(X,Y))",
        "== fresh-subgoal guard, fact first  (query: p(X,Y))",
        "== self-feeding pair  (query: p(X,Y))",
    ]
    assert "  lazy : stream = ['p(a,b)', 'p(a,c)']" in lines


def test_complexity_consumption():
    lines = run_script("complexity.py", "--sizes", "20", "40")
    assert [line for line in lines if line.startswith("== ")] == [
        "== tabled, gate on, early promotion",
        "== tabled, gate on, no promotion",
        "== tabled, gate off",
        "== non-tabled helper, gate on",
    ]
    assert sum(line.startswith("  n=   20  answers_consumed=") for line in lines) == 4
    assert sum(line.startswith("  n=   40  answers_consumed=") for line in lines) == 4


def test_complexity_analyze():
    lines = run_script("complexity.py", "--analyze", "--sizes", "100", "200")
    assert len(lines) == 2
    assert lines[0].startswith("facts=  100  parse=")
    assert lines[1].startswith("facts=  200  parse=") and " ratio " in lines[1]


def test_differential_smoke():
    lines = run_script("differential.py", "--seed", "0", "--programs", "3")
    assert lines[0] == "programs=3 seeds=0..2"
    rows = [line for line in lines if " raised=" in line]
    assert len(rows) == 6
    assert all(" raised=0 outside=0 " in row for row in rows)
