"""The scripts under scripts/ run against the current sources."""

import shutil
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, code=0):
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == code, out.stderr
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
    assert "  eager: stream = ['p(a,b)', 'p(a,c)']" in lines


def test_complexity_consumption():
    lines = run_script("complexity.py", "--sizes", "20", "40")
    assert [line for line in lines if line.startswith("== ")] == [
        "== tabled, gate on, early promotion",
        "== tabled, gate on, no promotion",
        "== tabled, gate off",
        "== non-tabled helper, gate on",
        "== eager, gate on, early promotion",
    ]
    assert sum(line.startswith("  n=   20  answers_consumed=") for line in lines) == 5
    assert sum(line.startswith("  n=   40  answers_consumed=") for line in lines) == 5


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


def test_ab_query_smoke():
    # the current sources against themselves: same answers and counters
    lines = run_script(
        "ab_query.py", "--parent-src", str(SCRIPTS.parent / "src"),
        "--workload", "sg-random", "--strategy", "lazy", "--reps", "1", "--instances", "2",
    )
    assert lines[0] == "workload=sg-random strategy=lazy seed=13 instances=2 reps=1"
    assert lines[-1] == (
        "counters identical: steps clause_resolutions answers_consumed answers_produced subgoals max_its"
    )
    assert lines[-2].startswith("median per-instance ratio change/parent = ")


def run_ab_query_against_patched_copy(tmp_path, old, new, code):
    """ab_query.py with, as the parent, a copy of src/lintab whose engine
    has `old` replaced by `new`."""
    shutil.copytree(SCRIPTS.parent / "src" / "lintab", tmp_path / "lintab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    engine = tmp_path / "lintab" / "engine.py"
    text = engine.read_text()
    assert text.count(old) == 1
    engine.write_text(text.replace(old, new))
    return run_script(
        "ab_query.py", "--parent-src", str(tmp_path),
        "--workload", "sg-random", "--strategy", "lazy", "--reps", "2", "--instances", "2",
        code=code,
    )


def test_ab_query_times_a_counter_change(tmp_path):
    # same answers, one counter increment doubled: all reps run, exit 3
    lines = run_ab_query_against_patched_copy(
        tmp_path, "self.stats.answers_consumed += 1", "self.stats.answers_consumed += 2", code=3
    )
    assert lines[-8].startswith("median per-instance ratio change/parent = ")
    assert lines[-7].startswith("counters differ on 2 of 2 instances, first sg-random-0")
    totals = {f[0]: (int(f[1].split("=")[1]), int(f[2].split("=")[1])) for f in map(str.split, lines[-6:])}
    assert list(totals) == [
        "steps", "clause_resolutions", "answers_consumed", "answers_produced", "subgoals", "max_its"
    ]
    parent, change = totals.pop("answers_consumed")
    assert parent == 2 * change > 0
    assert all(p == c for p, c in totals.values())
    assert lines[-4].endswith("  differs") and not lines[-3].endswith("differs")


def test_ab_query_reports_a_stream_change(tmp_path):
    # same answer sets and counters, each solution yielded twice: exit 3
    lines = run_ab_query_against_patched_copy(
        tmp_path, "                yield text\n", "                yield text\n" * 2, code=3
    )
    assert lines[-3].startswith("median per-instance ratio change/parent = ")
    assert lines[-2].startswith("solution streams differ on 2 of 2 instances, first sg-random-0")
    assert lines[-1].startswith("counters identical: ")


def test_ab_query_stops_on_a_wrong_answer(tmp_path):
    lines = run_ab_query_against_patched_copy(tmp_path, "yield text\n", "yield text + 'x'\n", code=1)
    assert lines[1].startswith("FAILED sg-random-0") and lines[1].endswith("wrong answer from the parent")
    assert not any(line.startswith("median per-instance ratio") for line in lines)
