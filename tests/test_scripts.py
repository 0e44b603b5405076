"""The scripts under scripts/ run against the current sources."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from lintab.bench import ModelGaps

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


def test_complexity_analyze():
    lines = run_script("complexity.py", "--sizes", "100", "200")
    assert len(lines) == 2
    assert lines[0].startswith("facts=  100  parse=")
    assert lines[1].startswith("facts=  200  parse=") and " ratio " in lines[1]


def test_differential_smoke():
    lines = run_script("differential.py", "--seed", "0", "--programs", "3")
    assert lines[0] == "programs=3 seeds=0..2"
    rows = [line for line in lines if " raised=" in line]
    assert len(rows) == 6
    assert all(" raised=0 outside=0 " in row for row in rows)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "title,gaps,code",
    [
        ("raised", ModelGaps(error="EngineError: planted"), 1),
        ("outside", ModelGaps(outside={"p(X): p(9)"}), 1),
        ("missing", ModelGaps(missing={"p(X): p(9)"}), 0),  # reported, not failed
    ],
    ids=["raised", "outside", "missing"],
)
def test_differential_exit_code(monkeypatch, capsys, title, gaps, code):
    # one config of seed 0 reports a planted gap
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script prepends src/
    differential = load_script("differential.py")
    real = differential.model_gaps

    def planted(text, query):
        found = real(text, query)
        found[next(iter(found))] = gaps
        return found

    monkeypatch.setattr(differential, "model_gaps", planted)
    assert differential.main(["--seed", "0", "--programs", "1"]) == code
    assert f"seeds {title}: 0" in capsys.readouterr().out.splitlines()


def run_ab_query_against_patched_copy(tmp_path, code, module="engine.py", old="", new=""):
    """ab_query.py with, as the parent, a copy of src/lintab whose `module`
    has `old` replaced by `new`; returns the runs that differ per part and
    the last line."""
    shutil.copytree(SCRIPTS.parent / "src" / "lintab", tmp_path / "lintab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if old:
        path = tmp_path / "lintab" / module
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
    lines = run_script("ab_query.py", "--parent-src", str(tmp_path), "--seed", "1", "--programs", "1",
                       code=code)
    assert bool(code) == lines[0].startswith("first difference: ")
    differ = {f[0]: int(f[1]) for f in map(str.split, lines[1:-1])}
    return differ, lines[-1]


def test_ab_query_against_itself(tmp_path):
    differ, last = run_ab_query_against_patched_copy(tmp_path, code=0)
    assert differ == {}
    assert last == "instances=28 configs=6 runs differ=0"


@pytest.mark.parametrize(
    "module,old,new,parts",
    [
        ("engine.py", "self.stats.answers_consumed += 1", "self.stats.answers_consumed += 2",
         {"counters", "closed"}),
        ("engine.py", "                yield emit(arg, self.bound)\n",
         "                yield emit(arg, self.bound)\n" * 2, {"stream"}),
        ("table.py", '"complete" if entry.state', '"done" if entry.state', {"tables"}),
        # a ground answer counted as holding a variable: renamed for nothing
        ("table.py", "self.nvars.append(0)", "self.nvars.append(1)", {"nvars"}),
        # a closed run keeps the bindings its abandoned generators made
        ("engine.py", "            undo(self.bound, self.trail, mark)\n", "", {"closed"}),
        # the semi-naive skip of a base rule past round 1 raises instead
        ("engine.py", "continue  # a base rule derives nothing new after round 1",
         'raise EngineError("planted")',
         {"raised", "stream", "rounds", "counters", "tables", "nvars", "closed"}),
        # the oracle's text for a solution, which `lintab run --oracle` compares
        ("terms.py", "return map(Template(goals).fill, solutions)",
         'return (v.upper() for v in map(Template(goals).fill, solutions))', {"oracle"}),
        # each pass's facts put at the front of the model: the same
        # solution sets, so only the model's fact order shows it
        ("oracle.py", "model.setdefault(hk, []).extend(facts)", "model.setdefault(hk, [])[:0] = facts",
         {"model"}),
        # one more variable counted on each fact: these facts are ground,
        # so no run binds or shows it, and only the parsed items do
        ("parser.py", "items.append(new_clause(head, body, self.nvars))",
         "items.append(new_clause(head, body, self.nvars + (not body)))", {"load"}),
    ],
    ids=["counters", "stream", "tables", "nvars", "closed", "raised", "oracle", "model", "load"],
)
def test_ab_query_names_the_part_that_differs(tmp_path, module, old, new, parts):
    differ, last = run_ab_query_against_patched_copy(tmp_path, 1, module, old, new)
    runs = int(last.rsplit("=", 1)[1])
    assert last.startswith("instances=28 configs=6 runs differ=") and runs > 0
    assert {part for part, n in differ.items() if n} == parts
    assert all(differ[part] <= runs for part in parts)
