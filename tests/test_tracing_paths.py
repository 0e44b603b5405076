"""Guard for the benchmark's traced mode (`perfbench/run.py --trace 1`).

The tracer wraps lintab names by dotted path from outside, so renaming or
moving one of them breaks traced runs only. These tests read
`perfbench/tracing.py` without importing it as a package, so nothing is
written under `perfbench/`.
"""

import types
from pathlib import Path

import pytest

import lintab.corpus as corpus
from lintab import load_program
from lintab.engine import Engine

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    mod = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


tracing = _load_tracing()
PATHS = [path for path, _, _ in tracing.SPANS + tracing.LEAVES] + [tracing.EVALUATE[0]]


@pytest.mark.parametrize("path", PATHS)
def test_traced_path_resolves(path):
    owner, attr = tracing._resolve(path)
    # the tracer reads a class attribute from the class itself
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(found), f"{path} names nothing callable"


def test_tracer_installs_records_and_restores():
    originals = [(o, a, getattr(o, a)) for o, a in map(tracing._resolve, PATHS)]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        program = load_program(corpus.LEFT_RECURSIVE_TC)
        assert list(Engine(program).run("p(a,Y)")) == ["p(a,b)", "p(a,c)"]
        # its heads are all open, so only a head that binds calls unify
        program = load_program(corpus.LEFT_RECURSIVE_TC + "q(a,Y) :- p(a,Y).\n")
        assert list(Engine(program).run("q(X,c)")) == ["q(a,c)"]
    finally:
        tracer.uninstall()
    names = {span["name"] for span in tracer.spans}
    assert {"analysis.analyze", "engine.evaluate"} <= names
    leaves = {name for _, name in tracer.leaves}
    assert {"terms.unify", "table.insert_answer", "table.register_subgoal"} <= leaves
    assert all(getattr(o, a) is f for o, a, f in originals)
