"""Machine-speed probe, so that timings from a shared host can be compared.

On a shared host the speed of the interpreter drifts by 20% and more over
tens of seconds (other tenants on the same cores and caches), in CPU time
as much as in wall time. A fixed kernel that imports nothing from lintab
but does the same kind of work (tagged terms, a dict-based binding trail,
a unification stack, generator resumption) slows down with the host.
run.py times the kernel next to the ops and reports every op time as
seconds at reference speed:

    reported = measured * (REFERENCE_S / kernel time nearby) ** SENSITIVITY

A change to lintab cannot move the kernel, so it moves the reported
times exactly as it moves the measured ones; only the host's drift is
divided out. run.py prints the raw medians next to the reported ones.
"""

from __future__ import annotations

import gc
import time

# Kernel time at reference speed, about its median on a 2.1 GHz Xeon vCPU
# under CPython 3.11. Only a unit; changing it rescales every time metric.
REFERENCE_S = 0.025
# The kernel lives in the first-level caches and slows down more than
# lintab, which also waits on memory: across runs on a shared 2-vCPU Xeon
# host, op times moved with the kernel's time to a power of 0.6 to 1.0
# (0.8 kept the largest run-to-run spread of the four workloads lowest).
SENSITIVITY = 0.8
# `import lintab` runs in a fresh interpreter, which times the kernel itself
# just before importing; import times moved with that kernel to a power of
# about 0.5 (unmarshalling and module bodies, more memory-bound still).
SETUP_SENSITIVITY = 0.5

_ROUNDS = 600
_FACTS = 40


class _Term:
    __slots__ = ("functor", "args")

    def __init__(self, functor, args):
        self.functor = functor
        self.args = args


def _deref(t, bindings):
    while type(t) is int and t in bindings:
        t = bindings[t]
    return t


def _unify(x, y, bindings) -> bool:
    stack = [(x, y)]
    while stack:
        a, c = stack.pop()
        a = _deref(a, bindings)
        c = _deref(c, bindings)
        if type(a) is int:
            bindings[a] = c
        elif type(c) is int:
            bindings[c] = a
        elif type(a) is str or type(c) is str:
            if a != c:
                return False
        elif a.functor != c.functor or len(a.args) != len(c.args):
            return False
        else:
            stack.extend(zip(a.args, c.args))
    return True


def _goals(n):
    for j in range(n):
        yield _Term("e", (0, f"a{j % 13}"))


def _work() -> int:
    facts = [_Term("e", (f"a{i % 13}", f"a{i * 7 % 13}")) for i in range(_FACTS)]
    matched = 0
    for goal in _goals(_ROUNDS):
        for fact in facts:
            if _unify(goal, fact, {}):
                matched += 1
    return matched


_EXPECTED = 1847  # goals e(0,a(j mod 13)) against facts e(_,a(7i mod 13))


def kernel() -> float:
    """Seconds the fixed kernel takes now (garbage collection paused)."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        matched = _work()
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    if matched != _EXPECTED:
        raise RuntimeError(f"calibration kernel miscomputed: {matched} != {_EXPECTED}")
    return elapsed
