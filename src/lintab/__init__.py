"""Embeddable tabled logic-programming engine with linear tabling.

`import lintab` loads only what a query runs: the terms, parser,
analysis, table and engine modules. The bottom-up oracle (`oracle_solve`,
`OracleInapplicable`) is imported on first use.
"""

from .analysis import AnnotatedProgram, analyze
from .engine import (
    EAGER,
    LAZY,
    DepthExceeded,
    Engine,
    EngineError,
    EngineOptions,
    RunStats,
    StepBudgetExceeded,
    run_query,
)
from .parser import ProgramSyntaxError, parse_program, parse_query

__all__ = [
    "AnnotatedProgram",
    "DepthExceeded",
    "EAGER",
    "Engine",
    "EngineError",
    "EngineOptions",
    "LAZY",
    "OracleInapplicable",
    "ProgramSyntaxError",
    "RunStats",
    "StepBudgetExceeded",
    "analyze",
    "load_program",
    "oracle_solve",
    "parse_program",
    "parse_query",
    "run_query",
]


def __getattr__(name: str):
    # PEP 562: the oracle module loads when one of its names is first read
    if name in ("OracleInapplicable", "oracle_solve"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def load_program(text: str) -> AnnotatedProgram:
    """Parse and analyze program text into a runnable program handle."""
    return analyze(parse_program(text))
