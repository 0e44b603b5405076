"""Embeddable tabled logic-programming engine with linear tabling."""

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
from .oracle import OracleInapplicable, oracle_solve

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


def load_program(text: str) -> AnnotatedProgram:
    """Parse and analyze program text into a runnable program handle."""
    return analyze(parse_program(text))
