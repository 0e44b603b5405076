"""Parser for the clausal program dialect.

Grammar (UTF-8 source):

    :- table name/arity [lazy|eager].      table declaration
    head.                                  fact
    head :- goal, ..., goal.               rule
    % comment to end of line

Atoms and functors are lower-case identifiers, variables start with an
upper-case letter or underscore, integers are optionally signed digit
runs. Within one clause, variables get ids 0..n-1 in first-occurrence
order; `_` is fresh at every occurrence. Clauses are renamed apart at
activation time, not here.

Constant and variable arguments are read in place and only a compound
argument recurses: one Python frame per nesting level.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Optional, Union

from .terms import Record, Struct, Term, Var, new_struct


class ProgramSyntaxError(Exception):
    """Syntax error carrying 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class TableDeclaration(Record):
    """A `:- table name/arity [strategy].` item: a frozen value."""

    __slots__ = ("name", "arity", "strategy")

    def __init__(self, name: str, arity: int, strategy: Optional[str] = None):
        # strategy None = engine default, else "lazy"/"eager"
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "strategy", strategy)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Clause(Record):
    """A fact or rule: a value, slotted and not frozen to build faster
    (nothing assigns its fields later)."""

    __slots__ = ("head", "body", "nvars")

    def __init__(self, head: Term, body: tuple[Term, ...], nvars: int):
        if type(head) is not Struct and type(head) is not str:
            raise ValueError("clause head must be an atom or compound")
        self.head = head
        self.body = body
        self.nvars = nvars


Item = Union[Clause, TableDeclaration]

# One scan yields every token as a string; the kind is read off its first
# character. `\S` catches any character no token starts with, so the
# parser meets it as a stray and reports it. The alternatives before it
# share no first character, so punctuation, the commonest, goes first.
_TOKEN_RE = re.compile(
    r"[(),./]|-?\d+|[a-z][A-Za-z0-9_]*|[A-Z_][A-Za-z0-9_]*|:-|%[^\n]*|\S"
)
_ATOM_START = frozenset("abcdefghijklmnopqrstuvwxyz")
_VAR_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_VALID_SINGLE = _ATOM_START | _VAR_START | frozenset("(),./")


def _is_int(tok: str) -> bool:
    c = tok[:1]
    return c.isdecimal() or (c == "-" and len(tok) > 1)


def _position(text: str, index: int) -> tuple[int, int]:
    """1-based line and column of token number index, or of the text's end."""
    starts = (m.start() for m in _TOKEN_RE.finditer(text) if text[m.start()] != "%")
    offset = next(islice(starts, index, None), len(text))
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


class _Parser:
    def __init__(self, text: str):
        self.text = text
        tokens = _TOKEN_RE.findall(text)
        if "%" in text:
            tokens = [t for t in tokens if t[0] != "%"]
        tokens.append("")  # end of input
        self.tokens = tokens
        self.i = 0
        self.varmap: dict[str, int] = {}
        self.nvars = 0

    def error(self, message: str, at: Optional[int] = None):
        """Raise at token number at (default: the current one)."""
        self.raise_stray()  # a stray anywhere in the text comes first
        raise ProgramSyntaxError(
            message, *_position(self.text, self.i if at is None else at)
        )

    def raise_stray(self) -> None:
        """Raise at the first stray: one character that starts no token."""
        for k, t in enumerate(self.tokens):
            if len(t) == 1 and t not in _VALID_SINGLE and not t.isdecimal():
                raise ProgramSyntaxError(
                    f"unexpected character {t!r}", *_position(self.text, k)
                )

    def expect(self, text: str) -> None:
        tok = self.tokens[self.i]
        if tok != text:
            self.error(f"expected {text!r}, found {tok or 'end of input'!r}")
        self.i += 1

    def fresh_var(self, name: str) -> Var:
        vid = self.varmap.get(name)  # never "_", which is fresh each time
        if vid is None:
            vid = self.nvars
            self.nvars += 1
            if name != "_":
                self.varmap[name] = vid
        return Var(vid)

    def parse_term(self) -> Term:
        tokens = self.tokens
        i = self.i
        tok = tokens[i]
        c = tok[:1]
        if c in _ATOM_START:
            if tokens[i + 1] != "(":
                self.i = i + 1
                return tok
            args = []
            i += 1  # at the "("
            sep = ","
            while sep == ",":  # i is at the "(" or "," before an argument
                i += 1
                a = tokens[i]
                c = a[:1]
                if c in _VAR_START:
                    args.append(self.fresh_var(a))
                elif c in _ATOM_START and tokens[i + 1] != "(":
                    args.append(a)
                elif c.isdecimal() or (c == "-" and len(a) > 1):  # _is_int
                    args.append(int(a))
                else:  # a compound, or no term at all
                    self.i = i
                    args.append(self.parse_term())
                    i = self.i - 1  # at the compound's ")"
                i += 1
                sep = tokens[i]
            if sep != ")":
                self.i = i
                self.expect(")")
            self.i = i + 1
            return new_struct(tok, tuple(args))
        if c in _VAR_START:
            self.i += 1
            return self.fresh_var(tok)
        if _is_int(tok):
            self.i += 1
            return int(tok)
        self.error("expected a term")

    def parse_goal(self) -> Term:
        at = self.i
        t = self.parse_term()
        if not isinstance(t, (str, Struct)):
            self.error("goal must be an atom or compound", at)
        return t

    def parse_goals(self) -> list[Term]:
        """A goal, and one more after each ","."""
        goals = [self.parse_goal()]
        while self.tokens[self.i] == ",":
            self.i += 1
            goals.append(self.parse_goal())
        return goals

    def parse_declaration(self) -> TableDeclaration:
        self.expect("table")
        name = self.tokens[self.i]
        if name[:1] not in _ATOM_START:
            self.error(f"expected 'atom', found {name or 'end of input'!r}")
        self.i += 1
        self.expect("/")
        arity = self.tokens[self.i]
        if not _is_int(arity) or int(arity) < 0:
            self.error("declaration arity must be a non-negative integer")
        self.i += 1
        strategy = None
        if self.tokens[self.i] in ("lazy", "eager"):
            strategy = self.tokens[self.i]
            self.i += 1
        self.expect(".")
        return TableDeclaration(name, int(arity), strategy)

    def parse_clause(self) -> Clause:
        self.varmap = {}
        self.nvars = 0
        at = self.i
        head = self.parse_term()
        if not isinstance(head, (str, Struct)):
            self.error("clause head must be an atom or compound", at)
        body: tuple[Term, ...] = ()
        if self.tokens[self.i] == ":-":
            self.i += 1
            body = tuple(self.parse_goals())
        if self.tokens[self.i] != ".":
            self.expect(".")
        self.i += 1
        return Clause(head, body, self.nvars)

    def parse_items(self) -> list[Item]:
        items: list[Item] = []
        while (tok := self.tokens[self.i]) != "":
            if tok == ":-":
                self.i += 1
                items.append(self.parse_declaration())
            else:
                items.append(self.parse_clause())
        return items

    def parse_query(self) -> tuple[list[Term], int]:
        goals = self.parse_goals()
        if self.tokens[self.i] == ".":
            self.i += 1
        if self.tokens[self.i] != "":
            self.error("trailing input after query")
        return goals, self.nvars

    def run(self, rule):
        try:
            return rule()
        except RecursionError:
            self.error("term nested too deeply")


def parse_program(text: str) -> list[Item]:
    """Parse source text into declarations and clauses in source order."""
    p = _Parser(text)
    return p.run(p.parse_items)


def parse_query(text: str) -> tuple[list[Term], int]:
    """Parse a comma-separated goal conjunction.

    Returns the goals plus the number of distinct variables (ids 0..n-1).
    """
    p = _Parser(text)
    return p.run(p.parse_query)
