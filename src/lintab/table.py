"""Subgoal table and three-region answer tables.

Every tabled subgoal variant owns one `SubgoalEntry` keyed by its
canonical form. Answers are stored append-only as canonical copies; two
integer boundaries split the list into the old / previous / current
regions. Promotion slides the boundaries forward between rounds; early
promotion moves the current region into previous the moment a follower
exhausts its answers, so those answers age out one round sooner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .terms import Bindings, Term, canonicalize, render, variables


class TableError(Exception):
    """Internal table misuse (engine bug), e.g. inserting when complete."""


@dataclass
class AnswerList:
    answers: list[Term] = field(default_factory=list)
    _index: dict[Term, int] = field(default_factory=dict)
    # per answer, its variable count: a canonical answer's variables are
    # numbered 0..n-1, so renaming it apart is one renumber by a fresh block
    nvars: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.answers)

    def add(self, ans: Term) -> bool:
        """Append unless a variant is already stored. Returns inserted."""
        if ans in self._index:
            return False
        self._index[ans] = len(self.answers)
        self.answers.append(ans)
        self.nvars.append(len(variables(ans)))
        return True

    def __iter__(self) -> Iterator[Term]:
        return iter(self.answers)


class SubgoalEntry:
    """Per-variant table record: answers, region markers, state flags."""

    __slots__ = (
        "key",
        "answers",
        "last_old",
        "last_prev",
        "complete",
        "evaluated",
        "revised",
        "pioneer_active",
        "promoted_this_round",
        "round_counter",
        "topmost",
        "dependents",
    )

    def __init__(self, key: Term):
        self.key = key
        self.answers = AnswerList()
        # old = answers[:last_old]; previous = [last_old:last_prev];
        # current = [last_prev:]
        self.last_old = 0
        self.last_prev = 0
        self.complete = False
        self.evaluated = False
        self.revised = False
        self.pioneer_active = False
        self.promoted_this_round = False
        self.round_counter = 0
        # None until the entry is found looping; then its cluster's
        # top-most entry, which points at itself
        self.topmost: Optional[SubgoalEntry] = None
        self.dependents: set[SubgoalEntry] = set()

    def __repr__(self):
        state = "complete" if self.complete else "incomplete"
        return f"<entry {render(self.key)} {state} {len(self.answers)} answers>"

    def regions(self) -> tuple[list[Term], list[Term], list[Term]]:
        a = self.answers.answers
        return a[: self.last_old], a[self.last_old : self.last_prev], a[self.last_prev :]


class SubgoalStore:
    """All entries of one engine run, in registration order."""

    def __init__(self):
        self.entries: dict[Term, SubgoalEntry] = {}

    def __iter__(self) -> Iterator[SubgoalEntry]:
        return iter(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)


def register_subgoal(
    store: SubgoalStore, goal: Term, b: Optional[Bindings] = None
) -> tuple[SubgoalEntry, bool]:
    """Find or create the entry for goal's variant class."""
    key = canonicalize(goal, b)
    entry = store.entries.get(key)
    if entry is not None:
        return entry, False
    entry = SubgoalEntry(key)
    store.entries[key] = entry
    return entry, True


def insert_answer(entry: SubgoalEntry, ans: Term) -> bool:
    """Add a canonical answer to the current region unless a variant exists.

    Sets the revised flag on insertion so the governing top-most subgoal
    sees that its round produced something new.
    """
    if entry.complete:
        raise TableError(f"insertion into complete entry {render(entry.key)}")
    inserted = entry.answers.add(ans)
    if inserted:
        entry.revised = True
    return inserted


def promote_regions(entry: SubgoalEntry) -> None:
    """Between rounds: previous becomes old, current becomes previous."""
    entry.last_old = entry.last_prev
    entry.last_prev = len(entry.answers)
    entry.promoted_this_round = False


def early_promote(entry: SubgoalEntry) -> None:
    """Move current answers into previous, at most once per round."""
    entry.last_prev = len(entry.answers)
    entry.promoted_this_round = True


def mark_complete(top_entry: SubgoalEntry) -> None:
    """Flag the entry and every dependent of its cluster as complete."""
    top_entry.complete = True
    top_entry.evaluated = False
    for dep in top_entry.dependents:
        dep.complete = True
        dep.evaluated = False


def check_region_invariants(store: SubgoalStore) -> None:
    """Raise TableError if any entry's region partition is inconsistent."""
    for entry in store:
        n = len(entry.answers)
        if not (0 <= entry.last_old <= entry.last_prev <= n):
            raise TableError(
                f"bad region boundaries for {render(entry.key)}: "
                f"old={entry.last_old} prev={entry.last_prev} n={n}"
            )
        old, prev, cur = entry.regions()
        if len(old) + len(prev) + len(cur) != n:
            raise TableError(f"regions do not partition {render(entry.key)}")
        seen = set()
        for ans in entry.answers:
            if ans in seen:
                raise TableError(
                    f"variant duplicate {render(ans)} in {render(entry.key)}"
                )
            seen.add(ans)


def dump(store: SubgoalStore) -> str:
    """Deterministic table dump, one line per entry in registration order."""
    lines = []
    for entry in store:
        state = "complete" if entry.complete else "incomplete"
        answers = ",".join(render(a) for a in entry.answers)
        lines.append(
            f"{render(entry.key)}  state={state} answers=[{answers}] "
            f"old={entry.last_old} prev={entry.last_prev}"
        )
    return "\n".join(lines)
