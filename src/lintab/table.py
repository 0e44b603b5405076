"""Subgoal table and three-region answer tables.

Every tabled subgoal variant owns one `SubgoalEntry`, found by a flat key
(see `register_subgoal`) and holding its canonical form as `key`. Each
answer is an instance of its entry's key, so it is stored
substitution-factored: as the canonical tuple of bindings for the key's
variables, in key order (Ramakrishnan, Rao, Sagonas, Swift and Warren,
"Efficient access mechanisms for tabled logic programs", JLP 38(1),
1999). Two answers are variants iff their tuples are equal, and a
consumer binds its call's i-th variable to a tuple's i-th element, with
no unification. Iteration rebuilds full answers from key + tuple;
`dump()` prints them by filling the key's Template with each tuple.

Both variant checks are flat, as in that paper's call tries: a call's
key is the preorder of its arguments in one tuple, and `answer_tuple`,
the one place an answer's (or a query solution's) tuple is built, takes
bindings to atoms and integers as they stand and canonicalizes only the
others.

Tuples are stored append-only; two integer boundaries split the list
into the old / previous / current regions. Promotion slides the
boundaries forward between rounds; early promotion moves the current
region into previous the moment a follower exhausts its answers, so
those answers age out one round sooner.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .terms import Struct, Template, Term, Var, canonicalize, render, renumber, variables

Subst = tuple[Term, ...]


# An entry's lifecycle: NEW (its next call pioneers it), RUNNING (its
# pioneer is active), HANDING (an eager pioneer suspended at a yield to its
# parent), EVALUATED (a cluster member done for this round) and COMPLETE.
NEW, RUNNING, HANDING, EVALUATED, COMPLETE = (
    "new", "running", "handing", "evaluated", "complete"
)


class TableError(Exception):
    """Internal table misuse (engine bug), e.g. inserting when complete."""


class AnswerList:
    """One entry's answers as substitution tuples, in insertion order."""

    __slots__ = ("key", "tuples", "nvars", "_seen")

    def __init__(self, key: Term):
        self.key = key
        self.tuples: list[Subst] = []
        # per tuple, its variable count: a canonical tuple's variables are
        # numbered 0..n-1, so renaming it apart is one renumber by a fresh block
        self.nvars: list[int] = []
        self._seen: set[Subst] = set()

    def __len__(self) -> int:
        return len(self.tuples)

    def add(self, tup: Subst) -> None:
        """Append a tuple that no stored tuple equals."""
        self._seen.add(tup)
        self.tuples.append(tup)
        for a in tup:
            if type(a) is Var or type(a) is Struct:
                self.nvars.append(len(variables(tup)))
                break
        else:  # atoms and integers only
            self.nvars.append(0)

    def __iter__(self) -> Iterator[Term]:
        """The full answers: the key with variable i replaced by tuple[i]."""
        key = self.key
        return (renumber(key, 0, range(len(tup)), tup) for tup in self.tuples)


class SubgoalEntry:
    """Per-variant table record: answers, region markers, lifecycle state."""

    __slots__ = (
        "key",
        "answers",
        "last_old",
        "last_prev",
        "state",
        "revised",
        "promoted_this_round",
        "round_counter",
        "topmost",
        "pos",
        "replay",
    )

    def __init__(self, key: Term):
        self.key = key
        self.answers = AnswerList(key)
        # old = answers[:last_old]; previous = [last_old:last_prev];
        # current = [last_prev:]
        self.last_old = 0
        self.last_prev = 0
        self.state = NEW
        self.revised = False
        self.promoted_this_round = False
        self.round_counter = 0
        # None until the entry is found looping; then its cluster's
        # top-most entry, which points at itself
        self.topmost: Optional[SubgoalEntry] = None
        # its index on the engine's completion stack, set on its first call
        self.pos: Optional[int] = None
        # a fake loop happened while it was HANDING: its next round starts
        # by replaying its answers to the parent
        self.replay = False

    def __repr__(self):
        return f"<entry {render(self.key)} {self.state} {len(self.answers)} answers>"


class SubgoalStore:
    """All entries of one engine run, in registration order."""

    def __init__(self):
        # keyed by a call's flat key (see register_subgoal)
        self.entries: dict[tuple, SubgoalEntry] = {}

    def __iter__(self) -> Iterator[SubgoalEntry]:
        return iter(self.entries.values())


def register_subgoal(
    store: SubgoalStore, goal: Term, m: Optional[dict[int, Term]] = None
) -> tuple[SubgoalEntry, tuple[int, ...]]:
    """Find or create the entry for goal's variant class under map m.

    Also returns the call's free variable ids in key order: an answer
    binds the i-th of them to its tuple's i-th element. The lookup key is
    built in one preorder pass over the dereferenced arguments: the
    functor, then per subterm the constant, `(i,)` for the variable
    numbered i in first-occurrence order, or `(functor, arity)` before a
    compound's arguments. No constant is a tuple, and the arities make
    the preorder decode to one argument list, so two calls get equal keys
    iff they are variants. The entry's canonical key is built only when
    the entry is new, in the same variable order.
    """
    if m is None:
        m = {}
    functor, args = (goal.functor, goal.args) if type(goal) is Struct else (goal, ())
    key: list = [functor]
    first: dict[int, int] = {}  # variable id -> its number in the key
    todo = [iter(args)]  # per open compound, its arguments not yet visited
    while todo:
        for a in todo[-1]:
            while type(a) is Var and a.id in m:
                a = m[a.id]
            if type(a) is Var:
                key.append((first.setdefault(a.id, len(first)),))
            elif type(a) is Struct:
                key.append((a.functor, len(a.args)))
                todo.append(iter(a.args))
                break  # its arguments come next
            else:
                key.append(a)
        else:
            todo.pop()
    key = tuple(key)
    entry = store.entries.get(key)
    if entry is None:
        entry = store.entries[key] = SubgoalEntry(canonicalize(goal, m))
    return entry, tuple(first)


def answer_tuple(values: Subst, m: dict[int, Term]) -> Subst:
    """The tuple of values under map m as an answer table stores it:
    bindings to atoms and integers as they stand, any other tuple
    canonicalized. Two value tuples give equal answer tuples iff they
    are variants."""
    tup = []
    for a in values:
        while type(a) is Var:
            if a.id not in m:
                return canonicalize(values, m)
            a = m[a.id]
        if type(a) is Struct:
            return canonicalize(values, m)
        tup.append(a)
    return tuple(tup)


def insert_answer(
    entry: SubgoalEntry, values: Subst, m: Optional[dict[int, Term]] = None
) -> bool:
    """Store the answer that binds the key's variables to values under
    map m in the current region, unless a variant exists. Returns inserted.

    The tuple stored is `answer_tuple(values, m)`. Most calls in a round
    past the first bring a duplicate, so the variant test comes next. Sets
    the revised flag on insertion so the governing top-most subgoal sees
    that its round produced something new.
    """
    tup = answer_tuple(values, {} if m is None else m)
    if tup in entry.answers._seen:
        return False
    if entry.state is COMPLETE:
        raise TableError(f"insertion into complete entry {render(entry.key)}")
    entry.answers.add(tup)
    entry.revised = True
    return True


def promote_regions(entry: SubgoalEntry) -> None:
    """Between rounds: previous becomes old, current becomes previous."""
    entry.last_old = entry.last_prev
    entry.last_prev = len(entry.answers)
    entry.promoted_this_round = False


def early_promote(entry: SubgoalEntry) -> None:
    """Move current answers into previous, at most once per round."""
    entry.last_prev = len(entry.answers)
    entry.promoted_this_round = True


def check_region_invariants(store: SubgoalStore) -> None:
    """Raise TableError if an entry's region boundaries are out of order
    or it stores one answer twice."""
    for entry in store:
        n = len(entry.answers)
        if not (0 <= entry.last_old <= entry.last_prev <= n):
            raise TableError(
                f"bad region boundaries for {render(entry.key)}: "
                f"old={entry.last_old} prev={entry.last_prev} n={n}"
            )
        seen = set()
        for tup in entry.answers.tuples:
            if tup in seen:
                raise TableError(
                    f"variant duplicate {Template([entry.key]).fill(tup)} "
                    f"in {render(entry.key)}"
                )
            seen.add(tup)


def dump(store: SubgoalStore) -> str:
    """Deterministic table dump, one line per entry in registration order.
    The key's Template is laid out once per entry and filled with the
    key's own variables for the key, and with each stored tuple for an
    answer, which prints as its full term would."""
    lines = []
    for entry in store:
        state = "complete" if entry.state is COMPLETE else "incomplete"
        key = Template([entry.key])
        answers = ",".join(map(key.fill, entry.answers.tuples))
        lines.append(
            f"{key.fill(key.vars)}  state={state} answers=[{answers}] "
            f"old={entry.last_old} prev={entry.last_prev}"
        )
    return "\n".join(lines)
