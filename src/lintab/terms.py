"""Logic terms, unification over a rollback trail, and term relations.

A term is a `Var` (an integer id), a `Struct` (a functor and argument
terms), an atom or an integer. An atom is the Python `str` of its name and
an integer is a Python `int`: the built-in type is the constant's tag, so
the atom "0" and the integer 0 are different terms. Terms are immutable
values. All mutation lives in a `Bindings` object that records a trail so
the engine can undo bindings on backtracking.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union


class Var:
    __slots__ = ("id",)

    def __init__(self, id: int):
        self.id = id

    def __repr__(self):
        return f"_{self.id}"

    def __eq__(self, other):
        return type(other) is Var and other.id == self.id

    def __hash__(self):
        return hash(("v", self.id))


class Struct:
    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args):
        args = tuple(args)
        if not functor:
            raise ValueError("functor must be non-empty")
        if not args:
            raise ValueError("compound term needs at least one argument")
        self.functor = functor
        self.args = args

    def __repr__(self):
        return f"{self.functor}({','.join(map(str, self.args))})"

    def __eq__(self, other):
        return (
            type(other) is Struct
            and other.functor == self.functor
            and other.args == self.args
        )

    def __hash__(self):
        return hash(("s", self.functor, self.args))


Term = Union[Var, Struct, str, int]
PredKey = tuple[str, int]


def pred_key(t: Term) -> PredKey:
    """The predicate indicator (name, arity) of an atom or compound goal."""
    if type(t) is str:
        return (t, 0)
    if type(t) is Struct:
        return (t.functor, len(t.args))
    raise TypeError(f"not a callable term: {t!r}")


class Bindings:
    """A substitution plus a trail supporting rollback to a checkpoint."""

    __slots__ = ("_map", "_trail")

    def __init__(self):
        self._map: dict[int, Term] = {}
        self._trail: list[int] = []

    def mark(self) -> int:
        return len(self._trail)

    def undo(self, mark: int) -> None:
        trail = self._trail
        m = self._map
        while len(trail) > mark:
            del m[trail.pop()]

    def bind(self, vid: int, t: Term) -> None:
        # a bound variable is never re-bound without an intervening undo
        assert vid not in self._map
        self._map[vid] = t
        self._trail.append(vid)

    def deref(self, t: Term) -> Term:
        m = self._map
        while type(t) is Var:
            nxt = m.get(t.id)
            if nxt is None:
                return t
            t = nxt
        return t

    def snapshot(self) -> dict[int, Term]:
        return dict(self._map)

    def __len__(self):
        return len(self._map)


def unify(t1: Term, t2: Term, b: Bindings) -> bool:
    """Extend b to a most-general unifier of t1 and t2.

    On failure the bindings are rolled back to the pre-call state. A
    variable is bound to a compound only if it does not occur in it, so
    no binding is ever cyclic. Binding to an atom, integer or variable
    needs no check, so Datalog terms pay one type test per binding.
    Argument pairs are popped last to first, each pair's subterms finished
    before the next pair.
    """
    m = b._map
    trail = b._trail
    mark = len(trail)
    stack = [(t1, t2)]
    while stack:
        a, c = stack.pop()
        while type(a) is Var and a.id in m:
            a = m[a.id]
        while type(c) is Var and c.id in m:
            c = m[c.id]
        ta = type(a)
        tc = type(c)
        if ta is Var:
            if tc is Var and c.id == a.id:
                continue
            if tc is Struct and _occurs(a.id, c, b):
                break
            m[a.id] = c
            trail.append(a.id)
        elif tc is Var:
            if ta is Struct and _occurs(c.id, a, b):
                break
            m[c.id] = a
            trail.append(c.id)
        elif ta is not Struct:
            if tc is not ta or a != c:
                break
        elif tc is Struct and a.functor == c.functor and len(a.args) == len(c.args):
            stack.extend(zip(a.args, c.args))
        else:
            break
    else:
        return True
    b.undo(mark)  # a clash or an occurs check failed
    return False


def _occurs(vid: int, t: Term, b: Bindings) -> bool:
    """Does variable vid occur in t under b?"""
    stack = [t]
    while stack:
        t = b.deref(stack.pop())
        if type(t) is Var:
            if t.id == vid:
                return True
        elif type(t) is Struct:
            stack.extend(t.args)
    return False


def canonicalize(
    t: Term | tuple[Term, ...],
    b: Optional[Bindings] = None,
    mapping: Optional[dict[int, Var]] = None,
) -> Term | tuple[Term, ...]:
    """Renumber variables 0,1,2,... in first-occurrence order.

    Dereferences through b when given, so the result is a standalone copy
    usable as a table key or stored answer. Idempotent. t may also be a
    tuple of terms, numbered as one sequence. A `mapping` dict passed in
    is filled with original variable id -> canonical variable, in
    numbering order. A tuple whose elements all deref to atoms or integers
    (a ground answer of flat terms) is returned as the tuple of those
    values, with no walk.
    """
    if type(t) is tuple:
        m = b._map if b is not None else {}
        flat = []
        for a in t:
            while type(a) is Var:
                nxt = m.get(a.id)
                if nxt is None:
                    break
                a = nxt
            ta = type(a)
            if ta is not str and ta is not int:
                break
            flat.append(a)
        else:
            return tuple(flat)
    if mapping is None:
        mapping = {}

    def walk(t):
        if b is not None:
            t = b.deref(t)
        tt = type(t)
        if tt is Var:
            v = mapping.get(t.id)
            if v is None:
                v = Var(len(mapping))
                mapping[t.id] = v
            return v
        if tt is Struct:
            return Struct(t.functor, [walk(a) for a in t.args])
        return t

    if type(t) is tuple:
        return tuple([walk(a) for a in t])
    return walk(t)


def resolve(t: Term, b: Bindings) -> Term:
    """Apply b fully to t, returning a standalone copy."""
    t = b.deref(t)
    if type(t) is Struct:
        return Struct(t.functor, [resolve(a, b) for a in t.args])
    return t


def variables(t: Term | tuple[Term, ...], b: Optional[Bindings] = None) -> list[int]:
    """Variable ids in first-occurrence order (after deref through b).
    t may also be a tuple of terms."""
    seen: list[int] = []

    def walk(t: Term) -> None:
        if b is not None:
            t = b.deref(t)
        tt = type(t)
        if tt is Var:
            if t.id not in seen:
                seen.append(t.id)
        elif tt is Struct:
            for a in t.args:
                walk(a)

    for a in t if type(t) is tuple else (t,):
        walk(a)
    return seen


def is_ground(t: Term) -> bool:
    tt = type(t)
    if tt is Var:
        return False
    if tt is Struct:
        return all(is_ground(a) for a in t.args)
    return True


def is_variant(t1: Term, t2: Term) -> bool:
    """True iff t1 and t2 are identical up to variable renaming."""
    return canonicalize(t1) == canonicalize(t2)


def subsumes(t1: Term, t2: Term) -> bool:
    """One-way matching: does a substitution theta exist with t1*theta == t2?

    t2's variables are treated as constants; t1 and t2 must not share
    variables.
    """
    theta: dict[int, Term] = {}

    def match(a: Term, c: Term) -> bool:
        ta = type(a)
        if ta is Var:
            bound = theta.get(a.id)
            if bound is None:
                theta[a.id] = c
                return True
            return bound == c
        if ta is not type(c):
            return False
        if ta is not Struct:
            return a == c
        return (
            a.functor == c.functor
            and len(a.args) == len(c.args)
            and all(match(x, y) for x, y in zip(a.args, c.args))
        )

    return match(t1, t2)


def render(
    t: Term,
    b: Optional[Bindings] = None,
    names: Optional[dict[int, str]] = None,
) -> str:
    """Deterministic text form after applying b.

    Unbound variables print as _G<n>, numbered in first-occurrence order;
    pass a shared `names` dict to keep numbering stable across several
    terms of one solution.
    """
    if names is None:
        names = {}
    parts: list[str] = []

    def walk(t: Term) -> None:
        if b is not None:
            t = b.deref(t)
        tt = type(t)
        if tt is Var:
            name = names.get(t.id)
            if name is None:
                name = f"_G{len(names)}"
                names[t.id] = name
            parts.append(name)
        elif tt is not Struct:
            parts.append(str(t))
        else:
            parts.append(t.functor)
            parts.append("(")
            for i, a in enumerate(t.args):
                if i:
                    parts.append(",")
                walk(a)
            parts.append(")")

    walk(t)
    return "".join(parts)


def render_goals(goals, b: Optional[Bindings] = None) -> str:
    """Render a conjunction with one shared unbound-variable numbering."""
    names: dict[int, str] = {}
    return ",".join(render(g, b, names) for g in goals)


def renumber(t: Term | tuple[Term, ...], offset: int) -> Term | tuple[Term, ...]:
    """Shift every variable id by offset (clause activation renaming).
    t may also be a tuple of terms."""
    tt = type(t)
    if tt is Var:
        return Var(t.id + offset)
    if tt is Struct:
        return Struct(t.functor, [renumber(a, offset) for a in t.args])
    if tt is tuple:
        return tuple([renumber(a, offset) for a in t])
    return t


def iter_subterms(t: Term) -> Iterator[Term]:
    yield t
    if type(t) is Struct:
        for a in t.args:
            yield from iter_subterms(a)
