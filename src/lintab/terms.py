"""Logic terms, unification over a rollback trail, and term relations.

A term is a `Var` (an integer id), a `Struct` (a functor and argument
terms), an atom or an integer. An atom is the Python `str` of its name and
an integer is a Python `int`: the built-in type is the constant's tag, so
the atom "0" and the integer 0 are different terms. Terms are immutable
values. The bindings live in a plain dict from variable id to term, with
a plain list of the bound ids, the trail, so backtracking can undo them.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union


class Record:
    """A slotted value: equal only to a record of its own type with equal
    fields, hashed by its field tuple and shown as Name(field=value, ...).
    Its fields are its class's own `__slots__`, in order."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


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


def new_struct(functor: str, args: tuple) -> Struct:
    """Struct(functor, args) without its checks and copy, for callers that
    pass a non-empty functor and a non-empty tuple of arguments."""
    t = object.__new__(Struct)
    t.functor = functor
    t.args = args
    return t


Term = Union[Var, Struct, str, int]
PredKey = tuple[str, int]


def pred_key(t: Term) -> PredKey:
    """The predicate indicator (name, arity) of an atom or compound goal."""
    if type(t) is str:
        return (t, 0)
    if type(t) is Struct:
        return (t.functor, len(t.args))
    raise TypeError(f"not a callable term: {t!r}")


def deref(t: Term, m: dict[int, Term]) -> Term:
    """Follow t's bindings in m to an unbound variable or a non-variable."""
    while type(t) is Var:
        nxt = m.get(t.id)
        if nxt is None:
            return t
        t = nxt
    return t


def undo(m: dict[int, Term], trail: list[int], mark: int) -> None:
    """Unbind the variables trailed since the trail was mark long."""
    while len(trail) > mark:
        del m[trail.pop()]


def unify(t1: Term, t2: Term, m: dict[int, Term], trail: list[int]) -> bool:
    """Extend m to a most-general unifier of t1 and t2, trailing each binding.

    On failure m and the trail are rolled back to the pre-call state. A
    variable is bound to a compound only if it does not occur in it, so
    no binding is ever cyclic. Binding to an atom, integer or variable
    needs no check, so Datalog terms pay one type test per binding.
    Argument pairs are popped last to first, each pair's subterms finished
    before the next pair.
    """
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
            if tc is Struct and _occurs(a.id, c, m):
                break
            m[a.id] = c
            trail.append(a.id)
        elif tc is Var:
            if ta is Struct and _occurs(c.id, a, m):
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
    undo(m, trail, mark)  # a clash or an occurs check failed
    return False


def _occurs(vid: int, t: Term, m: dict[int, Term]) -> bool:
    """Does variable vid occur in t under m?"""
    stack = [t]
    while stack:
        t = deref(stack.pop(), m)
        if type(t) is Var:
            if t.id == vid:
                return True
        elif type(t) is Struct:
            stack.extend(t.args)
    return False


def canonicalize(
    t: Term | tuple[Term, ...], m: Optional[dict[int, Term]] = None
) -> Term | tuple[Term, ...]:
    """Renumber variables 0,1,2,... in first-occurrence order.

    Dereferences in the binding map m when given, so the result is a
    standalone copy usable as a table key or stored answer. Idempotent. t
    may also be a tuple of terms, numbered as one sequence.
    """
    mapping: dict[int, Var] = {}

    def walk(t):
        if m is not None:
            t = deref(t, m)
        tt = type(t)
        if tt is Var:
            v = mapping.get(t.id)
            if v is None:
                v = Var(len(mapping))
                mapping[t.id] = v
            return v
        if tt is Struct:
            args = []  # a loop, not a comprehension: one frame per level
            for a in t.args:
                args.append(walk(a))
            return new_struct(t.functor, tuple(args))
        return t

    if type(t) is tuple:
        return tuple([walk(a) for a in t])
    return walk(t)


def variables(t: Term | tuple[Term, ...]) -> list[int]:
    """Variable ids in first-occurrence order; t may be a tuple of terms."""
    seen: list[int] = []

    def walk(t: Term) -> None:
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


def render(t: Term, m: Optional[dict[int, Term]] = None) -> str:
    """Deterministic text form after applying the binding map m: t's own
    Template filled with t's variables. Unbound variables print as _G<n>,
    numbered in first-occurrence order."""
    return render_goals([t], m)


class Template:
    """A conjunction's text laid out once, with one %s hole per variable
    occurrence; `vars` are the goals' variables in first-occurrence order
    and `holes` each hole's index into them. The one term-to-text layout:
    `render` fills a term's own Template. Constants print as `str` gives
    them, with % escaped."""

    __slots__ = ("text", "holes", "vars")

    def __init__(self, goals):
        pos: dict[int, int] = {}
        holes: list[int] = []

        def lay(t: Term) -> str:
            tt = type(t)
            if tt is Var:
                holes.append(pos.setdefault(t.id, len(pos)))
                return "%s"
            if tt is Struct:
                args = []  # a loop, not a comprehension: one frame per level
                for a in t.args:
                    args.append(lay(a))
                return f"{t.functor.replace('%', '%%')}({','.join(args)})"
            return str(t).replace("%", "%%")

        self.text = ",".join([lay(g) for g in goals])
        self.holes = tuple(holes)
        self.vars = tuple(map(Var, pos))

    def fill(
        self,
        values: tuple[Term, ...],
        m: Optional[dict[int, Term]] = None,
        names: Optional[dict[int, str]] = None,
    ) -> str:
        """The text with each hole holding its variable's value, after
        applying the binding map m: the text render_goals gives. One %
        format when every value is an atom or an integer; otherwise an
        unbound variable prints as _G<n>, numbered in text order through
        `names` (shared by the compounds filled inside this text), and a
        compound is filled through its own Template."""
        vals = []
        for k in self.holes:
            v = values[k]
            if m is not None:  # deref, inlined: this runs once per solution
                while type(v) is Var:
                    bound = m.get(v.id)
                    if bound is None:
                        break
                    v = bound
            vals.append(v)
        for v in vals:
            if type(v) is not str and type(v) is not int:
                if names is None:
                    names = {}
                for i, v in enumerate(vals):
                    if type(v) is Var:
                        vals[i] = names.setdefault(v.id, f"_G{len(names)}")
                    elif type(v) is Struct:
                        t = Template([v])
                        vals[i] = t.fill(t.vars, m, names)
                break
        return self.text % tuple(vals)


def render_goals(goals, m: Optional[dict[int, Term]] = None) -> str:
    """Render a conjunction with one shared unbound-variable numbering."""
    t = Template(goals)
    return t.fill(t.vars, m)


def render_solutions(goals, solutions) -> Iterator[str]:
    """Per tuple of values for goals' variables in first-occurrence order,
    goals rendered under it: the text Engine.run gives for a solution that
    Engine.solve gives as that tuple. Every goal variable is a hole, so a
    value's variables need no renaming apart from the goals'."""
    return map(Template(goals).fill, solutions)


def renumber(
    t: Term | tuple[Term, ...],
    offset: int,
    slots: tuple[Optional[int], ...] = (),
    args: tuple[Term, ...] = (),
) -> Term | tuple[Term, ...]:
    """Shift every variable id by offset (clause activation renaming).
    t may also be a tuple of terms.

    With slots, the head-matching plan of a clause (see
    analysis.head_plan), a variable whose slot is an argument position k
    takes the call's argument args[k] instead: a head variable seen once,
    as a whole argument, is never bound, so the body is built holding
    what the call passed there. slots is indexed by variable id and
    covers the clause's variables; () renames them all."""
    tt = type(t)
    if tt is Var:
        if slots:
            k = slots[t.id]
            if k is not None:
                return args[k]
        return Var(t.id + offset)
    if tt is Struct:
        new = []  # a loop, not a comprehension: one frame per level
        for a in t.args:
            new.append(renumber(a, offset, slots, args))
        return new_struct(t.functor, tuple(new))
    if tt is tuple:
        new = []
        for a in t:
            new.append(renumber(a, offset, slots, args))
        return tuple(new)
    return t


def iter_subterms(t: Term) -> Iterator[Term]:
    yield t
    if type(t) is Struct:
        for a in t.args:
            yield from iter_subterms(a)
