"""Finite role universes, role sets, endo maps and principal ultrafilters.

The universe is the set of roles 0..n-1 (n <= 64).  Role sets are plain
int bitmasks; bit r set means role r is a member.  Endo maps are total
functions on the universe, stored as tuples.  Ultrafilters over a finite
universe are exactly the principal ones, so an ultrafilter is identified
by its defining role.

Two bases of immutable values live here.  ``Node`` is the interned one:
endo maps and ultrafilters, and the formulas, derivations and sessions of
the other modules, are hash-consed on it, so equal nodes are one object.
``Record`` is the one that is not interned: the calculus of a proof, the
endpoint types and actions of sessions, the types, expressions and closures
of the lambda calculus, and the commands, services and results of the
runtime are records on it, compared and hashed by their fields.
"""

from __future__ import annotations

import math
import re
import weakref
from functools import reduce
from reprlib import recursive_repr

# ----------------------------------------------------- hash-consed nodes


class Node:
    """An immutable, hash-consed syntax node.

    Constructing a node looks up ``(class, *fields)`` in a table and returns
    the live node it finds, so structurally equal nodes are one object:
    ``==`` and ``hash`` are identity's, O(1) at any depth.  The table is a
    plain dict from each key to a weak reference to its node, so a hit is
    one dict lookup and one call of the reference; the table holds no node
    alive, so no result can depend on it.  A node's death removes its entry
    (``_forget``).  The fields are the names in ``__match_args__``; a class
    may add slots after them for values computed from the fields.

    On a miss the class's maker, ``_make(key)``, builds the node for the key
    ``(class, *fields)`` and enters it in the table.  Each class gets its own
    maker when it is defined: a closure over the class's slot setters with
    one call per field written out for every arity in use, so a miss runs no
    loop over the fields.  The maker reads ``Node._table`` when it runs, so
    it enters the node in whatever table is in place then.
    """

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()
    _table: dict = {}  # (class, *fields) -> a _Ref to the live node

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._make = staticmethod(_maker(cls))

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = Node._table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        names = cls.__match_args__
        if len(fields) != len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(fields)}")
        return cls._make(key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, k) for k in self.__match_args__)

    def __repr__(self) -> str:
        return _unfold([self], _repr_parts, BRIEF)


def _maker(cls: type):
    """cls's maker: the function that builds cls's node for a table key
    (cls, *fields) and enters it in Node._table.  The arities in use have
    their setter calls written out; any other arity sets its fields in a
    loop."""
    new, table_ref, forget = object.__new__, _Ref, _forget
    sets = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)
    if len(sets) == 1:
        (s1,) = sets

        def make(key):
            node = new(cls)
            s1(node, key[1])
            ref = Node._table[key] = table_ref(node, forget)
            ref.key = key
            return node
    elif len(sets) == 2:
        s1, s2 = sets

        def make(key):
            _, a, b = key
            node = new(cls)
            s1(node, a)
            s2(node, b)
            ref = Node._table[key] = table_ref(node, forget)
            ref.key = key
            return node
    elif len(sets) == 3:
        s1, s2, s3 = sets

        def make(key):
            _, a, b, c = key
            node = new(cls)
            s1(node, a)
            s2(node, b)
            s3(node, c)
            ref = Node._table[key] = table_ref(node, forget)
            ref.key = key
            return node
    elif len(sets) == 4:
        s1, s2, s3, s4 = sets

        def make(key):
            _, a, b, c, d = key
            node = new(cls)
            s1(node, a)
            s2(node, b)
            s3(node, c)
            s4(node, d)
            ref = Node._table[key] = table_ref(node, forget)
            ref.key = key
            return node
    elif len(sets) == 6:
        s1, s2, s3, s4, s5, s6 = sets

        def make(key):
            _, a, b, c, d, e, f = key
            node = new(cls)
            s1(node, a)
            s2(node, b)
            s3(node, c)
            s4(node, d)
            s5(node, e)
            s6(node, f)
            ref = Node._table[key] = table_ref(node, forget)
            ref.key = key
            return node
    else:
        def make(key):
            node = new(cls)
            for set_field, value in zip(sets, key[1:]):
                set_field(node, value)
            ref = Node._table[key] = table_ref(node, forget)
            ref.key = key
            return node
    make.__qualname__ = f"{cls.__qualname__}._make"
    return make


class _Ref(weakref.ref):
    """A weak reference to a node that knows the node's table key, like
    weakref.KeyedRef, whose constructor runs Python code on every miss."""

    __slots__ = ("key",)


def _forget(ref: _Ref, table: dict = Node._table) -> None:
    """The callback of every table reference: remove its node's entry when
    the node dies, unless the entry already holds a newer node's reference
    (one made for the same key after this node died, before this ran).  The
    table is bound at definition, so nodes that die while the interpreter
    tears the module down still find it."""
    if table.get(ref.key) is ref:
        del table[ref.key]


class Record:
    """An immutable record that is not interned.

    A subclass's fields are its annotations, in order, and a class
    attribute named as a field is that field's default.  Each subclass gets
    ``__match_args__`` and an ``__init__`` (which ends by calling the class's
    ``__post_init__``, if it has one), and unless the class is declared with
    ``eq=False`` an ``__eq__`` and ``__hash__`` on the tuple of its fields,
    equal only to a record of the same class; methods the class defines
    itself are kept.  The methods are compiled from one text per class.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        params = "".join(f", {k}=_d[{k!r}]" if k in cls.__dict__ else f", {k}" for k in names)
        fields = "".join(f"self.{k}, " for k in names)
        text = [f"def __init__(self{params}):",
                *(f"    _set(self, {k!r}, {k})" for k in names),
                "    self.__post_init__()" if hasattr(cls, "__post_init__") else "    pass",
                "def __eq__(self, other):",
                "    if other.__class__ is self.__class__:",
                f"        return ({fields}) == ({fields.replace('self.', 'other.')})",
                "    return NotImplemented",
                "def __hash__(self):",
                f"    return hash(({fields}))"]
        made = {"_set": object.__setattr__, "_d": cls.__dict__}
        exec("\n".join(text), made)
        for name in ("__init__", "__eq__", "__hash__") if eq else ("__init__",):
            if name not in cls.__dict__:
                made[name].__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, made[name])

    __setattr__, __delattr__ = Node.__setattr__, Node.__delattr__

    @recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


BRIEF = 240  # characters of a node or formula that a repr or a message shows


def _unfold(todo: list, parts, limit: int | None = None) -> str:
    """The text of todo: strings as they are, any other item replaced by
    parts(item), which may hold items in turn.  Unfolded without recursion,
    so depth is bounded by memory alone; given a limit, cut after that many
    characters (marked with an ellipsis), so the work is bounded by the
    limit even where a DAG unfolds to a huge tree."""
    out, size = [], 0
    todo.reverse()
    while todo:
        x = todo.pop()
        if type(x) is not str:
            todo += reversed(parts(x))
            continue
        out.append(x)
        if limit is not None:
            size += len(x)
            if size > limit:
                return "".join(out)[:limit] + "…"
    return "".join(out)


def _repr_parts(x) -> list:
    """A value's repr as parts, with nodes and tuples still to unfold."""
    sub = lambda v: v if isinstance(v, (Node, tuple)) else repr(v)
    if isinstance(x, Node):
        out = [type(x).__name__ + "("]
        for i, k in enumerate(x.__match_args__):
            out += [", " * (i > 0) + k + "=", sub(getattr(x, k))]
        return out + [")"]
    if isinstance(x, tuple):
        out = ["("]
        for i, v in enumerate(x):
            out += [", " * (i > 0), sub(v)]
        return out + ["," * (len(x) == 1) + ")"]
    return [repr(x)]

MAX_ROLES = 64


class RoleError(ValueError):
    pass


def check_universe(n: int) -> None:
    if not 1 <= n <= MAX_ROLES:
        raise RoleError(f"universe size must be in 1..{MAX_ROLES}, got {n}")


def full_set(n: int) -> int:
    """The universe itself, as a role set."""
    check_universe(n)
    return (1 << n) - 1


def check_roleset(mask: int, n: int) -> None:
    if mask < 0 or mask & ~full_set(n):
        raise RoleError(f"role set {mask:#x} not within universe of {n} roles")


def members(mask: int) -> list[int]:
    out = []
    r = 0
    while mask:
        if mask & 1:
            out.append(r)
        mask >>= 1
        r += 1
    return out


def complement(mask: int, n: int) -> int:
    check_roleset(mask, n)
    return full_set(n) & ~mask


def disjoint_union(a: int, b: int) -> int:
    """Union of two role sets, raising if they overlap."""
    if a & b:
        raise RoleError(f"role sets {fmt_roleset(a)} and {fmt_roleset(b)} overlap")
    return a | b


def partition_check(masks: list[int] | tuple[int, ...], n: int) -> bool:
    """True iff the given role sets are pairwise disjoint and cover 0..n-1."""
    full, seen = full_set(n), 0
    for m in masks:
        if m < 0 or m & ~full:
            check_roleset(m, n)  # raises
        if seen & m:
            return False
        seen |= m
    return seen == full


def cut_residual(masks: list[int] | tuple[int, ...], n: int) -> int | None:
    """The side condition of a multiparty cut of k = len(masks) >= 1 role
    sets: their complements must be pairwise disjoint.  Returns the residual,
    the roles every set holds, or None if two complements overlap.  A cut
    that keeps no residual also needs the residual to be empty.  A role set
    outside the universe raises RoleError, as in partition_check."""
    full, seen = full_set(n), 0
    for m in masks:
        if m < 0 or m & ~full:
            check_roleset(m, n)  # raises
        if seen & ~m:  # seen is the union of the complements so far
            return None
        seen |= full & ~m
    return full & ~seen


def fmt_roleset(mask: int) -> str:
    return "{%s}" % ",".join(str(r) for r in members(mask))


_ROLESET_RE = re.compile(r"^\{\s*(\d+\s*(,\s*\d+\s*)*)?\}$", re.ASCII)


def parse_roleset(text: str, n: int | None = None) -> int:
    text = text.strip()
    if not _ROLESET_RE.match(text):
        raise RoleError(f"bad role set syntax: {text!r}")
    body = text.strip()[1:-1].strip()
    mask = 0
    if body:
        for part in body.split(","):
            r = int(part)
            if n is not None and not 0 <= r < n:
                raise RoleError(f"role {r} outside universe of {n} roles")
            if mask >> r & 1:
                raise RoleError(f"role {r} listed twice")
            mask |= 1 << r
    if n is not None:
        check_roleset(mask, n)
    return mask


class Endo(Node):
    """A total map on the role universe, written [f(0),f(1),...]."""

    __slots__ = __match_args__ = ("table",)
    table: tuple[int, ...]

    def __new__(cls, table: tuple[int, ...]):
        n = len(table)
        check_universe(n)
        for v in table:
            if type(v) is not int or not 0 <= v < n:
                raise RoleError(f"endo value {v!r} outside universe of {n} roles")
        return super().__new__(cls, table)

    @property
    def n(self) -> int:
        return len(self.table)

    def __call__(self, r: int) -> int:
        return self.table[r]

    def image(self, mask: int) -> int:
        """Direct image f(R)."""
        check_roleset(mask, self.n)
        out = 0
        for r in members(mask):
            out |= 1 << self.table[r]
        return out

    def preimage(self, mask: int) -> int:
        """Inverse image f^{-1}(R)."""
        table = self.table
        if mask < 0 or mask >> len(table):
            check_roleset(mask, len(table))  # raises
        out = 0
        for r, v in enumerate(table):
            if mask >> v & 1:
                out |= 1 << r
        return out

    def compose(self, other: "Endo") -> "Endo":
        """(self . other)(r) = other(self(r)): apply self first."""
        if other.n != self.n:
            raise RoleError("endo composition over different universes")
        return Endo(tuple(other.table[self.table[r]] for r in range(self.n)))

    def is_permutation(self) -> bool:
        return len(set(self.table)) == self.n

    def inverse(self) -> "Endo":
        if not self.is_permutation():
            raise RoleError(f"endo {fmt_endo(self)} is not a permutation")
        inv = [0] * self.n
        for r, v in enumerate(self.table):
            inv[v] = r
        return Endo(tuple(inv))

    def order(self) -> int:
        """Least k >= 1 with f^k = id; defined for permutations only."""
        if not self.is_permutation():
            raise RoleError(f"endo {fmt_endo(self)} is not a permutation")
        seen = [False] * self.n
        lengths = []
        for r in range(self.n):
            if seen[r]:
                continue
            k, j = 0, r
            while not seen[j]:
                seen[j] = True
                j = self.table[j]
                k += 1
            lengths.append(k)
        return reduce(math.lcm, lengths, 1)

    def conjugate(self, g: "Endo") -> "Endo":
        """f(g) = f . g . f^{-1} (apply f, then g, then f inverse)."""
        return self.compose(g).compose(self.inverse())


def identity_endo(n: int) -> Endo:
    return Endo(tuple(range(n)))


def all_endos(n: int):
    """Every total map on a universe of n roles (n**n of them)."""
    check_universe(n)

    def rec(prefix):
        if len(prefix) == n:
            yield Endo(tuple(prefix))
            return
        for v in range(n):
            yield from rec(prefix + [v])

    yield from rec([])


def fmt_endo(f: Endo) -> str:
    return "[%s]" % ",".join(str(v) for v in f.table)


def is_digits(text: str) -> bool:
    """Every reader's test for a number: one or more ASCII digits, where
    str.isdecimal would take any script's digits ('١' too)."""
    return text.isascii() and text.isdigit()


def _role_number(text: str) -> int | None:
    """The role a string of ASCII digits names, else None."""
    return int(text) if is_digits(text) else None


def parse_endo(text: str, n: int | None = None) -> Endo:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise RoleError(f"bad endo syntax: {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise RoleError("empty endo table")
    table = tuple(_role_number(p.strip()) for p in body.split(","))
    if None in table:
        raise RoleError(f"bad endo syntax: {text!r}")
    if n is not None and len(table) != n:
        raise RoleError(f"endo over {len(table)} roles, expected {n}")
    return Endo(table)


class Ultra(Node):
    """The principal ultrafilter at a role, written @r.

    Over a finite universe every ultrafilter is principal, so this is the
    general case: R is a member iff r is in R.
    """

    __slots__ = __match_args__ = ("r",)
    r: int

    def __new__(cls, r: int):
        if type(r) is not int or r < 0:
            raise RoleError(f"bad ultrafilter role {r!r}")
        return super().__new__(cls, r)

    def contains(self, mask: int) -> bool:
        return bool(mask & (1 << self.r))


def push_ultra(f: Endo, u: Ultra) -> Ultra:
    """The pushforward f(U) = { R | f^{-1}(R) in U }.

    For a principal U at r this is the principal ultrafilter at f(r).
    """
    if not 0 <= u.r < f.n:
        raise RoleError(f"ultrafilter @{u.r} outside universe of {f.n} roles")
    return Ultra(f(u.r))


def fmt_ultra(u: Ultra) -> str:
    return f"@{u.r}"


def parse_ultra(text: str, n: int | None = None) -> Ultra:
    text = text.strip()
    r = _role_number(text[1:])
    if not text.startswith("@") or r is None:
        raise RoleError(f"bad ultrafilter syntax: {text!r}")
    if n is not None and not 0 <= r < n:
        raise RoleError(f"ultrafilter @{r} outside universe of {n} roles")
    return Ultra(r)
