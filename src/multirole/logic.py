"""Formulas, i-formulas and sequents for the multirole calculi.

Concrete syntax is prefix s-expressions::

    F ::= ident | '(' ident term* ')'          primitive formula
        | '(not'    ENDO F ')'                 not_f
        | '(and'    UF F F ')'                 and_U   (classical calculus)
        | '(imp'    ENDO UF F F ')'            imp_{f,U} (intuitionistic)
        | '(with'   UF F F ')'                 &_U     (linear)
        | '(tensor' UF F F ')'                 (x)_U   (linear)
        | '(bang'   UF F ')'                   !_U     (linear)
        | '(forall' UF ident F ')'             forall_U (lam x. F)
    ENDO ::= '[' n {',' n} ']'    UF ::= '@' n

Term identifiers parse as variables when bound by an enclosing forall and
as constants otherwise.
"""

from __future__ import annotations

import json
import re
import weakref

from .roles import (
    MAX_ROLES,
    Endo,
    RoleError,
    Ultra,
    fmt_endo,
    fmt_ultra,
    members,
    parse_endo,
    parse_ultra,
)


class FormulaError(ValueError):
    pass


# ----------------------------------------------------- hash-consed nodes


class Node:
    """An immutable, hash-consed syntax node.

    Constructing a node looks up ``(class, *fields)`` in a weak table and
    returns the live node it finds, so structurally equal nodes are one
    object: ``==`` and ``hash`` are identity's, O(1) at any depth.  The
    table holds its nodes weakly, so no result can depend on it.
    """

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()
    _table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = Node._table.get(key)
        if node is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} fields, "
                                f"got {len(fields)}")
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            Node._table[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, k) for k in self.__slots__)

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__,
                           ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__))


# ---------------------------------------------------------------- terms


class Var(Node):
    __slots__ = __match_args__ = ("name",)
    name: str


class Const(Node):
    __slots__ = __match_args__ = ("name",)
    name: str


Term = Var | Const


def fmt_term(t: Term, bound: frozenset = frozenset()) -> str:
    # free variables carry a $ sigil so parsing can tell them from constants
    # (bound occurrences and constants print bare)
    if isinstance(t, Var) and t.name not in bound:
        return "$" + t.name
    return t.name


# ------------------------------------------------------------- formulas


class Atom(Node):
    __slots__ = __match_args__ = ("label", "args")
    label: str
    args: tuple[Term, ...]

    def __new__(cls, label: str, args: tuple[Term, ...] = ()):
        return super().__new__(cls, label, args)


class Neg(Node):
    __slots__ = __match_args__ = ("f", "body")
    f: Endo
    body: "Formula"


class Conj(Node):
    __slots__ = __match_args__ = ("u", "left", "right")
    u: Ultra
    left: "Formula"
    right: "Formula"


class Impl(Node):
    __slots__ = __match_args__ = ("f", "u", "left", "right")
    f: Endo
    u: Ultra
    left: "Formula"
    right: "Formula"


class AConj(Node):
    __slots__ = __match_args__ = ("u", "left", "right")
    u: Ultra
    left: "Formula"
    right: "Formula"


class MConj(Node):
    __slots__ = __match_args__ = ("u", "left", "right")
    u: Ultra
    left: "Formula"
    right: "Formula"


class Bang(Node):
    __slots__ = __match_args__ = ("u", "body")
    u: Ultra
    body: "Formula"


class Forall(Node):
    __slots__ = __match_args__ = ("u", "var", "body")
    u: Ultra
    var: str
    body: "Formula"


Formula = Atom | Neg | Conj | Impl | AConj | MConj | Bang | Forall

BINARY = (Conj, Impl, AConj, MConj)


def size(a: Formula) -> int:
    """Number of connectives in a formula."""
    match a:
        case Atom():
            return 0
        case Neg(_, body) | Bang(_, body) | Forall(_, _, body):
            return 1 + size(body)
        case Conj(_, l, r) | AConj(_, l, r) | MConj(_, l, r):
            return 1 + size(l) + size(r)
        case Impl(_, _, l, r):
            return 1 + size(l) + size(r)
    raise FormulaError(f"not a formula: {a!r}")


def free_vars(a: Formula) -> frozenset[str]:
    match a:
        case Atom(_, args):
            return frozenset(t.name for t in args if isinstance(t, Var))
        case Neg(_, body) | Bang(_, body):
            return free_vars(body)
        case Forall(_, x, body):
            return free_vars(body) - {x}
        case Conj(_, l, r) | AConj(_, l, r) | MConj(_, l, r) | Impl(_, _, l, r):
            return free_vars(l) | free_vars(r)
    raise FormulaError(f"not a formula: {a!r}")


def _suffix(name: str) -> int:
    _, sep, k = name.rpartition("~")
    return int(k) if sep and k.isascii() and k.isdigit() else 0


class FreshNames:
    """Variable names ``stem~k`` numbered by one counter, for one call.

    The counter starts above every ``~k`` suffix among the names ``taken()``
    returns, so no name it gives occurs in the call's inputs.  ``taken`` is
    called when the first name is asked for, so calls that need no fresh
    name never collect the input names.
    """

    def __init__(self, taken=tuple):
        self._taken = taken
        self._next = 0

    def __call__(self, base: str = "x") -> str:
        if not self._next:
            self._next = 1 + max(map(_suffix, self._taken()), default=0)
        k = self._next
        self._next += 1
        return f"{base.split('~')[0]}~{k}"


def names_in(formulas) -> set[str]:
    """Every variable, constant and binder name occurring in the formulas."""
    out: set[str] = set()
    seen: set = set()
    stack = list(formulas)
    while stack:
        a = stack.pop()
        if a in seen:
            continue
        seen.add(a)
        match a:
            case Atom(_, args):
                out.update(t.name for t in args)
            case Forall(_, x, body):
                out.add(x)
                stack.append(body)
            case Neg(_, body) | Bang(_, body):
                stack.append(body)
            case Conj(_, l, r) | AConj(_, l, r) | MConj(_, l, r) | Impl(_, _, l, r):
                stack += (l, r)
    return out


def substitute(a: Formula, x: str, t: Term) -> Formula:
    """A[t/x], capture-avoiding.

    A binder y that would capture t is renamed to the smallest ``y~k`` that
    is not free in its body and is not t, so the result depends on A, x and
    t alone.
    """
    match a:
        case Atom(label, args):
            return Atom(label, tuple(t if isinstance(s, Var) and s.name == x else s for s in args))
        case Neg(f, body):
            return Neg(f, substitute(body, x, t))
        case Bang(u, body):
            return Bang(u, substitute(body, x, t))
        case Conj(u, l, r):
            return Conj(u, substitute(l, x, t), substitute(r, x, t))
        case AConj(u, l, r):
            return AConj(u, substitute(l, x, t), substitute(r, x, t))
        case MConj(u, l, r):
            return MConj(u, substitute(l, x, t), substitute(r, x, t))
        case Impl(f, u, l, r):
            return Impl(f, u, substitute(l, x, t), substitute(r, x, t))
        case Forall(u, y, body):
            if y == x:
                return a
            if isinstance(t, Var) and t.name == y and x in (fv := free_vars(body)):
                stem, k = y.split("~")[0], 1
                while (z := f"{stem}~{k}") in fv or z == y:
                    k += 1
                body = substitute(body, y, Var(z))
                return Forall(u, z, substitute(body, x, t))
            return Forall(u, y, substitute(body, x, t))
    raise FormulaError(f"not a formula: {a!r}")


# ------------------------------------------------------------ i-formulas


class IFormula(Node):
    __slots__ = __match_args__ = ("roles", "formula")
    roles: int
    formula: Formula


Sequent = tuple[IFormula, ...]


def seq_counts(items: Sequent) -> dict:
    counts: dict = {}
    for it in items:
        counts[it] = counts.get(it, 0) + 1
    return counts


def seq_equal(a: Sequent, b: Sequent) -> bool:
    """Multiset equality: order-insensitive, multiplicity-sensitive."""
    return len(a) == len(b) and seq_counts(a) == seq_counts(b)


def seq_minus(a: Sequent, b: Sequent) -> Sequent | None:
    """Multiset difference a - b, or None if b is not contained in a.

    The last occurrences in a are the ones removed; the rest keep their order.
    """
    drop = seq_counts(b)
    out = []
    for it in reversed(a):
        k = drop.get(it)
        if k:
            drop[it] = k - 1
        else:
            out.append(it)
    if any(drop.values()):
        return None
    out.reverse()
    return tuple(out)


def seq_free_vars(items: Sequent) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for it in items:
        out |= free_vars(it.formula)
    return out


# ------------------------------------------------------------- printing


def fmt_formula(a: Formula, bound: frozenset = frozenset()) -> str:
    match a:
        case Atom(label, args):
            if not args:
                return label
            return "(%s %s)" % (label, " ".join(fmt_term(t, bound) for t in args))
        case Neg(f, body):
            return f"(not {fmt_endo(f)} {fmt_formula(body, bound)})"
        case Conj(u, l, r):
            return f"(and {fmt_ultra(u)} {fmt_formula(l, bound)} {fmt_formula(r, bound)})"
        case Impl(f, u, l, r):
            return (f"(imp {fmt_endo(f)} {fmt_ultra(u)} "
                    f"{fmt_formula(l, bound)} {fmt_formula(r, bound)})")
        case AConj(u, l, r):
            return f"(with {fmt_ultra(u)} {fmt_formula(l, bound)} {fmt_formula(r, bound)})"
        case MConj(u, l, r):
            return f"(tensor {fmt_ultra(u)} {fmt_formula(l, bound)} {fmt_formula(r, bound)})"
        case Bang(u, body):
            return f"(bang {fmt_ultra(u)} {fmt_formula(body, bound)})"
        case Forall(u, x, body):
            return f"(forall {fmt_ultra(u)} {x} {fmt_formula(body, bound | {x})})"
    raise FormulaError(f"not a formula: {a!r}")


def fmt_iformula(it: IFormula) -> str:
    return "<%s>%s" % (",".join(map(str, members(it.roles))), fmt_formula(it.formula))


def fmt_sequent(items: Sequent) -> str:
    return "|- " + ", ".join(fmt_iformula(it) for it in items)


# -------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(r"\(|\)|\[[^\]]*\]|@\d+|\$?[A-Za-z_][A-Za-z0-9_~']*|\S")

KEYWORDS = {"not", "and", "imp", "with", "tensor", "bang", "forall"}


def _tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


class _Parser:
    def __init__(self, tokens: list[str], n: int | None):
        self.toks = tokens
        self.pos = 0
        self.n = n

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise FormulaError(f"expected {tok!r}, got {got!r}")

    def ident(self) -> str:
        tok = self.next()
        if not re.match(r"^\$?[A-Za-z_][A-Za-z0-9_~']*$", tok) or tok in KEYWORDS:
            raise FormulaError(f"expected identifier, got {tok!r}")
        return tok

    def endo(self) -> Endo:
        tok = self.next()
        try:
            return parse_endo(tok, self.n)
        except (RoleError, ValueError) as e:
            raise FormulaError(f"bad endo {tok!r}: {e}") from e

    def ultra(self) -> Ultra:
        tok = self.next()
        try:
            return parse_ultra(tok, self.n)
        except (RoleError, ValueError) as e:
            raise FormulaError(f"bad ultrafilter {tok!r}: {e}") from e

    def term(self, bound: frozenset) -> Term:
        name = self.ident()
        if name.startswith("$"):
            return Var(name[1:])  # explicitly marked free variable
        return Var(name) if name in bound else Const(name)

    def formula(self, bound: frozenset) -> Formula:
        tok = self.next()
        if tok != "(":
            if tok == ")":
                raise FormulaError("unexpected ')'")
            return Atom(tok)
        head = self.next()
        match head:
            case "not":
                out: Formula = Neg(self.endo(), self.formula(bound))
            case "and":
                out = Conj(self.ultra(), self.formula(bound), self.formula(bound))
            case "imp":
                f = self.endo()
                out = Impl(f, self.ultra(), self.formula(bound), self.formula(bound))
            case "with":
                out = AConj(self.ultra(), self.formula(bound), self.formula(bound))
            case "tensor":
                out = MConj(self.ultra(), self.formula(bound), self.formula(bound))
            case "bang":
                out = Bang(self.ultra(), self.formula(bound))
            case "forall":
                u = self.ultra()
                x = self.ident()
                out = Forall(u, x, self.formula(bound | {x}))
            case _:
                args = []
                while self.peek() != ")":
                    args.append(self.term(bound))
                out = Atom(head, tuple(args))
        self.expect(")")
        return out


def parse_formula(text: str, n: int | None = None) -> Formula:
    p = _Parser(_tokenize(text), n)
    out = p.formula(frozenset())
    if p.peek() is not None:
        raise FormulaError(f"trailing input: {p.peek()!r}")
    return out


# --------------------------------------------------------- sequent JSON


def sequent_to_json(items: Sequent) -> str:
    return json.dumps(
        [{"roles": members(it.roles), "formula": fmt_formula(it.formula)} for it in items]
    )


def sequent_from_json(text: str, n: int | None = None) -> Sequent:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormulaError(f"bad sequent JSON: {e}") from e
    return sequent_from_obj(raw, lambda t: parse_formula(t, n), n)


def sequent_from_obj(raw, parse, n: int | None = None) -> Sequent:
    """Decode a JSON array of ``{"roles": [r, ...], "formula": text}`` items,
    the shape of a sequent file and of a derivation node's conclusion.

    parse turns a formula text into a formula (the kernel passes one that
    parses each distinct text once per call).  Raise FormulaError when an
    item is malformed or names a role outside 0..n-1 (0..MAX_ROLES-1 when
    n is None).
    """
    if not isinstance(raw, list):
        raise FormulaError("sequent JSON must be an array")
    limit = MAX_ROLES if n is None else n
    items = []
    for entry in raw:
        try:
            roles, text = entry["roles"], entry["formula"]
        except (KeyError, TypeError):
            raise FormulaError('each sequent JSON item needs "roles" and '
                               '"formula"') from None
        if not isinstance(text, str):
            raise FormulaError('an item\'s "formula" must be a string')
        mask = 0
        try:
            for r in roles:
                if not 0 <= r < limit:
                    raise FormulaError(f"role {r} outside universe of {limit} roles")
                mask |= 1 << r
        except TypeError:
            raise FormulaError('an item\'s "roles" must be a list of role '
                               'numbers') from None
        items.append(IFormula(mask, parse(text)))
    return tuple(items)
