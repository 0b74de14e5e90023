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
as constants otherwise; ``$x`` is the free variable x.

Terms, formulas and i-formulas are hash-consed ``roles.Node`` subclasses.
"""

from __future__ import annotations

import json
import re
from operator import attrgetter

from .roles import (
    MAX_ROLES,
    Endo,
    Node,
    RoleError,
    Ultra,
    _unfold,
    fmt_endo,
    fmt_ultra,
    members,
    parse_endo,
    parse_ultra,
)


class FormulaError(ValueError):
    pass


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
    """Number of connectives in a formula, counted as a tree.  A loop over
    its distinct subformulas, so depth is bounded by memory alone."""
    done: dict = {}
    stack = [a]
    while stack:
        b = stack[-1]
        if b in done:
            stack.pop()
            continue
        if type(b) is Atom:
            done[b] = 0
            continue
        get = _SUBFORMULAS.get(type(b))
        if get is None:
            raise FormulaError(f"not a formula: {b!r}")
        subs = get(b)
        todo = [c for c in subs if c not in done]
        if todo:
            stack += todo
            continue
        stack.pop()
        done[b] = 1 + sum([done[c] for c in subs])
    return done[a]


def free_vars(a: Formula) -> frozenset[str]:
    return _free_vars(a, {})


def _free_vars(a: Formula, done: dict) -> frozenset[str]:
    """done maps the subformulas seen in this call to their free variables,
    so a subformula that a's DAG shares is visited once.  A postorder with
    an explicit stack, so depth is bounded by memory alone."""
    out = done.get(a)
    if out is not None:
        return out
    stack = [a]
    while stack:
        b = stack[-1]
        if b in done:
            stack.pop()
            continue
        cls = type(b)
        if cls is Atom:
            out = frozenset([t.name for t in b.args if type(t) is Var])
        else:
            get = _SUBFORMULAS.get(cls)
            if get is None:
                raise FormulaError(f"not a formula: {b!r}")
            subs = get(b)
            todo = [c for c in subs if c not in done]
            if todo:
                stack += reversed(todo)
                continue
            out = done[subs[0]] if len(subs) == 1 else done[subs[0]] | done[subs[1]]
            if cls is Forall:
                out = out - {b.var}
        stack.pop()
        done[b] = out
    return done[a]


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
    return _substitute(a, x, t, {})


def _substitute(a: Formula, x: str, t: Term, done: dict) -> Formula:
    """done maps the subformulas seen in this call to their results, so a
    subformula that a's DAG shares is substituted once.  A postorder with an
    explicit stack, so depth is bounded by memory alone.  An entry is a
    formula, the substitution it is under and that substitution's memo; a
    binder renamed to z makes its body wait for the body with z for y, done
    under a substitution and memo of their own.  x for x changes nothing:
    no atom, and no binder but one of x, which it stops at."""
    if type(t) is Var and t.name == x:
        return a
    out = done.get(a)
    if out is not None:
        return out
    renamed = None  # each (binder, x, t) where t is a variable it binds: its name and body memo
    stack = [(a, x, t, done)]
    while stack:
        b, x, t, memo = stack[-1]
        if b in memo:
            stack.pop()
            continue
        cls = type(b)
        if cls is Atom:
            out = Atom(b.label, tuple([t if type(s) is Var and s.name == x else s for s in b.args]))
        elif cls is Forall:
            y, body = b.var, b.body
            if y == x:
                out = b
            else:
                z = y
                if type(t) is Var and t.name == y:  # t would be captured if x is free
                    if renamed is None:  # memos: each renaming's memo; fvs: free variables
                        renamed, memos, fvs = {}, {}, {}
                    how = renamed.get((b, x, t))
                    if how is None:
                        how = y, None
                        fv = _free_vars(body, fvs)
                        if x in fv:
                            stem, k = y.split("~")[0], 1
                            while (z := f"{stem}~{k}") in fv or z == y:
                                k += 1
                            how = z, memos.setdefault((y, z), {})
                        renamed[b, x, t] = how
                    z, inner = how
                    if inner is not None:
                        new = inner.get(body)
                        if new is None:
                            stack.append((body, y, Var(z), inner))
                            continue
                        body = new
                out = memo.get(body)
                if out is None:
                    stack.append((body, x, t, memo))
                    continue
                out = Forall(b.u, z, out)
        else:
            get = _SUBFORMULAS.get(cls)
            if get is None:
                raise FormulaError(f"not a formula: {b!r}")
            subs = get(b)
            todo = [(c, x, t, memo) for c in subs if c not in memo]
            if todo:
                stack += reversed(todo)
                continue
            out = cls(*_SHAPES[cls][1](b), *[memo[c] for c in subs])
        stack.pop()
        memo[b] = out
    return done[a]


# ------------------------------------------------------------ i-formulas


class IFormula(Node):
    __slots__ = __match_args__ = ("roles", "formula")
    roles: int
    formula: Formula

    def __new__(cls, roles: int, formula: Formula):
        # Node.__new__ for two fields, without packing them: most calls hit
        key = (cls, roles, formula)
        ref = Node._table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        return cls._make(key)


Sequent = tuple[IFormula, ...]

# Multiset arithmetic on sequents.  Items are hash-consed, so equal items
# are one object, and the C-level tuple and list methods (count, remove,
# ==) that compare by identity first find them without building a count
# table; a sequent holds a handful of items.


def seq_counts(items: Sequent) -> dict:
    counts: dict = {}
    for it in items:
        counts[it] = counts.get(it, 0) + 1
    return counts


def seq_equal(a: Sequent, b: Sequent) -> bool:
    """Multiset equality: order-insensitive, multiplicity-sensitive."""
    return len(a) == len(b) and (a == b or seq_minus(a, b) is not None)


def seq_minus(a: Sequent, b: Sequent) -> Sequent | None:
    """Multiset difference a - b, or None if b is not contained in a.

    The last occurrences in a are the ones removed; the rest keep their order.
    """
    rest = list(a)
    rest.reverse()  # so remove() takes the last occurrence
    try:
        for it in b:
            rest.remove(it)
    except ValueError:
        return None
    rest.reverse()
    return tuple(rest)


def seq_free_vars(items: Sequent) -> frozenset[str]:
    done: dict = {}
    out: frozenset[str] = frozenset()
    for it in items:
        out |= _free_vars(it.formula, done)
    return out


# ---------------------------------------------------------------- syntax
#
# The one description of the formula syntax: each head, the class it
# builds and the kinds of that class's fields, in order.  The text form
# writes a connective as (head field...), with its formulas last, and
# an atom as label or (label term...); the formula table below writes
# the same fields as a JSON entry.

_SYNTAX = {  # each head: its class and the kinds of its fields
    "var": (Var, ("name",)),
    "const": (Const, ("name",)),
    "atom": (Atom, ("name", "terms")),
    "not": (Neg, ("endo", "formula")),
    "and": (Conj, ("ultra", "formula", "formula")),
    "imp": (Impl, ("endo", "ultra", "formula", "formula")),
    "with": (AConj, ("ultra", "formula", "formula")),
    "tensor": (MConj, ("ultra", "formula", "formula")),
    "bang": (Bang, ("ultra", "formula")),
    "forall": (Forall, ("ultra", "name", "formula")),
}
_HEADS = {cls: (head, kinds) for head, (cls, kinds) in _SYNTAX.items()}
KEYWORDS = {head for head, (_, kinds) in _SYNTAX.items() if "formula" in kinds}
# how the text form reads (and names in its messages) and prints each kind
# of field that is not a formula; a connective's name field is a binder
_READ = {"endo": ("endo", parse_endo), "ultra": ("ultrafilter", parse_ultra)}
_FMT = {"endo": fmt_endo, "ultra": fmt_ultra, "name": str}


def _getter(names: tuple):
    """The function from a node to the tuple of its fields of these names."""
    if len(names) == 1:
        get = attrgetter(*names)
        return lambda a: (get(a),)
    return attrgetter(*names) if names else lambda a: ()


def _shape(head: str, cls: type, kinds: tuple) -> tuple:
    """cls as the loops over syntax see it: its head, its leading fields
    (all but its formulas and an atom's terms) and its children (those
    formulas or terms), each as a function from a node to a tuple, and the
    formula table's kind, writer and reader of each leading field."""
    k = len([kind for kind in kinds if kind not in ("formula", "terms")])
    names = cls.__match_args__
    children = attrgetter("args") if cls is Atom else _getter(names[k:])
    return head, _getter(names[:k]), children, tuple(_TABLE_FIELDS[kind] for kind in kinds[:k])


def _children(a: Formula | Term) -> tuple:
    """a's subformulas, or an atom's terms."""
    return _SHAPES[type(a)][2](a)

# ------------------------------------------------------------- printing


def fmt_formula(a: Formula, bound: frozenset = frozenset(), limit: int | None = None) -> str:
    """a's text; given a limit, cut after that many characters (for messages)."""
    return _unfold([(a, bound)], _formula_parts, limit)


def fmt_sequent(items: Sequent, limit: int | None = None) -> str:
    todo = ["|- "]
    for i, it in enumerate(items):
        todo += [", " * (i > 0), it]
    return _unfold(todo, _formula_parts, limit)


def _formula_parts(item) -> list:
    """An i-formula's or a (formula, bound variables) item's text as parts,
    with its subformulas still to unfold."""
    if type(item) is IFormula:
        return ["<%s>" % ",".join(map(str, members(item.roles))), (item.formula, frozenset())]
    a, bound = item
    if type(a) is Atom:
        if not a.args:
            return [a.label]
        return ["(%s %s)" % (a.label, " ".join(fmt_term(t, bound) for t in a.args))]
    head, kinds = _HEADS.get(type(a), ("", ()))
    if head not in KEYWORDS:
        raise FormulaError(f"not a formula: {a!r}")
    out, text = [], "(" + head
    for kind, name in zip(kinds, a.__match_args__):
        v = getattr(a, name)
        if kind == "formula":
            out += (text + " ", (v, bound))
            text = ""
        else:
            if kind == "name":
                bound = bound | {v}  # a binder's name scopes over its body
            text += " " + _FMT[kind](v)
    out.append(text + ")")
    return out


# -------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(r"\(|\)|\[[^\]]*\]|@\d+|\$?[A-Za-z_][A-Za-z0-9_~']*|\S")
_IDENT_RE = re.compile(r"\$?[A-Za-z_][A-Za-z0-9_~']*")


def parse_formula(text: str, n: int | None = None) -> Formula:
    """The formula that text writes, read by one loop: a connective's head
    and leading fields open a frame, and the frame closes into a node once
    its formulas are read, so depth is bounded by memory alone.  Raise
    FormulaError on malformed text, or when n is given and an endo or
    ultrafilter does not fit a universe of n roles."""
    toks = _TOKEN_RE.findall(text)
    toks.reverse()  # so toks.pop() takes the next token
    stack: list = []  # per open connective: its class, fields, arity and outer bound names
    bound: frozenset = frozenset()
    try:
        while True:
            tok = toks.pop()
            if tok != "(":
                if tok == ")":
                    raise FormulaError("unexpected ')'")
                out = Atom(_label(tok))
            elif (head := toks.pop()) in KEYWORDS:
                cls, kinds = _SYNTAX[head]
                fields: list = []
                stack.append((cls, fields, len(kinds), bound))
                for kind in kinds:
                    if kind == "formula":
                        break
                    tok = toks.pop()
                    if kind == "name":
                        if tok.startswith("$"):  # a binder binds a plain name
                            raise FormulaError(f"expected identifier, got {tok!r}")
                        fields.append(_ident(tok))
                        bound = bound | {tok}  # a binder's name scopes over its body
                        continue
                    what, read = _READ[kind]
                    try:
                        fields.append(read(tok, n))
                    except RoleError as e:
                        raise FormulaError(f"bad {what} {tok!r}: {e}") from e
                continue
            else:
                args = []
                while toks[-1] != ")":
                    name = _ident(toks.pop())
                    if name.startswith("$"):
                        args.append(Var(name[1:]))  # explicitly marked free variable
                    else:
                        args.append(Var(name) if name in bound else Const(name))
                toks.pop()
                out = Atom(_label(head), tuple(args))
            while stack:  # out is the next formula of the innermost open connective
                cls, fields, arity, outer = stack[-1]
                fields.append(out)
                if len(fields) < arity:
                    break
                stack.pop()
                if (tok := toks.pop()) != ")":
                    raise FormulaError(f"expected ')', got {tok!r}")
                out, bound = cls(*fields), outer
            else:
                if toks:
                    raise FormulaError(f"trailing input: {toks[-1]!r}")
                return out
    except IndexError:  # toks ran out
        raise FormulaError("unexpected end of input") from None


def _ident(tok: str) -> str:
    if tok in KEYWORDS or not _IDENT_RE.fullmatch(tok):
        raise FormulaError(f"expected identifier, got {tok!r}")
    return tok


def _label(tok: str) -> str:
    """An atom's label: any identifier, keywords included, since a bare
    keyword prints back as itself."""
    if not _IDENT_RE.fullmatch(tok):
        raise FormulaError(f"expected identifier, got {tok!r}")
    return tok


# ------------------------------------------------------- formula tables
#
# A formula table is a JSON list with one entry per distinct term and
# formula; an entry names others by their index in the table, which is
# always smaller than its own:
#
#   ["var", name]   ["const", name]   ["atom", label, term...]
#   ["not", endo, body]   ["and" | "with" | "tensor", u, left, right]
#   ["imp", endo, u, left, right]   ["bang", u, body]   ["forall", u, x, body]
#
# with an endo written as its table [f(0), ..., f(n-1)] and an ultrafilter
# as its role.

_FIELD_NAMES = {"name": "a name", "ultra": "an ultrafilter's role", "endo": "an endo table",
                "formula": "an earlier formula entry", "term": "an earlier term entry"}


def _read_name(v, n: int | None):
    return v if isinstance(v, str) else None


def _read_ultra(v, n: int | None):
    return Ultra(v) if type(v) is int and 0 <= v < (MAX_ROLES if n is None else n) else None


def _read_endo(v, n: int | None):
    """An endo, None for a value of the wrong shape; RoleError for a table
    outside its universe."""
    if isinstance(v, list) and all([type(r) is int for r in v]) and (n is None or len(v) == n):
        return Endo(tuple(v))
    return None


# each kind of leading field: the kind, how a table entry writes it (None:
# as it is) and how it reads it back (None for a value of the wrong shape)
_TABLE_FIELDS = {
    "name": ("name", None, _read_name),
    "ultra": ("ultra", attrgetter("r"), _read_ultra),
    "endo": ("endo", lambda f: list(f.table), _read_endo),
}
_SHAPES = {cls: _shape(head, cls, kinds) for head, (cls, kinds) in _SYNTAX.items()}
_SUBFORMULAS = {cls: _SHAPES[cls][2] for head, (cls, _) in _SYNTAX.items() if head in KEYWORDS}


class FormulaTable:
    """A formula table being written: index(a) is a's entry, made on first
    use together with the entries of everything below a."""

    def __init__(self):
        self.entries: list = []
        self._index: dict = {}

    def index(self, a: Formula | Term) -> int:
        """a's entry: a postorder of what a's entries lack, children first
        and left to right, with an explicit stack."""
        index, entries = self._index, self.entries
        k = index.get(a)
        if k is not None:
            return k
        stack = [a]
        while stack:
            x = stack[-1]
            if x in index:
                stack.pop()
                continue
            head, lead, children, fields = _SHAPES[type(x)]
            kids = children(x)
            todo = [c for c in kids if c not in index]
            if todo:
                stack += reversed(todo)
                continue
            stack.pop()
            entry = [head]
            for (_, write, _), v in zip(fields, lead(x)):
                entry.append(v if write is None else write(v))
            entry += [index[c] for c in kids]
            index[x] = len(entries)
            entries.append(entry)
        return index[a]


def formulas_from_table(entries, n: int | None = None) -> list:
    """The terms and formulas of a formula table, in its order.  Raise
    FormulaError on a malformed table, or when n is given and an endo or
    ultrafilter does not fit a universe of n roles."""
    if not isinstance(entries, list):
        raise FormulaError("a formula table must be an array")
    out: list = []
    for entry in entries:
        out.append(_table_entry(entry, out, n))
    return out


def _table_entry(entry, done: list, n: int | None) -> Formula | Term:
    """Entry k = len(done) of a formula table, whose entries below k are done."""
    k = len(done)
    if not (isinstance(entry, list) and entry and isinstance(entry[0], str)
            and entry[0] in _SYNTAX):
        raise FormulaError(f"formula entry {k} is not [head, ...] with a known head")
    cls, kinds = _SYNTAX[entry[0]]
    fields = _SHAPES[cls][3]
    args = entry[1:]
    atom = cls is Atom  # an atom: its label, then any number of terms
    arity = max(len(args), 1) if atom else len(kinds)
    if len(args) != arity:
        raise FormulaError(f"formula entry {k}: {entry[0]} takes {arity} fields")
    out = []
    for (kind, _, read), v in zip(fields, args):
        try:
            x = read(v, n)
        except RoleError as e:
            raise FormulaError(f"formula entry {k}: {e}") from None
        if x is None:
            raise FormulaError(f"formula entry {k}: {v!r} is not {_FIELD_NAMES[kind]}")
        out.append(x)
    for v in args[len(fields):]:
        if not (type(v) is int and 0 <= v < k and isinstance(done[v], Term) == atom):
            raise FormulaError(f"formula entry {k}: {v!r} is not "
                               f"{_FIELD_NAMES['term' if atom else 'formula']}")
        out.append(done[v])
    return Atom(out[0], tuple(out[1:])) if atom else cls(*out)


# --------------------------------------------------------- sequent JSON


def sequent_to_json(items: Sequent) -> str:
    return json.dumps(
        [{"roles": members(it.roles), "formula": fmt_formula(it.formula)} for it in items]
    )


def sequent_from_json(text: str, n: int | None = None) -> Sequent:
    """Decode a sequent file: a JSON array of ``{"roles": [r, ...],
    "formula": text}`` items.  Raise FormulaError when the JSON or an item
    is malformed, or an item names a role outside 0..n-1 (0..MAX_ROLES-1
    when n is None)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormulaError(f"bad sequent JSON: {e}") from e
    if not isinstance(raw, list):
        raise FormulaError("sequent JSON must be an array")
    items = []
    for entry in raw:
        try:
            roles, formula = entry["roles"], entry["formula"]
        except (KeyError, TypeError):
            raise FormulaError('each sequent JSON item needs "roles" and '
                               '"formula"') from None
        if not isinstance(formula, str):
            raise FormulaError('an item\'s "formula" must be a string')
        items.append(IFormula(roles_from_obj(roles, n), parse_formula(formula, n)))
    return tuple(items)


_NOT_ROLES = 'an item\'s "roles" must be a list of role numbers'


def roles_from_obj(roles, n: int | None = None) -> int:
    """The role set of a JSON list of distinct role numbers.  Raise
    FormulaError when roles is no such list, holds a bool, lists a role
    twice or names a role outside 0..n-1 (0..MAX_ROLES-1 when n is None)."""
    limit = MAX_ROLES if n is None else n
    if not isinstance(roles, list):
        raise FormulaError(_NOT_ROLES)
    mask = 0
    for r in roles:
        if type(r) is not int:  # a bool is an int to isinstance
            raise FormulaError(_NOT_ROLES)
        if not 0 <= r < limit:
            raise FormulaError(f"role {r} outside universe of {limit} roles")
        if mask >> r & 1:
            raise FormulaError(f"role {r} listed twice")
        mask |= 1 << r
    return mask
