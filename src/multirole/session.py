"""Session types for multiparty channels.

A session type describes one protocol followed by all endpoints of a
channel; each endpoint sees it through its own role set.  The module
provides the protocol DSL (`title(1, 0)@quote(0, 1)@...`), the encoding
into linear formulas, the coherence check for endpoint typings, the
per-role-set classification of the head constructor that drives the
runtime, and the cursors that say what is left of a session as its heads
fire (norm, advance, forks), which no other module builds.
"""

from __future__ import annotations

import re

from . import roles as rl
from .logic import AConj, Atom, Bang, Formula, MConj
from .roles import Node, Record, Ultra, _unfold


class SessionError(ValueError):
    pass


class SessionMismatch(SessionError):
    pass


class NotPartition(SessionError):
    pass


# ------------------------------------------------------------------ AST

PAYLOADS = ("unit", "int", "str")


# Role fields take ints only: the node table keys on ==, where True is 1, so
# a bool role would be the int role's node and print as whichever came first.
_NOT_A_ROLE = "{}: role {!r} is not an int"


class Msg(Node):
    __slots__ = __match_args__ = ("label", "frm", "to", "payload")
    label: str
    frm: int
    to: int
    payload: str

    def __new__(cls, label: str, frm: int, to: int, payload: str = "unit"):
        if type(frm) is not int or type(to) is not int:
            raise SessionError(_NOT_A_ROLE.format(cls.__name__, to if type(frm) is int else frm))
        if frm == to:
            raise SessionError(f"message {label}: sender equals receiver")
        return super().__new__(cls, label, frm, to, payload)


class Bcast(Node):
    __slots__ = __match_args__ = ("label", "frm", "payload")
    label: str
    frm: int
    payload: str

    def __new__(cls, label: str, frm: int, payload: str = "unit"):
        if type(frm) is not int:
            raise SessionError(_NOT_A_ROLE.format(cls.__name__, frm))
        return super().__new__(cls, label, frm, payload)


class Gather(Node):
    __slots__ = __match_args__ = ("label", "to", "payload")
    label: str
    to: int
    payload: str

    def __new__(cls, label: str, to: int, payload: str = "unit"):
        if type(to) is not int:
            raise SessionError(_NOT_A_ROLE.format(cls.__name__, to))
        return super().__new__(cls, label, to, payload)


class Nil(Node):
    __slots__ = ()


class Append(Node):
    __slots__ = __match_args__ = ("first", "rest")
    first: "SessionType"
    rest: "SessionType"


class _Combinator(Node):
    """A session node whose first field r is the role it is decided by."""
    __slots__ = ()

    def __new__(cls, r: int, *parts):
        if type(r) is not int:
            raise SessionError(_NOT_A_ROLE.format(cls.__name__, r))
        return super().__new__(cls, r, *parts)


class SMConj(_Combinator):
    __slots__ = __match_args__ = ("r", "left", "right")
    r: int
    left: "SessionType"
    right: "SessionType"


class SAConj(_Combinator):
    __slots__ = __match_args__ = ("r", "left", "right")
    r: int
    left: "SessionType"
    right: "SessionType"


class OptionT(_Combinator):
    __slots__ = __match_args__ = ("r", "body")
    r: int
    body: "SessionType"


class Repseq(_Combinator):
    __slots__ = __match_args__ = ("r", "body")
    r: int
    body: "SessionType"


class Repeat(_Combinator):
    __slots__ = __match_args__ = ("r", "body")
    r: int
    body: "SessionType"


SessionType = Msg | Bcast | Gather | Nil | Append | SMConj | SAConj | OptionT | Repseq | Repeat


class EndpointType(Record):
    roles: int
    session: SessionType


def check_session(s: SessionType, n: int) -> None:
    """Raise unless every role s names lies in the universe of n."""
    roles, todo = [], [s]
    while todo:
        s = todo.pop()
        cls = type(s)
        if cls is Append:
            todo += (s.rest, s.first)
        elif cls is Msg:
            roles += (s.frm, s.to)
        elif cls is Bcast:
            roles.append(s.frm)
        elif cls is Gather:
            roles.append(s.to)
        elif cls in _BINARY:
            roles.append(s.r)
            todo += (s.right, s.left)
        elif cls in _NAMES:
            roles.append(s.r)
            todo.append(s.body)
        elif cls is not Nil:
            raise SessionError(f"unknown session node {s!r}")
    _check_roles(roles, n)


def _check_roles(roles: list[int], n: int) -> None:
    if roles and not (0 <= min(roles) and max(roles) < n):
        bad = sorted({r for r in roles if not 0 <= r < n})
        raise SessionError(f"roles {bad} outside universe of {n}")


# ------------------------------------------------------------- printing


def fmt_session(s: SessionType) -> str:
    return _unfold([s], _session_parts)


def _atom_text(label: str, args: str, payload: str) -> str:
    return f"{label}({args})" if payload == "unit" else f"{label}({args}, {payload})"


def _session_parts(s: SessionType) -> list:
    """s's text as parts, with its subsessions still to unfold."""
    cls = type(s)
    if cls is Append:
        a = s.first
        return ["(", a, ")@", s.rest] if type(a) is Append else [a, "@", s.rest]
    if cls is Msg:
        return [_atom_text(s.label, f"{s.frm}, {s.to}", s.payload)]
    if cls is Bcast:
        return [_atom_text(s.label, str(s.frm), s.payload)]
    if cls is Gather:
        # a payload-named label needs its payload printed, or the parser
        # reads the label as the payload of a Bcast named gather
        if s.payload == "unit" and s.label not in PAYLOADS:
            return [f"gather({s.to}, {s.label})"]
        return [f"gather({s.to}, {s.label}, {s.payload})"]
    if cls is Nil:
        return ["nil"]
    if cls in _BINARY:
        return [f"{_NAMES[cls]}({s.r}, ", s.left, ", ", s.right, ")"]
    if cls in _NAMES:
        return [f"{_NAMES[cls]}({s.r}, ", s.body, ")"]
    raise SessionError(f"unknown session node {s!r}")


# -------------------------------------------------------------- parsing

_TOKEN = re.compile(r"[(),@]|[A-Za-z_][A-Za-z0-9_]*|\d+|\S")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_COMBINATORS = {"mconj": SMConj, "aconj": SAConj, "option": OptionT,
                "repseq": Repseq, "repeat": Repeat}
_NAMES = {cls: name for name, cls in _COMBINATORS.items()}
_BINARY = (SMConj, SAConj)
_END = ""  # the token past the last one; no token is empty
_RAN_OUT = "unexpected end of session expression"


def _error(got: str, text: str) -> SessionError:
    """text, or where the token got is the end, that the input ran out."""
    return SessionError(text if got else _RAN_OUT)


def _expected(want: str, got: str) -> SessionError:
    return _error(got, f"expected {want!r}, got {got!r}")


def parse_session(text: str, n: int | None = None) -> SessionType:
    """Read a session in one loop over its tokens, so depth is bounded by
    memory alone.  An open group waits on the stack as its class (None for
    a parenthesis), its role, its parts so far and the @-run it interrupts;
    an @-run folds right into Append.  The roles read are checked against
    the universe once, after the whole text has been read."""
    toks = _TOKEN.findall(text)
    toks.append(_END)
    i, stack, run, roles = 0, [], [], []
    while True:
        t = toks[i]
        if t == "(":
            stack.append((None, None, (), run))
            i, run = i + 1, []
            continue
        cls = _COMBINATORS.get(t)
        if cls is not None:
            if toks[i + 1] != "(":
                raise _expected("(", toks[i + 1])
            r = toks[i + 2]
            if not rl.is_digits(r):
                raise _error(r, f"expected a role number, got {r!r}")
            if toks[i + 3] != ",":
                raise _expected(",", toks[i + 3])
            roles.append(int(r))
            stack.append((cls, roles[-1], (), run))
            i, run = i + 4, []
            continue
        if t == "nil":
            s, i = Nil(), i + 1
        else:
            s, i = _atom(toks, i, roles)
        while True:  # s ends an @-run, and perhaps the group it is in
            t = toks[i]
            i += 1
            if t == "@":
                run.append(s)
                break
            for a in reversed(run):
                s = Append(a, s)
            if not stack:
                if t:
                    raise SessionError(f"trailing input at token {t!r}")
                if n is not None:
                    _check_roles(roles, n)
                return s
            cls, r, parts, run = stack.pop()
            if cls in _BINARY and not parts:
                if t != ",":
                    raise _expected(",", t)
                stack.append((cls, r, (s,), run))
                run = []
                break
            if t != ")":
                raise _expected(")", t)
            if cls is not None:
                s = cls(r, *parts, s)


def _atom(toks: list[str], i: int, roles: list[int]) -> tuple:
    """The message atom at toks[i], label(role [, role] [, payload]) or
    gather(role, label [, payload]), and the index past it; its roles are
    added to roles."""
    label = toks[i]
    if not _IDENT.fullmatch(label):
        raise _error(label, f"unexpected token {label!r}")
    if toks[i + 1] != "(":
        raise _expected("(", toks[i + 1])
    args = [toks[i + 2]]
    i += 3
    while args[-1] and toks[i] == ",":
        args.append(toks[i + 1])
        i += 2
    if not args[-1]:
        raise SessionError(_RAN_OUT)
    if toks[i] != ")":
        raise _expected(")", toks[i])
    payload = args.pop() if args[-1] in PAYLOADS else "unit"
    if label == "gather" and len(args) == 2 and rl.is_digits(args[0]) \
            and _IDENT.fullmatch(args[1]):
        roles.append(int(args[0]))
        return Gather(args[1], roles[-1], payload), i + 1
    if not args or len(args) > 2 or not rl.is_digits("".join(args)):
        raise SessionError(f"bad argument list for atom {label}")
    rs = [int(a) for a in args]
    roles += rs
    return (Msg if len(rs) == 2 else Bcast)(label, *rs, payload), i + 1


def parse_protocol(text: str) -> tuple[int, dict[str, SessionType]]:
    """Protocol file: a `roles N` line, then `session <name> = <S>` lines."""
    n = None
    sessions: dict[str, SessionType] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("roles"):
            if not re.fullmatch(r"roles\s+[0-9]+", line):
                raise SessionError(f"line {lineno}: expected `roles N`")
            n = int(line.split()[1])
            rl.check_universe(n)
        elif line.startswith("session"):
            if n is None:
                raise SessionError(f"line {lineno}: `roles N` must come first")
            head, _, body = line.partition("=")
            parts = head.split()
            if len(parts) != 2 or not body.strip():
                raise SessionError(f"line {lineno}: expected `session <name> = <S>`")
            sessions[parts[1]] = parse_session(body.strip(), n)
        else:
            raise SessionError(f"line {lineno}: unrecognized directive")
    if n is None:
        raise SessionError("protocol file missing `roles N`")
    return n, sessions


# ------------------------------------------------------------- encoding


def atom_label(s: Msg | Bcast | Gather) -> str:
    suffix = "" if s.payload == "unit" else f":{s.payload}"
    cls = type(s)
    if cls is Msg:
        return f"{s.label}:{s.frm}:{s.to}{suffix}"
    if cls is Bcast:
        return f"{s.label}:{s.frm}:*{suffix}"
    if cls is Gather:
        return f"{s.label}:*:{s.to}{suffix}"


def encode_lmrl(s: SessionType, unroll: int = 0) -> Formula:
    """Encode a session as a linear formula over principal ultrafilters.
    Sequential composition (@) becomes a tensor at @0, which the logic does
    not tell apart from a parallel one; a repseq unrolls `unroll` times.
    A postorder with an explicit stack, so depth is bounded by memory alone:
    an entry is a session and its unrolling left, or a connective and its
    ultrafilter to apply to the last encodings done."""
    if unroll < 0:
        raise SessionError(f"unroll must be at least 0, got {unroll}")
    done, todo = [], [(s, unroll)]
    while todo:
        s, k = todo.pop()
        if s is MConj or s is AConj:
            b = done.pop()
            done[-1] = s(k, done[-1], b)
            continue
        if s is Bang:
            done[-1] = Bang(k, done[-1])
            continue
        cls = type(s)
        if cls is Append:
            todo += ((MConj, Ultra(0)), (s.rest, k), (s.first, k))
        elif cls is Msg or cls is Bcast or cls is Gather:
            done.append(Atom(atom_label(s)))
        elif cls is Nil or cls is Repseq and k == 0:
            done.append(Atom("nil"))
        elif cls is SMConj or cls is SAConj:
            todo += ((MConj if cls is SMConj else AConj, Ultra(s.r)),
                     (s.right, k), (s.left, k))
        elif cls is OptionT:
            todo += ((AConj, Ultra(s.r)), (Nil(), k), (s.body, k))
        elif cls is Repseq:
            todo += ((AConj, Ultra(s.r)), (Nil(), k),
                     (MConj, Ultra(0)), (s, k - 1), (s.body, k))
        elif cls is Repeat:
            todo += ((Bang, Ultra(s.r)), (s.body, k))
        else:
            raise SessionError(f"unknown session node {s!r}")
    return done[0]


# ------------------------------------------------------------ coherence


def coherence_check(endpoints: list[EndpointType], n: int) -> None:
    """All endpoints carry one session and their role sets partition the universe."""
    if not endpoints:
        raise NotPartition("no endpoints")
    s0 = endpoints[0].session
    for e in endpoints[1:]:
        if e.session != s0:
            raise SessionMismatch(
                f"{fmt_session(e.session)} differs from {fmt_session(s0)}")
    if not rl.partition_check([e.roles for e in endpoints], n):
        raise NotPartition("endpoint role sets do not partition the universe")


# ------------------------------------------------------------ cursors
# A cursor is what is left of a session, a tuple of segments whose first is
# the head; runtime channels and mtlc channel types hold one.


def norm(s: SessionType) -> tuple[SessionType, ...]:
    """Flatten sequential composition into a list of segments, dropping nil."""
    out, todo = [], [s]
    while todo:
        s = todo.pop()
        if isinstance(s, Append):
            todo += (s.rest, s.first)
        elif not isinstance(s, Nil):
            out.append(s)
    return tuple(out)


def advance(cursor: tuple[SessionType, ...],
            side: str | None = None) -> tuple[SessionType, ...]:
    """The cursor after its head fires.  A message (side None) leaves the
    rest.  A choice (aconj, option, repseq) taking side 'l' or 'r' leaves
    that branch, then the rest: option's r branch is empty, and repseq's l
    branch is its body, then the loop again."""
    head = cursor[0]
    if side is None:
        if isinstance(head, (Msg, Bcast, Gather)):
            return cursor[1:]
    else:
        match head:
            case SAConj(_, a, b):
                return norm(a if side == "l" else b) + cursor[1:]
            case OptionT(_, a):
                return norm(a) + cursor[1:] if side == "l" else cursor[1:]
            case Repseq(_, a):
                return norm(a) + cursor if side == "l" else cursor[1:]
    raise SessionError(f"cannot advance past {fmt_session(head)} with side {side!r}")


def forks(cursor: tuple[SessionType, ...]) -> tuple[tuple[SessionType, ...], ...]:
    """The two cursors a final mconj head splits into, left then right."""
    head = cursor[0]
    if not isinstance(head, SMConj):
        raise SessionError(f"{fmt_session(head)} does not fork")
    if len(cursor) != 1:
        raise SessionError("mconj(...) must end its session")
    return norm(head.left), norm(head.right)


# ----------------------------------------------------------- actions


class Action(Record):
    kind: str  # send | recv | skip | offer | choose | fork-conj | fork-disj | append | done
    label: str | None = None
    frm: int | None = None
    to: int | None = None
    role: int | None = None
    payload: str | None = None


def _message_kind(s: Msg, roleset: int) -> str:
    frm, to = roleset & (1 << s.frm), roleset & (1 << s.to)
    return "send" if frm and not to else "recv" if to and not frm else "skip"


def _decider_kind(s, roleset: int) -> str:
    return "choose" if roleset & (1 << s.r) else "offer"


# each head constructor, by session node class: its action kind as seen
# from a role set, and the other fields of its Action
_ACTIONS = {
    Nil: (lambda s, roleset: "done", lambda s: {}),
    Append: (lambda s, roleset: "append", lambda s: {}),
    Msg: (_message_kind,
          lambda s: dict(label=s.label, frm=s.frm, to=s.to, payload=s.payload)),
    Bcast: (lambda s, roleset: "send" if roleset & (1 << s.frm) else "recv",
            lambda s: dict(label=s.label, frm=s.frm, payload=s.payload)),
    Gather: (lambda s, roleset: "recv" if roleset & (1 << s.to) else "send",
             lambda s: dict(label=s.label, to=s.to, payload=s.payload)),
    **dict.fromkeys((SAConj, OptionT, Repseq, Repeat),
                    (_decider_kind, lambda s: dict(role=s.r))),
    SMConj: (lambda s, roleset: "fork-conj" if roleset & (1 << s.r) else "fork-disj",
             lambda s: dict(role=s.r)),
}


def _rules(s: SessionType):
    try:
        return _ACTIONS[type(s)]
    except KeyError:
        raise SessionError(f"unknown session node {s!r}") from None


def next_kind(s: SessionType, roleset: int) -> str:
    """The kind of next_actions(s, roleset), without building the Action."""
    return (_ACTIONS.get(s.__class__) or _rules(s))[0](s, roleset)


def next_actions(s: SessionType, roleset: int) -> Action:
    """Classify the head constructor of s as seen from one role set."""
    kind, fields = _rules(s)
    return Action(kind(s, roleset), **fields(s))
