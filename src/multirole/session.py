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
from dataclasses import dataclass

from . import roles as rl
from .logic import AConj, Atom, Bang, Formula, MConj, _unfold
from .roles import Ultra


class SessionError(ValueError):
    pass


class SessionMismatch(SessionError):
    pass


class NotPartition(SessionError):
    pass


# ------------------------------------------------------------------ AST

PAYLOADS = ("unit", "int", "str")


@dataclass(frozen=True)
class Msg:
    label: str
    frm: int
    to: int
    payload: str = "unit"

    def __post_init__(self):
        if self.frm == self.to:
            raise SessionError(f"message {self.label}: sender equals receiver")


@dataclass(frozen=True)
class Bcast:
    label: str
    frm: int
    payload: str = "unit"


@dataclass(frozen=True)
class Gather:
    label: str
    to: int
    payload: str = "unit"


@dataclass(frozen=True)
class Nil:
    pass


@dataclass(frozen=True)
class Append:
    first: "SessionType"
    rest: "SessionType"


@dataclass(frozen=True)
class SMConj:
    r: int
    left: "SessionType"
    right: "SessionType"


@dataclass(frozen=True)
class SAConj:
    r: int
    left: "SessionType"
    right: "SessionType"


@dataclass(frozen=True)
class OptionT:
    r: int
    body: "SessionType"


@dataclass(frozen=True)
class Repseq:
    r: int
    body: "SessionType"


@dataclass(frozen=True)
class Repeat:
    r: int
    body: "SessionType"


SessionType = Msg | Bcast | Gather | Nil | Append | SMConj | SAConj | OptionT | Repseq | Repeat


@dataclass(frozen=True)
class EndpointType:
    roles: int
    session: SessionType


def roles_used(s: SessionType) -> set[int]:
    match s:
        case Msg(_, f, t, _):
            return {f, t}
        case Bcast(_, f, _):
            return {f}
        case Gather(_, t, _):
            return {t}
        case Nil():
            return set()
        case Append(a, b):
            return roles_used(a) | roles_used(b)
        case SMConj(r, a, b) | SAConj(r, a, b):
            return {r} | roles_used(a) | roles_used(b)
        case OptionT(r, a) | Repseq(r, a) | Repeat(r, a):
            return {r} | roles_used(a)
    raise SessionError(f"unknown session node {s!r}")


def check_session(s: SessionType, n: int) -> None:
    bad = [r for r in roles_used(s) if not 0 <= r < n]
    if bad:
        raise SessionError(f"roles {sorted(bad)} outside universe of {n}")


# ------------------------------------------------------------- printing


def fmt_session(s: SessionType) -> str:
    return _unfold([s], _session_parts)


def _session_parts(s: SessionType) -> list:
    """s's text as parts, with its subsessions still to unfold."""
    def atom(label: str, parts: list, payload: str) -> list:
        if payload != "unit":
            parts = parts + [payload]
        return [f"{label}({', '.join(str(p) for p in parts)})"]

    match s:
        case Msg(label, f, t, p):
            return atom(label, [f, t], p)
        case Bcast(label, f, p):
            return atom(label, [f], p)
        case Gather(label, t, p):
            # a payload-named label needs its payload printed, or the parser
            # reads the label as the payload of a Bcast named gather
            if p == "unit" and label not in PAYLOADS:
                return [f"gather({t}, {label})"]
            return [f"gather({t}, {label}, {p})"]
        case Nil():
            return ["nil"]
        case Append(a, b):
            if isinstance(a, Append):
                return ["(", a, ")@", b]
            return [a, "@", b]
        case SMConj(r, a, b) | SAConj(r, a, b):
            return [f"{_NAMES[type(s)]}({r}, ", a, ", ", b, ")"]
        case OptionT(r, a) | Repseq(r, a) | Repeat(r, a):
            return [f"{_NAMES[type(s)]}({r}, ", a, ")"]
    raise SessionError(f"unknown session node {s!r}")


# -------------------------------------------------------------- parsing

_TOKEN = re.compile(r"\(|\)|@|,|[A-Za-z_][A-Za-z0-9_]*|\d+|\S")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_COMBINATORS = {"mconj": SMConj, "aconj": SAConj, "option": OptionT,
                "repseq": Repseq, "repeat": Repeat}
_NAMES = {cls: name for name, cls in _COMBINATORS.items()}


class _P:
    def __init__(self, text: str):
        self.toks = _TOKEN.findall(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise SessionError("unexpected end of session expression")
        self.i += 1
        return t

    def expect(self, t):
        got = self.next()
        if got != t:
            raise SessionError(f"expected {t!r}, got {got!r}")

    def role(self) -> int:
        t = self.next()
        if not t.isdecimal():
            raise SessionError(f"expected a role number, got {t!r}")
        return int(t)

    def session(self) -> SessionType:
        left = self.atomish()
        if self.peek() == "@":
            self.next()
            return Append(left, self.session())  # right-associative
        return left

    def atomish(self) -> SessionType:
        t = self.next()
        if t == "(":
            s = self.session()
            self.expect(")")
            return s
        if t == "nil":
            return Nil()
        cls = _COMBINATORS.get(t)
        if cls is not None:
            self.expect("(")
            r = self.role()
            self.expect(",")
            a = self.session()
            if cls in (SMConj, SAConj):
                self.expect(",")
                b = self.session()
                self.expect(")")
                return cls(r, a, b)
            self.expect(")")
            return cls(r, a)
        if not _IDENT.fullmatch(t):
            raise SessionError(f"unexpected token {t!r}")
        # message atom: label(role [, role] [, payload]), or gather(role, label [, payload])
        label = t
        self.expect("(")
        args: list[str] = [self.next()]
        while self.peek() == ",":
            self.next()
            args.append(self.next())
        self.expect(")")
        payload = "unit"
        if args and args[-1] in PAYLOADS:
            payload = args.pop()
        if label == "gather" and len(args) == 2 and args[0].isdecimal() \
                and _IDENT.fullmatch(args[1]):
            return Gather(args[1], int(args[0]), payload)
        if not args or not all(a.isdecimal() for a in args) or len(args) > 2:
            raise SessionError(f"bad argument list for atom {label}")
        if len(args) == 1:
            return Bcast(label, int(args[0]), payload)
        return Msg(label, int(args[0]), int(args[1]), payload)


def parse_session(text: str, n: int | None = None) -> SessionType:
    p = _P(text)
    s = p.session()
    if p.peek() is not None:
        raise SessionError(f"trailing input at token {p.peek()!r}")
    if n is not None:
        check_session(s, n)
    return s


def parse_protocol(text: str) -> tuple[int, dict[str, SessionType]]:
    """Protocol file: a `roles N` line, then `session <name> = <S>` lines."""
    n = None
    sessions: dict[str, SessionType] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("roles"):
            if not re.fullmatch(r"roles\s+\d+", line):
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
    match s:
        case Msg(label, f, t, _):
            return f"{label}:{f}:{t}{suffix}"
        case Bcast(label, f, _):
            return f"{label}:{f}:*{suffix}"
        case Gather(label, t, _):
            return f"{label}:*:{t}{suffix}"


def encode_lmrl(s: SessionType, unroll: int = 0) -> Formula:
    """Encode a session as a linear formula over principal ultrafilters.
    Sequential composition (@) becomes a tensor at @0, which the logic does
    not tell apart from a parallel one; a repseq unrolls `unroll` times."""
    match s:
        case Msg() | Bcast() | Gather():
            return Atom(atom_label(s))
        case Nil():
            return Atom("nil")
        case Append(a, b):
            return MConj(Ultra(0), encode_lmrl(a, unroll), encode_lmrl(b, unroll))
        case SMConj(r, a, b):
            return MConj(Ultra(r), encode_lmrl(a, unroll), encode_lmrl(b, unroll))
        case SAConj(r, a, b):
            return AConj(Ultra(r), encode_lmrl(a, unroll), encode_lmrl(b, unroll))
        case OptionT(r, a):
            return AConj(Ultra(r), encode_lmrl(a, unroll), Atom("nil"))
        case Repseq(r, a):
            if unroll == 0:
                return Atom("nil")
            step = MConj(Ultra(0), encode_lmrl(a, unroll), encode_lmrl(s, unroll - 1))
            return AConj(Ultra(r), step, Atom("nil"))
        case Repeat(r, a):
            return Bang(Ultra(r), encode_lmrl(a, unroll))
    raise SessionError(f"unknown session node {s!r}")


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


@dataclass(frozen=True)
class Action:
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
    return _rules(s)[0](s, roleset)


def next_actions(s: SessionType, roleset: int) -> Action:
    """Classify the head constructor of s as seen from one role set."""
    kind, fields = _rules(s)
    return Action(kind(s, roleset), **fields(s))
