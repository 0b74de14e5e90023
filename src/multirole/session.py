"""Session types for multiparty channels.

A session type describes one protocol followed by all endpoints of a
channel; each endpoint sees it through its own role set.  The module
provides the protocol DSL (`title(1, 0)@quote(0, 1)@...`), the encoding
into linear formulas, the coherence check for endpoint typings, and the
per-role-set classification of the head constructor that drives the
runtime.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import roles as rl
from .logic import AConj, Atom, Bang, Formula, MConj
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
    def atom(label: str, parts: list, payload: str) -> str:
        if payload != "unit":
            parts = parts + [payload]
        return f"{label}({', '.join(str(p) for p in parts)})"

    match s:
        case Msg(label, f, t, p):
            return atom(label, [f, t], p)
        case Bcast(label, f, p):
            return atom(label, [f], p)
        case Gather(label, t, p):
            # a payload-named label needs its payload printed, or the parser
            # reads the label as the payload of a Bcast named gather
            if p == "unit" and label not in PAYLOADS:
                return f"gather({t}, {label})"
            return f"gather({t}, {label}, {p})"
        case Nil():
            return "nil"
        case Append(a, b):
            left = fmt_session(a)
            if isinstance(a, Append):
                left = f"({left})"
            return f"{left}@{fmt_session(b)}"
        case SMConj(r, a, b):
            return f"mconj({r}, {fmt_session(a)}, {fmt_session(b)})"
        case SAConj(r, a, b):
            return f"aconj({r}, {fmt_session(a)}, {fmt_session(b)})"
        case OptionT(r, a):
            return f"option({r}, {fmt_session(a)})"
        case Repseq(r, a):
            return f"repseq({r}, {fmt_session(a)})"
        case Repeat(r, a):
            return f"repeat({r}, {fmt_session(a)})"
    raise SessionError(f"unknown session node {s!r}")


# -------------------------------------------------------------- parsing

_TOKEN = re.compile(r"\(|\)|@|,|[A-Za-z_][A-Za-z0-9_]*|\d+|\S")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_COMBINATORS = ("mconj", "aconj", "option", "repseq", "repeat")


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
        if t in _COMBINATORS:
            self.expect("(")
            r = self.role()
            self.expect(",")
            a = self.session()
            if t in ("mconj", "aconj"):
                self.expect(",")
                b = self.session()
                self.expect(")")
                return SMConj(r, a, b) if t == "mconj" else SAConj(r, a, b)
            self.expect(")")
            return {"option": OptionT, "repseq": Repseq, "repeat": Repeat}[t](r, a)
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
    return encode_lmrl_annotated(s, unroll)[0]


def encode_lmrl_annotated(s: SessionType, unroll: int = 0,
                          path: tuple = ()) -> tuple[Formula, list[tuple]]:
    """Encode a session as a linear formula over principal ultrafilters.

    Returns the formula and the paths ('l'/'r' steps from the root) of the
    tensor nodes that stand for sequential composition (@), which the logic
    itself does not distinguish from parallel tensors.
    """
    seq: list[tuple] = []
    match s:
        case Msg() | Bcast() | Gather():
            return Atom(atom_label(s)), seq
        case Nil():
            return Atom("nil"), seq
        case Append(a, b):
            fa, sa = encode_lmrl_annotated(a, unroll, path + ("l",))
            fb, sb = encode_lmrl_annotated(b, unroll, path + ("r",))
            return MConj(Ultra(0), fa, fb), [path] + sa + sb
        case SMConj(r, a, b):
            fa, sa = encode_lmrl_annotated(a, unroll, path + ("l",))
            fb, sb = encode_lmrl_annotated(b, unroll, path + ("r",))
            return MConj(Ultra(r), fa, fb), sa + sb
        case SAConj(r, a, b):
            fa, sa = encode_lmrl_annotated(a, unroll, path + ("l",))
            fb, sb = encode_lmrl_annotated(b, unroll, path + ("r",))
            return AConj(Ultra(r), fa, fb), sa + sb
        case OptionT(r, a):
            fa, sa = encode_lmrl_annotated(a, unroll, path + ("l",))
            return AConj(Ultra(r), fa, Atom("nil")), sa
        case Repseq(r, a):
            if unroll == 0:
                return Atom("nil"), seq
            body, sa = encode_lmrl_annotated(a, unroll, path + ("l", "l"))
            tail, st = encode_lmrl_annotated(s, unroll - 1, path + ("l", "r"))
            step = MConj(Ultra(0), body, tail)
            return AConj(Ultra(r), step, Atom("nil")), [path + ("l",)] + sa + st
        case Repeat(r, a):
            fa, sa = encode_lmrl_annotated(a, unroll, path + ("l",))
            return Bang(Ultra(r), fa), sa
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


# ----------------------------------------------------------- actions


@dataclass(frozen=True)
class Action:
    kind: str  # send | recv | skip | offer | choose | fork-conj | fork-disj | append | done
    label: str | None = None
    frm: int | None = None
    to: int | None = None
    role: int | None = None
    payload: str | None = None


def next_actions(s: SessionType, roleset: int) -> Action:
    """Classify the head constructor of s as seen from one role set."""

    def holds(r: int) -> bool:
        return bool(roleset & (1 << r))

    match s:
        case Nil():
            return Action("done")
        case Append(_, _):
            return Action("append")
        case Msg(label, f, t, p):
            if holds(f) and not holds(t):
                return Action("send", label, f, t, payload=p)
            if holds(t) and not holds(f):
                return Action("recv", label, f, t, payload=p)
            return Action("skip", label, f, t, payload=p)
        case Bcast(label, f, p):
            if holds(f):
                return Action("send", label, frm=f, payload=p)
            return Action("recv", label, frm=f, payload=p)
        case Gather(label, t, p):
            if holds(t):
                return Action("recv", label, to=t, payload=p)
            return Action("send", label, to=t, payload=p)
        case SAConj(r, _, _) | OptionT(r, _) | Repseq(r, _) | Repeat(r, _):
            return Action("choose" if holds(r) else "offer", role=r)
        case SMConj(r, _, _):
            return Action("fork-conj" if holds(r) else "fork-disj", role=r)
    raise SessionError(f"unknown session node {s!r}")
