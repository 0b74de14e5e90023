"""Deterministic multiparty channel runtime.

Channels are synchronous: every live endpoint of a channel must be blocked
on a compatible primitive before the head action fires, and all cursors
advance together (so the remaining protocol is a property of the channel,
not of individual endpoints).  Threads are Python generators that yield
blocking requests; the scheduler resumes runnable threads (seed-shuffled,
which never affects synchronization order) and then fires the matching set
with the lowest channel id.

Thread programs are usually small command lists (see the C* dataclasses and
parse_script), but any generator yielding _Block requests can join a pool —
the lambda-calculus evaluator reuses this engine.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

from . import roles as rl
from . import session as sn
from .session import (
    Append,
    Bcast,
    Gather,
    Msg,
    Nil,
    OptionT,
    Repseq,
    Repeat,
    SAConj,
    SessionType,
    SMConj,
    next_actions,
)


class RuntimeFault(ValueError):
    pass


class ProtocolMismatch(RuntimeFault):
    pass


class RoleMismatch(RuntimeFault):
    pass


class PayloadTypeMismatch(RuntimeFault):
    pass


class SubprotocolUnfinished(RuntimeFault):
    pass


class NotDisjointSplit(RuntimeFault):
    pass


class NonEmptyRoles(RuntimeFault):
    pass


class CutSideCondition(RuntimeFault):
    pass


class UnknownService(RuntimeFault):
    pass


class DemoDisabled(RuntimeFault):
    pass


class LinearityFault(RuntimeFault):
    pass


# ----------------------------------------------------------- channels


def norm(s: SessionType) -> tuple[SessionType, ...]:
    """Flatten sequential composition into a list of segments, dropping nil."""
    match s:
        case Nil():
            return ()
        case Append(a, b):
            return norm(a) + norm(b)
        case _:
            return (s,)


class Channel:
    def __init__(self, cid: int, cursor: tuple[SessionType, ...]):
        self.cid = cid
        self.cursor = cursor
        self.endpoints: list[Endpoint] = []
        self.live = True


class Endpoint:
    """Numbered per pool by Pool.new_endpoint, else within its channel."""

    def __init__(self, channel: Channel, roleset: int, eid: int | None = None):
        self.eid = len(channel.endpoints) if eid is None else eid
        self.channel = channel
        self.roles = roleset
        self.live = True
        channel.endpoints.append(self)

    def __repr__(self):
        return f"Endpoint(eid={self.eid}, chan={self.channel.cid}, roles={rl.fmt_roleset(self.roles)})"


_DEFAULT_PAYLOAD = {"unit": None, "int": 7, "str": "m"}


def _payload_ok(tag: str, value) -> bool:
    match tag:
        case "unit":
            return value is None
        case "int":
            return isinstance(value, int) and not isinstance(value, bool)
        case "str":
            return isinstance(value, str)
    return False


# ------------------------------------------------------------ commands


@dataclass(frozen=True)
class CSync:
    reg: str = "ep"


@dataclass(frozen=True)
class CSend:
    payload: object = None
    reg: str = "ep"


@dataclass(frozen=True)
class CRecv:
    reg: str = "ep"


@dataclass(frozen=True)
class CChoose:
    side: str  # "l" | "r"
    reg: str = "ep"


@dataclass(frozen=True)
class COffer:
    left: tuple
    right: tuple
    reg: str = "ep"


@dataclass(frozen=True)
class CLoop:
    count: int
    body: tuple
    reg: str = "ep"


@dataclass(frozen=True)
class COfferLoop:
    body: tuple
    reg: str = "ep"


@dataclass(frozen=True)
class CMconj:
    first: tuple
    second: tuple
    reg: str = "ep"


@dataclass(frozen=True)
class CMdisj:
    side: str  # side the caller keeps
    spawned: tuple
    reg: str = "ep"


@dataclass(frozen=True)
class CAppend:
    body: tuple
    reg: str = "ep"


@dataclass(frozen=True)
class CSplit:
    part: int  # role set handed to the spawned thread
    spawned: tuple
    reg: str = "ep"


@dataclass(frozen=True)
class CCut1:
    reg: str = "ep"


@dataclass(frozen=True)
class CCut2:
    reg_a: str
    reg_b: str


@dataclass(frozen=True)
class CCut3:
    reg_a: str
    reg_b: str
    reg_c: str


@dataclass(frozen=True)
class CCutRes:
    reg_a: str
    reg_b: str
    out: str = "ep"


@dataclass(frozen=True)
class CChanCreate:
    part: int  # role set of the spawned acceptor
    session: SessionType
    acceptor: tuple
    out: str = "ep"


@dataclass(frozen=True)
class CServiceRequest:
    name: str
    out: str = "ep"


@dataclass(frozen=True)
class CChan2Demo:
    part1: int
    session1: SessionType
    part2: int
    session2: SessionType
    acceptor: tuple  # runs with both spawned-side endpoints in regs ep, ep2
    out1: str = "ep"
    out2: str = "ep2"


Command = (CSync | CSend | CRecv | CChoose | COffer | CLoop | COfferLoop | CMconj
           | CMdisj | CAppend | CSplit | CCut1 | CCut2 | CCut3 | CCutRes
           | CChanCreate | CServiceRequest | CChan2Demo)


# ------------------------------------------------------- blocked state


@dataclass
class _Block:
    kind: str  # "sync" | "choice" | "mconj"
    ep: Endpoint
    op: str  # send | recv | sync | choose | offer | mconj | mdisj
    side: str | None = None
    payload: object = None
    spawn: object = None  # callable(endpoint) -> None, used by mdisj


@dataclass
class Service:
    name: str
    roleset: int
    session: SessionType
    acceptor: tuple


class Thread:
    def __init__(self, tid: int, gen):
        self.tid = tid
        self.gen = gen
        self.regs: dict[str, Endpoint] = {}
        self.block: _Block | None = None
        self.resume_value = None
        self.finished = False


class Pool:
    def __init__(self, n: int, seed: int = 0, allow_demo: bool = False):
        rl.check_universe(n)
        self.n = n
        self.full = rl.full_set(n)
        self.rng = random.Random(seed)
        self.allow_demo = allow_demo
        self.threads: dict[int, Thread] = {}  # every thread of the run
        self.channels: dict[int, Channel] = {}  # every channel of the run
        # The live pool, in creation order.  A finished channel stays flagged
        # live until the next clean-up, but it is no longer open or audited.
        self.active_threads: dict[int, Thread] = {}
        self.open_channels: dict[int, Channel] = {}
        self._finished: dict[int, Channel] = {}  # awaiting _cleanup_channels
        self._live_eps = 0  # live endpoints on open channels
        self._dirty: dict[int, Channel] = {}  # endpoint set changed since the last event
        self._blocked: dict[int, Thread] = {}  # eid -> the thread blocked on it
        self.services: dict[str, Service] = {}
        self.trace: list[dict] = []
        self.audit_log: list[tuple[int, bool]] = []
        self.step_no = 0
        self.fault: str | None = None
        self._next_tid = 0
        self._next_cid = 0
        self._next_eid = 0

    # -- construction ------------------------------------------------

    def add_thread(self, make_gen, regs: dict[str, Endpoint] | None = None) -> Thread:
        tid = self._next_tid
        self._next_tid += 1
        t = Thread(tid, None)
        t.regs = dict(regs or {})
        t.gen = make_gen(t)
        self.threads[tid] = self.active_threads[tid] = t
        return t

    def add_script_thread(self, cmds, regs=None) -> Thread:
        return self.add_thread(lambda t: _exec(self, t, tuple(cmds)), regs)

    def service_create(self, name: str, roleset: int, session: SessionType,
                       acceptor) -> Service:
        svc = Service(name, roleset, session, tuple(acceptor))
        self.services[name] = svc
        return svc

    def new_channel(self, cursor: tuple[SessionType, ...]) -> Channel:
        ch = Channel(self._next_cid, cursor)
        self._next_cid += 1
        self.channels[ch.cid] = ch
        (self.open_channels if cursor else self._finished)[ch.cid] = ch
        return ch

    def new_endpoint(self, ch: Channel, roleset: int) -> Endpoint:
        ep = Endpoint(ch, roleset, self._next_eid)
        self._next_eid += 1
        self._live_eps += ch.cid in self.open_channels
        self._dirty[ch.cid] = ch
        return ep

    # -- accounting ---------------------------------------------------

    def _consume(self, ep: Endpoint) -> None:
        self._live_eps -= ep.live and ep.channel.cid in self.open_channels
        ep.live = False
        self._dirty[ep.channel.cid] = ep.channel

    def _close(self, ch: Channel) -> None:  # the audit stops counting ch
        if self.open_channels.pop(ch.cid, None) is not None:
            self._live_eps -= sum(e.live for e in ch.endpoints)

    def _retire(self, ch: Channel) -> None:
        self._close(ch)
        ch.live = False
        for e in ch.endpoints:
            e.live = False

    def _advance(self, ch: Channel, cursor: tuple[SessionType, ...]) -> None:
        ch.cursor = cursor
        if not cursor:
            self._close(ch)
            self._finished[ch.cid] = ch

    def live_threads(self) -> int:
        return len(self.active_threads)

    def live_channels(self) -> int:
        return len(self.open_channels)

    def live_endpoints(self) -> int:
        return self._live_eps

    def relaxed(self) -> bool:
        ne = self.live_endpoints()
        if ne == 0:
            return True  # zero-channel convention
        return self.live_threads() + self.live_channels() >= ne + 1

    def check_invariants(self) -> None:
        """Re-check the channels whose endpoint set changed since the last event."""
        dirty, self._dirty = self._dirty, {}
        for ch in dirty.values():
            if not ch.live:
                continue
            parts = [e.roles for e in ch.endpoints if e.live]
            if not rl.partition_check(parts, self.n):
                raise RuntimeFault(
                    f"channel {ch.cid}: endpoint role sets do not partition the universe")

    def _event(self, rule: str, **kw) -> None:
        ev = {"step": self.step_no, "rule": rule}
        ev.update({k: v for k, v in kw.items() if v is not None})
        self.trace.append(ev)
        self.step_no += 1
        self.check_invariants()
        self.audit_log.append((self.step_no, self.relaxed()))

    # -- scheduling ---------------------------------------------------

    def _resume(self, t: Thread) -> None:
        value, t.resume_value = t.resume_value, None
        t.block = None
        try:
            t.block = t.gen.send(value)
            self._blocked[t.block.ep.eid] = t
        except StopIteration:
            t.finished = True
            del self.active_threads[t.tid]
            for ep in t.regs.values():
                if isinstance(ep, Endpoint) and ep.live and ep.channel.live \
                        and ep.channel.cursor:
                    raise LinearityFault(
                        f"thread {t.tid} exited holding an unfinished endpoint "
                        f"at roles {rl.fmt_roleset(ep.roles)}")

    def _runnable(self) -> list[Thread]:
        return [t for t in self.active_threads.values() if t.block is None]

    def _cleanup_channels(self) -> None:
        for ch in self._finished.values():
            self._retire(ch)
        self._finished.clear()

    def _matching_set(self):
        """The fireable channel with the lowest id, with its blocked members."""
        blocked = self._blocked
        for cid in sorted({t.block.ep.channel.cid for t in blocked.values()}):
            ch = self.open_channels.get(cid)
            if ch is None:
                continue
            eps = [e for e in ch.endpoints if e.live]
            if all(e.eid in blocked for e in eps):
                return ch, [(e, blocked[e.eid], blocked[e.eid].block) for e in eps]
        return None

    def run(self, max_steps: int | None = 10000):  # None: no cap
        try:
            while True:
                ran = True
                while ran:
                    ran = False
                    runnable = self._runnable()
                    self.rng.shuffle(runnable)
                    for t in runnable:
                        self._resume(t)
                        ran = True
                self._cleanup_channels()
                if not self.active_threads:
                    return RunResult("done", self.trace, None, self)
                m = self._matching_set()
                if m is None:
                    report = {t.tid: (t.block.op if t.block else "runnable")
                              for t in self.active_threads.values()}
                    return RunResult("deadlock", self.trace, report, self)
                if max_steps is not None and self.step_no >= max_steps:
                    return RunResult("fault", self.trace, "step limit exceeded", self)
                self._fire(*m)
        except RuntimeFault as e:
            self.fault = str(e)
            return RunResult("fault", self.trace, str(e), self)

    # -- firing -------------------------------------------------------

    def _fire(self, ch: Channel, members) -> None:
        for ep, t, _ in members:
            t.block = None
            del self._blocked[ep.eid]
        head = ch.cursor[0]
        match head:
            case Msg() | Bcast() | Gather():
                self._fire_sync(ch, head, members)
            case SAConj() | OptionT() | Repseq():
                self._fire_choice(ch, head, members)
            case SMConj():
                self._fire_mconj(ch, head, members)
            case Repeat():
                raise ProtocolMismatch("repeat(...) sessions are not runnable; "
                                       "bound them with repseq or unroll")
            case _:
                raise ProtocolMismatch(f"cannot fire head {sn.fmt_session(head)}")

    def _fire_sync(self, ch: Channel, head, members) -> None:
        payloads: list = []
        recv_threads: list[Thread] = []
        frm = to = None
        for ep, t, blk in members:
            act = next_actions(head, ep.roles)
            if blk.kind != "sync":
                raise ProtocolMismatch(
                    f"thread {t.tid} blocked on {blk.op} but head is "
                    f"{sn.fmt_session(head)}")
            if blk.op == "send":
                if act.kind != "send":
                    raise RoleMismatch(
                        f"thread {t.tid} sends but roles {rl.fmt_roleset(ep.roles)} "
                        f"are not the sender of {sn.fmt_session(head)}")
                if not _payload_ok(head.payload, blk.payload):
                    raise PayloadTypeMismatch(
                        f"payload {blk.payload!r} does not fit tag {head.payload}")
                payloads.append(blk.payload)
            elif blk.op == "recv":
                if act.kind != "recv":
                    raise RoleMismatch(
                        f"thread {t.tid} receives but roles {rl.fmt_roleset(ep.roles)} "
                        f"are not the receiver of {sn.fmt_session(head)}")
                recv_threads.append(t)
            else:  # plain sync performs whatever the classification says
                if act.kind == "send":
                    payloads.append(_DEFAULT_PAYLOAD[head.payload])
                elif act.kind == "recv":
                    recv_threads.append(t)
        if isinstance(head, Msg):
            frm, to = head.frm, head.to
            value = payloads[0] if payloads else _DEFAULT_PAYLOAD[head.payload]
        elif isinstance(head, Bcast):
            frm, to = head.frm, "*"
            value = payloads[0] if payloads else _DEFAULT_PAYLOAD[head.payload]
        else:  # Gather: every sender contributes
            frm, to = "*", head.to
            value = payloads
        for _, t, _ in members:
            t.resume_value = value if t in recv_threads else None
        self._advance(ch, ch.cursor[1:])
        self._event("PR4", chan=ch.cid,
                    action={Msg: "msg", Bcast: "bcast", Gather: "gather"}[type(head)],
                    frm=frm, to=to, label=head.label, payload=value)

    def _fire_choice(self, ch: Channel, head, members) -> None:
        side = None
        for ep, t, blk in members:
            act = next_actions(head, ep.roles)
            if blk.kind != "choice":
                raise ProtocolMismatch(
                    f"thread {t.tid} blocked on {blk.op} but head is a choice")
            if act.kind == "choose":
                if blk.op != "choose":
                    raise RoleMismatch(f"thread {t.tid} must choose at "
                                       f"{sn.fmt_session(head)}")
                side = blk.side
            elif blk.op != "offer":
                raise RoleMismatch(f"thread {t.tid} must offer at "
                                   f"{sn.fmt_session(head)}")
        if side not in ("l", "r"):
            raise ProtocolMismatch("choice fired without a chooser")
        rest = ch.cursor[1:]
        silent = False
        match head:
            case SAConj(_, a, b):
                cursor = norm(a if side == "l" else b) + rest
            case OptionT(_, a):
                cursor = (norm(a) + rest) if side == "l" else rest
            case Repseq(_, a):
                if side == "l":
                    cursor = norm(a) + ch.cursor  # body, then the loop again
                    silent = True  # loop continuation is bookkeeping, not an exchange
                else:
                    cursor = rest
        self._advance(ch, cursor)
        for _, t, _ in members:
            t.resume_value = side
        if not silent:
            self._event("PR4", chan=ch.cid, action="choice", label=side)

    def _fire_mconj(self, ch: Channel, head: SMConj, members) -> None:
        if ch.cursor[1:]:
            raise ProtocolMismatch(
                "mconj(...) must be the last segment of its session")
        ch_a = self.new_channel(norm(head.left))
        ch_b = self.new_channel(norm(head.right))
        self._retire(ch)
        for ep, t, blk in members:
            ep_a = self.new_endpoint(ch_a, ep.roles)
            ep_b = self.new_endpoint(ch_b, ep.roles)
            act = next_actions(head, ep.roles)
            if act.kind == "fork-conj":
                if blk.op != "mconj":
                    raise RoleMismatch(f"thread {t.tid} holds role {head.r} and "
                                       "must call mconj")
                t.resume_value = (ep_a, ep_b)
            else:
                if blk.op != "mdisj":
                    raise RoleMismatch(f"thread {t.tid} must call mdisj")
                keep, give = (ep_a, ep_b) if blk.side == "l" else (ep_b, ep_a)
                t.resume_value = keep
                blk.spawn(give)
        self._event("PR5", chan=ch.cid, action="mconj",
                    chans=[ch_a.cid, ch_b.cid])

    # -- caller-side channel surgery -----------------------------------

    def chan_create(self, part: int, session: SessionType, acceptor,
                    acceptor_reg: str = "ep") -> Endpoint:
        rl.check_roleset(part, self.n)
        ch = self.new_channel(norm(session))
        spawned = self.new_endpoint(ch, part)
        mine = self.new_endpoint(ch, self.full & ~part)
        t = self.add_script_thread(acceptor, {acceptor_reg: spawned})
        self._event("PR3", chan=ch.cid, action="create", to=t.tid,
                    label=rl.fmt_roleset(part))
        return mine

    def service_request(self, name: str) -> Endpoint:
        svc = self.services.get(name)
        if svc is None:
            raise UnknownService(f"no service named {name!r}")
        ch = self.new_channel(norm(svc.session))
        mine = self.new_endpoint(ch, svc.roleset)
        spawned = self.new_endpoint(ch, self.full & ~svc.roleset)
        t = self.add_script_thread(svc.acceptor, {"ep": spawned})
        self._event("PR3", chan=ch.cid, action="service", label=name, to=t.tid)
        return mine

    def chan_split(self, ep: Endpoint, part: int, spawned_cmds,
                   spawn_reg: str = "ep") -> Endpoint:
        if not ep.live:
            raise LinearityFault("split of a consumed endpoint")
        if part & ~ep.roles:
            raise NotDisjointSplit("split part is not a subset of the endpoint roles")
        self._consume(ep)
        ch = ep.channel
        ep_spawn = self.new_endpoint(ch, part)
        ep_keep = self.new_endpoint(ch, ep.roles & ~part)
        t = self.add_script_thread(spawned_cmds, {spawn_reg: ep_spawn})
        self._event("PR1", chan=ch.cid, action="split", to=t.tid,
                    label=rl.fmt_roleset(part))
        return ep_keep

    def chan_1_cut(self, ep: Endpoint) -> None:
        if not ep.live:
            raise LinearityFault("cut on a consumed endpoint")
        if ep.roles != 0:
            raise NonEmptyRoles("only an empty-role-set endpoint can be removed")
        self._consume(ep)
        self._event("PR0", chan=ep.channel.cid, action="cut1")
        self._cleanup_channels()

    def _merge(self, eps: list[Endpoint], residual_roles: int | None,
               action: str) -> Endpoint | None:
        chans = [e.channel for e in eps]
        if len({c.cid for c in chans}) != len(chans):
            raise CutSideCondition("cut endpoints must live on distinct channels")
        cursor = chans[0].cursor
        for c in chans[1:]:
            if c.cursor != cursor:
                raise CutSideCondition("cut endpoints carry different session cursors")
        for e in eps:
            if not e.live:
                raise LinearityFault("cut on a consumed endpoint")
        merged = self.new_channel(cursor)
        for e in eps:
            self._consume(e)
        for c in chans:
            # equal cursors: c is open iff merged is, so its endpoints stay counted
            self.open_channels.pop(c.cid, None)
            c.live = False
            for e in c.endpoints:
                if e.live:
                    e.channel = merged
                    merged.endpoints.append(e)
            c.endpoints = []
        self._dirty[merged.cid] = merged
        resid = None
        if residual_roles is not None:
            resid = self.new_endpoint(merged, residual_roles)
        self._event("PR0", chan=merged.cid, action=action,
                    label=",".join(str(c.cid) for c in chans))
        return resid

    def chan_2_cut(self, ep1: Endpoint, ep2: Endpoint) -> None:
        if ep2.roles != self.full & ~ep1.roles:
            raise CutSideCondition("2-cut requires complementary role sets")
        self._merge([ep1, ep2], None, "cut2")

    def chan_3_cut(self, ep1: Endpoint, ep2: Endpoint, ep3: Endpoint) -> None:
        comps = [self.full & ~e.roles for e in (ep1, ep2, ep3)]
        if not rl.partition_check(comps, self.n):
            raise CutSideCondition("3-cut requires the complements to partition "
                                   "the universe")
        self._merge([ep1, ep2, ep3], None, "cut3")

    def chan_2_cutres(self, ep1: Endpoint, ep2: Endpoint) -> Endpoint:
        if (self.full & ~ep1.roles) & (self.full & ~ep2.roles):
            raise CutSideCondition("2-cut-with-residual requires disjoint complements")
        return self._merge([ep1, ep2], ep1.roles & ep2.roles, "cutres")

    def chan2_create_demo(self, part1: int, session1: SessionType,
                          part2: int, session2: SessionType, acceptor,
                          regs=("ep", "ep2")) -> tuple[Endpoint, Endpoint]:
        if not self.allow_demo:
            raise DemoDisabled("chan2_create is deliberately unsafe; "
                               "enable it with allow_demo")
        ch1 = self.new_channel(norm(session1))
        ch2 = self.new_channel(norm(session2))
        sp1, mine1 = self.new_endpoint(ch1, part1), self.new_endpoint(ch1, self.full & ~part1)
        sp2, mine2 = self.new_endpoint(ch2, part2), self.new_endpoint(ch2, self.full & ~part2)
        t = self.add_script_thread(acceptor, {regs[0]: sp1, regs[1]: sp2})
        self._event("PR3", chan=ch1.cid, action="create2", to=t.tid,
                    label=f"{ch1.cid},{ch2.cid}")
        return mine1, mine2


@dataclass
class RunResult:
    status: str  # "done" | "deadlock" | "fault"
    trace: list[dict]
    detail: object
    pool: Pool


def sync_events(trace: list[dict]) -> list[dict]:
    return [e for e in trace if e["rule"] == "PR4"]


def trace_jsonl(trace: list[dict]) -> str:
    return "\n".join(json.dumps(e) for e in trace)


def message_keys(trace: list[dict]) -> list[tuple]:
    """The synchronized exchanges of a run, ignoring channel identities."""
    return [(e["action"], e.get("label"), e.get("frm"), e.get("to"),
             repr(e.get("payload"))) for e in sync_events(trace)]


# ------------------------------------------------- command interpreter


def _head(ep: Endpoint) -> SessionType:
    if not ep.live:
        raise LinearityFault("operation on a consumed endpoint")
    if not ep.channel.cursor:
        raise ProtocolMismatch("operation on a finished session")
    return ep.channel.cursor[0]


def _reg(t: Thread, name: str) -> Endpoint:
    ep = t.regs.get(name)
    if not isinstance(ep, Endpoint):
        raise RuntimeFault(f"thread {t.tid}: register {name!r} holds no endpoint")
    return ep


def _exec(pool: Pool, t: Thread, cmds: tuple):
    """Generator interpreting one command block; yields _Block to wait."""
    for cmd in cmds:
        match cmd:
            case CSync(reg):
                ep = _reg(t, reg)
                head = _head(ep)
                if not isinstance(head, (Msg, Bcast, Gather)):
                    raise ProtocolMismatch(
                        f"sync at non-action head {sn.fmt_session(head)}")
                yield _Block("sync", ep, "sync")
            case CSend(payload, reg):
                ep = _reg(t, reg)
                head = _head(ep)
                if not isinstance(head, (Msg, Bcast, Gather)):
                    raise ProtocolMismatch(
                        f"send at non-action head {sn.fmt_session(head)}")
                if next_actions(head, ep.roles).kind != "send":
                    raise RoleMismatch(
                        f"roles {rl.fmt_roleset(ep.roles)} cannot send "
                        f"{sn.fmt_session(head)}")
                value = _DEFAULT_PAYLOAD[head.payload] if payload is None \
                    and head.payload != "unit" else payload
                yield _Block("sync", ep, "send", payload=value)
            case CRecv(reg):
                ep = _reg(t, reg)
                head = _head(ep)
                if not isinstance(head, (Msg, Bcast, Gather)):
                    raise ProtocolMismatch(
                        f"recv at non-action head {sn.fmt_session(head)}")
                if next_actions(head, ep.roles).kind != "recv":
                    raise RoleMismatch(
                        f"roles {rl.fmt_roleset(ep.roles)} cannot receive "
                        f"{sn.fmt_session(head)}")
                yield _Block("sync", ep, "recv")
            case CChoose(side, reg):
                ep = _reg(t, reg)
                head = _head(ep)
                if next_actions(head, ep.roles).kind != "choose":
                    raise RoleMismatch("only the deciding role set may choose here")
                yield _Block("choice", ep, "choose", side=side)
            case COffer(left, right, reg):
                ep = _reg(t, reg)
                head = _head(ep)
                if next_actions(head, ep.roles).kind != "offer":
                    raise RoleMismatch("the deciding role set cannot offer")
                side = yield _Block("choice", ep, "offer")
                yield from _exec(pool, t, left if side == "l" else right)
            case CLoop(count, body, reg):
                for _ in range(count):
                    ep = _reg(t, reg)
                    if not isinstance(_head(ep), Repseq):
                        raise ProtocolMismatch("loop at a non-repseq head")
                    yield _Block("choice", ep, "choose", side="l")
                    yield from _exec(pool, t, body)
                ep = _reg(t, reg)
                if not isinstance(_head(ep), Repseq):
                    raise ProtocolMismatch("loop exit at a non-repseq head")
                yield _Block("choice", ep, "choose", side="r")
            case COfferLoop(body, reg):
                while True:
                    ep = _reg(t, reg)
                    if not isinstance(_head(ep), Repseq):
                        raise ProtocolMismatch("offer_loop at a non-repseq head")
                    side = yield _Block("choice", ep, "offer")
                    if side == "r":
                        break
                    yield from _exec(pool, t, body)
            case CMconj(first, second, reg):
                ep = _reg(t, reg)
                if next_actions(_head(ep), ep.roles).kind != "fork-conj":
                    raise RoleMismatch("mconj requires the deciding role")
                ep_a, ep_b = yield _Block("mconj", ep, "mconj")
                t.regs[reg] = ep_a
                yield from _exec(pool, t, first)
                t.regs[reg] = ep_b
                yield from _exec(pool, t, second)
            case CMdisj(side, spawned, reg):
                ep = _reg(t, reg)
                if next_actions(_head(ep), ep.roles).kind != "fork-disj":
                    raise RoleMismatch("mdisj is for non-deciding role sets")

                def spawn(give, spawned=spawned, reg=reg):
                    pool.add_script_thread(spawned, {reg: give})

                t.regs[reg] = yield _Block("mconj", ep, "mdisj", side=side,
                                           spawn=spawn)
            case CAppend(body, reg):
                ep = _reg(t, reg)
                if not ep.channel.cursor:
                    raise ProtocolMismatch("append on a finished session")
                tail = ep.channel.cursor[1:]
                yield from _exec(pool, t, body)
                ep = _reg(t, reg)
                if ep.channel.cursor != tail:
                    raise SubprotocolUnfinished(
                        "append block did not consume exactly its sub-session")
            case CSplit(part, spawned, reg):
                ep = _reg(t, reg)
                t.regs[reg] = pool.chan_split(ep, part, spawned, reg)
            case CCut1(reg):
                pool.chan_1_cut(_reg(t, reg))
                del t.regs[reg]
            case CCut2(reg_a, reg_b):
                pool.chan_2_cut(_reg(t, reg_a), _reg(t, reg_b))
                del t.regs[reg_a], t.regs[reg_b]
            case CCut3(reg_a, reg_b, reg_c):
                pool.chan_3_cut(_reg(t, reg_a), _reg(t, reg_b), _reg(t, reg_c))
                del t.regs[reg_a], t.regs[reg_b], t.regs[reg_c]
            case CCutRes(reg_a, reg_b, out):
                resid = pool.chan_2_cutres(_reg(t, reg_a), _reg(t, reg_b))
                del t.regs[reg_a], t.regs[reg_b]
                t.regs[out] = resid
            case CChanCreate(part, session_, acceptor, out):
                t.regs[out] = pool.chan_create(part, session_, acceptor)
            case CServiceRequest(name, out):
                t.regs[out] = pool.service_request(name)
            case CChan2Demo(p1, s1, p2, s2, acceptor, out1, out2):
                e1, e2 = pool.chan2_create_demo(p1, s1, p2, s2, acceptor)
                t.regs[out1], t.regs[out2] = e1, e2
            case _:
                raise RuntimeFault(f"unknown command {cmd!r}")


# --------------------------------------------------------- bootstrap


def pool_from_scripts(n: int, session: SessionType,
                      parties: list[tuple[int, tuple]],
                      seed: int = 0, allow_demo: bool = False) -> Pool:
    """Start a channel-free pool whose main thread creates the channel and
    splits off one thread per party (so relaxedness is preserved throughout)."""
    if not rl.partition_check([p for p, _ in parties], n):
        raise RuntimeFault("party role sets must partition the universe")
    pool = Pool(n, seed=seed, allow_demo=allow_demo)
    first_roles, first_cmds = parties[0]
    main: list[Command] = [CChanCreate(first_roles, session, tuple(first_cmds))]
    for part, cmds in parties[1:-1]:
        main.append(CSplit(part, tuple(cmds)))
    if len(parties) > 1:
        main.extend(parties[-1][1])
    else:
        main.append(CCut1())
    pool.add_script_thread(tuple(main))
    return pool


# ---------------------------------------------------- script synthesis


class Decisions:
    """Deterministic source of branch/loop decisions for script synthesis."""

    def __init__(self, sides=None, loops=None, rng: random.Random | None = None):
        self.sides = list(sides or [])
        self.loops = list(loops or [])
        self.rng = rng

    def side(self) -> str:
        if self.sides:
            return self.sides.pop(0)
        if self.rng:
            return self.rng.choice(["l", "r"])
        return "l"

    def loop(self) -> int:
        if self.loops:
            return self.loops.pop(0)
        if self.rng:
            return self.rng.randrange(3)
        return 1


def synthesize(segs: tuple[SessionType, ...], roleset: int,
               dec: Decisions | None = None) -> tuple[Command, ...]:
    """A protocol-following command list for one role set."""
    dec = dec or Decisions()
    if not segs:
        return ()
    head, rest = segs[0], segs[1:]
    act = next_actions(head, roleset)
    match head:
        case Msg() | Bcast() | Gather():
            cmd = {"send": CSend(_DEFAULT_PAYLOAD[head.payload]),
                   "recv": CRecv(), "skip": CSync()}[act.kind]
            return (cmd,) + synthesize(rest, roleset, dec)
        case SAConj(_, a, b):
            if act.kind == "choose":
                side = dec.side()
                branch = a if side == "l" else b
                return (CChoose(side),) + synthesize(norm(branch) + rest, roleset, dec)
            return (COffer(synthesize(norm(a) + rest, roleset, dec),
                           synthesize(norm(b) + rest, roleset, dec)),)
        case OptionT(_, a):
            if act.kind == "choose":
                side = dec.side()
                cont = (norm(a) + rest) if side == "l" else rest
                return (CChoose(side),) + synthesize(cont, roleset, dec)
            return (COffer(synthesize(norm(a) + rest, roleset, dec),
                           synthesize(rest, roleset, dec)),)
        case Repseq(_, a):
            body = synthesize(norm(a), roleset, dec)
            if act.kind == "choose":
                return (CLoop(dec.loop(), body),) + synthesize(rest, roleset, dec)
            return (COfferLoop(body),) + synthesize(rest, roleset, dec)
        case SMConj(_, a, b):
            if rest:
                raise ProtocolMismatch("mconj(...) must end its session")
            left = synthesize(norm(a), roleset, dec)
            right = synthesize(norm(b), roleset, dec)
            if act.kind == "fork-conj":
                return (CMconj(left, right),)
            return (CMdisj("l", right),) + left
        case Repeat():
            raise ProtocolMismatch("repeat(...) sessions are not runnable")
    raise RuntimeFault(f"cannot synthesize for {sn.fmt_session(head)}")


# ------------------------------------------------------- script parser

_STOKEN = re.compile(r"\{[^{}]*\}|[A-Za-z_][A-Za-z0-9_]*|\d+|[;|()]|\S")


class _SP:
    def __init__(self, text: str):
        self.toks = _STOKEN.findall(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise RuntimeFault("unexpected end of script")
        self.i += 1
        return t

    def expect(self, t):
        got = self.next()
        if got != t:
            raise RuntimeFault(f"script: expected {t!r}, got {got!r}")

    def block(self) -> tuple:
        self.expect("(")
        cmds = self.cmds(stop=")")
        self.expect(")")
        return cmds

    def cmds(self, stop) -> tuple:
        out: list[Command] = []
        while self.peek() is not None and self.peek() != stop:
            out.append(self.cmd())
            if self.peek() == ";":
                self.next()
        return tuple(out)

    def cmd(self) -> Command:
        t = self.next()
        match t:
            case "sync":
                return CSync()
            case "send":
                nxt = self.peek()
                if nxt is not None and nxt not in (";", ")", "|"):
                    raw = self.next()
                    value = int(raw) if raw.isdecimal() else raw
                    return CSend(value)
                return CSend()
            case "recv":
                return CRecv()
            case "choose":
                side = self.next()
                if side not in ("l", "r"):
                    raise RuntimeFault("choose expects l or r")
                return CChoose(side)
            case "offer":
                self.expect("(")
                left = self.cmds(stop="|")
                self.expect("|")
                right = self.cmds(stop=")")
                self.expect(")")
                return COffer(left, right)
            case "loop":
                k = self.next()
                if not k.isdecimal():
                    raise RuntimeFault(f"loop expects a count, got {k!r}")
                return CLoop(int(k), self.block())
            case "offer_loop":
                return COfferLoop(self.block())
            case "mconj":
                return CMconj(self.block(), self.block())
            case "mdisj_l":
                return CMdisj("l", self.block())
            case "mdisj_r":
                return CMdisj("r", self.block())
            case "append":
                return CAppend(self.block())
            case "split":
                part = rl.parse_roleset(self.next())
                return CSplit(part, self.block())
            case "cut1":
                return CCut1()
            case _:
                raise RuntimeFault(f"script: unknown command {t!r}")


def parse_script(text: str, n: int) -> list[tuple[int, tuple]]:
    """`party <roleset>: cmd; ...` blocks, one per participant."""
    parties: list[tuple[int, tuple]] = []
    chunks = re.split(r"(?m)^\s*party\b", text)
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, body = chunk.partition(":")
        roleset = rl.parse_roleset(head.strip())
        rl.check_roleset(roleset, n)
        p = _SP(body)
        cmds = p.cmds(stop=None)
        parties.append((roleset, cmds))
    if not parties:
        raise RuntimeFault("script defines no parties")
    return parties
