"""Deterministic multiparty channel runtime.

Channels are synchronous: every live endpoint of a channel must be blocked
on a compatible primitive before the head action fires, and all cursors
advance together (so the remaining protocol is a property of the channel,
not of individual endpoints).  Threads are Python generators that yield
blocking requests.  The scheduler resumes runnable threads in creation
order, seed-shuffled (which never affects synchronization order), until
every thread is blocked or finished, and then fires the lowest channel id
whose live endpoints are all blocked.  It finds both without scanning the
pool: a ready list holds the threads made or unblocked since the last pass,
and a min-heap holds the ids of channels that a thread blocked on or whose
endpoint set changed, so the threads and channels examined per event do not
grow with the number of live ones.

Thread programs are usually small command lists (see the C* records and
parse_script), but any generator yielding _Block requests can join a pool —
the lambda-calculus evaluator reuses this engine.
A fire and script synthesis take a channel's next cursor from
session.advance or session.forks: only the session module builds cursors.

A blocking command classifies once: _classify reads its register, refuses a
consumed endpoint, a finished session or a head of the wrong class, and looks
the head's kind up in session._ACTIONS.  The command records the kind on its
_Block and the fire trusts it (a head moves only when its channel fires); a
block made without a command has none and is classified at the fire.  Each
site that fires an event writes its record as one dict and hands it to
Pool._event, the one writer of the trace and audit log.  Thread, Channel and
Endpoint have fixed fields (__slots__); Thread.mtlc is the calculus's.  A run
of sequential services costs at most 24 Python calls per event at any length.
"""

from __future__ import annotations

import json
import random
import re
from functools import partial
from heapq import heappop, heappush
from operator import attrgetter

from . import roles as rl
from . import session as sn
from .roles import Record
from .session import (
    Bcast,
    Gather,
    Msg,
    OptionT,
    Repseq,
    Repeat,
    SAConj,
    SessionType,
    SMConj,
    _ACTIONS,
    next_kind,
    norm,
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


class Channel:
    __slots__ = ("cid", "cursor", "endpoints", "live")

    def __init__(self, cid: int, cursor: tuple[SessionType, ...]):
        self.cid = cid
        self.cursor = cursor
        self.endpoints: list[Endpoint] = []
        self.live = True


class Endpoint:
    """Numbered per pool by Pool.new_endpoint, else within its channel."""

    __slots__ = ("eid", "channel", "roles", "live")

    def __init__(self, channel: Channel, roleset: int, eid: int | None = None):
        self.eid = len(channel.endpoints) if eid is None else eid
        self.channel = channel
        self.roles = roleset
        self.live = True
        channel.endpoints.append(self)

    def __repr__(self):
        return f"Endpoint(eid={self.eid}, chan={self.channel.cid}, roles={rl.fmt_roleset(self.roles)})"


_DEFAULT_PAYLOAD = {"unit": None, "int": 7, "str": "m"}
_PAYLOAD_TYPES = {"unit": type(None), "int": int, "str": str}  # an int is no bool
_TID = attrgetter("tid")  # the scheduler's sort key, by creation order


def _forks(cursor: tuple[SessionType, ...]) -> tuple[tuple[SessionType, ...], ...]:
    """sn.forks, refusing an mconj that does not end its session as a fault."""
    try:
        return sn.forks(cursor)
    except sn.SessionError as e:
        raise ProtocolMismatch(str(e)) from None


# ------------------------------------------------------------ commands


class CSync(Record):
    reg: str = "ep"


class CSend(Record):
    payload: object = None
    reg: str = "ep"


class CRecv(Record):
    reg: str = "ep"


class CChoose(Record):
    side: str  # "l" | "r"
    reg: str = "ep"


class COffer(Record):
    left: tuple
    right: tuple
    reg: str = "ep"


class CLoop(Record):
    count: int
    body: tuple
    reg: str = "ep"


class COfferLoop(Record):
    body: tuple
    reg: str = "ep"


class CMconj(Record):
    first: tuple
    second: tuple
    reg: str = "ep"


class CMdisj(Record):
    side: str  # side the caller keeps
    spawned: tuple
    reg: str = "ep"


class CAppend(Record):
    body: tuple
    reg: str = "ep"


class CSplit(Record):
    part: int  # role set handed to the spawned thread
    spawned: tuple
    reg: str = "ep"


class CCut1(Record):
    reg: str = "ep"


class CCut2(Record):
    reg_a: str
    reg_b: str


class CCut3(Record):
    reg_a: str
    reg_b: str
    reg_c: str


class CCutRes(Record):
    reg_a: str
    reg_b: str
    out: str = "ep"


class CChanCreate(Record):
    part: int  # role set of the spawned acceptor
    session: SessionType
    acceptor: tuple
    out: str = "ep"


class CServiceRequest(Record):
    name: str
    out: str = "ep"


class CChan2Demo(Record):
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


class _Block:
    __slots__ = ("kind", "ep", "op", "action", "payload", "side", "spawn")

    def __init__(self, kind: str, ep: Endpoint, op: str, action: str | None = None,
                 payload: object = None, side: str | None = None, spawn: object = None):
        self.kind = kind  # "sync" | "choice" | "mconj"
        self.ep = ep
        self.op = op  # send | recv | sync | choose | offer | mconj | mdisj
        self.action = action  # the head's kind as the blocking op found it, or None
        self.payload = payload
        self.side = side
        self.spawn = spawn  # callable(endpoint) -> None, used by mdisj


class Service(Record):
    name: str
    roleset: int
    cursor: tuple[SessionType, ...]  # norm() of the session
    acceptor: tuple


class Thread:
    __slots__ = ("tid", "gen", "regs", "block", "resume_value", "mtlc")

    def __init__(self, tid: int, gen):
        self.tid = tid
        self.gen = gen
        self.regs: dict[str, Endpoint] = {}
        self.block: _Block | None = None
        self.resume_value = None
        self.mtlc = None  # the calculus thread this one runs (mtlc.MtlcThread), if any


class Pool:
    """A run keeps its live threads and channels, in creation order, its
    trace and its audit log: a finished thread or retired channel is freed,
    so memory beyond the trace grows with the live pool, not the history.  A
    finished channel stays live until the next clean-up, but unaudited."""

    def __init__(self, n: int, seed: int = 0, allow_demo: bool = False):
        rl.check_universe(n)
        self.n = n
        self.full = rl.full_set(n)
        self.rng = random.Random(seed)
        self.allow_demo = allow_demo
        self.active_threads: dict[int, Thread] = {}
        self.open_channels: dict[int, Channel] = {}
        self._finished: dict[int, Channel] = {}  # awaiting _cleanup_channels
        self._live_eps = 0  # live endpoints on open channels
        self._dirty: dict[int, Channel] = {}  # endpoint set changed since the last event
        self._blocked: dict[int, Thread] = {}  # eid -> the thread blocked on it
        self._ready: list[Thread] = []  # made or unblocked since the last pass
        # min-heap of ids of channels a thread blocked on or whose endpoint set
        # changed, each there once; an id not fireable when it reaches the top
        # is dropped
        self._cands: list[int] = []
        self._pending: set[int] = set()  # the ids on _cands
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
        self.active_threads[tid] = t
        self._ready.append(t)
        return t

    def add_script_thread(self, cmds, regs=None) -> Thread:
        return self.add_thread(partial(_exec, self, tuple(cmds)), regs)

    def service_create(self, name: str, roleset: int, session: SessionType,
                       acceptor) -> Service:
        rl.check_roleset(roleset, self.n)
        svc = Service(name, roleset, norm(session), tuple(acceptor))
        self.services[name] = svc
        return svc

    def new_channel(self, cursor: tuple[SessionType, ...]) -> Channel:
        ch = Channel(self._next_cid, cursor)
        self._next_cid += 1
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
            for e in ch.endpoints:
                self._live_eps -= e.live

    def _retire(self, ch: Channel) -> None:  # ch is closed
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
        ne = self._live_eps  # no endpoint: the zero-channel convention
        return ne == 0 or len(self.active_threads) + len(self.open_channels) >= ne + 1

    def check_invariants(self) -> None:
        """Re-check the channels whose endpoint set changed since the last
        event, and offer them to the scheduler as candidates to fire; with
        none changed, there is nothing to do."""
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, {}
        for cid, ch in dirty.items():
            if not ch.live:
                continue
            self._offer(cid)
            parts = [e.roles for e in ch.endpoints if e.live]
            if not rl.partition_check(parts, self.n):
                raise RuntimeFault(
                    f"channel {ch.cid}: endpoint role sets do not partition the universe")

    def _event(self, ev: dict) -> None:
        """The one writer of the trace and audit log; ev is the record as its
        firing site wrote it: step, rule, its fields, then any payload."""
        self.trace.append(ev)
        self.step_no += 1
        if self._dirty:
            self.check_invariants()
        ne = self._live_eps  # relaxed(), inline
        self.audit_log.append((self.step_no, ne == 0 or len(self.active_threads)
                               + len(self.open_channels) >= ne + 1))

    # -- scheduling ---------------------------------------------------

    def _resume(self, t: Thread) -> None:
        value, t.resume_value = t.resume_value, None
        try:
            t.block = t.gen.send(value)
        except StopIteration:
            del self.active_threads[t.tid]
            for ep in t.regs.values():
                if isinstance(ep, Endpoint) and ep.live and ep.channel.live \
                        and ep.channel.cursor:
                    raise LinearityFault(
                        f"thread {t.tid} exited holding an unfinished endpoint "
                        f"at roles {rl.fmt_roleset(ep.roles)}")
            return
        ep = t.block.ep
        self._blocked[ep.eid] = t
        cid = ep.channel.cid
        if cid not in self._pending:  # _offer(cid), inline
            self._pending.add(cid)
            heappush(self._cands, cid)

    def _offer(self, cid: int) -> None:
        """Put channel cid on the candidate heap, unless it is there."""
        if cid not in self._pending:
            self._pending.add(cid)
            heappush(self._cands, cid)

    def _runnable(self) -> list[Thread]:
        """The threads made or unblocked since the last pass, in creation
        order, seed-shuffled."""
        ready, self._ready = self._ready, []
        if len(ready) > 1:  # shuffle draws nothing for fewer
            ready.sort(key=_TID)
            self.rng.shuffle(ready)
        return ready

    def _cleanup_channels(self) -> None:
        for ch in self._finished.values():
            self._retire(ch)
        self._finished.clear()

    def _fireable(self, cid: int):
        """Channel cid with its blocked members, if it is open and all its live
        endpoints are blocked; else None."""
        ch = self.open_channels.get(cid)
        if ch is None:
            return None
        blocked = self._blocked
        members = []
        for e in ch.endpoints:
            if e.live:
                t = blocked.get(e.eid)
                if t is None:
                    return None
                members.append((e, t, t.block))
        return ch, members

    def _matching_set(self):
        """The fireable channel with the lowest id, with its blocked members."""
        cands = self._cands
        while cands:
            m = self._fireable(cands[0])
            if m is not None:
                return m  # stays on the heap: firing it unblocks its members
            self._pending.remove(heappop(cands))
        return None

    def run(self, max_steps: int | None = 10000):  # None: no cap
        try:
            while True:
                while runnable := self._runnable():
                    for t in runnable:
                        self._resume(t)
                if self._finished:
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
            self._ready.append(t)
        head = ch.cursor[0]
        rule = _FIRES.get(type(head))
        if rule is None:
            if isinstance(head, Repeat):
                raise ProtocolMismatch("repeat(...) sessions are not runnable; "
                                       "bound them with repseq or unroll")
            raise ProtocolMismatch(f"cannot fire head {sn.fmt_session(head)}")
        rule(self, ch, head, members)

    def _fire_sync(self, ch: Channel, head, members) -> None:
        cls = head.__class__
        classify = _ACTIONS[cls][0]
        payloads: list = []
        receivers: list[Thread] = []
        for ep, t, blk in members:
            if blk.kind != "sync":
                raise ProtocolMismatch(
                    f"thread {t.tid} blocked on {blk.op} but head is "
                    f"{sn.fmt_session(head)}")
            # the kind an op found still holds: a cursor advances only when its
            # channel fires, and chan_cut merges only channels with equal cursors;
            # a block made without an op (the lambda calculus's) has none
            kind = blk.action or classify(head, ep.roles)
            if blk.op == "send":
                if kind != "send":
                    raise RoleMismatch(
                        f"thread {t.tid} sends but roles {rl.fmt_roleset(ep.roles)} "
                        f"are not the sender of {sn.fmt_session(head)}")
                value = blk.payload
                if not isinstance(value, _PAYLOAD_TYPES.get(head.payload, ())) \
                        or value.__class__ is bool:
                    raise PayloadTypeMismatch(
                        f"payload {value!r} does not fit tag {head.payload}")
                payloads.append(value)
            elif blk.op == "recv":
                if kind != "recv":
                    raise RoleMismatch(
                        f"thread {t.tid} receives but roles {rl.fmt_roleset(ep.roles)} "
                        f"are not the receiver of {sn.fmt_session(head)}")
                receivers.append(t)
            elif kind == "send":  # a plain sync sends the default; it reads nothing
                payloads.append(_DEFAULT_PAYLOAD[head.payload])
        if cls is Gather:  # every sender contributes
            action, frm, to, value = "gather", "*", head.to, payloads
        else:
            action, frm, to = ("msg", head.frm, head.to) if cls is Msg \
                else ("bcast", head.frm, "*")
            value = payloads[0] if payloads else _DEFAULT_PAYLOAD[head.payload]
        for t in receivers:  # a blocked thread's resume value is None
            t.resume_value = value
        self._advance(ch, sn.advance(ch.cursor))
        ev = {"step": self.step_no, "rule": "PR4", "chan": ch.cid, "action": action,
              "frm": frm, "to": to, "label": head.label}
        if value is not None:  # a unit payload is left out of the record
            ev["payload"] = value
        self._event(ev)

    def _fire_choice(self, ch: Channel, head, members) -> None:
        classify = _ACTIONS[head.__class__][0]
        side = None
        for ep, t, blk in members:
            if blk.kind != "choice":
                raise ProtocolMismatch(
                    f"thread {t.tid} blocked on {blk.op} but head is a choice")
            if (blk.action or classify(head, ep.roles)) == "choose":
                if blk.op != "choose":
                    raise RoleMismatch(f"thread {t.tid} must choose at "
                                       f"{sn.fmt_session(head)}")
                side = blk.side
            elif blk.op != "offer":
                raise RoleMismatch(f"thread {t.tid} must offer at "
                                   f"{sn.fmt_session(head)}")
        if side not in ("l", "r"):
            raise ProtocolMismatch("choice fired without a chooser")
        self._advance(ch, sn.advance(ch.cursor, side))
        for _, t, _ in members:
            t.resume_value = side
        # going round a loop again is bookkeeping, not an exchange
        if side == "r" or not isinstance(head, Repseq):
            self._event({"step": self.step_no, "rule": "PR4", "chan": ch.cid,
                         "action": "choice", "label": side})

    def _fire_mconj(self, ch: Channel, head: SMConj, members) -> None:
        left, right = _forks(ch.cursor)
        ch_a = self.new_channel(left)
        ch_b = self.new_channel(right)
        self._close(ch)
        self._retire(ch)
        for ep, t, blk in members:
            if blk.kind != "mconj":
                raise ProtocolMismatch(
                    f"thread {t.tid} blocked on {blk.op} but head is {sn.fmt_session(head)}")
            ep_a = self.new_endpoint(ch_a, ep.roles)
            ep_b = self.new_endpoint(ch_b, ep.roles)
            kind = next_kind(head, ep.roles)
            if kind == "fork-conj":
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
        self._event({"step": self.step_no, "rule": "PR5", "chan": ch.cid, "action": "mconj",
                     "chans": [ch_a.cid, ch_b.cid]})

    # -- caller-side channel surgery -----------------------------------

    def chan_create(self, part: int, session: SessionType, acceptor) -> Endpoint:
        rl.check_roleset(part, self.n)
        return self.chan_spawn(part, norm(session), lambda ep: self.add_thread(
            partial(_exec, self, tuple(acceptor)), {"ep": ep}))

    def chan_spawn(self, part: int, cursor: tuple[SessionType, ...], spawn) -> Endpoint:
        """A new channel at cursor: its endpoint at part goes to the thread
        that spawn(endpoint) adds and returns, and its endpoint at the
        complement of part is returned."""
        ch = self.new_channel(cursor)
        spawned = self.new_endpoint(ch, part)
        mine = self.new_endpoint(ch, self.full & ~part)
        t = spawn(spawned)
        self._event({"step": self.step_no, "rule": "PR3", "chan": ch.cid, "action": "create",
                     "to": t.tid, "label": rl.fmt_roleset(part)})
        return mine

    def service_request(self, name: str) -> Endpoint:
        svc = self.services.get(name)
        if svc is None:
            raise UnknownService(f"no service named {name!r}")
        ch = self.new_channel(svc.cursor)
        mine = self.new_endpoint(ch, svc.roleset)
        spawned = self.new_endpoint(ch, self.full & ~svc.roleset)
        t = self.add_thread(partial(_exec, self, svc.acceptor), {"ep": spawned})
        self._event({"step": self.step_no, "rule": "PR3", "chan": ch.cid, "action": "service",
                     "label": name, "to": t.tid})
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
        t = self.add_thread(partial(_exec, self, tuple(spawned_cmds)), {spawn_reg: ep_spawn})
        self._event({"step": self.step_no, "rule": "PR1", "chan": ch.cid, "action": "split",
                     "to": t.tid, "label": rl.fmt_roleset(part)})
        return ep_keep

    def chan_cut(self, eps: list[Endpoint], keep: bool = False) -> Endpoint | None:
        """Cut k = len(eps) live endpoints, each on its own channel and all at
        one cursor.  The complements of their role sets must be pairwise
        disjoint, and without keep the residual, the roles every set holds,
        must be empty (roles.cut_residual).  With k = 1 and no keep, the
        endpoint leaves its channel; otherwise the channels merge into one,
        and with keep an endpoint at the residual joins it and is returned."""
        for e in eps:
            if not e.live:
                raise LinearityFault("cut on a consumed endpoint")
        chans = [e.channel for e in eps]
        if len({c.cid for c in chans}) != len(chans):
            raise CutSideCondition("cut endpoints must live on distinct channels")
        cursor = chans[0].cursor
        for c in chans[1:]:
            if c.cursor != cursor:
                raise CutSideCondition("cut endpoints carry different session cursors")
        resid = rl.cut_residual([e.roles for e in eps], self.n)
        if resid is None:
            raise CutSideCondition("cut requires disjoint complements of the role sets")
        if resid and not keep:
            if len(eps) == 1:
                raise NonEmptyRoles("only an empty-role-set endpoint can be removed")
            raise CutSideCondition("cut without a residual requires role sets "
                                   "that share no role")
        if len(eps) == 1 and not keep:
            self._consume(eps[0])
            self._event({"step": self.step_no, "rule": "PR0", "chan": chans[0].cid,
                         "action": "cut1"})
            self._cleanup_channels()
            return None
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
        out = self.new_endpoint(merged, resid) if keep else None
        self._event({"step": self.step_no, "rule": "PR0", "chan": merged.cid,
                     "action": "cutres" if keep else f"cut{len(eps)}",
                     "label": ",".join(str(c.cid) for c in chans)})
        return out

    def chan2_create_demo(self, part1: int, session1: SessionType, part2: int,
                          session2: SessionType, acceptor) -> tuple[Endpoint, Endpoint]:
        if not self.allow_demo:
            raise DemoDisabled("chan2_create is deliberately unsafe; "
                               "enable it with allow_demo")
        rl.check_roleset(part1, self.n)
        rl.check_roleset(part2, self.n)
        ch1 = self.new_channel(norm(session1))
        ch2 = self.new_channel(norm(session2))
        sp1, mine1 = self.new_endpoint(ch1, part1), self.new_endpoint(ch1, self.full & ~part1)
        sp2, mine2 = self.new_endpoint(ch2, part2), self.new_endpoint(ch2, self.full & ~part2)
        t = self.add_script_thread(acceptor, {"ep": sp1, "ep2": sp2})
        self._event({"step": self.step_no, "rule": "PR3", "chan": ch1.cid, "action": "create2",
                     "to": t.tid, "label": f"{ch1.cid},{ch2.cid}"})
        return mine1, mine2


# the firing rule of each runnable head, by session node class
_FIRES = {**dict.fromkeys((Msg, Bcast, Gather), Pool._fire_sync),
          **dict.fromkeys((SAConj, OptionT, Repseq), Pool._fire_choice),
          SMConj: Pool._fire_mconj}


class RunResult(Record):
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


def _reg(t: Thread, name: str) -> Endpoint:
    ep = t.regs.get(name)
    if not isinstance(ep, Endpoint):
        raise RuntimeFault(f"thread {t.tid}: register {name!r} holds no endpoint")
    return ep


def _classify(t: Thread, reg: str, heads=None, refusal: str = ""):
    """A blocking op's endpoint (_reg(t, reg)), the head of its channel and
    the head's kind as seen from the endpoint's roles.  A consumed endpoint,
    a finished session and, where heads is given, a head of another class
    are refused, in that order; refusal is formatted with the head."""
    ep = t.regs.get(reg)
    if not isinstance(ep, Endpoint):
        raise RuntimeFault(f"thread {t.tid}: register {reg!r} holds no endpoint")
    if not ep.live:
        raise LinearityFault("operation on a consumed endpoint")
    cursor = ep.channel.cursor
    if not cursor:
        raise ProtocolMismatch("operation on a finished session")
    head = cursor[0]
    if heads is not None and not isinstance(head, heads):
        raise ProtocolMismatch(refusal.format(sn.fmt_session(head)))
    rules = _ACTIONS.get(head.__class__) or sn._rules(head)  # raises if unknown
    return ep, head, rules[0](head, ep.roles)


def _sync(pool: Pool, t: Thread, cmd: CSync):
    ep, _, kind = _classify(t, cmd.reg, (Msg, Bcast, Gather), "sync at non-action head {}")
    return _Block("sync", ep, "sync", kind)


def _send(pool: Pool, t: Thread, cmd: CSend):
    ep, head, kind = _classify(t, cmd.reg, (Msg, Bcast, Gather), "send at non-action head {}")
    if kind != "send":
        raise RoleMismatch(
            f"roles {rl.fmt_roleset(ep.roles)} cannot send {sn.fmt_session(head)}")
    value = _DEFAULT_PAYLOAD[head.payload] if cmd.payload is None \
        and head.payload != "unit" else cmd.payload
    return _Block("sync", ep, "send", "send", value)


def _recv(pool: Pool, t: Thread, cmd: CRecv):
    ep, head, kind = _classify(t, cmd.reg, (Msg, Bcast, Gather), "recv at non-action head {}")
    if kind != "recv":
        raise RoleMismatch(
            f"roles {rl.fmt_roleset(ep.roles)} cannot receive {sn.fmt_session(head)}")
    return _Block("sync", ep, "recv", "recv")


def _choose(pool: Pool, t: Thread, cmd: CChoose):
    ep, _, kind = _classify(t, cmd.reg)
    if kind != "choose":
        raise RoleMismatch("only the deciding role set may choose here")
    return _Block("choice", ep, "choose", kind, None, cmd.side)


def _offer(pool: Pool, t: Thread, cmd: COffer):
    ep, _, kind = _classify(t, cmd.reg)
    if kind != "offer":
        raise RoleMismatch("the deciding role set cannot offer")
    side = yield _Block("choice", ep, "offer", kind)
    yield from _exec(pool, cmd.left if side == "l" else cmd.right, t)


def _loop(pool: Pool, t: Thread, cmd: CLoop):
    for _ in range(cmd.count):
        ep, _, kind = _classify(t, cmd.reg, Repseq, "loop at a non-repseq head")
        if kind != "choose":
            raise RoleMismatch("only the deciding role set may loop here")
        yield _Block("choice", ep, "choose", kind, None, "l")
        yield from _exec(pool, cmd.body, t)
    ep, _, kind = _classify(t, cmd.reg, Repseq, "loop exit at a non-repseq head")
    if kind != "choose":
        raise RoleMismatch("only the deciding role set may loop here")
    yield _Block("choice", ep, "choose", kind, None, "r")


def _offer_loop(pool: Pool, t: Thread, cmd: COfferLoop):
    while True:
        ep, _, kind = _classify(t, cmd.reg, Repseq, "offer_loop at a non-repseq head")
        if kind != "offer":
            raise RoleMismatch("the deciding role set cannot offer a loop")
        if (yield _Block("choice", ep, "offer", kind)) == "r":
            return
        yield from _exec(pool, cmd.body, t)


def _mconj(pool: Pool, t: Thread, cmd: CMconj):
    ep, _, kind = _classify(t, cmd.reg)
    if kind != "fork-conj":
        raise RoleMismatch("mconj requires the deciding role")
    ep_a, ep_b = yield _Block("mconj", ep, "mconj")
    t.regs[cmd.reg] = ep_a
    yield from _exec(pool, cmd.first, t)
    t.regs[cmd.reg] = ep_b
    yield from _exec(pool, cmd.second, t)


def _mdisj(pool: Pool, t: Thread, cmd: CMdisj):
    ep, _, kind = _classify(t, cmd.reg)
    if kind != "fork-disj":
        raise RoleMismatch("mdisj is for non-deciding role sets")

    def spawn(give):
        pool.add_thread(partial(_exec, pool, tuple(cmd.spawned)), {cmd.reg: give})

    t.regs[cmd.reg] = yield _Block("mconj", ep, "mdisj", None, None, cmd.side, spawn)


def _append(pool: Pool, t: Thread, cmd: CAppend):
    ep = _reg(t, cmd.reg)
    if not ep.channel.cursor:
        raise ProtocolMismatch("append on a finished session")
    tail = ep.channel.cursor[1:]
    yield from _exec(pool, cmd.body, t)
    if _reg(t, cmd.reg).channel.cursor != tail:
        raise SubprotocolUnfinished("append block did not consume exactly its sub-session")


def _split(pool: Pool, t: Thread, cmd: CSplit) -> None:
    t.regs[cmd.reg] = pool.chan_split(_reg(t, cmd.reg), cmd.part, cmd.spawned, cmd.reg)


def _cut(pool: Pool, t: Thread, cmd: CCut1 | CCut2 | CCut3 | CCutRes) -> None:
    """Cut the endpoints held in the command's reg* registers and clear
    them; a CCutRes puts the residual endpoint in register out."""
    regs = [getattr(cmd, f) for f in cmd.__match_args__ if f.startswith("reg")]
    keep = type(cmd) is CCutRes
    resid = pool.chan_cut([_reg(t, r) for r in regs], keep)
    for r in regs:
        del t.regs[r]
    if keep:
        t.regs[cmd.out] = resid


def _chan_create(pool: Pool, t: Thread, cmd: CChanCreate) -> None:
    t.regs[cmd.out] = pool.chan_create(cmd.part, cmd.session, cmd.acceptor)


def _service_request(pool: Pool, t: Thread, cmd: CServiceRequest) -> None:
    t.regs[cmd.out] = pool.service_request(cmd.name)


def _chan2_demo(pool: Pool, t: Thread, cmd: CChan2Demo) -> None:
    t.regs[cmd.out1], t.regs[cmd.out2] = pool.chan2_create_demo(
        cmd.part1, cmd.session1, cmd.part2, cmd.session2, cmd.acceptor)


_STEPS = {CSync: _sync, CSend: _send, CRecv: _recv, CChoose: _choose, COffer: _offer,
          CLoop: _loop, COfferLoop: _offer_loop, CMconj: _mconj, CMdisj: _mdisj,
          CAppend: _append, CSplit: _split,
          **dict.fromkeys((CCut1, CCut2, CCut3, CCutRes), _cut), CChanCreate: _chan_create,
          CServiceRequest: _service_request, CChan2Demo: _chan2_demo}


def _exec(pool: Pool, cmds: tuple, t: Thread):
    """Generator interpreting one command block; yields _Block to wait.
    The function _STEPS holds for a command's class does the command and
    returns None if it does not wait, the _Block if it waits once and does
    nothing after (sync, send, recv, choose: the block goes straight to the
    scheduler), else a generator that yields its blocks.  Pool._fire finds
    the rule that fires a channel in _FIRES, by the class of its head, the
    same way."""
    for cmd in cmds:
        try:
            step = _STEPS[type(cmd)]
        except KeyError:
            raise RuntimeFault(f"unknown command {cmd!r}") from None
        wait = step(pool, t, cmd)
        if type(wait) is _Block:
            yield wait
        elif wait is not None:
            yield from wait


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
    """A protocol-following command list for one role set.  It draws the
    decisions in protocol order: a loop's body's, then its count, then
    those of what follows."""
    return _script(segs, 0, roleset, dec or Decisions())


def _script(cursor: tuple[SessionType, ...], stop: int, roleset: int,
            dec: Decisions) -> tuple[Command, ...]:
    """The commands that take cursor down to its last stop segments: the
    loop a body goes back to, or nothing."""
    cmds: list[Command] = []
    while len(cursor) > stop:
        head = cursor[0]
        kind = next_kind(head, roleset)
        match head:
            case Msg() | Bcast() | Gather():
                cmds.append(CSend(_DEFAULT_PAYLOAD[head.payload]) if kind == "send"
                            else CRecv() if kind == "recv" else CSync())
                cursor = sn.advance(cursor)
            case SAConj() | OptionT():
                if kind == "offer":  # each branch goes on to the end
                    cmds.append(COffer(*(_script(sn.advance(cursor, side), stop, roleset, dec)
                                         for side in "lr")))
                    break
                side = dec.side()
                cmds.append(CChoose(side))
                cursor = sn.advance(cursor, side)
            case Repseq():
                body = _script(sn.advance(cursor, "l"), len(cursor), roleset, dec)
                cmds.append(CLoop(dec.loop(), body) if kind == "choose" else COfferLoop(body))
                cursor = sn.advance(cursor, "r")
            case SMConj():
                left, right = (_script(c, 0, roleset, dec) for c in _forks(cursor))
                cmds += (CMconj(left, right),) if kind == "fork-conj" \
                    else (CMdisj("l", right),) + left
                break
            case Repeat():
                raise ProtocolMismatch("repeat(...) sessions are not runnable")
            case _:
                raise RuntimeFault(f"cannot synthesize for {sn.fmt_session(head)}")
    return tuple(cmds)


# ------------------------------------------------------- script parser

_STOKEN = re.compile(r"\{[^{}]*\}|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[;|()]|\S")


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
                    value = int(raw) if rl.is_digits(raw) else raw
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
                if not rl.is_digits(k):
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
