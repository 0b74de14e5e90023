"""protocol: `session` and `runtime` do the work.

Jobs (per seed, counts fixed):
- session texts parsed, printed back, checked and encoded to LMRL;
- random 2-3-role scripted protocols started channel-free, every choice
  taking one side and every loop running a fixed count;
- forwarder topologies (services joined by cutres or cut3) run beside the
  direct topology of the same protocol;
- long-history runs: one thread opens 100..1600 channels one after another,
  so the run's history grows while each step's own work stays the same.
"""

from __future__ import annotations

import random

from multirole import logic as lg
from multirole import runtime as rt
from multirole import session as sn

import gen
from core import Job, expect

TEXT_ATOMS = (4, 8, 16, 32, 64, 128)
SCRIPTED = 120
FORWARDED = 20
# The long runs are the tail: the 90th percentile falls among the seven
# 100-channel runs, which do identical work.
LONG_CHANNELS = (100,) * 7 + (200,) * 6 + (400,) * 4 + (800,) * 2 + (1600,)
LONG_SESSION = "m(1, 0, int)@ack(0, 1)"


def _relaxed(pool) -> bool:
    return all(ok for _, ok in pool.audit_log)


def text_job(rng: random.Random, atoms: int, n: int, jid: str) -> Job:
    s = gen.session(rng, n, 2, atoms, gather=False)
    text = sn.fmt_session(s)
    unroll = rng.choice([0, 1])
    want_labels = {gen.wire_label(m) for m, looped in gen.messages(s)
                   if unroll or not looped}

    def run():
        parsed = sn.parse_session(text, n)
        sn.check_session(parsed, n)
        printed = sn.fmt_session(parsed)
        return parsed, sn.parse_session(printed, n), sn.encode_lmrl(parsed, unroll=unroll)

    def check(res):
        parsed, reparsed, enc = res
        expect(parsed == s, "parsing the printed session changed it")
        expect(reparsed == parsed, "print/parse round trip changed the session")
        labels, stack = set(), [enc]
        while stack:
            f = stack.pop()
            if isinstance(f, lg.Atom):
                if f.label != "nil":
                    labels.add(f.label)
            elif isinstance(f, (lg.MConj, lg.AConj)):
                stack += [f.left, f.right]
            elif isinstance(f, lg.Bang):
                stack.append(f.body)
            else:
                raise AssertionError(f"unexpected connective in encoding: {f!r}")
        expect(labels == want_labels, "encoding lost or invented a message atom")

    return Job(jid, "session-text", run, check)


def _decisions(side: str, loops: int) -> rt.Decisions:
    return rt.Decisions(sides=[side] * 256, loops=[loops] * 256)


def scripted_job(rng: random.Random, i: int, jid: str) -> Job:
    n = 2 + i % 2
    s = gen.session(rng, n, 1, 3)  # choices and loops one level deep
    parts = gen.partition(rng, n, 1 + i % n, nonempty=True)
    side, loops = "lr"[i % 2], 1 + i % 2
    seed = rng.randrange(1 << 16)
    want = gen.sync_count(s, side, loops)

    def run():
        segs = rt.norm(s)
        parties = [(p, rt.synthesize(segs, p, _decisions(side, loops))) for p in parts]
        return rt.pool_from_scripts(n, s, parties, seed=seed).run()

    def check(res):
        expect(res.status == "done", f"run ended {res.status}: {res.detail}")
        expect(_relaxed(res.pool), "pool left the relaxed states")
        expect(len(rt.sync_events(res.trace)) == want,
               f"{len(rt.sync_events(res.trace))} sync events, expected {want}")

    return Job(jid, "scripted", run, check)


def forwarded_job(rng: random.Random, idx: int, jid: str) -> Job:
    s = gen.session(rng, 3, 2, 2 + idx % 4, fork=False)
    side, loops = "lr"[idx % 2], idx % 4
    seed = rng.randrange(1 << 16)
    want = gen.sync_count(s, side, loops)

    def run():
        segs = rt.norm(s)
        dec = lambda: _decisions(side, loops)
        direct = rt.pool_from_scripts(
            3, s, [(p, rt.synthesize(segs, p, dec())) for p in (1, 2, 4)], seed=seed).run()
        pool = rt.Pool(3, seed=seed)
        pool.service_create("a", 0b110, s, rt.synthesize(segs, 1, dec()))
        pool.service_create("b", 0b101, s, rt.synthesize(segs, 2, dec()))
        if idx % 2 == 0:
            main = (rt.CServiceRequest("a", "x"), rt.CServiceRequest("b", "y"),
                    rt.CCutRes("x", "y", "ep")) + rt.synthesize(segs, 4, dec())
        else:
            pool.service_create("c", 0b011, s, rt.synthesize(segs, 4, dec()))
            main = (rt.CServiceRequest("a", "x"), rt.CServiceRequest("b", "y"),
                    rt.CServiceRequest("c", "z"), rt.CCut3("x", "y", "z"))
        pool.add_script_thread(main)
        return direct, pool.run()

    def check(res):
        direct, fwd = res
        for r in res:
            expect(r.status == "done", f"run ended {r.status}: {r.detail}")
            expect(_relaxed(r.pool), "pool left the relaxed states")
        expect(len(rt.sync_events(direct.trace)) == want, "wrong direct sync count")
        # per-role message sequences agree across topologies
        expect(rt.message_keys(fwd.trace) == rt.message_keys(direct.trace),
               "forwarded topology changed the exchanges")

    return Job(jid, "forwarded", run, check)


def long_job(channels: int, jid: str) -> Job:
    s = sn.parse_session(LONG_SESSION, 2)
    segs = rt.norm(s)
    per = gen.sync_count(s, "l", 0)
    main = rt.synthesize(segs, 0b01)
    script = tuple(c for _ in range(channels)
                   for c in (rt.CServiceRequest("svc", "ep"),) + main)
    acceptor = rt.synthesize(segs, 0b10)

    def run():
        pool = rt.Pool(2, seed=channels)
        pool.service_create("svc", 0b01, s, acceptor)
        pool.add_script_thread(script)
        return pool.run()

    def check(res):
        # Relaxedness is not checked here: the audit counts a finished channel
        # as live until the scheduler's next clean-up, so it reports false
        # violations when the next channel opens in the same pass.
        expect(res.status == "done", f"run ended {res.status}: {res.detail}")
        expect(len(rt.sync_events(res.trace)) == channels * per, "wrong sync count")
        expect(len(res.trace) == channels * (per + 1), "wrong event count")

    return Job(jid, "long", run, check)


def build(seed: int) -> list[Job]:
    rng = random.Random(f"protocol:{seed}")
    jobs = []
    for atoms in TEXT_ATOMS:
        for i in range(4):
            jobs.append(text_job(rng, atoms, 2 + i % 2, f"text:{atoms}:{len(jobs)}"))
    for i in range(SCRIPTED):
        jobs.append(scripted_job(rng, i, f"scripted:{len(jobs)}"))
    for i in range(FORWARDED):
        jobs.append(forwarded_job(rng, i, f"forwarded:{len(jobs)}"))
    for ch in LONG_CHANNELS:
        jobs.append(long_job(ch, f"long:{ch}:{len(jobs)}"))
    return jobs

