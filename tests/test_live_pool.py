"""The runtime's live-pool counters and the calculus's cached resources
against a full recount, the scheduler against one that rescans the live pool,
and the work one step does against the length of the run's history and the
number of open channels."""

import random

from multirole import mtlc as M
from multirole import roles as rl
from multirole import runtime as rt
from multirole import session as sn

from helpers import (
    RescanPool,
    chain_program,
    decisions_view,
    eval_recounting_rho,
    preset_decisions,
    python_calls,
    rand_partition,
    rand_session,
    recount_every_event,
    scripted_parties,
)
from test_acceptance import CUT2, EX3, MCONJ, PING_PONG, _rand_chain_program

LONG = sn.parse_session("m(1, 0, int)@ack(0, 1)", 2)


def long_pool(channels: int, seed: int) -> rt.Pool:
    """One thread opening `channels` services one after another."""
    segs = rt.norm(LONG)
    pool = rt.Pool(2, seed=seed)
    pool.service_create("svc", 0b01, LONG, rt.synthesize(segs, 0b10))
    pool.add_script_thread(tuple(
        c for _ in range(channels)
        for c in (rt.CServiceRequest("svc", "ep"),) + rt.synthesize(segs, 0b01)))
    return pool


def open_services_pool(channels: int) -> rt.Pool:
    """One thread opening `channels` services, all kept open, then running
    the session on each in turn."""
    segs = rt.norm(LONG)
    pool = rt.Pool(2)
    pool.service_create("svc", 0b01, LONG, rt.synthesize(segs, 0b10))
    regs = [f"e{i}" for i in range(channels)]
    pool.add_script_thread(tuple(rt.CServiceRequest("svc", r) for r in regs) + tuple(
        c for r in regs for c in (rt.CRecv(r), rt.CSend(reg=r))))
    return pool


def criterion_8_pools():
    """Criterion 8's random scripted protocols, with its generator and seeds."""
    rng = random.Random(8)
    for i in range(200):
        n = rng.choice([2, 3])
        s = rand_session(rng, n, 2)
        parts = [p for p in rand_partition(rng, n, rng.randrange(1, n + 1)) if p] \
            or [rl.full_set(n)]
        parties = scripted_parties(
            s, parts, {p: rt.Decisions(rng=random.Random(i * 13 + p)) for p in parts})
        yield rt.pool_from_scripts(n, s, parties, seed=i)


def criterion_9_pools():
    """Criterion 9's direct and forwarded topologies, with its generator and seeds."""
    rng = random.Random(9)
    for i in range(50):
        s = rand_session(rng, 3, 2, allow_fork=False)
        decs = preset_decisions(rng, [1, 2, 4])
        yield rt.pool_from_scripts(
            3, s, scripted_parties(s, [1, 2, 4], decisions_view(decs)), seed=i)
        view = decisions_view(decs)
        segs = rt.norm(s)
        pool = rt.Pool(3, seed=i)
        pool.service_create("a", 0b110, s, rt.synthesize(segs, 1, view[1]))
        pool.service_create("b", 0b101, s, rt.synthesize(segs, 2, view[2]))
        if i % 2 == 0:
            main = (rt.CServiceRequest("a", "x"), rt.CServiceRequest("b", "y"),
                    rt.CCutRes("x", "y", "ep")) + rt.synthesize(segs, 4, view[4])
        else:
            pool.service_create("c", 0b011, s, rt.synthesize(segs, 4, view[4]))
            main = (rt.CServiceRequest("a", "x"), rt.CServiceRequest("b", "y"),
                    rt.CServiceRequest("c", "z"), rt.CCut3("x", "y", "z"))
        pool.add_script_thread(main)
        yield pool


def demo2_pool(pool: rt.Pool) -> rt.Pool:
    """The two-channels-at-once counterexample, recv-first, on a fresh pool
    of 2 roles that allows the demo."""
    m1, m2 = pool.chan2_create_demo(
        2, sn.parse_session("first(0, 1)", 2), 2,
        sn.parse_session("second(1, 0)", 2),
        (rt.CSync(reg="ep"), rt.CSync(reg="ep2")))
    pool.add_script_thread((rt.CSync(reg="b"), rt.CSync(reg="a")),
                           {"a": m1, "b": m2})
    return pool


def scheduling_corner_pools(seed: int):
    """Pools whose schedule depends on what the scheduler's ready list and
    candidate heap must keep: a thread that leaves a lower channel waiting
    while it syncs on a higher one; a cut that joins services already
    blocked, with no thread left to block on the joined channel; and two
    threads unblocked by one event, in endpoint order, that both create a
    channel in the same pass."""
    one = sn.parse_session("m(0, 1)", 2)
    sync = (rt.CSync(),)
    crossed = rt.Pool(2, seed=seed)
    crossed.add_script_thread((rt.CChanCreate(0b10, one, sync, "a"),
                               rt.CChanCreate(0b10, one, sync, "b"),
                               rt.CSync("b"), rt.CSync("a")))
    s = sn.parse_session("m(0, 1)@n(1, 2)", 3)
    segs = rt.norm(s)
    joined = rt.Pool(3, seed=seed)
    for name, roles in (("a", 0b110), ("b", 0b101), ("c", 0b011)):
        joined.service_create(name, roles, s, rt.synthesize(segs, 0b111 & ~roles))
    joined.add_script_thread((rt.CServiceRequest("a", "x"), rt.CServiceRequest("b", "y"),
                              rt.CServiceRequest("c", "z"),
                              rt.CChanCreate(0b10, one, sync, "w"), rt.CSync("w"),
                              rt.CCut3("x", "y", "z")))
    other = sn.parse_session("n(0, 1)", 2)  # tells the two creators apart
    fan = rt.Pool(2, seed=seed)
    fan.add_script_thread((
        rt.CChanCreate(0b10, one, (rt.CSync(), rt.CChanCreate(0b10, other, sync, "e"),
                                   rt.CSync("e")), "ep"),
        rt.CSync(), rt.CChanCreate(0b10, one, sync, "e"), rt.CSync("e")))
    return [crossed, joined, fan]


class TestRecountOracle:
    def test_random_protocols(self):
        for pool in criterion_8_pools():
            assert recount_every_event(pool).run().status == "done"

    def test_forwarders(self):
        for pool in criterion_9_pools():
            assert recount_every_event(pool).run().status == "done"

    def test_mtlc_pools(self):
        rng = random.Random(11)
        programs = [M.parse_program(src, 2) for src in (PING_PONG, MCONJ, CUT2)]
        programs += [_rand_chain_program(rng) for _ in range(10)]
        for i, e in enumerate(programs):
            pool = recount_every_event(rt.Pool(2, seed=i))
            M.MtlcThread(pool, e, M.retype_thread, expected=M.typecheck(e, n=2))
            assert pool.run().status == "done"

    def test_mtlc_resources_of_criterion_10_pools(self):
        # criterion 10's programs and seeds
        for i, src in enumerate((PING_PONG, MCONJ, CUT2)):
            res, _, steps = eval_recounting_rho(M.parse_program(src, 2), seed=i)
            assert res.status == "done" and steps
        rng = random.Random(11)
        for i in range(47):
            res, val, steps = eval_recounting_rho(_rand_chain_program(rng), seed=i)
            assert res.status == "done" and val == M.EUnit() and steps

    def test_mtlc_resources_of_chains(self):
        for length in (10, 40, 160):
            expr, total = chain_program(random.Random(length), length)
            res, val, steps = eval_recounting_rho(expr, seed=length)
            assert res.status == "done"
            assert val == M.EInt(total)
            assert steps > length

    def test_mtlc_exit_takes_the_thread_out_of_the_count(self):
        # the main thread exits holding its endpoint before the spawned
        # thread's first step, which the count must then no longer show
        e = M.parse_program('(chan_create (llam (c (chan {0} "a(0, 1)")) (chan_sync c)))', 2)
        res, val, steps = eval_recounting_rho(e)
        assert (res.status, type(val), steps) == ("deadlock", M.ERc, 2)

    def test_demo2_deadlock(self):
        pool = demo2_pool(recount_every_event(rt.Pool(2, allow_demo=True)))
        assert pool.audit_log == [(1, False)]
        assert pool.run().status == "deadlock"

    def test_long_history(self):
        assert recount_every_event(long_pool(100, seed=100)).run().status == "done"


def test_sequential_services_stay_relaxed():
    # a finished channel stops counting at the step that consumed its last
    # segment, not at the scheduler's next clean-up
    pool = long_pool(100, seed=100)
    assert pool.run().status == "done"
    assert len(pool.audit_log) == 300
    assert all(ok for _, ok in pool.audit_log)


def test_operation_on_just_finished_session_is_a_protocol_mismatch():
    s = sn.parse_session("a(0, 1)", 2)
    pool = rt.pool_from_scripts(2, s, [(1, (rt.CSend(), rt.CSend())),
                                       (2, (rt.CRecv(),))])
    res = pool.run()
    assert res.status == "fault"
    assert res.detail == "operation on a finished session"


def test_partition_checks_per_event_do_not_grow_with_history(monkeypatch):
    calls = [0]
    check = rl.partition_check

    def counting(parts, n):
        calls[0] += 1
        return check(parts, n)

    monkeypatch.setattr(rl, "partition_check", counting)
    per_event = []
    for channels in (100, 400):
        calls[0] = 0
        res = long_pool(channels, seed=0).run()
        assert res.status == "done"
        per_event.append(calls[0] / len(res.trace))
    assert per_event[0] == per_event[1]


def test_scheduling_work_per_event_does_not_grow_with_open_channels(monkeypatch):
    # threads resumed plus channels examined for firing; a run also does a
    # fixed amount of work at its start and end, so compare the work each
    # further event costs
    work = [0]

    def counting(method):
        def counted(self, *args):
            work[0] += 1
            return method(self, *args)
        return counted

    monkeypatch.setattr(rt.Pool, "_resume", counting(rt.Pool._resume))
    monkeypatch.setattr(rt.Pool, "_fireable", counting(rt.Pool._fireable))
    runs = []
    for channels in (100, 200, 400):
        work[0] = 0
        res = open_services_pool(channels).run()
        assert res.status == "done"
        runs.append((len(res.trace), work[0]))
    (e1, w1), (e2, w2), (e3, w3) = runs
    assert (w3 - w2) / (e3 - e2) == (w2 - w1) / (e2 - e1)


def test_python_calls_per_event_do_not_grow_with_history():
    # A run does a fixed amount of work at its start and end, so compare the
    # calls each further event costs; whole runs are bounded too.
    runs = []
    for channels in (100, 200, 400):
        res, calls = python_calls(long_pool(channels, seed=0).run)
        assert res.status == "done"
        runs.append((len(res.trace), calls))
    (e1, c1), (e2, c2), (e3, c3) = runs
    assert (c3 - c2) / (e3 - e2) == (c2 - c1) / (e2 - e1) <= 24
    assert c1 / e1 <= 24 and c3 / e3 <= 24


def test_scheduler_agrees_with_rescanning_oracle(monkeypatch):
    def runs():
        pools = [*criterion_8_pools(), *criterion_9_pools(),
                 demo2_pool(rt.Pool(2, allow_demo=True)), long_pool(100, seed=100)]
        pools += [p for seed in range(8) for p in scheduling_corner_pools(seed)]
        out = [pool.run() for pool in pools]
        # criterion 10's programs and seeds, retyped at every step
        for i, src in enumerate((PING_PONG, MCONJ, CUT2)):
            out.append(M.eval_pool(M.parse_program(src, 2), seed=i, retype_every_step=True)[0])
        rng = random.Random(11)
        for i in range(47):
            out.append(M.eval_pool(_rand_chain_program(rng), seed=i,
                                   retype_every_step=True)[0])
        return [(type(r.pool), rt.trace_jsonl(r.trace), r.pool.audit_log,
                 r.status, r.detail) for r in out]

    pool_cls = rt.Pool
    got = runs()
    monkeypatch.setattr(rt, "Pool", RescanPool)
    monkeypatch.setattr(M, "Pool", RescanPool)
    want = runs()
    assert len(got) == len(want) == 200 + 100 + 2 + 24 + 50
    assert {r[3] for r in got} == {"done", "deadlock"}
    for g, w in zip(got, want):
        assert (g[0], w[0]) == (pool_cls, RescanPool)
        assert g[1:] == w[1:]


def test_candidate_heap_holds_each_channel_once():
    checked = [0]

    def each_event(pool):
        event = pool._event

        def check(*args, **kw):
            event(*args, **kw)
            cands = pool._cands
            assert len(cands) == len(set(cands)), sorted(cands)
            assert set(cands) == pool._pending
            checked[0] += 1

        pool._event = check
        return pool

    pools = [*criterion_8_pools(), *criterion_9_pools(), long_pool(100, seed=100)]
    pools += [p for seed in range(8) for p in scheduling_corner_pools(seed)]
    for pool in pools:
        assert each_event(pool).run().status == "done"
    for i, src in enumerate((PING_PONG, MCONJ, CUT2)):
        e = M.parse_program(src, 2)
        pool = each_event(rt.Pool(2, seed=i))
        M.MtlcThread(pool, e, expected=M.typecheck(e, n=2))
        assert pool.run().status == "done"
    assert checked[0] > 1000


def test_endpoint_ids_are_numbered_per_pool():
    def eids():
        s = sn.parse_session(EX3, 3)
        pool = rt.pool_from_scripts(3, s, scripted_parties(s, [1, 2, 4]))
        assert pool.run().status == "done"
        return [(c.cid, [e.eid for e in c.endpoints]) for c in pool.channels.values()]

    assert eids() == eids()
