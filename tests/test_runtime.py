import itertools
import random
from collections import Counter

import pytest

from multirole import kernel as kn
from multirole import logic as lg
from multirole import mtlc as mt
from multirole import roles as rl
from multirole import runtime as rt
from multirole import session as sn
from multirole.runtime import (
    CChoose,
    CCut3,
    CCutRes,
    CRecv,
    CSend,
    CServiceRequest,
    CSync,
    CutSideCondition,
    Decisions,
    DemoDisabled,
    LinearityFault,
    NonEmptyRoles,
    PayloadTypeMismatch,
    Pool,
    ProtocolMismatch,
    RoleMismatch,
    RuntimeFault,
    message_keys,
    norm,
    parse_script,
    pool_from_scripts,
    sync_events,
    synthesize,
)
from multirole.session import parse_session

from helpers import Registry, preset_decisions, decisions_view, rand_session, scripted_parties

EX1 = ("title(1, 0)@quote(0, 1)@quote(0, 2)@"
       "contrib(1, 2)@option(2, proof(2, 0)@receipt(0, 2))")
EX2 = "userid(0, 1)@userid(1, 2)@repseq(2, query(2, 0)@answer(0, 2))@result(2, 1)"
EX3 = "query(0)@(mconj(0, answer(1, 0)@score(0, 1), answer(2, 0)@score(0, 2)))"


def run_example(text, n, decisions=None, seed=0):
    s = parse_session(text, n)
    parts = [1 << r for r in range(n)]
    parties = scripted_parties(s, parts, decisions)
    pool = pool_from_scripts(n, s, parties, seed=seed)
    return pool.run()


class TestExamples:
    def test_example1_accept(self):
        dec = {4: rt.Decisions(sides=["l"])}
        res = run_example(EX1, 3, dec)
        assert res.status == "done"
        evs = sync_events(res.trace)
        assert len(evs) == 7
        assert [e["label"] for e in evs] == \
            ["title", "quote", "quote", "contrib", "l", "proof", "receipt"]

    def test_example1_decline(self):
        dec = {4: rt.Decisions(sides=["r"])}
        res = run_example(EX1, 3, dec)
        assert res.status == "done"
        assert len(sync_events(res.trace)) == 5

    def test_example1_deterministic_across_seeds(self):
        traces = set()
        for seed in range(25):
            dec = {4: rt.Decisions(sides=["l"])}
            res = run_example(EX1, 3, dec, seed=seed)
            assert res.status == "done"
            traces.add(rt.trace_jsonl(res.trace))
        assert len(traces) == 1

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_example2_loop_counts(self, k):
        dec = {4: rt.Decisions(sides=[], loops=[k])}
        res = run_example(EX2, 3, dec)
        assert res.status == "done"
        assert len(sync_events(res.trace)) == 4 + 2 * k

    def test_example3_fork(self):
        res = run_example(EX3, 3)
        assert res.status == "done"
        pr5 = [e for e in res.trace if e["rule"] == "PR5"]
        assert len(pr5) == 1
        assert len(pr5[0]["chans"]) == 2
        # both sub-sessions completed
        labels = sorted((e["label"], e["to"]) for e in sync_events(res.trace)
                        if e["action"] == "msg")
        assert labels == [("answer", 0), ("answer", 0), ("score", 1), ("score", 2)]


class TestInvariants:
    def test_relaxed_throughout_examples(self):
        for text, dec in [(EX1, {4: Decisions(sides=["l"])}),
                          (EX2, {4: Decisions(loops=[2])}),
                          (EX3, None)]:
            res = run_example(text, 3, dec)
            assert res.status == "done"
            assert all(ok for _, ok in res.pool.audit_log)

    def test_relaxed_at_its_bounds(self):
        """relaxed() and the audit's copy of it: true on a pool with no
        endpoint, threads or channels, and at slack threads + channels -
        endpoints - 1 of exactly 0; false at slack -1."""
        pool = Pool(2)
        assert pool.relaxed()
        pool._event({"step": pool.step_no, "rule": "probe"})
        assert pool.audit_log[-1] == (1, True)
        ch = pool.new_channel(norm(parse_session("a(0, 1)", 2)))
        pool.new_endpoint(ch, 0b01)
        pool.new_endpoint(ch, 0b10)
        for threads, relaxed in ((1, False), (2, True)):  # slack -1, then 0
            pool.add_thread(lambda t: iter(()))
            assert (pool.live_threads(), pool.live_channels(), pool.live_endpoints()) \
                == (threads, 1, 2)
            pool._event({"step": pool.step_no, "rule": "probe"})
            assert pool.relaxed() is pool.audit_log[-1][1] is relaxed, threads

    def test_linearity_fault_on_abandoned_endpoint(self):
        s = parse_session("a(0, 1)@b(1, 0)", 2)
        pool = pool_from_scripts(2, s, [(1, (CSync(),)),  # quits mid-session
                                        (2, (CSync(), CSync()))])
        assert _refusal(pool) == \
            (LinearityFault, "thread 1 exited holding an unfinished endpoint at roles {0}", 2)

    def test_role_mismatch_detected(self):
        s = parse_session("a(0, 1)", 2)
        pool = pool_from_scripts(2, s, [(1, (CRecv(),)), (2, (CSend(1),))])
        assert _refusal(pool) == (RoleMismatch, "roles {1} cannot send a(0, 1)", 1)

    def test_payload_type_checked(self):
        s = parse_session("a(0, 1, int)@b(1, 0)", 2)
        pool = pool_from_scripts(2, s, [(1, (CSend("oops"), CSync())),
                                        (2, (CRecv(), CSync()))])
        assert _refusal(pool) == \
            (PayloadTypeMismatch, "payload 'oops' does not fit tag int", 1)


class TestDemo:
    def _demo_pool(self, order, allow=True):
        pool = Pool(2, allow_demo=allow)
        s1 = parse_session("first(0, 1)", 2)
        s2 = parse_session("second(1, 0)", 2)
        m1, m2 = pool.chan2_create_demo(2, s1, 2, s2,
                                        (CSync(reg="ep"), CSync(reg="ep2")))
        regs = {"a": m1, "b": m2}
        pool.add_script_thread(tuple(CSync(reg=r) for r in order), regs)
        return pool

    def test_disabled_by_default(self):
        with pytest.raises(DemoDisabled):
            self._demo_pool(("a", "b"), allow=False)

    def test_counterexample_counts(self):
        pool = self._demo_pool(("b", "a"))
        assert pool.live_threads() + pool.live_channels() == 4
        assert pool.live_endpoints() + 1 == 5
        assert not pool.relaxed()

    def test_recv_first_deadlocks(self):
        res = self._demo_pool(("b", "a")).run()
        assert res.status == "deadlock"

    def test_send_first_completes(self):
        res = self._demo_pool(("a", "b")).run()
        assert res.status == "done"

    @pytest.mark.parametrize("part1, part2", [(0b100, 0b10), (0b10, 0b100)])
    def test_role_set_outside_the_universe_is_refused(self, part1, part2):
        pool = Pool(2, allow_demo=True)
        s = parse_session("a(0, 1)", 2)
        pool.add_script_thread((rt.CChan2Demo(part1, s, part2, s, ()),))
        with pytest.raises(rl.RoleError, match="role set 0x4 not within universe of 2 roles"):
            pool.run()
        assert pool._next_cid == 0  # refused before any channel is made


class TestCuts:
    def _direct(self, s, decs, seed=0):
        parties = scripted_parties(s, [1, 2, 4], decisions_view(decs))
        return pool_from_scripts(3, s, parties, seed=seed).run()

    def test_cutres_transparency(self):
        rng = random.Random(2)
        s = rand_session(rng, 3, 2, allow_fork=False)
        decs = preset_decisions(rng, [1, 2, 4])
        direct = self._direct(s, decs)
        assert direct.status == "done"

        pool = Pool(3, seed=0)
        segs = norm(s)
        view = decisions_view(decs)
        pool.service_create("a", 0b110, s, synthesize(segs, 1, view[1]))
        pool.service_create("b", 0b101, s, synthesize(segs, 2, view[2]))
        main = (CServiceRequest("a", "x"), CServiceRequest("b", "y"),
                CCutRes("x", "y", "ep")) + synthesize(segs, 4, view[4])
        pool.add_script_thread(main)
        res = pool.run()
        assert res.status == "done"
        assert message_keys(res.trace) == message_keys(direct.trace)
        assert all(ok for _, ok in pool.audit_log)

    def test_3cut_transparency(self):
        rng = random.Random(3)
        s = rand_session(rng, 3, 2, allow_fork=False)
        decs = preset_decisions(rng, [1, 2, 4])
        direct = self._direct(s, decs)
        assert direct.status == "done"

        pool = Pool(3, seed=0)
        segs = norm(s)
        view = decisions_view(decs)
        pool.service_create("a", 0b110, s, synthesize(segs, 1, view[1]))
        pool.service_create("b", 0b101, s, synthesize(segs, 2, view[2]))
        pool.service_create("c", 0b011, s, synthesize(segs, 4, view[4]))
        main = (CServiceRequest("a", "x"), CServiceRequest("b", "y"),
                CServiceRequest("c", "z"), CCut3("x", "y", "z"))
        pool.add_script_thread(main)
        res = pool.run()
        assert res.status == "done"
        assert message_keys(res.trace) == message_keys(direct.trace)


def _cut_endpoints(*specs):
    """A pool of 2 roles and, for each (roles, session text), the caller's
    endpoint at those roles on a new channel at that session."""
    pool = Pool(2)
    return pool, [pool.chan_create(0b11 & ~r, parse_session(s, 2), ()) for r, s in specs]


def _consumed(pool, eps):
    pool.chan_cut(eps)  # a 1-cut of an empty-role-set endpoint
    return eps


# each refusal of Pool.chan_cut: the endpoints, the cut it is given (from the
# pool and the endpoints), keep, and the exception's class and text
CUT_REFUSALS = {
    "consumed endpoint": ([(0, "a(0, 1)")], _consumed, False,
                          LinearityFault, "cut on a consumed endpoint"),
    "one channel twice": ([(0b01, "a(0, 1)")], lambda pool, eps: eps * 2, False,
                          CutSideCondition, "cut endpoints must live on distinct channels"),
    "cursors differ": ([(0b01, "a(0, 1)"), (0b10, "b(0, 1)")], lambda pool, eps: eps, False,
                       CutSideCondition, "cut endpoints carry different session cursors"),
    "complements overlap": ([(0b01, "a(0, 1)"), (0b01, "a(0, 1)")], lambda pool, eps: eps,
                            True, CutSideCondition,
                            "cut requires disjoint complements of the role sets"),
    "residual without keep": ([(0b11, "a(0, 1)"), (0b01, "a(0, 1)")],
                              lambda pool, eps: eps, False, CutSideCondition,
                              "cut without a residual requires role sets that share no role"),
    "1-cut on non-empty roles": ([(0b01, "a(0, 1)")], lambda pool, eps: eps, False,
                                 NonEmptyRoles, "only an empty-role-set endpoint can be removed"),
}


class TestChanCut:
    @pytest.mark.parametrize("row", CUT_REFUSALS)
    def test_refusal(self, row):
        specs, cut, keep, exc, text = CUT_REFUSALS[row]
        pool, eps = _cut_endpoints(*specs)
        args = cut(pool, eps)
        made = Registry(pool)  # nothing has finished: no thread has run
        trace = list(pool.trace)
        live = [(e.eid, e.live) for ch in made.channels.values() for e in ch.endpoints]
        with pytest.raises(exc) as got:
            pool.chan_cut(args, keep)
        assert type(got.value) is exc and str(got.value) == text
        assert pool.trace == trace
        assert [(e.eid, e.live) for ch in made.channels.values() for e in ch.endpoints] == live

    # the cut shapes: the number of sides, keep, the calculus's constant
    SHAPES = [(1, False, "chan_1_cut"), (2, False, "chan_2_cut"), (3, False, "chan_3_cut"),
              (2, True, "chan_2_cutres")]

    def test_three_layers_agree(self):
        """The kernel's cuts, the calculus's cut constants and Pool.chan_cut
        accept the same role-set tuples, with the same residual, as the side
        condition written out on Python sets: complements pairwise disjoint,
        and without keep no role that every set holds."""
        cases = 0
        for n in (2, 3, 4):
            full = rl.full_set(n)
            a = lg.parse_formula("a", n)
            calc = kn.MRL(n)
            cursor = norm(parse_session("m(0, 1, int)", n))
            premise = {r: kn.axiom_multi(a, [r, full & ~r], calc) for r in range(full + 1)}
            for k, keep, const in self.SHAPES:
                for masks in itertools.product(range(full + 1), repeat=k):
                    cases += 1
                    sets = [set(rl.members(m)) for m in masks]
                    comps = [set(range(n)) - x for x in sets]
                    resid = set.intersection(*sets)
                    disjoint = sum(map(len, comps)) == len(set().union(*comps))
                    want = (sorted(resid) if keep else []) if disjoint and (keep or not resid) \
                        else None
                    got = [self._kernel(premise, masks, a, keep, calc),
                           self._mtlc(const, masks, cursor, n),
                           self._pool(masks, keep, cursor, n)]
                    assert got == [want] * 3, (n, const, masks)
        assert cases == 5372

    @staticmethod
    def _kernel(premise, masks, a, keep, calc):
        ds = [premise[m] for m in masks]
        idx = [d.conclusion.index(lg.IFormula(m, a)) for d, m in zip(ds, masks)]
        try:
            if len(ds) == 1:
                out = kn.cut1(ds[0], idx[0], calc)
            elif keep:
                out = kn.cut2_residual(ds[0], idx[0], ds[1], idx[1], calc)
            else:
                out = kn.mp_cut(ds, idx, calc)
        except kn.KernelError:
            return None
        # the conclusion is the premises' contexts and, with keep, the residual
        ctx = Counter(x for d, i in zip(ds, idx) for j, x in enumerate(d.conclusion) if j != i)
        rest = list((Counter(out.conclusion) - ctx).elements())
        assert Counter(out.conclusion) == ctx + Counter(rest) and len(rest) == keep
        return rl.members(rest[0].roles) if keep else []

    @staticmethod
    def _mtlc(const, masks, cursor, n):
        try:
            ty = mt.sig_result(const, [mt.TChan(m, cursor) for m in masks], n)
        except mt.MtlcTypeError:
            return None
        return rl.members(ty.roles) if const == "chan_2_cutres" else []

    @staticmethod
    def _pool(masks, keep, cursor, n):
        pool = Pool(n)
        eps = []
        for m in masks:
            ch = pool.new_channel(cursor)
            eps.append(pool.new_endpoint(ch, m))
            pool.new_endpoint(ch, pool.full & ~m)
        try:
            out = pool.chan_cut(eps, keep)
        except (CutSideCondition, NonEmptyRoles):
            return None
        return rl.members(out.roles) if keep else []


class TestScriptParser:
    def test_parse_and_run(self):
        s = parse_session("a(0, 1)@option(1, b(1, 0))", 2)
        text = """
        party {0}: send; offer (recv | )
        party {1}: recv; choose l; send
        """
        parties = parse_script(text, 2)
        pool = pool_from_scripts(2, s, parties)
        res = pool.run()
        assert res.status == "done"
        assert len(sync_events(res.trace)) == 3

    def test_bad_command_rejected(self):
        with pytest.raises(rt.RuntimeFault):
            parse_script("party {0}: flarb", 2)

    def test_digits_other_than_ascii_are_not_numbers(self):
        # an Arabic-Indic one is no count and no int payload
        with pytest.raises(RuntimeFault, match="^loop expects a count, got '\u0661'$"):
            parse_script("party {0}: loop \u0661 (sync)", 2)
        assert parse_script("party {0}: send \u0661; send 12", 2) == \
            [(1, (CSend("\u0661"), CSend(12)))]
        with pytest.raises(rl.RoleError, match="^bad role set syntax: '{\u0661}'$"):
            parse_script("party {\u0661}: sync", 2)

    def test_bad_partition_rejected(self):
        s = parse_session("a(0, 1)", 2)
        with pytest.raises(rt.RuntimeFault):
            pool_from_scripts(2, s, [(1, (CSync(),)), (1, (CSync(),))])


class TestSynthFuzz:
    def test_random_protocols_complete_and_stay_relaxed(self):
        rng = random.Random(99)
        for i in range(40):
            n = rng.choice([2, 3])
            s = rand_session(rng, n, 2)
            k = rng.randrange(2, n + 1)
            # random nonempty partition
            parts = []
            roles_ = list(range(n))
            rng.shuffle(roles_)
            cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
            prev = 0
            for c in cuts + [n]:
                mask = 0
                for r in roles_[prev:c]:
                    mask |= 1 << r
                parts.append(mask)
                prev = c
            parties = scripted_parties(
                s, parts, {p: Decisions(rng=random.Random(i * 7 + p)) for p in parts})
            pool = pool_from_scripts(n, s, parties, seed=i)
            res = pool.run()
            assert res.status == "done", (sn.fmt_session(s), res.detail)
            assert all(ok for _, ok in pool.audit_log)


class TestConsumedEndpoints:
    def _endpoint(self, roles):
        """A pool of one channel and the caller's endpoint carrying `roles`."""
        pool = Pool(2)
        ep = pool.chan_create(0b11 & ~roles, parse_session("a(0, 1)", 2), ())
        return pool, ep

    def test_second_1cut_is_a_linearity_fault(self):
        pool, ep = self._endpoint(0)
        pool.chan_cut([ep])
        events = len(pool.trace)
        with pytest.raises(LinearityFault):
            pool.chan_cut([ep])
        assert len(pool.trace) == events

    def test_split_of_a_split_endpoint_is_a_linearity_fault(self):
        pool, ep = self._endpoint(0b11)
        pool.chan_split(ep, 0b01, ())
        events = len(pool.trace)
        with pytest.raises(LinearityFault):
            pool.chan_split(ep, 0b01, ())
        assert len(pool.trace) == events


class TestFaultTexts:
    """The faults the scheduler raises while firing and auditing, with their
    exact texts."""

    def _fault(self, pool):
        res = pool.run()
        assert res.status == "fault"
        return res.detail

    def test_repeat_head_reaching_a_fire(self):
        s = parse_session("repeat(0, a(0, 1))", 2)
        pool = Pool(2)
        pool.add_script_thread((rt.CChanCreate(0b10, s, (rt.COffer((), ()),)),
                                CChoose("l")))
        assert self._fault(pool) == ("repeat(...) sessions are not runnable; "
                                     "bound them with repseq or unroll")

    def test_head_without_a_firing_rule(self):
        pool = Pool(2)
        ch = pool.new_channel((sn.Nil(),))

        def party(ep):
            def gen(t):
                yield rt._Block("sync", ep, "sync")
            return gen

        for roles in (0b01, 0b10):
            pool.add_thread(party(pool.new_endpoint(ch, roles)))
        assert self._fault(pool) == "cannot fire head nil"

    def test_mconj_that_does_not_end_its_session(self):
        s = parse_session("mconj(0, x(1, 0), y(1, 0))@b(0, 1)", 2)
        pool = pool_from_scripts(2, s, [(0b01, (rt.CMconj((), ()),)),
                                        (0b10, (rt.CMdisj("l", ()),))])
        assert self._fault(pool) == "mconj(...) must end its session"
        with pytest.raises(ProtocolMismatch, match=r"^mconj\(\.\.\.\) must end its session$"):
            synthesize(norm(s), 0b01)
        assert pool._next_cid == 1  # refused before forking

    def test_endpoints_that_stop_partitioning_the_universe(self):
        pool = Pool(2)
        ep = pool.chan_create(0, parse_session("a(0, 1)", 2), ())
        pool.new_endpoint(ep.channel, 0b01)  # overlaps ep at role 0
        with pytest.raises(RuntimeFault) as e:
            pool.chan_split(ep, 0b01, ())
        assert type(e.value) is RuntimeFault
        assert str(e.value) == \
            "channel 0: endpoint role sets do not partition the universe"


def _refusal(pool):
    """Run pool to its fault: the class and text of the exception that
    ended the run, and the number of events before it."""
    raised = []

    def recording(method):
        def recorded(*args):
            try:
                return method(*args)
            except RuntimeFault as e:
                raised.append(e)
                raise
        return recorded

    pool._resume, pool._fire = recording(pool._resume), recording(pool._fire)
    res = pool.run()
    assert res.status == "fault"
    assert [res.detail] == [str(e) for e in raised]
    return type(raised[0]), res.detail, len(res.trace)


# every blocking op, on the endpoint in register reg
BLOCKING_OPS = {
    "sync": lambda reg: CSync(reg=reg),
    "send": lambda reg: CSend(reg=reg),
    "recv": lambda reg: CRecv(reg=reg),
    "choose": lambda reg: CChoose("l", reg=reg),
    "offer": lambda reg: rt.COffer((), (), reg=reg),
    "loop": lambda reg: rt.CLoop(1, (), reg=reg),
    "loop exit": lambda reg: rt.CLoop(0, (), reg=reg),
    "offer_loop": lambda reg: rt.COfferLoop((), reg=reg),
    "mconj": lambda reg: rt.CMconj((), (), reg=reg),
    "mdisj": lambda reg: rt.CMdisj("l", (), reg=reg),
}


def _raw_party(pool, ch, roles, block):
    """A thread on a new endpoint of ch with roles that blocks once on
    block(endpoint) and then ends."""
    ep = pool.new_endpoint(ch, roles)

    def gen(t):
        yield block(ep)
    pool.add_thread(gen)


class TestRefusalTexts:
    """What each blocking op and each firing rule refuses, with the
    exception's class, its exact text and the events before it."""

    @pytest.mark.parametrize("op", BLOCKING_OPS)
    def test_register_without_an_endpoint(self, op):
        pool = Pool(2)
        mine = pool.chan_create(0b01, parse_session("a(0, 1)", 2), (CSync(),))
        pool.add_script_thread((BLOCKING_OPS[op]("x"),), {"ep": mine})
        assert _refusal(pool) == \
            (RuntimeFault, "thread 1: register 'x' holds no endpoint", 1)

    @pytest.mark.parametrize("op", BLOCKING_OPS)
    def test_consumed_endpoint(self, op):
        # registers a and b hold one endpoint; splitting a consumes it
        pool = Pool(2)
        mine = pool.chan_create(0b01, parse_session("a(0, 1)", 2), (CSync(),))
        pool.add_script_thread((rt.CSplit(0b10, (CSync(reg="a"),), reg="a"),
                                BLOCKING_OPS[op]("b")), {"a": mine, "b": mine})
        assert _refusal(pool) == (LinearityFault, "operation on a consumed endpoint", 2)

    @pytest.mark.parametrize("op", BLOCKING_OPS)
    def test_just_finished_session(self, op):
        s = parse_session("a(0, 1)", 2)
        pool = pool_from_scripts(2, s, [(1, (CSend(), BLOCKING_OPS[op]("ep"))),
                                        (2, (CRecv(),))])
        assert _refusal(pool) == (ProtocolMismatch, "operation on a finished session", 2)

    @pytest.mark.parametrize("op", ["sync", "send", "recv"])
    def test_message_op_at_a_choice(self, op):
        s = parse_session("option(0, a(0, 1))", 2)
        pool = pool_from_scripts(2, s, [(1, (BLOCKING_OPS[op]("ep"),)),
                                        (2, (rt.COffer((), ()),))])
        assert _refusal(pool) == \
            (ProtocolMismatch, f"{op} at non-action head option(0, a(0, 1))", 1)

    @pytest.mark.parametrize("op", ["loop", "loop exit", "offer_loop"])
    def test_loop_at_a_message(self, op):
        s = parse_session("a(0, 1)", 2)
        pool = pool_from_scripts(2, s, [(1, (BLOCKING_OPS[op]("ep"),)), (2, (CRecv(),))])
        assert _refusal(pool) == (ProtocolMismatch, f"{op} at a non-repseq head", 1)

    @pytest.mark.parametrize("roles, cmd, text", [
        (0b010, CSend(), "roles {1} cannot send a(0, 1)"),
        (0b100, CSend(), "roles {2} cannot send a(0, 1)"),
        (0b001, CRecv(), "roles {0} cannot receive a(0, 1)"),
        (0b100, CRecv(), "roles {2} cannot receive a(0, 1)"),
    ])
    def test_message_op_by_the_wrong_roles(self, roles, cmd, text):
        s = parse_session("a(0, 1)", 3)
        # the first party runs once the main thread has made the channel and
        # split off the second
        parties = [(roles, (cmd,))] + [(r, (CSync(),)) for r in (1, 2, 4) if r != roles]
        assert _refusal(pool_from_scripts(3, s, parties)) == (RoleMismatch, text, 2)

    @pytest.mark.parametrize("session, roles, op, text", [
        ("option(0, a(0, 1))", 0b10, "choose", "only the deciding role set may choose here"),
        ("a(0, 1)", 0b01, "choose", "only the deciding role set may choose here"),
        ("option(0, a(0, 1))", 0b01, "offer", "the deciding role set cannot offer"),
        ("a(1, 0)", 0b01, "offer", "the deciding role set cannot offer"),
        ("mconj(0, x(1, 0), y(1, 0))", 0b10, "mconj", "mconj requires the deciding role"),
        ("option(0, a(0, 1))", 0b01, "mconj", "mconj requires the deciding role"),
        ("mconj(0, x(1, 0), y(1, 0))", 0b01, "mdisj", "mdisj is for non-deciding role sets"),
        ("a(0, 1)", 0b01, "mdisj", "mdisj is for non-deciding role sets"),
    ])
    def test_decision_op_by_the_wrong_roles(self, session, roles, op, text):
        # the last party runs first, in the thread that makes the channel
        s = parse_session(session, 2)
        pool = pool_from_scripts(2, s, [(0b11 & ~roles, ()), (roles, (BLOCKING_OPS[op]("ep"),))])
        assert _refusal(pool) == (RoleMismatch, text, 1)

    def test_loop_by_the_offering_roles(self):
        # refused at the op, as choose is, not when the choice fires; a loop
        # of no rounds exits at once
        s = parse_session("repseq(0, a(0, 1))", 2)
        for count in (1, 0):
            pool = pool_from_scripts(2, s, [(0b01, (rt.CLoop(count, (CSync(),)),)),
                                            (0b10, (rt.CLoop(count, (CSync(),)),))])
            assert _refusal(pool) == \
                (RoleMismatch, "only the deciding role set may loop here", 1)

    def test_offer_loop_by_the_deciding_roles(self):
        s = parse_session("repseq(0, a(0, 1))", 2)
        pool = pool_from_scripts(2, s, [(0b01, (rt.COfferLoop((CSync(),)),)),
                                        (0b10, (rt.COfferLoop((CSync(),)),))])
        assert _refusal(pool) == \
            (RoleMismatch, "the deciding role set cannot offer a loop", 1)

    def test_choice_without_a_side(self):
        s = parse_session("option(0, a(0, 1))", 2)
        pool = pool_from_scripts(2, s, [(0b01, (CChoose("x"),)),
                                        (0b10, (rt.COffer((), ()),))])
        assert _refusal(pool) == (ProtocolMismatch, "choice fired without a chooser", 1)

    @pytest.mark.parametrize("payload, tag, text", [
        (True, "int", "payload True does not fit tag int"),
        (5, "unit", "payload 5 does not fit tag unit"),
        (5, "str", "payload 5 does not fit tag str"),
    ])
    def test_payload_that_does_not_fit(self, payload, tag, text):
        s = parse_session(f"a(0, 1, {tag})@b(1, 0)", 2)
        pool = pool_from_scripts(2, s, [(1, (CSend(payload), CSync())),
                                        (2, (CRecv(), CSync()))])
        assert _refusal(pool) == (PayloadTypeMismatch, text, 1)

    @pytest.mark.parametrize("session, blocks, fault", [
        ("a(0, 1)", [("choice", "choose", "l"), ("sync", "sync", None)],
         (ProtocolMismatch, "thread 0 blocked on choose but head is a(0, 1)")),
        ("option(0, a(0, 1))", [("choice", "choose", "l"), ("sync", "recv", None)],
         (ProtocolMismatch, "thread 1 blocked on recv but head is a choice")),
        ("mconj(0, x(1, 0), y(1, 0))", [("mconj", "mconj", None), ("sync", "sync", None)],
         (ProtocolMismatch, "thread 1 blocked on sync but head is mconj(0, x(1, 0), y(1, 0))")),
    ])
    def test_block_of_the_wrong_kind(self, session, blocks, fault):
        pool = Pool(2)
        ch = pool.new_channel(norm(parse_session(session, 2)))
        for roles, (kind, op, side) in zip((0b01, 0b10), blocks):
            _raw_party(pool, ch, roles,
                       lambda ep, k=kind, o=op, s=side: rt._Block(k, ep, o, side=s))
        assert _refusal(pool) == (*fault, 0)

    @pytest.mark.parametrize("ops, text", [
        (("recv", "recv"), "thread 0 receives but roles {0} are not the receiver of a(0, 1)"),
        (("send", "send"), "thread 1 sends but roles {1} are not the sender of a(0, 1)"),
    ])
    def test_unchecked_message_block_by_the_wrong_roles(self, ops, text):
        # blocks made without an op's check, as the lambda calculus makes them
        pool = Pool(2)
        ch = pool.new_channel(norm(parse_session("a(0, 1)", 2)))
        for roles, op in zip((0b01, 0b10), ops):
            _raw_party(pool, ch, roles, lambda ep, o=op: rt._Block("sync", ep, o))
        assert _refusal(pool) == (RoleMismatch, text, 0)

    @pytest.mark.parametrize("ops, text", [
        (("mdisj", "mdisj"), "thread 0 holds role 0 and must call mconj"),
        (("mconj", "mconj"), "thread 1 must call mdisj"),
    ])
    def test_unchecked_fork_block_by_the_wrong_roles(self, ops, text):
        pool = Pool(2)
        ch = pool.new_channel(norm(parse_session("mconj(0, x(1, 0), y(1, 0))", 2)))
        for roles, op in zip((0b01, 0b10), ops):
            _raw_party(pool, ch, roles, lambda ep, o=op: rt._Block(
                "mconj", ep, o, side="l", spawn=lambda give: None))
        assert _refusal(pool) == (RoleMismatch, text, 0)


def test_service_role_set_outside_the_universe_is_refused():
    pool = Pool(2)
    with pytest.raises(rl.RoleError, match="role set 0x4 not within universe of 2 roles"):
        pool.service_create("svc", 0b100, parse_session("a(0, 1)", 2), ())
    assert pool.services == {}


def test_norm_is_linear_and_not_recursive():
    # 5000 segments nested either way, past the default recursion limit;
    # built with Append directly, since parse_session recurses per segment
    msgs = [sn.Msg(f"m{i}", i % 2, 1 - i % 2, "unit") for i in range(5000)]
    right = left = sn.Nil()
    for m in reversed(msgs):
        right = sn.Append(m, right)
    for m in msgs:
        left = sn.Append(left, m)
    assert norm(right) == norm(left) == tuple(msgs)


def test_synthesize_is_not_recursive_in_the_session_length():
    # 5000 messages, past the default recursion limit; synthesize recursed
    # once per message
    s = sn.Nil()
    for i in range(5000):
        s = sn.Append(sn.Msg(f"m{i}", i % 2, 1 - i % 2, "unit"), s)
    segs = norm(s)
    res = pool_from_scripts(2, s, [(p, synthesize(segs, p)) for p in (0b01, 0b10)]).run()
    assert res.status == "done"
    assert len(sync_events(res.trace)) == 5000
