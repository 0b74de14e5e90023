"""End-to-end acceptance gate: one test (and one pass/fail line) per criterion."""

import random
import time
from collections import Counter

import pytest

from multirole import kernel as K
from multirole import logic as lg
from multirole import mtlc as M
from multirole import roles as rl
from multirole import runtime as rt
from multirole import session as sn
from multirole.logic import Atom, Conj, IFormula, Neg, seq_equal, seq_minus
from multirole.roles import Endo, Ultra

from helpers import (
    decisions_view,
    mp_cut_fold,
    preset_decisions,
    rand_formula,
    rand_partition,
    rand_session,
    scripted_parties,
)

EX1 = ("title(1, 0)@quote(0, 1)@quote(0, 2)@"
       "contrib(1, 2)@option(2, proof(2, 0)@receipt(0, 2))")
EX2 = "userid(0, 1)@userid(1, 2)@repseq(2, query(2, 0)@answer(0, 2))@result(2, 1)"
EX3 = "query(0)@(mconj(0, answer(1, 0)@score(0, 1), answer(2, 0)@score(0, 2)))"


def run_example(text, n, decisions=None, seed=0):
    s = sn.parse_session(text, n)
    parts = [1 << r for r in range(n)]
    parties = scripted_parties(s, parts, decisions)
    return rt.pool_from_scripts(n, s, parties, seed=seed).run()


def _cut_free(d):
    return not any(r.startswith("cut") for r in K.rule_tags(d))


def _cut_fuzz(trials, seed=0):
    """Random admissible inputs for all four cut-elimination entry points."""
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.choice([2, 3])
        calc = K.LMRL(n)
        a = rand_formula(rng, calc, n, rng.randrange(4))
        full = rl.full_set(n)

        parts = rand_partition(rng, n, 2)
        d = K.axiom_multi(a, parts, calc)
        R = parts[0]
        sub = rng.randrange(1 << n) & R
        e = K.split_roles(d, d.conclusion.index(IFormula(R, a)),
                          sub, R & ~sub, calc)
        K.check(e, calc)
        assert _cut_free(e)
        assert seq_equal(e.conclusion, (IFormula(sub, a),
                                        IFormula(R & ~sub, a),
                                        IFormula(parts[1], a)))

        R1 = rng.randrange(1 << n)
        R2 = (full & ~R1) | (rng.randrange(1 << n) & R1)
        d1 = K.axiom_multi(a, [R1, full & ~R1], calc)
        d2 = K.axiom_multi(a, [R2, full & ~R2], calc)
        e = K.cut2_residual(d1, d1.conclusion.index(IFormula(R1, a)),
                            d2, d2.conclusion.index(IFormula(R2, a)), calc)
        K.check(e, calc)
        assert _cut_free(e)
        assert seq_equal(e.conclusion, (IFormula(full & ~R1, a),
                                        IFormula(full & ~R2, a),
                                        IFormula(R1 & R2, a)))

        d = K.axiom_multi(a, [0, full], calc)
        e = K.cut1(d, d.conclusion.index(IFormula(0, a)), calc)
        K.check(e, calc)
        assert _cut_free(e)
        assert seq_equal(e.conclusion, (IFormula(full, a),))

        k = rng.choice([2, 3])
        comps = rand_partition(rng, n, k)
        ds, idxs = [], []
        for c in comps:
            dd = K.axiom_multi(a, [full & ~c, c], calc)
            ds.append(dd)
            idxs.append(dd.conclusion.index(IFormula(full & ~c, a)))
        e = K.mp_cut(ds, idxs, calc)
        K.check(e, calc)
        assert _cut_free(e)
        assert seq_equal(e.conclusion, tuple(IFormula(c, a) for c in comps))
        f = mp_cut_fold(ds, idxs, calc)
        K.check(f, calc)
        assert _cut_free(f)
        assert seq_equal(f.conclusion, e.conclusion)


def test_criterion_01_kernel_soundness_fuzz():
    start = time.monotonic()
    _cut_fuzz(500, seed=0)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    print("criterion 1: PASS")


def test_criterion_02_reduction_case_coverage():
    K.reset_case_hits()
    _cut_fuzz(500, seed=0)
    missing = {lab: c for lab, c in K.case_hits.items() if c < 20}
    assert len(K.case_hits) == 14
    assert not missing, f"undersampled reduction cases: {missing}"
    print("criterion 2: PASS")


def test_criterion_03_permutation_and_de_morgan_identities():
    swap = Endo((1, 0))
    assert swap.order() == 2
    assert Endo((1, 2, 0)).order() == 3

    calc = K.LMRL(2)
    rng = random.Random(3)
    for _ in range(20):
        a = Atom(rng.choice("pqr"))
        if rng.random() < 0.5:
            a = Neg(rng.choice([Endo((0, 1)), swap]), a)
        b = Neg(swap, Neg(swap, a))
        r = rng.choice([1, 2, 3])
        for x, y in ((a, b), (b, a)):
            assert K.entailment(x, y, r, calc, 6) is not None

    mrl = K.MRL(2)
    a, b = Atom("a"), Atom("b")
    for f in (Endo((0, 1)), swap):
        for u in (Ultra(0), Ultra(1)):
            lhs = Neg(f, Conj(u, a, b))
            rhs = Conj(rl.push_ultra(f, u), Neg(f, a), Neg(f, b))
            for r in (1, 2, 3):
                assert K.entailment(lhs, rhs, r, mrl, 6) is not None
                assert K.entailment(rhs, lhs, r, mrl, 6) is not None
    print("criterion 3: PASS")


def test_criterion_04_non_theorems_stay_unprovable():
    calc = K.LMRL(3)
    a = Atom("a")
    found = K.search((IFormula(1, a), IFormula(2, a), IFormula(4, a)), calc, 4)
    assert found is not None
    K.check(found, calc)
    assert K.search((IFormula(3, a),), calc, 8) is None
    print("criterion 4: PASS")


def test_criterion_05_example1_both_branches_100_seeds():
    for side, events in (("l", 7), ("r", 5)):
        traces = set()
        for seed in range(100):
            res = run_example(EX1, 3, {4: rt.Decisions(sides=[side])}, seed)
            assert res.status == "done"
            assert len(rt.sync_events(res.trace)) == events
            traces.add(rt.trace_jsonl(res.trace))
        assert len(traces) == 1
    print("criterion 5: PASS")


def test_criterion_06_example2_loop_counts():
    for k in (0, 1, 5):
        res = run_example(EX2, 3, {4: rt.Decisions(loops=[k])})
        assert res.status == "done"
        assert len(rt.sync_events(res.trace)) == 4 + 2 * k
    print("criterion 6: PASS")


def test_criterion_07_example3_fork_counters():
    for seed in range(20):
        res = run_example(EX3, 3, seed=seed)
        assert res.status == "done"
        pr5 = [e for e in res.trace if e["rule"] == "PR5"]
        assert len(pr5) == 1 and len(pr5[0]["chans"]) == 2
        assert res.pool._next_tid == 5  # 3 parties + 2 fork-spawned
        done_msgs = sorted((e["label"], e["to"]) for e in rt.sync_events(res.trace)
                           if e["action"] == "msg")
        assert done_msgs == [("answer", 0), ("answer", 0),
                             ("score", 1), ("score", 2)]
    print("criterion 7: PASS")


def test_criterion_08_relaxedness_preservation():
    # the worked examples stay relaxed at every step
    for text, dec in ((EX1, {4: rt.Decisions(sides=["l"])}),
                      (EX1, {4: rt.Decisions(sides=["r"])}),
                      (EX2, {4: rt.Decisions(loops=[5])}),
                      (EX3, None)):
        res = run_example(text, 3, dec)
        assert res.status == "done"
        assert all(ok for _, ok in res.pool.audit_log)

    # 200 random scripted protocols started channel-free
    rng = random.Random(8)
    for i in range(200):
        n = rng.choice([2, 3])
        s = rand_session(rng, n, 2)
        k = rng.randrange(1, n + 1)
        parts = rand_partition(rng, n, k)
        parts = [p for p in parts if p] or [rl.full_set(n)]
        parties = scripted_parties(
            s, parts, {p: rt.Decisions(rng=random.Random(i * 13 + p))
                       for p in parts})
        pool = rt.pool_from_scripts(n, s, parties, seed=i)
        res = pool.run()
        assert res.status == "done", (sn.fmt_session(s), res.detail)
        assert all(ok for _, ok in pool.audit_log)

    # the two-channels-at-once counterexample: 4 < 5, recv-first deadlocks
    pool = rt.Pool(2, allow_demo=True)
    s1 = sn.parse_session("first(0, 1)", 2)
    s2 = sn.parse_session("second(1, 0)", 2)
    m1, m2 = pool.chan2_create_demo(2, s1, 2, s2,
                                    (rt.CSync(reg="ep"), rt.CSync(reg="ep2")))
    pool.add_script_thread((rt.CSync(reg="b"), rt.CSync(reg="a")),
                           {"a": m1, "b": m2})
    assert pool.live_threads() + pool.live_channels() == 4
    assert pool.live_endpoints() + 1 == 5
    assert not pool.relaxed()
    assert pool.run().status == "deadlock"
    print("criterion 8: PASS")


def test_criterion_09_forwarder_transparency():
    rng = random.Random(9)
    for i in range(50):
        s = rand_session(rng, 3, 2, allow_fork=False)
        decs = preset_decisions(rng, [1, 2, 4])

        direct_parties = scripted_parties(s, [1, 2, 4], decisions_view(decs))
        direct = rt.pool_from_scripts(3, s, direct_parties, seed=i).run()
        assert direct.status == "done", (sn.fmt_session(s), direct.detail)

        pool = rt.Pool(3, seed=i)
        segs = rt.norm(s)
        view = decisions_view(decs)
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
        res = pool.run()
        assert res.status == "done", (sn.fmt_session(s), res.detail)
        assert rt.message_keys(res.trace) == rt.message_keys(direct.trace)
    print("criterion 9: PASS")


# ------------------------------------------------------------- criterion 10


def _rho_oracle(e):
    out = Counter()
    stack = [e]
    while stack:
        cur = stack.pop()
        match cur:
            case M.ERc(ep):
                out[ep.eid] += 1
            case (M.ELPair(a, b) | M.EPair(a, b) | M.EApp(a, b)
                  | M.ELet(_, _, a, b)):
                stack += [a, b]
            case (M.ELLam(_, _, b) | M.ELam(_, _, b) | M.EFix(_, _, b)
                  | M.EFst(b) | M.ESnd(b)):
                stack.append(b)
            case M.EConst(_, args):
                stack += list(args)
            case M.EIf(c, a, _):
                stack += [c, a]
    return out


def _rand_rho_expr(rng, eps, depth):
    if depth == 0:
        return rng.choice([M.EUnit(), M.EInt(1), M.ERc(rng.choice(eps))])
    sub = lambda: _rand_rho_expr(rng, eps, depth - 1)
    match rng.randrange(6):
        case 0:
            return M.ELPair(sub(), sub())
        case 1:
            return M.EConst("iadd", (sub(), sub()))
        case 2:
            return M.ELet("x", "y", sub(), sub())
        case 3:
            return M.ELLam("z", M.TUnit(), sub())
        case 4:
            return M.EApp(sub(), sub())
        case _:
            b = sub()
            return M.EIf(M.EBool(True), b, b)


SES = '(chan {0} "a(0,1)@b(1,0)")'

GOLDEN_SRC = [
    # accepted programs: (source, expected type)
    ("42", M.TIntIdx(42)),
    ('"hi"', M.TStr()),
    ("(iadd 2 3)", M.TIntIdx(5)),
    ("(iadd 2 (if (randbit) 1 2))", M.TInt()),
    ("(app (lam (x int) (iadd x x)) 5)", M.TInt()),
    ("(lam (x int) x)", M.TFunN(M.TInt(), M.TInt())),
    ("(llam (u 1) u)", M.TFunL(M.TUnit(), M.TUnit())),
    ("(pair 1 true)", M.TPair(M.TIntIdx(1), M.TBool())),
    ("(tensor 1 unit)", M.TLPair(M.TIntIdx(1), M.TUnit())),
    ("(fst (pair 1 true))", M.TIntIdx(1)),
    ("(snd (pair 1 \"s\"))", M.TStr()),
    ("(let (a b) (tensor 1 unit) (iadd a 0))", M.TIntIdx(1)),
    ("(app (llam (u 1) 5) unit)", M.TIntIdx(5)),
    ("(thread_create (llam (u 1) unit))", M.TUnit()),
    (f"(llam (c {SES}) (chan_sync (chan_send c unit)))", None),
    ('(llam (c (chan {1} "a(0,1)@b(1,0)")) '
     '(let (v k) (chan_recv c) (chan_sync k)))', None),
    ('(app (fix (loop (-> int 1)) (lam (k int) '
     '(if (randbit) unit (app loop (iadd k 1))))) 0)', M.TUnit()),
    ('(llam (c (chan {0} "(mconj(0, x(0,1), y(0,1)))")) '
     '(let (a b) (chan_mconj c) '
     '(app (llam (u 1) (chan_sync b)) (chan_sync a))))', None),
    ('(llam (c (chan {0} "option(0, m(0,1))")) (chan_sync (chan_aconj_l c)))',
     None),
    ('(llam (a (chan {0} "m(0,1,int)@r(1,0)")) '
     '(llam (b (chan {1,2} "m(0,1,int)@r(1,0)")) (chan_2_cut a b)))', None),
    # rejected programs: (source, expected rule fragment)
    (f"(llam (c {SES}) (tensor c c))", "ty-var"),
    (f"(llam (c {SES}) unit)", "ty-lam-l"),
    (f"(llam (c {SES}) (app (lam (u 1) (chan_send c unit)) unit))", "ty-"),
    ("(pair (llam (u 1) u) 1)", "ty-pair"),
    ("(fst 1)", "ty-fst"),
    ("(app 1 2)", "ty-app"),
    ("(app (lam (x int) x) true)", "ty-app"),
    ("(if 1 2 3)", "ty-if"),
    ("(if true 1 unit)", "ty-if"),
    ("nope", "ty-var"),
    ("(fix (f (-o 1 1)) (llam (u 1) u))", "ty-fix"),
    ("(fix (f (-> int int)) (app f 1))", "ty-fix"),
    ("(let (a b) 1 unit)", "ty-let"),
    ('(llam (c (chan {1} "a(0,1)@b(1,0)")) (chan_sync (chan_send c unit)))',
     "chan_send"),
    (f"(llam (c {SES}) (chan_sync c))", "chan_sync"),
    ('(llam (a (chan {0} "m(0,1)")) (llam (b (chan {0} "m(0,1)")) '
     '(chan_2_cut a b)))', "chan_2_cut"),
    ('(llam (c (chan {0} "a(0,1,int)@b(1,0)")) (chan_sync (chan_send c true)))',
     "chan_send"),
    ('(llam (c (chan {0} "a(0,1)@b(1,0)")) (chan_sync (chan_skip c)))',
     "chan_skip"),
]

PING_PONG = '''
(let (v c2)
     (chan_recv (chan_create (llam (c (chan {0} "ping(0,1,int)@pong(1,0)"))
        (chan_sync (chan_send c 41)))))
  (app (llam (u 1) (iadd v 1)) (chan_sync c2)))
'''

MCONJ = '''
(let (a b)
    (chan_mconj (chan_send
       (chan_create (llam (c (chan {1} "q(0)@(mconj(0, x(1,0), y(1,0)))"))
          (let (u c2) (chan_recv c)
             (chan_sync (chan_mdisj_l c2
                (llam (g (chan {1} "y(1,0)")) (chan_sync g)))))))
       unit))
  (app (llam (u 1) (chan_sync b)) (chan_sync a)))
'''

CUT2 = '''
(app (llam (u 1)
   (chan_2_cut
      (chan_create (llam (c (chan {0} "m(0,1,int)@r(1,0)"))
         (chan_sync (chan_send c 5))))
      (chan_create (llam (d (chan {1} "m(0,1,int)@r(1,0)"))
         (let (v d2) (chan_recv d) (app (llam (w int) (chan_sync d2)) v))))))
 unit)
'''

_PAYLOAD_LIT = {"unit": M.EUnit(), "int": M.EInt(7), "str": M.EStr("x")}


def _consume(cursor, roleset, chan_expr, ctr):
    """Mechanically build the expression a party runs on one endpoint."""
    if len(cursor) == 1:
        return M.EConst("chan_sync", (chan_expr,))
    head = cursor[0]
    kind = sn.next_actions(head, roleset).kind
    if kind == "send":
        nxt = M.EConst("chan_send", (chan_expr, _PAYLOAD_LIT[head.payload]))
        return _consume(cursor[1:], roleset, nxt, ctr)
    if kind == "skip":
        return _consume(cursor[1:], roleset,
                        M.EConst("chan_skip", (chan_expr,)), ctr)
    ctr[0] += 1
    v, k = f"v{ctr[0]}", f"k{ctr[0]}"
    return M.ELet(v, k, M.EConst("chan_recv", (chan_expr,)),
                  _consume(cursor[1:], roleset, M.EVar(k), ctr))


def _rand_chain_program(rng):
    """A random two-party message chain run through chan_create."""
    n = 2
    length = rng.randrange(1, 5)
    segs = tuple(sn.Msg(rng.choice("abcde"), (frm := rng.randrange(n)),
                        1 - frm, rng.choice(["unit", "int", "str"]))
                 for _ in range(length))
    inner_roles = 1 << rng.randrange(n)
    outer_roles = rl.full_set(n) & ~inner_roles
    ctr = [0]
    inner = M.ELLam("c0", M.TChan(inner_roles, segs),
                    _consume(segs, inner_roles, M.EVar("c0"), ctr))
    return _consume(segs, outer_roles, M.EConst("chan_create", (inner,)), ctr)


def test_criterion_10_mtlc_suite():
    start = time.monotonic()

    # rho against an independent structural oracle, 100 expressions
    rng = random.Random(10)
    pool = rt.Pool(2)
    ch = pool.new_channel(rt.norm(sn.parse_session("a(0, 1)", 2)))
    eps = [rt.Endpoint(ch, 1) for _ in range(4)]
    for _ in range(100):
        e = _rand_rho_expr(rng, eps, rng.randrange(1, 5))
        assert M.rho(e) == _rho_oracle(e)

    # 40-program golden corpus
    corpus = [(M.parse_program(src, 3), want) for src, want in GOLDEN_SRC]
    ep = rt.Endpoint(ch, 1)
    corpus.append((M.EIf(M.EBool(True), M.ERc(ep), M.EUnit()), "ty-if"))
    corpus.append((M.ELam("x", M.TInt(), M.ERc(ep)), "ty-lam-i"))
    assert len(corpus) == 40
    for e, want in corpus:
        if isinstance(want, str):
            with pytest.raises(M.MtlcTypeError) as exc:
                M.typecheck(e, n=3)
            assert want in str(exc.value)
        else:
            ty = M.typecheck(e, n=3)
            if want is not None:
                assert ty == want

    # 50 well-typed pools under per-step retyping, never stuck
    fixed = [(PING_PONG, M.EInt(42)), (MCONJ, None), (CUT2, None)]
    for i, (src, want) in enumerate(fixed):
        e = M.parse_program(src, 2)
        res, val = M.eval_pool(e, seed=i, retype_every_step=True)
        assert res.status == "done"
        if want is not None:
            assert val == want
    rng = random.Random(11)
    for i in range(47):
        e = _rand_chain_program(rng)
        assert M.typecheck(e, n=2) == M.TUnit()
        res, val = M.eval_pool(e, seed=i, retype_every_step=True)
        assert res.status == "done", res.detail
        assert val == M.EUnit()
        assert all(ok for _, ok in res.pool.audit_log)

    elapsed = time.monotonic() - start
    assert elapsed < 120, f"budget exceeded: {elapsed:.1f}s"
    print("criterion 10: PASS")
