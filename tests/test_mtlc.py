import random
from collections import Counter

import pytest

from multirole import mtlc as M
from multirole import roles as rl
from multirole.mtlc import (
    ClassificationImpossible,
    EBool,
    EConst,
    EIf,
    EInt,
    ELam,
    ELet,
    ELLam,
    ELPair,
    EPair,
    ERc,
    EStr,
    EUnit,
    EVar,
    MtlcTypeError,
    TBool,
    TChan,
    TFunL,
    TFunN,
    TInt,
    TIntIdx,
    TLPair,
    TPair,
    TStr,
    TUnit,
    canonical_form,
    compat,
    eval_pool,
    fmt_type,
    free_evars,
    is_linear,
    parse_program,
    rho,
    typecheck,
)
from multirole.runtime import Endpoint, Pool, sync_events
from multirole.session import parse_session

from helpers import rho_recount, typecheck_declarative

SES = '(chan {0} "a(0,1)@b(1,0)")'


def prog(src, n=2):
    return parse_program(src, n)


class TestRho:
    def rand_expr(self, rng, eps, depth):
        if depth == 0:
            return rng.choice([EUnit(), EInt(3), ERc(rng.choice(eps))])
        pick = rng.randrange(6)
        sub = lambda: self.rand_expr(rng, eps, depth - 1)
        match pick:
            case 0:
                return ELPair(sub(), sub())
            case 1:
                return EConst("iadd", (sub(), sub()))
            case 2:
                return ELet("x", "y", sub(), sub())
            case 3:
                return ELLam("z", TUnit(), sub())
            case 4:
                return M.EApp(sub(), sub())
            case _:
                b = sub()
                return EIf(EBool(True), b, b)

    def test_rho_matches_oracle(self):
        rng = random.Random(5)
        pool = Pool(2)
        ch = pool.new_channel(M.norm(parse_session("a(0, 1)", 2)))
        eps = [Endpoint(ch, 1) for _ in range(4)]
        for _ in range(100):
            e = self.rand_expr(rng, eps, rng.randrange(1, 5))
            assert rho(e) == rho_recount(e)

    def test_if_branches_counted_once(self):
        pool = Pool(2)
        ch = pool.new_channel(M.norm(parse_session("a(0, 1)", 2)))
        ep = Endpoint(ch, 1)
        e = EIf(EBool(True), ERc(ep), ERc(ep))
        assert rho(e) == Counter({ep.eid: 1})

    def test_deeper_than_recursion_limit(self):
        pool = Pool(2)
        ch = pool.new_channel(M.norm(parse_session("a(0, 1)", 2)))
        ep = Endpoint(ch, 1)
        e = ERc(ep)
        for i in range(5000):
            e = EConst("iadd", (e, EInt(i)))
        assert rho(e) == Counter({ep.eid: 1})


def iadd_chain(depth: int, bottom=EInt(0)):
    """(iadd (iadd ... bottom 1) 1), depth applications deep."""
    e = bottom
    for _ in range(depth):
        e = EConst("iadd", (e, EInt(1)))
    return e


class TestDepth:
    """Every traversal spends one frame per level of nesting, so these fit
    under the default recursion limit of 1000 frames."""

    def test_typecheck_iadd_chain(self):
        assert typecheck(iadd_chain(900)) == TIntIdx(900)

    def test_typecheck_application_chain(self):
        e = EInt(0)
        for _ in range(400):
            e = M.EApp(ELam("y", TInt(), EVar("y")), e)
        assert typecheck(e) == TInt()

    def test_esubst_iadd_chain(self):
        e = M.esubst(iadd_chain(400, EVar("x")), "x", EInt(7))
        depth = 0
        while isinstance(e, EConst):  # == would recurse twice per level
            e, depth = e.args[0], depth + 1
        assert (e, depth) == (EInt(7), 400)

    def test_eval_pool_iadd_chain(self):
        res, value = eval_pool(iadd_chain(400))
        assert (res.status, value) == ("done", EInt(400))


class TestDispatch:
    def test_every_expression_class_has_a_rule(self):
        classes = set(M.Expr.__args__)
        for table in (M._CHECK, M._SUBST, M._IS_VALUE, M._DECOMPOSE):
            assert set(table) == classes
        assert set(M._SIGS) == M.CONSTS

    @pytest.mark.parametrize("e", [7, EPair(EInt(1), 7)])
    def test_unknown_node(self, e):
        with pytest.raises(MtlcTypeError, match=r"^\(ty\) unknown expression 7$"):
            typecheck(e)
        with pytest.raises(TypeError, match=r"^unknown expression 7$"):
            M.esubst(e, "x", EInt(0))
        assert not M.is_value(e)
        with pytest.raises(M.StuckNonRedex, match=r"^cannot decompose 7$"):
            M._decompose(e)

    def test_constant_faults(self):
        with pytest.raises(MtlcTypeError, match=r"^\(iadd\) expects 2 arguments, got 1$"):
            typecheck(EConst("iadd", (EInt(1),)))
        with pytest.raises(MtlcTypeError, match=r"^\(chan_send\) expects 2 arguments, got 0$"):
            M.sig_result("chan_send", [], 2)
        with pytest.raises(MtlcTypeError, match=r"^\(nope\) unknown constant$"):
            typecheck(EConst("nope", ()))
        with pytest.raises(rl.RoleError, match="universe size"):
            typecheck(EConst("randbit", ()), n=0)


class TestTypes:
    def test_linearity_split(self):
        assert is_linear(TChan(1, ()))
        assert is_linear(TLPair(TInt(), TInt()))
        assert is_linear(TFunL(TUnit(), TUnit()))
        assert not is_linear(TPair(TInt(), TBool()))
        assert not is_linear(TFunN(TUnit(), TUnit()))

    def test_compat_subsumption(self):
        assert compat(TIntIdx(7), TInt())
        assert not compat(TInt(), TIntIdx(7))
        assert compat(TPair(TIntIdx(1), TBool()), TPair(TInt(), TBool()))
        assert compat(TLPair(TIntIdx(0), TUnit()), TLPair(TInt(), TUnit()))
        assert not compat(TBool(), TInt())

    def test_fmt_roundtrip_via_parser(self):
        types = ["bool", "int", "(int 3)", "str", "1",
                 f"(-> int bool)", f"(-o 1 1)",
                 "(pair int str)", "(tensor int 1)",
                 '(chan {0,1} "a(0,1)@b(1,0)")']
        for t in types:
            ty = M.parse_type(M._atoms(t), 2)
            assert fmt_type(ty)


class TestTypecheck:
    def test_literals(self):
        assert typecheck(prog("42")) == TIntIdx(42)
        assert typecheck(prog("true")) == TBool()
        assert typecheck(prog('"hi"')) == TStr()
        assert typecheck(prog("unit")) == TUnit()

    def test_iadd_index_arithmetic(self):
        assert typecheck(prog("(iadd 2 3)")) == TIntIdx(5)
        e = prog("(iadd 2 (if (randbit) 1 2))")
        assert typecheck(e) == TInt()

    def test_lam_app(self):
        e = prog("(app (lam (x int) (iadd x 1)) 4)")
        assert typecheck(e) == TInt()

    def test_llam_consumes_channel(self):
        e = prog(f"(llam (c {SES}) (chan_sync (chan_send c unit)))")
        t = typecheck(e)
        assert isinstance(t, TFunL) and t.cod == TUnit()

    def test_linear_double_use_rejected(self):
        e = prog(f"(llam (c {SES}) (tensor c c))")
        with pytest.raises(MtlcTypeError, match="ty-var"):
            typecheck(e)

    def test_linear_unused_rejected(self):
        e = prog(f"(llam (c {SES}) unit)")
        with pytest.raises(MtlcTypeError):
            typecheck(e)

    def test_nonlinear_lam_cannot_capture_linear(self):
        e = prog(f"(llam (c {SES}) (app (lam (u 1) (chan_send c unit)) unit))")
        with pytest.raises(MtlcTypeError, match="ty-lam-i|ty-var"):
            typecheck(e)

    def test_if_branches_must_agree_on_linear_use(self):
        e = prog(f"(llam (c {SES}) (if true (chan_sync (chan_send c unit)) unit))")
        with pytest.raises(MtlcTypeError, match="ty-if|ty-"):
            typecheck(e)

    def test_fix_rejects_linear_type(self):
        e = prog(f"(fix (f (-o 1 1)) (llam (u 1) u))")
        with pytest.raises(MtlcTypeError, match="ty-fix"):
            typecheck(e)

    def test_send_on_recv_position_rejected(self):
        e = prog('(llam (c (chan {1} "a(0,1)@b(1,0)")) '
                 '(chan_sync (chan_send c unit)))')
        with pytest.raises(MtlcTypeError, match="do not send"):
            typecheck(e)

    def test_sync_only_on_final_action(self):
        e = prog(f"(llam (c {SES}) (chan_sync c))")
        with pytest.raises(MtlcTypeError, match="final"):
            typecheck(e)

    def test_cut_role_complementarity(self):
        e = prog('(llam (a (chan {0} "m(0,1)")) (llam (b (chan {0} "m(0,1)")) '
                 '(chan_2_cut a b)))', 2)
        with pytest.raises(MtlcTypeError, match="complementary"):
            typecheck(e)

    def test_pool_of_constants(self):
        t = typecheck(prog("(thread_create (llam (u 1) unit))"))
        assert t == TUnit()


class TestDeclarativeAgreement:
    def rand_term(self, rng, depth):
        if depth == 0:
            return rng.choice(
                [EVar("i"), EVar("u"), EVar("v"), EInt(1), EUnit(), EBool(False)])
        sub = lambda: self.rand_term(rng, depth - 1)
        match rng.randrange(7):
            case 0:
                return EPair(sub(), sub())
            case 1:
                return ELPair(sub(), sub())
            case 2:
                return M.EApp(sub(), sub())
            case 3:
                return ELet("u", "v", sub(), sub())
            case 4:
                return EIf(sub(), sub(), sub())
            case 5:
                return EConst("iadd", (sub(), sub()))
            case _:
                return ELLam("u", TLPair(TInt(), TUnit()), sub())

    def test_fuzz_cross_check(self):
        rng = random.Random(11)
        gamma = {"i": TInt()}
        agreed = 0
        for _ in range(300):
            e = self.rand_term(rng, rng.randrange(1, 4))
            delta = {"u": TLPair(TInt(), TUnit()),
                     "v": TFunL(TUnit(), TUnit())} if rng.random() < 0.5 else {}
            try:
                t1 = typecheck(e, gamma, delta)
            except MtlcTypeError:
                t1 = None
            try:
                t2 = typecheck_declarative(e, gamma, delta)
            except MtlcTypeError:
                t2 = None
            assert (t1 is None) == (t2 is None), (e, t1, t2)
            if t1 is not None:
                assert t1 == t2
                agreed += 1
        assert agreed >= 10  # the generator must produce typable terms too


class TestFreshNames:
    def test_shadowing_binder_name_is_history_independent(self):
        src = f"(llam (c {SES}) (llam (c {SES}) unit))"
        msgs = []
        for _ in range(2):
            with pytest.raises(MtlcTypeError) as exc:
                typecheck(prog(src))
            msgs.append(str(exc.value))
        assert msgs == ["(ty-lam-l) linear parameter c~1 unused"] * 2

    def test_capturing_binder_takes_smallest_free_name(self):
        def lam_y(*free):
            return ELam("y", TInt(), EConst("iadd", (EVar("x"), EVar("y")) + free))

        assert M.esubst(lam_y(), "x", EVar("y")) == ELam(
            "y~1", TInt(), EConst("iadd", (EVar("y"), EVar("y~1"))))
        assert M.esubst(lam_y(EVar("y~1")), "x", EVar("y")) == ELam(
            "y~2", TInt(), EConst("iadd", (EVar("y"), EVar("y~2"), EVar("y~1"))))


class TestCanonicalForms:
    def test_classification(self):
        assert canonical_form(EUnit(), TUnit()) == "unit"
        assert canonical_form(EInt(3), TInt()) == "int"
        assert canonical_form(ELPair(EInt(1), EUnit()),
                              TLPair(TInt(), TUnit())) == "tensor-pair"
        assert canonical_form(ELam("x", TInt(), EVar("x")),
                              TFunN(TInt(), TInt())) == "lam"

    def test_mismatch_impossible(self):
        with pytest.raises(ClassificationImpossible):
            canonical_form(EInt(3), TBool())
        with pytest.raises(ClassificationImpossible):
            canonical_form(M.EApp(ELam("x", TInt(), EVar("x")), EInt(1)), TInt())


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

LOOP = '''
(app (fix (loop (-> int 1))
   (lam (k int)
     (if (randbit) unit (app loop (iadd k 1)))))
 0)
'''


class TestEval:
    def test_pure_arithmetic(self):
        res, val = eval_pool(prog("(iadd 1 (iadd 2 3))"))
        assert res.status == "done"
        assert val == EInt(6)

    def test_ping_pong_with_per_step_retyping(self):
        e = prog(PING_PONG)
        assert typecheck(e) == TInt()
        res, val = eval_pool(e, seed=3, retype_every_step=True)
        assert res.status == "done"
        assert val == EInt(42)
        evs = sync_events(res.trace)
        assert [ev["label"] for ev in evs] == ["ping", "pong"]
        assert all(ok for _, ok in res.pool.audit_log)

    def test_mconj_forks_two_channels(self):
        e = prog(MCONJ)
        res, val = eval_pool(e, seed=1, retype_every_step=True)
        assert res.status == "done"
        assert any(ev["rule"] == "PR5" for ev in res.trace)

    def test_cut_forwarding(self):
        e = prog(CUT2)
        res, _ = eval_pool(e, seed=4, retype_every_step=True)
        assert res.status == "done"
        labels = [ev["label"] for ev in sync_events(res.trace)]
        assert labels[-2:] == ["m", "r"]
        assert all(ok for _, ok in res.pool.audit_log)

    def test_fix_randbit_loop_terminates(self):
        e = prog(LOOP)
        res, val = eval_pool(e, seed=9, retype_every_step=True)
        assert res.status == "done"
        assert val == EUnit()

    def test_thread_create(self):
        e = prog("(app (llam (u 1) unit) (thread_create (llam (u 1) unit)))")
        res, val = eval_pool(e, retype_every_step=True)
        assert res.status == "done"
        assert len(res.pool.threads) == 2

    def test_determinism(self):
        outs = {eval_pool(prog(PING_PONG), seed=7)[1] for _ in range(5)}
        assert outs == {EInt(42)}


class TestParser:
    def test_errors(self):
        for bad in ["(frobnicate 1)", "(lam x x)", "(((("]:
            with pytest.raises(MtlcTypeError, match="parse"):
                prog(bad)
        # arity faults surface at typechecking, not parsing
        with pytest.raises(MtlcTypeError, match="arguments"):
            typecheck(prog("(chan_send)"))

    def test_free_evars(self):
        e = prog("(llam (x 1) (tensor x y))")
        assert free_evars(e) == {"y"}
