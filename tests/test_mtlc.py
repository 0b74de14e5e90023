import gc
import random
import sys
import weakref
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
    is_linear,
    parse_program,
    rho,
    typecheck,
)
from multirole import runtime as rt
from multirole.runtime import Endpoint, Pool, sync_events
from multirole.session import SessionError, norm, parse_session

import helpers
from helpers import (
    SubstThread,
    chain_program,
    esubst,
    free_evars,
    python_calls,
    rand_mtlc_program,
    rho_recount,
    subst_eval_pool,
    typecheck_declarative,
    work_bound,
)

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

    def test_shared_subterms(self):
        # 2^60 paths through 61 distinct nodes
        pool = Pool(2)
        ch = pool.new_channel(M.norm(parse_session("a(0, 1)", 2)))
        ep = Endpoint(ch, 1)
        e, r = EConst("iadd", (EVar("x"), EInt(1))), EConst("iadd", (ERc(ep), EInt(1)))
        for _ in range(60):
            e, r = EIf(EBool(True), e, e), EIf(EBool(True), r, r)
        assert free_evars(e) == {"x"}
        assert M.resources(r) == (ep.eid,)

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
        e = esubst(iadd_chain(400, EVar("x")), "x", EInt(7))
        depth = 0
        while isinstance(e, EConst):  # == would recurse twice per level
            e, depth = e.args[0], depth + 1
        assert (e, depth) == (EInt(7), 400)

    def test_eval_pool_iadd_chain(self):
        res, value = eval_pool(iadd_chain(400))
        assert (res.status, value) == ("done", EInt(400))

    def test_typecheck_cut_of_two_deep_endpoints(self):
        # the cut compares the two endpoints' sessions, 2000 messages deep
        assert sys.getrecursionlimit() <= 1000
        s = "aconj(0, %s, nil)" % "@".join(["m(0, 1)", "n(1, 0, int)"] * 1000)
        ty = typecheck(prog(f'(llam (a (chan {{0}} "{s}")) (llam (b (chan {{1}} "{s}")) '
                            f'(chan_2_cut a b)))'))
        cursor = norm(parse_session(s, 2))
        assert ty == TFunL(TChan(1, cursor), TFunL(TChan(2, cursor), TUnit()))
        assert fmt_type(ty).count("@") == 3998

    def test_retyped_eval_pool_iadd_chain(self):
        # noting the judgements costs no frame beyond typing's one per level
        res, value = eval_pool(iadd_chain(600), retype_every_step=True)
        assert (res.status, value) == ("done", EInt(600))

    # The machine loops, so only memory bounds how deep a program it runs
    # (eval_pool would typecheck these first, and typecheck recurses).
    def test_machine_iadd_chain(self):
        pool = Pool(2)
        mt = M.MtlcThread(pool, iadd_chain(5000))
        assert pool.run().status == "done"
        assert mt.expr == EInt(5000)

    def test_machine_application_chain(self):
        e = EInt(7)
        for _ in range(5000):
            e = M.EApp(ELam("y", TInt(), EVar("y")), e)
        pool = Pool(2)
        mt = M.MtlcThread(pool, e)
        assert pool.run().status == "done"
        assert mt.expr == EInt(7)


class TestDispatch:
    def test_every_expression_class_has_a_rule(self):
        classes = set(M.Expr.__args__)
        for table in (helpers._SUBST, M._IS_VALUE, helpers._DECOMPOSE):
            assert set(table) == classes
        # closures are typed as the terms they stand for
        assert set(M._CHECK) == classes | {M.Clo}
        assert set(M._SHAPE) == classes - {EVar, ERc, EUnit, EBool, EInt, EStr}
        assert set(M._SIGS) == M.CONSTS

    @pytest.mark.parametrize("e", [7, EPair(EInt(1), 7)])
    def test_unknown_node(self, e):
        with pytest.raises(MtlcTypeError, match=r"^\(ty\) unknown expression 7$"):
            typecheck(e)
        with pytest.raises(TypeError, match=r"^unknown expression 7$"):
            esubst(e, "x", EInt(0))
        assert not M.is_value(e)
        with pytest.raises(M.StuckNonRedex, match=r"^cannot decompose 7$"):
            helpers._decompose(e)
        pool = Pool(2)
        M.MtlcThread(pool, e)
        with pytest.raises(M.StuckNonRedex, match=r"^cannot decompose 7$"):
            pool.run()

    def test_constant_faults(self):
        with pytest.raises(MtlcTypeError, match=r"^\(iadd\) expects 2 arguments, got 1$"):
            typecheck(EConst("iadd", (EInt(1),)))
        with pytest.raises(MtlcTypeError, match=r"^\(chan_send\) expects 2 arguments, got 0$"):
            M.sig_result("chan_send", [], 2)
        with pytest.raises(MtlcTypeError, match=r"^\(nope\) unknown constant$"):
            typecheck(EConst("nope", ()))
        with pytest.raises(rl.RoleError, match="universe size"):
            typecheck(EConst("randbit", ()), n=0)

    @pytest.mark.parametrize("n", [0, 65])
    @pytest.mark.parametrize("e", [EInt(1), EConst("iadd", (EInt(1), EInt(2))),
                                   ELLam("u", TUnit(), EVar("u"))])
    def test_universe_is_checked_once_per_run_whatever_the_program(self, monkeypatch, n, e):
        calls = work_bound(monkeypatch, rl, "check_universe", 1)
        for typing in (lambda: typecheck(e, n=n), lambda: M._Judgements(n, e)):
            with pytest.raises(rl.RoleError, match=f"universe size must be in 1..64, got {n}"):
                typing()
            assert calls[0] == 1
            calls[0] = 0
        with pytest.raises(rl.RoleError, match="universe size"):
            M.sig_result("randbit", [], n)

    def test_constants_do_not_recheck_the_universe(self, monkeypatch):
        calls = work_bound(monkeypatch, rl, "check_universe", 1)
        assert typecheck(iadd_chain(300)) == TIntIdx(300) and calls[0] == 1


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

    def test_compat_on_functions(self):
        # codomains covariant, domains contravariant
        assert compat(TFunN(TInt(), TIntIdx(5)), TFunN(TInt(), TInt()))
        assert not compat(TFunN(TInt(), TInt()), TFunN(TInt(), TIntIdx(5)))
        assert compat(TFunL(TInt(), TUnit()), TFunL(TIntIdx(3), TUnit()))
        assert not compat(TFunL(TIntIdx(3), TUnit()), TFunL(TInt(), TUnit()))
        assert not compat(TFunN(TInt(), TInt()), TFunL(TInt(), TInt()))

    def test_if_joins_branches_by_least_upper_bound(self):
        assert typecheck(prog("(if (randbit) (pair 1 true) (pair 2 true))")) \
            == TPair(TInt(), TBool())
        assert typecheck(prog("(if (randbit) (lam (x int) 1) (lam (x (int 1)) x))")) \
            == TFunN(TIntIdx(1), TIntIdx(1))
        assert typecheck(prog("(if (randbit) (lam (x int) 1) (lam (x int) 2))")) \
            == TFunN(TInt(), TInt())
        with pytest.raises(MtlcTypeError, match="ty-if"):
            typecheck(prog("(if (randbit) (lam (x (int 1)) x) (lam (x (int 2)) x))"))

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

    def test_binder_hides_the_linear_variable_it_shadows(self):
        # the outer c stays in the context, unused, until its own binder
        for src in (f"(llam (c {SES}) (llam (c {SES}) (chan_sync (chan_send c unit))))",
                    f"(llam (c {SES}) (app (lam (c int) c) 1))",
                    f"(llam (c {SES}) (let (c u) (tensor 1 unit) c))"):
            with pytest.raises(MtlcTypeError, match=r"^\(ty-lam-l\) linear parameter c unused$"):
                typecheck(prog(src))
        e = prog(f"(llam (c {SES}) (app (llam (c {SES}) (chan_sync (chan_send c unit))) c))")
        assert typecheck(e) == TFunL(typecheck(prog(f"(llam (c {SES}) c)")).dom, TUnit())

    def test_let_binding_one_name_twice_is_rejected(self):
        # evaluation binds the first component, so the body must not see the second
        for src in ("(let (a a) (tensor true 1) (iadd a 1))",
                    f"(llam (c {SES}) (let (a a) (tensor 1 c) a))"):
            for check in (typecheck, typecheck_declarative):
                with pytest.raises(MtlcTypeError, match=r"^\(ty-let\) let binds a twice$"):
                    check(prog(src))

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


def _outcome(f):
    """("type", f's result), or the class, rule and text f raised."""
    try:
        return "type", f()
    except (MtlcTypeError, SessionError, rl.RoleError) as e:
        return type(e), getattr(e, "rule", None), str(e)


# each signature's refusals, by a part of their text
SIGNATURE_REFUSALS = [
    "unknown constant", "expects 2 arguments", "integer expected",
    "expects a linear 1 -o 1 function", "expects chan(R,S) -o 1",
    "expected a channel endpoint", "endpoint session is already finished",
    "sync consumes a single final action", "skip applies to uninvolved non-final actions",
    "these roles do not send here", "does not fit", "these roles do not receive here",
    "these roles do not decide here", "mconj requires the deciding roles",
    "mdisj is for non-deciding roles", "second argument must consume",
    "only an empty-role-set endpoint", "endpoint sessions differ",
    "role sets are not complementary", "complements must partition the universe",
    "complements must be disjoint",
]


def _cursor(src, n=2):
    return norm(parse_session(src, n))


# channel cursors the random terms' variables range over
CURSORS = [_cursor(s) for s in ("a(0,1)@b(1,0)", "a(0,1,int)@b(1,0)", "a(0,1)",
                                "option(0, a(0,1))@b(1,0)", "aconj(0, a(0,1), b(1,0))",
                                "mconj(0, x(1,0), y(1,0))", "mconj(0, x(1,0), y(1,0))@z(0,1)")] + [()]


class TestReferenceAgreement:
    """typecheck and _Judgements against the typechecker and notes they
    replaced (helpers.typecheck_reference, helpers.JudgementsReference):
    the same type, or the same exception class, rule and text, and the same
    note for every node."""

    def agree(self, e, gamma=None, delta=None, n=2):
        got = _outcome(lambda: typecheck(e, gamma, delta, n))
        assert got == _outcome(lambda: helpers.typecheck_reference(e, gamma, delta, n)), e
        if not gamma and not delta:
            notes = _outcome(lambda: dict(M._Judgements(n, e)))
            assert notes == _outcome(lambda: dict(helpers.JudgementsReference(n, e)))
        return got

    def rand_type(self, rng, depth=2):
        leaves = [TInt(), TIntIdx(rng.randrange(3)), TBool(), TUnit(), TStr(),
                  TChan(rng.randrange(4), rng.choice(CURSORS))]
        if depth:
            leaves.append(rng.choice([TPair, TLPair, TFunN, TFunL])(
                self.rand_type(rng, depth - 1), self.rand_type(rng, depth - 1)))
        return rng.choice(leaves)

    def rand_term(self, rng, names, depth):
        if depth == 0 or rng.random() < 0.2:
            return rng.choice([lambda: EVar(rng.choice(names)), lambda: EInt(rng.randrange(3)),
                               EUnit, lambda: EBool(True), lambda: EStr("s")])()
        sub = lambda: self.rand_term(rng, names, depth - 1)
        match rng.randrange(14):
            case 0 | 1 | 2 | 3 | 4 | 5:
                name = rng.choice(sorted(M.CONSTS) + ["nope"])
                arity = M._SIGS.get(name, (1,))[0]
                if rng.random() < 0.1:
                    arity = rng.randrange(4)
                # arguments are mostly distinct linear variables, which hold endpoints
                if arity <= 3 and rng.random() < 0.5:
                    return EConst(name, tuple(map(EVar, rng.sample(names[2:], arity))))
                return EConst(name, tuple(EVar(rng.choice(names[2:])) if rng.random() < 0.6
                                          else sub() for _ in range(arity)))
            case 6:
                return rng.choice([EPair, ELPair, M.EApp])(sub(), sub())
            case 7:
                return rng.choice([M.EFst, M.ESnd])(sub())
            case 8:
                return ELet(rng.choice(names), rng.choice(names), sub(), sub())
            case 9:
                return EIf(sub(), sub(), sub())
            case 10:
                return M.EFix(rng.choice(names), self.rand_type(rng), sub())
            case _:
                return rng.choice([ELam, ELLam])(rng.choice(names), self.rand_type(rng), sub())

    def test_programs_of_this_file(self):
        import ast
        import test_acceptance
        sources = [getattr(test_acceptance, k) for k in ("PING_PONG", "MCONJ", "CUT2")]
        with open(__file__, encoding="utf-8") as fh:
            sources += [c.value for c in ast.walk(ast.parse(fh.read()))
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)
                        and c.value.lstrip().startswith("(")]
        typed = 0
        for src in sources:
            for n in (2, 3):
                try:
                    e = prog(src, n)
                except (MtlcTypeError, SessionError, rl.RoleError):
                    continue
                typed += self.agree(e, n=n)[0] == "type"
        assert typed >= 20

    def test_random_terms(self):
        rng = random.Random(27)
        names = ["a", "b", "c", "x", "y"]
        outcomes, refused = Counter(), set()
        for i in range(3000):
            gamma = {x: self.rand_type(rng, 1) for x in names[:2] if rng.random() < 0.7}
            # endpoints mostly share a session, so that cuts reach their role checks
            shared = rng.choice(CURSORS)
            delta = {x: TChan(rng.randrange(4), shared if rng.random() < 0.6
                              else rng.choice(CURSORS)) if rng.random() < 0.8
                     else self.rand_type(rng) for x in names[2:] if rng.random() < 0.9}
            e = self.rand_term(rng, names, rng.randrange(1, 4))
            if i % 2:  # a constant on distinct endpoints and leaves
                name = rng.choice(sorted(M.CONSTS))
                e = EConst(name, tuple(EVar(x) if rng.random() < 0.7 else
                                       self.rand_term(rng, names, 0)
                                       for x in rng.sample(names[2:], M._SIGS[name][0])))
            for got in (self.agree(e, gamma, delta), self.agree(e)):
                outcomes[got[0]] += 1
                if got[0] is MtlcTypeError:
                    refused.add(got[2])
        assert outcomes["type"] >= 100 and outcomes[MtlcTypeError] >= 100
        for part in SIGNATURE_REFUSALS:  # every signature's refusals were compared
            assert any(part in text for text in refused), part

    def test_random_programs(self):
        rng = random.Random(5)
        for _ in range(100):
            src, n = rand_mtlc_program(rng)
            assert self.agree(prog(src, n), n=n)[0] == "type"

    def mutants(self, rng, expr):
        """expr with one node changed: a payload made true, a send turned
        into a receive or a skip, a receive into a send, a sync dropped, a
        variable renamed or a channel's role set flipped."""
        nodes, stack = [], [expr]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if type(node) in M._SHAPE:
                stack += M._SHAPE[type(node)][0](node)
        names = sorted({v.name for v in nodes if type(v) is EVar})

        def change(node):
            match node:
                case EConst("chan_send", (c, v)):
                    return rng.choice([EConst("chan_send", (c, EBool(True))),
                                       EConst("chan_recv", (c,)), EConst("chan_skip", (c,))])
                case EConst("chan_recv", (c,)):
                    return EConst("chan_send", (c, EInt(1)))
                case EConst("chan_sync", (c,)):
                    return c
                case EVar(x):
                    return EVar(rng.choice(names + [x + "'"]))
                case ELLam(x, TChan(roles, cursor), body):
                    return ELLam(x, TChan(roles ^ 3, cursor), body)
            return None

        def rebuild(node, old, new):
            if node is old:
                return new
            if type(node) not in M._SHAPE:
                return node
            kids, make = M._SHAPE[type(node)]
            return make(node, [rebuild(k, old, new) for k in kids(node)])

        for _ in range(12):
            old = rng.choice(nodes)
            new = change(old)
            if new is not None:
                yield rebuild(expr, old, new)

    def test_chain_mutants(self):
        rng = random.Random(9)
        refused = Counter()
        for length in range(2, 30):
            expr, _ = chain_program(random.Random(length), length)
            assert self.agree(expr) == ("type", TInt())
            for e in self.mutants(rng, expr):
                got = self.agree(e)
                refused[got[1] if got[0] != "type" else None] += 1
        # a flipped role set or a dropped sync is refused where the endpoint
        # is next used, by its signature or as an application's argument
        for rule in ("chan_send", "chan_recv", "chan_skip", "ty-var", "ty-app", None):
            assert refused[rule] > 0, (rule, refused)


class TestFreshNames:
    def test_shadowing_binder_name_is_history_independent(self):
        src = f"(llam (c {SES}) (llam (c {SES}) unit))"
        msgs = []
        for _ in range(2):
            with pytest.raises(MtlcTypeError) as exc:
                typecheck(prog(src))
            msgs.append(str(exc.value))
        assert msgs == ["(ty-lam-l) linear parameter c unused"] * 2

    def test_capturing_binder_takes_smallest_free_name(self):
        def lam_y(*free):
            return ELam("y", TInt(), EConst("iadd", (EVar("x"), EVar("y")) + free))

        assert esubst(lam_y(), "x", EVar("y")) == ELam(
            "y~1", TInt(), EConst("iadd", (EVar("y"), EVar("y~1"))))
        assert esubst(lam_y(EVar("y~1")), "x", EVar("y")) == ELam(
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
        assert res.pool._next_tid == 2

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

    def test_digits_other_than_ascii_are_not_numbers(self):
        # an Arabic-Indic one is a variable name, and no int index
        assert prog("(iadd \u0661 2)") == EConst("iadd", (EVar("\u0661"), EInt(2)))
        assert prog("(iadd -\u0661 2)") == EConst("iadd", (EVar("-\u0661"), EInt(2)))
        with pytest.raises(MtlcTypeError, match=r"^\(parse\) unknown type \['int', '\u0661'\]$"):
            prog("(llam (x (int \u0661)) x)")

    def test_chan_role_set_outside_the_universe(self):
        with pytest.raises(rl.RoleError, match=r"^role 5 outside universe of 2 roles$"):
            prog('(llam (c (chan {5} "a(0,1)")) (chan_sync c))', 2)

    def test_free_evars(self):
        e = prog("(llam (x 1) (tensor x y))")
        assert free_evars(e) == {"y"}

    def test_random_trees_raise_only_reader_errors(self):
        """Well-formed programs with one subtree replaced by a random tree:
        parse_program builds a program or refuses with MtlcTypeError,
        SessionError or RoleError, whatever lands in a binder, a type or a
        session spec."""
        programs = ['(llam (c (chan {0} "a(0,1)@b(1,0)")) (chan_sync c))',
                    "(let (a b) (tensor (fix (f (-> int (pair bool str))) f) 1) (fst a))",
                    '(lam (x (int -3)) (if true (app (llam (y (-o 1 (tensor int str))) y) x) "s"))']
        words = ["lam", "let", "int", "chan", "bool", "->", "x", "0", "1.5", "{0}", "{5}",
                 "{,}", '"a(0,1)"', '"a("', '""']
        rng = random.Random(24)

        def junk(depth=2):
            if depth == 0 or rng.random() < 0.5:
                return rng.choice(words)
            return [junk(depth - 1) for _ in range(rng.randrange(4))]

        def mutate(t):
            if isinstance(t, list) and t and rng.random() < 0.75:
                i = rng.randrange(len(t))
                return t[:i] + [mutate(t[i])] + t[i + 1:]
            return junk()

        def text(t):
            return t if isinstance(t, str) else "(" + " ".join(map(text, t)) + ")"

        trees = [M._atoms(p) for p in programs]
        refused = set()
        for _ in range(5000):
            try:
                parse_program(text(mutate(rng.choice(trees))), 2)
            except (MtlcTypeError, SessionError, rl.RoleError) as e:
                refused.add(type(e))
        assert refused == {MtlcTypeError, SessionError, rl.RoleError}


def state_type_of_readback(mt, n):
    ty = typecheck(mt.expr, n=n)
    if not compat(ty, mt.expected):
        raise MtlcTypeError("ty-pool", f"{ty} drifted from {mt.expected}")
    return ty


def _judge(f):
    """(True, f's result), or (False, the rule) when f raises MtlcTypeError."""
    try:
        return True, f()
    except MtlcTypeError as e:
        return False, e.rule


class TestEnvironment:
    def test_extending_the_newest_environment_shares_its_log(self):
        e1 = M._bind(None, "x", EInt(1))
        e2 = M._bind(e1, "y", EInt(2))
        e3 = M._bind(e2, "x", EInt(3))
        assert e1[0] is e2[0] is e3[0]
        assert M._bindings(e1) == {"x": EInt(1)}
        assert M._bindings(e2) == {"x": EInt(1), "y": EInt(2)}
        assert M._bindings(e3) == {"x": EInt(3), "y": EInt(2)}
        assert M._lookup(e2, "x")[1] == EInt(1) and M._lookup(e1, "y") is None

    def test_extending_an_older_environment_copies_what_it_sees(self):
        e1 = M._bind(M._bind(None, "x", EInt(1)), "x", EInt(2))
        e2 = M._bind(e1, "y", EInt(3))
        e3 = M._bind(e1, "z", EInt(4))
        assert e3[0] is not e1[0]
        assert M._bindings(e3) == {"x": EInt(2), "z": EInt(4)}
        assert M._bindings(e2) == {"x": EInt(2), "y": EInt(3)}

    def test_judgements_die_with_their_run(self):
        # the judgements are kept on the run's threads, not in the module
        e = prog(PING_PONG)
        pool = Pool(2, seed=3)
        mt = M.MtlcThread(pool, e, M.retype_thread, expected=typecheck(e))
        assert pool.run().status == "done"
        ref = weakref.ref(mt._notes)
        del pool, mt
        gc.collect()
        assert ref() is None


class TestFit:
    """_Judgements.fit, which fits a value to a type without building the
    value's type, against compat on the type value builds; held_of against
    value and a recount of the value's read-back."""

    def test_fit_agrees_with_value(self):
        pool = Pool(2)
        ab, a = (M.norm(parse_session(s, 2)) for s in ("a(0,1)@b(1,0)", "a(0,1)"))
        ch1, ch2 = pool.new_channel(ab), pool.new_channel(a)
        eps = [ERc(pool.new_endpoint(ch, r)) for ch, r in ((ch1, 1), (ch1, 2), (ch2, 1))]
        root = prog('(tensor (llam (c (chan {0} "a(0,1)")) (llam (u 1) c))'
                    ' (pair (lam (x int) x) (lam (x (int 3)) 5)))')
        notes = M._Judgements(2, root)
        # the inner llam consumes the endpoint its closure captures
        clos = [M.Clo(root.left.body, M._bind(None, "c", ep)) for ep in eps]
        clos += [M.Clo(f, None) for f in (root.left, root.right.left, root.right.right)]
        rng = random.Random(14)

        def value(depth=2):
            leaves = [lambda: EInt(rng.randrange(4)), lambda: EBool(rng.random() < 0.5),
                      lambda: EStr("s"), EUnit, lambda: rng.choice(eps), lambda: rng.choice(clos)]
            if depth:
                leaves += [lambda: EPair(value(depth - 1), value(depth - 1)),
                           lambda: ELPair(value(depth - 1), value(depth - 1))]
            return rng.choice(leaves)()

        def near(t):
            """t, or a sub-, super- or unrelated type near it."""
            match t:
                case TIntIdx(i):
                    return rng.choice([t, TInt(), TIntIdx(i + 1)])
                case TInt():
                    return rng.choice([t, TIntIdx(rng.randrange(4))])
                case TChan(roles, cursor):  # other roles or another cursor
                    return rng.choice([t, TChan(roles ^ 3, cursor), TChan(roles, cursor[1:]),
                                       TChan(roles, ab)])
                case TPair(l, r) | TLPair(l, r) | TFunN(l, r) | TFunL(l, r):
                    other = {TPair: TLPair, TLPair: TPair, TFunN: TFunL, TFunL: TFunN}
                    return rng.choice([type(t)(near(l), near(r)), other[type(t)](l, r)])
            return rng.choice([t, TUnit(), TBool(), TStr()])

        seen = Counter()
        for _ in range(3000):
            v = value()
            ty, held = notes.value(v)
            assert notes.held_of(v) == held
            assert Counter(held) == rho_recount(M._read(v, None))
            for t in (ty, near(ty), near(ty), notes.value(value())[0]):
                fits = notes.fit(v, t)
                assert fits == compat(ty, t), (v, t)
                seen[type(v), fits] += 1
        for cls in (EInt, EBool, EStr, EUnit, ERc, M.Clo, EPair, ELPair):
            assert seen[cls, True] and seen[cls, False], cls
        for judge in (notes.value, notes.held_of, lambda v: notes.fit(v, TInt())):
            with pytest.raises(M._Unjudged):  # not a value
                judge(EVar("x"))


class TestMachineAgainstOracle:
    """The environment machine against the substitution stepper it replaced
    (helpers.subst_eval_pool): byte-identical traces, equal values and
    numbers of reductions, and after every reduction the same exact retype
    verdict and type.  After every reduction the machine's incremental
    retyping (MtlcThread.judge) is also held against the closure retyping
    oracle (helpers.state_type), which types the whole state: the same
    verdict and resource counts, and the same type or a supertype.  Where
    the types differ they differ only in int indices: a binder's declared
    type (say the parameter of a function of type int -> int) or a frame's
    hole type stands in for the refined type (int(5)) of the value bound to
    it or returned into it."""

    def recorder(self, steps, n, types):
        retype = M.retype_thread

        def hook(pool, mt):
            exact = _judge(lambda: helpers.state_type(mt))
            if type(mt) is M.MtlcThread:
                assert _judge(lambda: state_type_of_readback(mt, n)) == exact
                got = _judge(mt.judge)
                assert got[0] == exact[0]
                if got[0]:
                    assert compat(exact[1], got[1]) and helpers.erase(exact[1]) == got[1] \
                        or exact[1] == got[1], (exact, got)
                    types[exact[1] == got[1]] += 1
                assert Counter(mt.held()) == rho_recount(mt.expr)
                recount = Counter()
                for t in pool.active_threads.values():
                    recount += rho_recount(t.mtlc.expr)
                assert M.pool_rho(pool) == recount
            steps.append((M.res_ok(pool), exact))
            retype(pool, mt)
            # the incremental count against the full recount
            assert Counter(mt.holders) == M.pool_rho(pool)
            assert (mt.holders.shared == 0) == M.res_ok(pool)

        return hook

    def retyped(self, e, n=2, seed=0, types=None):
        """Both steppers with per-step retyping; the machine's run."""
        runs = []
        types = Counter() if types is None else types
        for evaluate in (eval_pool, subst_eval_pool):
            steps = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(M, "retype_thread", self.recorder(steps, n, types))
                res, val = evaluate(e, n=n, seed=seed, retype_every_step=True)
            runs.append((rt.trace_jsonl(res.trace), res.status, val, steps))
        assert runs[0] == runs[1]
        assert all(ok and typed for ok, (typed, _) in runs[0][3])
        return runs[0]

    def test_criterion_10_pools(self):
        from test_acceptance import CUT2, MCONJ, PING_PONG, _rand_chain_program

        types = Counter()
        for i, src in enumerate((PING_PONG, MCONJ, CUT2)):
            self.retyped(prog(src), seed=i, types=types)
        rng = random.Random(11)
        for i in range(47):
            _, status, val, _ = self.retyped(_rand_chain_program(rng), seed=i, types=types)
            assert (status, val) == ("done", EUnit())
        assert types[True] > 0

    @pytest.mark.parametrize("length", [10, 40, 160])
    def test_retyped_chains(self, length):
        expr, total = chain_program(random.Random(length), length)
        types = Counter()
        _, status, val, _ = self.retyped(expr, seed=length, types=types)
        assert (status, val) == ("done", EInt(total))
        # the party's sum is typed int until its last reductions, where the
        # oracle sees the received ints as literals
        assert types[True] > length and types[False] > 0

    def test_random_corpus(self):
        rng = random.Random(3)
        reached = Counter()
        types = Counter()
        for i in range(150):
            src, n = rand_mtlc_program(rng)
            reached.update(set(M._TOK.findall(src)))
            _, status, _, _ = self.retyped(prog(src, n), n, seed=i, types=types)
            assert status == "done"
        for construct in ("fix", "if", "randbit", "thread_create", "chan_mconj", "chan_mdisj_l",
                          "chan_mdisj_r", "chan_1_cut", "chan_2_cut", "chan_3_cut",
                          "chan_2_cutres"):
            assert reached[construct] >= 5, construct
        assert types[True] > 0 and types[False] > 0

    def test_refined_function_argument(self):
        # typed int -> int, the argument returns y, bound to 5: int(5)
        e = prog("(app (lam (y int) (app (lam (f (-> int int)) (app f 2)) (lam (x int) y))) 5)")
        assert typecheck(e) == TInt()
        _, status, val, _ = self.retyped(e)
        assert (status, val) == ("done", EInt(5))

    @pytest.mark.parametrize("src,fault", [
        ("(app 1 2)", "application of non-function EInt(value=1)"),
        ("(fst 1)", "no reduction for EFst(body=EInt(value=1))"),
        ("(snd 1)", "no reduction for ESnd(body=EInt(value=1))"),
        ("(let (a b) 1 unit)",
         "no reduction for ELet(x1='a', x2='b', pair=EInt(value=1), body=EUnit())"),
        ("(if 1 2 3)",
         "no reduction for EIf(cond=EInt(value=1), then=EInt(value=2), els=EInt(value=3))"),
        ("(iadd true 1)",
         "no reduction for EConst(name='iadd', args=(EBool(value=True), EInt(value=1)))"),
        # the redex is worded with its frame's environment substituted
        ("(app (lam (y int) (if y y 2)) 1)",
         "no reduction for EIf(cond=EInt(value=1), then=EInt(value=1), els=EInt(value=2))"),
    ])
    def test_stuck_redex(self, src, fault):
        # untyped programs: both steppers stop at the same redex, worded alike
        for cls in (M.MtlcThread, SubstThread):
            pool = Pool(2)
            cls(pool, prog(src))
            with pytest.raises(M.StuckNonRedex) as err:
                pool.run()
            assert str(err.value) == fault

    def unjudged(self, monkeypatch) -> list[int]:
        """The steps whose state the run's notes do not cover."""
        out = []
        judge_state = M.MtlcThread._judge_state

        def counted(mt):
            try:
                return judge_state(mt)
            except M._Unjudged:
                out.append(mt.pool.step_no)
                raise

        monkeypatch.setattr(M.MtlcThread, "_judge_state", counted)
        return out

    def test_shadowing_binder_is_judged_from_the_notes(self, monkeypatch):
        unjudged = self.unjudged(monkeypatch)
        # the inner c shadows a linear c, which it consumes
        e = prog('''
            (let (v c) (chan_recv (chan_create (llam (c (chan {0} "ping(0,1,int)@pong(1,0)"))
                          (chan_sync (chan_send c 41)))))
              (app (llam (c (chan {1} "pong(1,0)")) (app (llam (u 1) v) (chan_sync c))) c))''')
        _, status, val, _ = self.retyped(e)
        assert (status, val, unjudged) == ("done", EInt(41), [])

    def test_node_with_two_judgements_is_typed_on_read_back(self, monkeypatch):
        unjudged = self.unjudged(monkeypatch)
        # one node in two places: int under y : int, int(4) under y : int(3)
        shared = EConst("iadd", (EVar("y"), EInt(1)))
        e = M.EApp(ELam("y", TInt(), shared),
                   ELet("y", "u", ELPair(EInt(3), EUnit()), shared))
        _, status, val, _ = self.retyped(e)
        assert (status, val, len(unjudged) > 0) == ("done", EInt(5), True)

    def test_ill_typed_reduction_is_caught_by_both_checks(self, monkeypatch):
        # a received int arrives as a string
        lift = M._lift
        monkeypatch.setattr(M, "_lift", lambda v: EStr("x") if type(v) is int else lift(v))
        expr, _ = chain_program(random.Random(10), 10)
        verdicts = []

        class Rejected(Exception):
            pass

        def hook(pool, mt):
            verdicts.append((_judge(mt.judge)[0], _judge(lambda: helpers.state_type(mt))[0]))
            if not all(verdicts[-1]):
                raise Rejected

        pool = Pool(2, seed=10)
        M.MtlcThread(pool, expr, hook, expected=typecheck(expr))
        with pytest.raises(Rejected):
            pool.run()
        assert verdicts[-1] == (False, False)
        assert set(verdicts[:-1]) == {(True, True)}

    def test_retyping_work_is_linear(self, monkeypatch):
        calls = [0]

        def counted(rule):
            def count(*args):
                calls[0] += 1
                return rule(*args)
            return count

        for cls, rule in list(M._CHECK.items()):
            monkeypatch.setitem(M._CHECK, cls, counted(rule))
        work = []
        for length in (80, 160):
            expr, total = chain_program(random.Random(length), length)
            calls[0] = 0
            res, val = eval_pool(expr, seed=length, retype_every_step=True)
            assert (res.status, val) == ("done", EInt(total))
            work.append(calls[0])
        # the judging run dispatches through _CHECK too, so this counts it
        assert 0 < work[0] and work[1] <= 2.3 * work[0], work

    def test_python_calls_per_message(self):
        """The calculus's call census: Python calls per message of a chain to
        type it, to run it and to run it retyping every step, each bounded
        and each about linear in the chain's length."""
        bounds = {"typecheck": 25, "eval": 75, "retyped": 130}
        counts = {run: [] for run in bounds}
        lengths = (80, 160, 320)
        for length in lengths:
            expr, total = chain_program(random.Random(length), length)
            runs = {"typecheck": lambda: typecheck(expr),
                    "eval": lambda: eval_pool(expr, seed=length)[1],
                    "retyped": lambda: eval_pool(expr, seed=length, retype_every_step=True)[1]}
            for run, f in runs.items():
                out, calls = python_calls(f)
                assert out == (TInt() if run == "typecheck" else EInt(total))
                counts[run].append(calls)
        for run, calls in counts.items():
            for length, c in zip(lengths, calls):
                assert c / length <= bounds[run], (run, length, c / length)
            assert calls[1] <= 2.05 * calls[0] and calls[2] <= 2.05 * calls[1], (run, calls)

    @pytest.mark.parametrize("length", [10, 20, 40, 80, 160, 320, 640])
    def test_plain_chains(self, length):
        expr, total = chain_program(random.Random(length), length)
        runs = []
        for cls in (M.MtlcThread, SubstThread):
            reductions = []
            pool = Pool(2, seed=length)
            mt = cls(pool, expr, lambda pool, mt: reductions.append(pool.step_no))
            res = pool.run()
            runs.append((rt.trace_jsonl(res.trace), res.status, mt.expr, reductions))
        assert runs[0] == runs[1]
        assert runs[0][2] == EInt(total)

    def test_duplicated_endpoint_is_counted_twice(self):
        # an ill-typed state: the resource count still equals the read-back's
        pool = Pool(2)
        ch = pool.new_channel(M.norm(parse_session("a(0, 1)", 2)))
        ep = pool.new_endpoint(ch, 1)
        seen = []

        def hook(pool, mt):
            seen.append((M.pool_rho(pool), rho_recount(mt.expr), M.res_ok(pool)))

        # after the first reduction the pair is the control; after the
        # second it waits in a frame while the control runs under another
        # environment
        body = EPair(M.EApp(ELam("y", TInt(), EVar("y")), EInt(5)), EPair(EVar("c"), EVar("c")))
        e = M.EApp(ELLam("c", TChan(1, ()), body), ERc(ep))
        M.MtlcThread(pool, M.EApp(ELam("u", TUnit(), EUnit()), e), hook)
        assert pool.run().status == "done"
        twice = (Counter({ep.eid: 2}), Counter({ep.eid: 2}), False)
        assert seen == [twice, twice, (Counter(), Counter(), True)]

    def test_endpoint_held_by_two_threads_is_refused(self):
        # each program is well-typed alone; together they hold one endpoint
        # twice, which the first retyped step reads off the pool's count
        for cls in (M.MtlcThread, SubstThread):
            pool = Pool(2)
            ep = pool.new_endpoint(pool.new_channel(M.norm(parse_session("a(0, 1)", 2))), 1)
            e = prog('(app (llam (c (chan {0} "a(0, 1)")) (chan_sync c)) c)')
            e = M.EApp(e.fun, ERc(ep))
            steps = []

            def hook(pool, mt):
                steps.append(mt)
                M.retype_thread(pool, mt)

            mts = [cls(pool, e, hook) for _ in range(2)]
            with pytest.raises(MtlcTypeError, match=r"\(ty-pool\) .*held more than once"):
                pool.run()
            assert len(steps) == 1
            assert Counter(mts[0].holders) == M.pool_rho(pool) == Counter({ep.eid: 2})
            assert not M.res_ok(pool)

    def test_plain_evaluation_substitutes_nothing(self, monkeypatch):
        # the calculus has no substitution, and reads back only the value
        assert not hasattr(M, "esubst")
        expr, total = chain_program(random.Random(640), 640)
        calls = work_bound(monkeypatch, M, "_read", 1)
        res, val = eval_pool(expr, seed=640)
        assert (res.status, val, calls[0]) == ("done", EInt(total), 1)
