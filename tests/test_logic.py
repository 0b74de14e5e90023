import gc
import json
import pickle
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirole import kernel as K
from multirole import logic as lg
from multirole import roles as rl
from multirole.logic import (
    AConj,
    Atom,
    Bang,
    Conj,
    Const,
    Forall,
    FreshNames,
    IFormula,
    MConj,
    Neg,
    Node,
    Var,
    free_vars,
    fmt_formula,
    fmt_sequent,
    parse_formula,
    seq_counts,
    seq_equal,
    seq_minus,
    substitute,
)
from multirole.roles import Endo, Ultra

from helpers import (MALFORMED_ITEMS, counter_equal, counter_minus, free_vars_reference,
                     rand_binder_formula, rand_formula, rand_sequent, shared_conj,
                     size_reference, substitute_reference, work_bound)


class TestParseFmt:
    @pytest.mark.parametrize("text", [
        "a",
        "(p x y)",
        "(not [1,0] a)",
        "(and @0 a b)",
        "(with @1 (not [0,1] a) b)",
        "(tensor @0 a (bang @1 b))",
        "(imp [1,0] @0 a b)",
        "(forall @1 x (p x))",
    ])
    def test_roundtrip(self, text):
        f = parse_formula(text)
        assert parse_formula(fmt_formula(f)) == f

    def test_parse_shapes(self):
        assert parse_formula("(not [1,0] a)") == Neg(Endo((1, 0)), Atom("a"))
        assert parse_formula("(and @0 a b)") == Conj(Ultra(0), Atom("a"), Atom("b"))
        assert parse_formula("(forall @1 x (p x))") == \
            Forall(Ultra(1), "x", Atom("p", (Var("x"),)))

    def test_random_roundtrip(self):
        rng = random.Random(7)
        for kind in ("mrl", "mrlj", "lmrl"):
            calc = {"mrl": K.MRL(3), "mrlj": K.MRLJ(3, Ultra(0)),
                    "lmrl": K.LMRL(3)}[kind]
            for _ in range(80):
                f = rand_formula(rng, calc, 3, 4)
                assert parse_formula(fmt_formula(f)) == f

    def test_parse_errors(self):
        for bad, msg in [
            ("(not a)", "bad endo 'a': bad endo syntax: 'a'"),
            ("(and a b)", "bad ultrafilter 'a': bad ultrafilter syntax: 'a'"),
            ("(forall @0 (p))", "expected identifier, got '('"),
            ("(", "unexpected end of input"),
            ("))", "unexpected ')'"),
            ("(not [1,0] a", "unexpected end of input"),
            ("(tensor @0 a b c)", "expected ')', got 'c'"),
            ("(forall @0 and (p and))", "expected identifier, got 'and'"),
            ("(p x) b", "trailing input: 'b'"),
        ]:
            with pytest.raises(lg.FormulaError) as err:
                parse_formula(bad)
            assert str(err.value) == msg

    def test_labels_and_binders_must_be_identifiers(self):
        for bad, tok in [("(()", "("), ("())", ")"), ("@0", "@0"), ("[0,1]", "[0,1]"),
                         ("(forall @0 $x (p x))", "$x")]:
            with pytest.raises(lg.FormulaError) as err:
                parse_formula(bad)
            assert str(err.value) == f"expected identifier, got {tok!r}"

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_random_roundtrip_is_identity(self, seed):
        rng = random.Random(seed)
        calc = rng.choice([K.MRL(3), K.MRLJ(3, Ultra(0)), K.LMRL(3)])
        f = rand_formula(rng, calc, 3, rng.randrange(7))
        assert parse_formula(fmt_formula(f), 3) is f

    def test_binder_scope(self):
        # the forall binds x in its body only: the right conjunct's x is a constant
        f = parse_formula("(and @0 (forall @0 x (p x)) (p x))")
        assert f.left.body == Atom("p", (Var("x"),))
        assert f.right == Atom("p", (Const("x"),))
        assert parse_formula("(forall @0 x (p $y x))").body.args == (Var("y"), Var("x"))

    def test_deeper_than_recursion_limit(self):
        assert sys.getrecursionlimit() <= 1000
        a = b = Atom("p", (Var("x"),))
        for k in range(5000):
            a = Neg(Endo((1, 0)), a)
            b = Forall(Ultra(0), "x", b) if k % 2 else MConj(Ultra(1), b, Atom("q"))
        for f in (a, b):
            assert parse_formula(fmt_formula(f)) is f


class TestSizeVars:
    def test_size_counts_connectives(self):
        assert lg.size(parse_formula("a")) == 0
        assert lg.size(parse_formula("(not [0,1] a)")) == 1
        assert lg.size(parse_formula("(tensor @0 (not [0,1] a) (bang @1 b))")) == 3

    def test_free_vars(self):
        # unbound identifiers in parsed atoms are constants; build with Var
        u = Ultra(0)
        f = Forall(u, "x", Conj(u, Atom("p", (Var("x"),)), Atom("q", (Var("y"),))))
        assert free_vars(f) == {"y"}
        assert free_vars(parse_formula("(forall @0 x (p x y))")) == set()

    def test_fresh_var_distinct(self):
        fresh = FreshNames()
        names = {fresh("x") for _ in range(50)}
        assert len(names) == 50


class TestSubstitute:
    def test_simple(self):
        f = Atom("p", (Var("x"),))
        assert substitute(f, "x", Const("c")) == Atom("p", (Const("c"),))

    def test_bound_shadowing(self):
        f = parse_formula("(forall @0 x (p x))")
        assert substitute(f, "x", Const("c")) == f

    def test_capture_avoidance(self):
        # substituting y := x under a binder for x must rename the binder
        u = Ultra(0)
        f = Forall(u, "x", Conj(u, Atom("p", (Var("x"),)), Atom("q", (Var("y"),))))
        g = substitute(f, "y", Var("x"))
        assert isinstance(g, Forall)
        assert g.var != "x"
        assert free_vars(g) == {"x"}

    def test_capture_avoidance_picks_smallest_free_name(self):
        # x~1 is free in the body, so the binder becomes x~2, on every call
        u = Ultra(0)
        f = Forall(u, "x", Conj(u, Atom("p", (Var("x"), Var("x~1"))), Atom("q", (Var("y"),))))
        g = substitute(f, "y", Var("x"))
        assert g.var == "x~2"
        assert substitute(f, "y", Var("x")) is g


class TestLoopsAgreeWithRecursion:
    """size, free_vars and substitute are loops over an explicit stack; the
    recursions in helpers are their references."""

    def test_random_formulas_with_captures(self):
        rng = random.Random(25)
        names = ("x", "y", "x~1", "x~2")
        terms = [Var(v) for v in names] + [Const("x"), Const("c")]
        renamed = 0
        for _ in range(1500):
            a = rand_binder_formula(rng, rng.randrange(10))
            assert lg.size(a) == size_reference(a)
            assert free_vars(a) == free_vars_reference(a)
            x, t = rng.choice(names), rng.choice(terms)
            got = substitute(a, x, t)
            assert got is substitute_reference(a, x, t), (fmt_formula(a), x, t)
            renamed += got is not a and lg.names_in([got]) - lg.names_in([a]) - {t.name} != set()
        assert renamed > 25  # binders were renamed, to names a did not hold

    def test_capture_renames_inside_a_renamed_body(self):
        # y := x meets the binder x, renamed to x~2 (x~1 is free); the body's
        # renaming x := x~2 meets the binder x~2, renamed to x~1... and so on
        u = Ultra(0)
        a = Forall(u, "x", Forall(u, "x~2", Atom("p", (Var("x"), Var("x~2"), Var("y"),
                                                        Var("x~1")))))
        got = substitute(a, "y", Var("x"))
        assert got is substitute_reference(a, "y", Var("x"))
        assert free_vars(got) == {"x", "x~1"}

    def test_non_formulas_are_refused(self):
        bad = Neg(Endo((1, 0)), Var("x"))
        for f in (lg.size, free_vars, lambda b: substitute(b, "x", Const("c"))):
            with pytest.raises(lg.FormulaError, match=r"^not a formula: Var\(name='x'\)$"):
                f(bad)


@pytest.mark.parametrize("shape", ["chain", "binders", "kernel"])
def test_depth_census(shape):
    """Quantified formulas 5000 deep, at the default recursion limit."""
    assert sys.getrecursionlimit() <= 1000
    k, u, swap = 5000, Ultra(1), Endo((1, 0))
    if shape == "chain":  # forall x. not^k p(x, y)
        body = Atom("p", (Var("x"), Var("y")))
        want_c, want_x = Atom("p", (Const("c"), Var("y"))), Atom("p", (Var("x~1"), Var("x")))
        for _ in range(k):
            body, want_c, want_x = Neg(swap, body), Neg(swap, want_c), Neg(swap, want_x)
        a = Forall(u, "x", body)
        assert lg.size(a) == k + 1 and free_vars(a) == {"y"}
        assert substitute(body, "x", Const("c")) is want_c
        assert substitute(a, "y", Var("x")) is Forall(u, "x~1", want_x)
    elif shape == "binders":  # forall x. (B tensor q(y)), k deep: y := x renames every x
        a, want = Atom("p", (Var("x"), Var("y"))), Atom("p", (Var("x~1"), Var("x")))
        for _ in range(k):
            a = Forall(u, "x", MConj(u, a, Atom("q", (Var("y"),))))
            want = Forall(u, "x~1", MConj(u, want, Atom("q", (Var("x"),))))
        assert lg.size(a) == 2 * k and free_vars(a) == {"y"}
        assert parse_formula(fmt_formula(a)) is a
        assert substitute(a, "y", Var("x")) is want and free_vars(want) == {"x"}
    else:  # the kernel's forall rules over a 5000-deep body, checked and round-tripped
        body = Atom("p", (Var("x"),))
        for _ in range(k):
            body = Neg(swap, body)
        a, calc = Forall(Ultra(0), "x", body), K.MRL(2)
        d = K.axiom_multi(a, [1, 2], calc)
        K.check(d, calc)
        assert K.derivation_from_json(K.derivation_to_json(d), 2) is d
        inst = substitute(body, "x", Const("c"))
        d = K.b_rule("forall-neg", (K.axiom_multi(inst, [1, 2], calc),),
                     IFormula(1, Forall(u, "x", body)), witness=Const("c"))
        K.check(d, calc)
        assert seq_equal(d.conclusion, (IFormula(2, inst), IFormula(1, Forall(u, "x", body))))


class TestSequents:
    def test_multiset_semantics(self):
        a, b = Atom("a"), Atom("b")
        s1 = (IFormula(1, a), IFormula(2, b), IFormula(1, a))
        s2 = (IFormula(2, b), IFormula(1, a), IFormula(1, a))
        assert seq_equal(s1, s2)
        assert not seq_equal(s1, s1[:2])
        assert seq_counts(s1)[IFormula(1, a)] == 2

    def test_seq_minus(self):
        a = Atom("a")
        s = (IFormula(1, a), IFormula(1, a), IFormula(2, a))
        out = seq_minus(s, (IFormula(1, a),))
        assert seq_equal(out, (IFormula(1, a), IFormula(2, a)))

    def test_arithmetic_agrees_with_counter_oracle(self):
        # seq_minus, seq_equal and _commute's count of the copies left in a
        # premise (seq_minus then tuple.count) compare items by identity
        rng = random.Random(11)
        a, b = Atom("a"), Atom("b")
        pool = [IFormula(r, f) for r in (0, 1, 2) for f in (a, b, Neg(Endo((1, 0)), a))]
        contained = 0
        for _ in range(2000):
            s = rand_sequent(rng, pool[:rng.randrange(1, len(pool) + 1)], rng.randrange(8))
            if s and rng.random() < 0.6:  # a sub-multiset of s, shuffled
                t = list(rng.sample(s, rng.randrange(len(s) + 1)))
            else:
                t = list(rand_sequent(rng, pool, rng.randrange(4)))
            rng.shuffle(t)
            t = tuple(t)
            want = counter_minus(s, t)
            assert seq_minus(s, t) == want  # the same items, in the same order
            contained += want is not None
            assert seq_equal(s, t) == counter_equal(s, t)
            u = list(s)
            rng.shuffle(u)
            assert seq_equal(s, tuple(u)) and seq_equal(tuple(u), s)
            x, new = rng.choice(pool), rng.choice(pool)
            assert (seq_minus(s, (new,)) or ()).count(x) == \
                (Counter(counter_minus(s, (new,)) or ())[x])
        assert 500 < contained < 1900

    def test_json_roundtrip(self):
        rng = random.Random(3)
        calc = K.LMRL(2)
        s = tuple(IFormula(rng.randrange(4), rand_formula(rng, calc, 2, 3))
                  for _ in range(4))
        assert seq_equal(lg.sequent_from_json(lg.sequent_to_json(s)), s)

    @pytest.mark.parametrize("item", MALFORMED_ITEMS)
    def test_malformed_json_item(self, item):
        text = json.dumps([{"roles": [0], "formula": "a"}, item])
        with pytest.raises(lg.FormulaError):
            lg.sequent_from_json(text)

    def test_json_role_outside_universe(self):
        text = json.dumps([{"roles": [2], "formula": "a"}])
        assert lg.sequent_from_json(text)[0].roles == 4
        with pytest.raises(lg.FormulaError, match="outside universe of 2"):
            lg.sequent_from_json(text, 2)

    def test_fmt(self):
        s = (IFormula(1, Atom("a")),)
        assert fmt_sequent(s) == "|- <0>a"


class TestHashConsing:
    def test_equal_nodes_are_one_object(self):
        a = parse_formula("(forall @1 x (tensor @0 (p x) (bang @1 b)))")
        b = MConj(Ultra(0), Atom("p", (Var("x"),)), Bang(Ultra(1), Atom("b")))
        assert a.body is b
        assert IFormula(3, a) is IFormula(3, parse_formula(fmt_formula(a)))
        assert pickle.loads(pickle.dumps(IFormula(3, a))) is IFormula(3, a)
        assert Var("x") is not Const("x")

    def test_nodes_are_immutable(self):
        a = Atom("a")
        with pytest.raises(AttributeError):
            a.label = "b"
        with pytest.raises(AttributeError):
            del a.args
        assert repr(IFormula(1, a)) == "IFormula(roles=1, formula=Atom(label='a', args=()))"

    def test_table_holds_nodes_weakly(self):
        gc.collect()
        before = len(lg.Node._table)
        for k in range(1000):
            Neg(Endo((1, 0)), Atom(f"unique{k}", (Var(f"v~{k}"),)))
        gc.collect()
        assert len(lg.Node._table) == before

    def test_dead_node_leaves_the_table(self):
        key = (Atom, "dies", ())
        node = Atom("dies")
        assert lg.Node._table[key]() is node
        del node
        assert key not in lg.Node._table
        again = Atom("dies")  # made afresh, with the same fields
        assert lg.Node._table[key]() is again
        assert (again.label, again.args) == ("dies", ())
        assert Atom("dies") is again

    def test_late_callback_keeps_a_newer_entry(self):
        # a reference whose node died before its callback ran: the next
        # construction finds it dead, makes a new node and a new entry, and
        # the old reference's callback must leave that entry alone
        key = (Atom, "late", ())
        node = Atom("late")
        old = lg.Node._table[key]
        del node
        assert old() is None and key not in lg.Node._table
        lg.Node._table[key] = old  # as if its callback had not run yet
        node = Atom("late")
        newer = lg.Node._table[key]
        assert newer is not old and newer() is node
        rl._forget(old)
        assert lg.Node._table[key] is newer
        del node
        assert key not in lg.Node._table

    def test_fixed_arity_constructors_keep_the_table(self):
        # IFormula and Derivation build their table key themselves; they
        # must give what Node.__new__ gives and keep its table and errors
        a = parse_formula("(tensor @0 a b)")
        d = K.axiom_multi(a, [1, 2], K.LMRL(2))
        assert Node.__new__(IFormula, 1, a) is IFormula(1, a)
        assert IFormula(1, a) in d.conclusion
        assert Node.__new__(K.Derivation, d.rule, d.conclusion, d.premises, d.principal,
                            None, None) is d
        leaf = K.Derivation("id", [IFormula(1, Atom("a")), IFormula(2, Atom("a"))])
        assert leaf is K.Derivation("id", leaf.conclusion, (), None, None, None)
        for cls, fields, count in ((IFormula, (1,), 2), (K.Derivation, ("id",), 6)):
            with pytest.raises(TypeError, match=f"^{cls.__name__} takes {count} fields, got 1$"):
                Node.__new__(cls, *fields)
        for node in (IFormula(3, a), d, leaf):
            assert pickle.loads(pickle.dumps(node)) is node

    def test_fixed_arity_constructors_skip_dead_entries(self):
        def fields(node):
            return tuple(getattr(node, k) for k in node.__match_args__)

        b = Atom("fast_path_b")
        for make in (lambda: IFormula(5, b), lambda: K.Derivation("id", (IFormula(5, b),))):
            node = make()
            key, want = (type(node), *fields(node)), fields(node)
            ref = lg.Node._table[key]
            del node
            assert ref() is None and key not in lg.Node._table
            lg.Node._table[key] = ref  # a dead entry whose callback has not run yet
            again = make()
            assert fields(again) == want and lg.Node._table[key]() is again
            assert make() is again

    def test_deep_formula_hashes_without_recursion(self):
        swap = Endo((1, 0))
        a, b = Atom("a"), Atom("a")
        for _ in range(5000):
            a, b = Neg(swap, a), Neg(swap, b)
        items = (IFormula(1, a), IFormula(1, b))
        assert a == b and hash(a) == hash(b)
        assert seq_counts(items) == {IFormula(1, a): 2}
        assert seq_equal(items, items[::-1])


class TestBoundedText:
    """Reprs and kernel messages print a formula DAG as a tree cut at
    rl.BRIEF characters, so their work is bounded by that length; files and
    the CLI print the full text.  shared_conj(40)'s conclusion has 41 distinct
    nodes and a tree of 2^41 leaves."""

    def test_repr_of_a_shared_formula(self, monkeypatch):
        concl = shared_conj(40).conclusion
        work_bound(monkeypatch, rl, "_repr_parts", rl.BRIEF)
        text = repr(concl)
        assert text.startswith("(IFormula(roles=3, formula=Conj(u=Ultra(")
        assert text.endswith("\u2026,)") and len(text) == len("(") + rl.BRIEF + len("\u2026,)")

    def test_builder_messages_on_a_shared_formula(self, monkeypatch):
        d = shared_conj(40)
        work_bound(monkeypatch, lg, "_formula_parts", 2 * rl.BRIEF)
        with pytest.raises(K.KernelError) as err:
            K.b_weaken(d, IFormula(1, Atom("b")), K.LMRL(2))
        assert str(err.value).startswith("cannot weaken non-? item")
        with pytest.raises(K.KernelError) as err:
            K.b_contract(d, IFormula(1, Atom("b")), K.MRL(2))
        msg = str(err.value)
        assert msg.startswith("builder contract: premise |- <0,1>(and @0 (and @0 ")
        assert msg.endswith("\u2026 lacks |- <0>b") and len(msg) < 2 * rl.BRIEF

    def test_limited_text_is_a_cut_of_the_full_text(self):
        rng = random.Random(4)
        for _ in range(300):
            calc = rng.choice([K.MRL(2), K.LMRL(2), K.MRLJ(2, Ultra(0))])
            items = tuple(IFormula(rng.randrange(4), rand_formula(rng, calc, 2, rng.randrange(6)))
                          for _ in range(rng.randrange(1, 4)))
            limit = rng.randrange(1, 120)
            for fmt, x in ((fmt_formula, items[0].formula), (fmt_sequent, items)):
                full = fmt(x)
                cut = full if len(full) <= limit else full[:limit] + "\u2026"
                assert fmt(x, limit=limit) == cut

    def test_deep_formula(self):
        swap = Endo((1, 0))
        a = Atom("a")
        for _ in range(5000):
            a = Neg(swap, a)
        assert fmt_formula(a) == "(not [1,0] " * 5000 + "a" + ")" * 5000
        assert fmt_formula(a, limit=30) == ("(not [1,0] " * 5000)[:30] + "\u2026"
        assert repr(a).startswith("Neg(f=Endo(") and repr(a).endswith("\u2026")
