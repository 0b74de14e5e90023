import gc
import json
import pickle
import random

import pytest

from multirole import kernel as K
from multirole import logic as lg
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

from helpers import MALFORMED_ITEMS, rand_formula


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
        for bad in ["(not a)", "(and a b)", "(forall @0 (p))", "(", "))"]:
            with pytest.raises(lg.FormulaError):
                parse_formula(bad)


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

    def test_deep_formula_hashes_without_recursion(self):
        swap = Endo((1, 0))
        a, b = Atom("a"), Atom("a")
        for _ in range(5000):
            a, b = Neg(swap, a), Neg(swap, b)
        items = (IFormula(1, a), IFormula(1, b))
        assert a == b and hash(a) == hash(b)
        assert seq_counts(items) == {IFormula(1, a): 2}
        assert seq_equal(items, items[::-1])
