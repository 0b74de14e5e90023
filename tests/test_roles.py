import dataclasses
import gc
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from multirole import kernel as kn
from multirole import logic as lg
from multirole import mtlc as mt
from multirole import roles as rl
from multirole import runtime as rt
from multirole.roles import Endo, RoleError, Ultra
from multirole import session as sn
from multirole.session import parse_session


def endos(n):
    return st.tuples(*[st.integers(0, n - 1)] * n).map(Endo)


rolesets3 = st.integers(0, 7)


class TestRolesets:
    def test_fmt_parse_roundtrip(self):
        for mask in range(16):
            assert rl.parse_roleset(rl.fmt_roleset(mask)) == mask

    @pytest.mark.parametrize("text, n", [("{1,1}", None), ("{0, 2, 0}", 3)])
    def test_repeated_role_refused(self, text, n):
        with pytest.raises(RoleError, match=r"^role \d listed twice$"):
            rl.parse_roleset(text, n)

    @pytest.mark.parametrize("text, n", [("{\u0661}", None), ("{0, \u0661}", 3),
                                         ("{\uff11}", 2), ("{\u00b2}", 3)])
    def test_digits_other_than_ascii_refused(self, text, n):
        # Arabic-Indic one, fullwidth one, superscript two
        with pytest.raises(RoleError, match=r"^bad role set syntax: "):
            rl.parse_roleset(text, n)

    def test_members_complement(self):
        assert rl.members(0b101) == [0, 2]
        assert rl.complement(0b101, 3) == 0b010
        assert rl.full_set(3) == 0b111

    def test_partition(self):
        assert rl.partition_check([0b001, 0b110], 3)
        assert not rl.partition_check([0b001, 0b011], 3)  # overlap
        assert not rl.partition_check([0b001, 0b010], 3)  # misses role 2
        assert rl.partition_check([0b001, 0b110, 0b000], 3)  # empty part ok

    def test_universe_bounds(self):
        with pytest.raises(RoleError):
            rl.check_universe(0)
        with pytest.raises(RoleError):
            rl.check_universe(65)
        rl.check_universe(64)

    @given(rolesets3, rolesets3)
    def test_disjoint_union(self, a, b):
        if a & b:
            with pytest.raises(RoleError):
                rl.disjoint_union(a, b)
        else:
            assert rl.disjoint_union(a, b) == a | b


class TestEndo:
    def test_identity(self):
        f = rl.identity_endo(3)
        assert f.order() == 1
        assert [f(r) for r in range(3)] == [0, 1, 2]

    def test_swap_order_two(self):
        assert Endo((1, 0)).order() == 2

    def test_three_cycle_order_three(self):
        assert Endo((1, 2, 0)).order() == 3

    @given(endos(3), endos(3), rolesets3)
    def test_compose_preimage(self, f, g, mask):
        # (f . g)(r) = g(f(r)); preimage distributes contravariantly
        fg = f.compose(g)
        for r in range(3):
            assert fg(r) == g(f(r))
        assert fg.preimage(mask) == f.preimage(g.preimage(mask))

    @given(endos(3), rolesets3)
    def test_preimage_is_inverse_image(self, f, mask):
        pre = f.preimage(mask)
        for r in range(3):
            assert bool(pre & (1 << r)) == bool(mask & (1 << f(r)))

    @given(endos(4))
    def test_permutation_inverse(self, f):
        if not f.is_permutation():
            with pytest.raises(RoleError):
                f.inverse()
            return
        inv = f.inverse()
        assert f.compose(inv) == rl.identity_endo(4)
        assert inv.compose(f) == rl.identity_endo(4)
        # the order divides lcm of all cycle lengths <= lcm(1..4) = 12
        assert 12 % f.order() == 0

    @given(endos(4))
    def test_order_is_minimal(self, f):
        if not f.is_permutation():
            return
        k = f.order()
        g = rl.identity_endo(4)
        for i in range(1, k):
            g = g.compose(f)
            assert g != rl.identity_endo(4)
        assert g.compose(f) == rl.identity_endo(4)

    @given(endos(3))
    def test_fmt_parse(self, f):
        assert rl.parse_endo(rl.fmt_endo(f)) == f

    def test_only_digit_roles_parse(self):
        assert rl.parse_endo("[ 1 , 0 ]") is Endo((1, 0))
        for text in ("[1,x]", "[+1,0]", "[1_0,0]", "[1,,0]", "[1,-0]", "[1.0,0]", "[1 0]"):
            with pytest.raises(RoleError, match=r"^bad endo syntax: "):
                rl.parse_endo(text)
        with pytest.raises(lg.FormulaError, match=r"^bad endo '\[1,x\]': bad endo syntax: "):
            lg.parse_formula("(not [1,x] a)")

    def test_all_endos_count(self):
        assert len(list(rl.all_endos(2))) == 4
        assert len(list(rl.all_endos(3))) == 27

    @given(endos(3), endos(3))
    def test_conjugate(self, f, g):
        if not f.is_permutation():
            return
        conj = f.conjugate(g)
        inv = f.inverse()
        # composition is diagrammatic: conjugation applies f, then g, then f^-1
        for r in range(3):
            assert conj(r) == inv(g(f(r)))


class TestUltra:
    @given(st.integers(0, 2), rolesets3)
    def test_principal_membership(self, r, mask):
        assert Ultra(r).contains(mask) == bool(mask & (1 << r))

    def test_fmt_parse(self):
        assert rl.parse_ultra("@2") == Ultra(2)
        assert rl.parse_ultra(" @02 ") == Ultra(2)
        assert rl.fmt_ultra(Ultra(0)) == "@0"

    @pytest.mark.parametrize("text", ["@x", "@", "@+1", "@ 1", "@1_0", "@-1", "@1.0", "1",
                                      "@\u0663"])
    def test_only_digit_roles_parse(self, text):
        with pytest.raises(RoleError, match=r"^bad ultrafilter syntax: "):
            rl.parse_ultra(text)

    @given(endos(3), st.integers(0, 2))
    def test_pushforward(self, f, r):
        u = Ultra(r)
        assert rl.push_ultra(f, u) == Ultra(f(r))

    @given(endos(3), st.integers(0, 2), rolesets3)
    def test_pushforward_membership_law(self, f, r, mask):
        # f(U) contains R iff U contains f^{-1}(R)
        assert rl.push_ultra(f, Ultra(r)).contains(mask) == \
            Ultra(r).contains(f.preimage(mask))


class TestNodes:
    """Endo maps and ultrafilters are hash-consed nodes.  A constructor checks
    its fields before it looks the table up, so a bool or a float never
    finds, or becomes, the node of an int."""

    @pytest.mark.parametrize("live", [False, True])
    def test_non_int_roles_refused(self, monkeypatch, live):
        monkeypatch.setattr(rl.Node, "_table", {})  # no node lives yet
        held = (Ultra(1), Endo((1, 0))) if live else ()
        for make, bad in ((Ultra, True), (Ultra, 1.0), (Endo, (True, 0))):
            with pytest.raises(RoleError):
                make(bad)
        assert len(rl.Node._table) == len(held)
        assert (rl.fmt_ultra(Ultra(1)), rl.fmt_endo(Endo((1, 0)))) == ("@1", "[1,0]")

    def test_equal_values_are_one_object(self):
        assert rl.parse_endo("[1,0]") is Endo((1, 0))
        assert rl.parse_ultra("@2") is Ultra(2)
        for x in (Ultra(3), Endo((2, 0, 1))):
            assert pickle.loads(pickle.dumps(x)) is x


def _node_classes(cls=rl.Node):
    """Every class derived from cls, at any depth."""
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_classes(sub)


def _node_samples(tag: str) -> dict:
    """Fields for a node of every concrete Node class, each holding tag, so
    that no other live node has them."""
    a, b = lg.Atom(tag), lg.Atom(tag + "'", (lg.Var(tag),))
    u, f = Ultra(1), Endo((1, 0))
    m = sn.Msg(tag, 0, 1)
    item = lg.IFormula(1, a)
    return {
        lg.Var: (tag,), lg.Const: (tag,), lg.Atom: (tag, (lg.Var(tag), lg.Const(tag))),
        lg.Neg: (f, a), lg.Conj: (u, a, b), lg.Impl: (f, u, a, b), lg.AConj: (u, a, b),
        lg.MConj: (u, b, a), lg.Bang: (u, b), lg.Forall: (u, tag, b), lg.IFormula: (2, b),
        kn.Derivation: ("weaken", (item, lg.IFormula(2, b)), (kn.b_id((item,)),), 1, None, tag),
        Ultra: (40 + len(tag),), Endo: ((0,) * (20 + len(tag)),),
        sn.Msg: (tag, 0, 1, "int"), sn.Bcast: (tag, 1, "unit"), sn.Gather: (tag, 0, "bool"),
        sn.Nil: (), sn.Append: (m, sn.Nil()), sn.SMConj: (1, m, m), sn.SAConj: (0, m, sn.Nil()),
        sn.OptionT: (1, m), sn.Repseq: (0, m), sn.Repeat: (1, m),
    }


class TestNodeMakers:
    """Each Node class makes its nodes with a maker of its own, whose setter
    calls are written out per arity: it must set every field, enter the
    node in the table in place when it runs, and replace a dead entry."""

    def test_every_node_class_has_a_sample(self):
        abstract = {sn._Combinator}
        assert set(_node_classes()) - abstract == set(_node_samples("t"))

    @pytest.mark.parametrize("tag", ["maker_a", "maker_bb", "maker_ccc"])
    def test_maker_sets_every_field_and_replaces_dead_entries(self, tag):
        for cls in list(_node_samples(tag)):
            fields = _node_samples(tag)[cls]  # and no other sample holds the node
            node = cls(*fields)
            assert type(node) is cls
            got = tuple(getattr(node, k) for k in cls.__match_args__)
            assert got == fields and all(x is y for x, y in zip(got, fields)), cls
            assert cls(*fields) is node and pickle.loads(pickle.dumps(node)) is node
            key = (cls, *fields)
            ref = rl.Node._table[key]
            assert ref() is node and ref.key == key
            del node
            gc.collect()
            assert ref() is None and key not in rl.Node._table, cls
            rl.Node._table[key] = ref  # a dead entry whose callback has not run yet
            again = cls(*fields)
            assert tuple(getattr(again, k) for k in cls.__match_args__) == fields
            assert rl.Node._table[key]() is again and cls(*fields) is again
            assert rl.Node._table[key] is not ref
            del again
            gc.collect()
            assert key not in rl.Node._table, cls

    def test_maker_enters_the_table_in_place_when_it_runs(self, monkeypatch):
        samples = _node_samples("maker_table")
        table: dict = {}
        monkeypatch.setattr(rl.Node, "_table", table)
        for cls, fields in samples.items():
            node = cls(*fields)
            assert table[(cls, *fields)]() is node and cls(*fields) is node, cls
            del node
        gc.collect()
        assert all(ref() is None for ref in table.values())


def _as_dataclass(v):
    """v with every record in it rebuilt as an instance of a frozen dataclass
    of the same name and fields: the reference for the records' repr."""
    if isinstance(v, tuple):
        return tuple(map(_as_dataclass, v))
    if not isinstance(v, rl.Record):
        return v
    cls = type(v)
    twin = dataclasses.make_dataclass(cls.__qualname__, cls.__match_args__, frozen=True)
    return twin(*(_as_dataclass(getattr(v, k)) for k in cls.__match_args__))


class TestRecord:
    """Records are compared, hashed and printed as frozen dataclasses were."""

    def values(self):
        chan = mt.TChan(0b11, (parse_session("a(0,1,int)@b(1,0)", 2),))
        return [mt.TLPair(mt.TInt(), chan), mt.ELam("x", mt.TIntIdx(-3), mt.EStr("s")),
                kn.Calculus("mrlj", 3, Ultra(1)), kn.LMRL(2), rt.CSend(payload=3),
                rt.COffer((rt.CRecv(),), (rt.CSync("r"), rt.CCut2("a", "b")))]

    def test_repr_is_the_dataclass_repr(self):
        for v in self.values():
            assert repr(v) == repr(_as_dataclass(v))
        env = []
        clo = mt.Clo(mt.EVar("x"), env)
        env.append(clo)
        assert repr(clo) == "Clo(term=EVar(name='x'), env=[...])"

    def test_equality_and_hash_are_the_fields(self):
        for v in self.values():
            twin = type(v)(*(getattr(v, k) for k in v.__match_args__))
            assert twin is not v and twin == v and hash(twin) == hash(v)
            assert pickle.loads(pickle.dumps(v)) == v
        for a, b in ((mt.TPair(1, 2), mt.TLPair(1, 2)), (mt.TFunN(1, 2), mt.TFunL(1, 2)),
                     (rt.CSync(), rt.CRecv()), (rt.CCut1(), rt.CSync())):
            assert a != b and not a == b
        assert mt.TInt() == mt.TInt() and mt.TInt() != mt.TBool()
        assert mt.Clo(mt.EInt(1), None) != mt.Clo(mt.EInt(1), None)

    def test_fields_are_read_only(self):
        cmd = rt.CSend(1)
        with pytest.raises(AttributeError):
            cmd.reg = "x"
        with pytest.raises(AttributeError):
            del cmd.payload
        assert cmd == rt.CSend(1, "ep")

    def test_construction_and_match(self):
        assert rt.CSend(reg="r", payload=2) == rt.CSend(2, "r")
        assert rt.CCutRes("a", "b").out == "ep" and rt.CSend().payload is None
        with pytest.raises(TypeError):
            rt.CCut2("a")
        match rt.CChoose("l"):
            case rt.CChoose(side, reg):
                assert (side, reg) == ("l", "ep")
        assert rt.CChanCreate.__match_args__ == ("part", "session", "acceptor", "out")
        with pytest.raises(kn.KernelError, match="unknown calculus 'x'"):
            kn.Calculus("x", 2)
