import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multirole import kernel as K
from multirole import logic as lg
from multirole import roles as rl
from multirole.logic import (
    Impl,
    Atom,
    Bang,
    Conj,
    Const,
    Forall,
    IFormula,
    Neg,
    Var,
    parse_formula,
    seq_equal,
    seq_minus,
)
from multirole.roles import Endo, Ultra

from helpers import (
    MALFORMED_ITEMS,
    check_reference,
    deep_derivation,
    derivation_from_obj_reference,
    derivation_to_obj_reference,
    malformed_tables,
    rand_cut_output,
    rand_formula,
    rand_partition,
    search_reference,
    shared_conj,
    work_bound,
)
from test_cli import mutate


A = Atom("a")
B = Atom("b")


class TestCheck:
    def test_id_axiom(self):
        calc = K.LMRL(2)
        d = K.b_id((IFormula(1, A), IFormula(2, A)))
        K.check(d, calc)

    @pytest.mark.parametrize("calc", [K.MRL(2), K.LMRL(2)])
    def test_id_of_one_item_at_the_universe(self, calc):
        # |- <U>a: one role set that is the whole universe partitions it
        K.check(K.b_id((IFormula(3, A),)), calc)
        # one item that is not primitive is refused as such, not for its count
        with pytest.raises(K.CheckError, match=r"\(id\) items must be primitive$"):
            K.check(K.b_id((IFormula(3, Neg(Endo((1, 0)), A)),)), calc)

    def test_impl_ultrafilter_at_the_universe_size(self):
        # @1 names a role of a universe of 2 (roles 0 and 1), @2 none
        d = K.b_id((IFormula(1, A), IFormula(2, A)))
        j = K.MRLJ(2, Ultra(1))
        K.check(K.b_weaken(d, IFormula(1, Impl(IDENT, Ultra(1), A, B)), j), j)
        with pytest.raises(K.CheckError, match=r"endo/ultrafilter outside universe$"):
            K.check(K.b_weaken(d, IFormula(1, Impl(IDENT, Ultra(2), A, B)), j), j)

    def test_id_requires_complement(self):
        calc = K.LMRL(2)
        d = K.b_id((IFormula(1, A), IFormula(1, A)))
        with pytest.raises(K.CheckError):
            K.check(d, calc)

    def test_weaken_only_in_mrl_family(self):
        mrl = K.MRL(2)
        lmrl = K.LMRL(2)
        d = K.b_id((IFormula(1, A), IFormula(2, A)))
        w = K.b_weaken(d, IFormula(3, B), mrl)
        K.check(w, mrl)
        with pytest.raises(K.CheckError):
            K.check(w, lmrl)

    def test_contract(self):
        mrl = K.MRL(2)
        d = K.b_id((IFormula(1, A), IFormula(2, A)))
        d = K.b_weaken(d, IFormula(2, A), mrl)
        d = K.b_contract(d, IFormula(2, A), mrl)
        K.check(d, mrl)
        assert seq_equal(d.conclusion, (IFormula(1, A), IFormula(2, A)))

    def test_contract_needs_two_copies(self):
        d = shared_conj(3)
        with pytest.raises(K.KernelError, match=r"^builder contract: premise lacks a second "):
            K.b_contract(d, d.conclusion[0], K.MRL(2))

    def test_neg_preimage(self):
        calc = K.LMRL(2)
        f = Endo((1, 0))
        d = K.b_id((IFormula(1, A), IFormula(2, A)))
        e = K.b_rule("neg", (d,), IFormula(f.preimage(1), Neg(f, A)))
        K.check(e, calc)
        assert IFormula(f.preimage(1), Neg(f, A)) in e.conclusion

    def test_lmrl_rejects_mrl_connectives(self):
        lmrl = K.LMRL(2)
        d = K.axiom_fullset(Conj(Ultra(0), A, B), K.MRL(2))
        with pytest.raises(K.CheckError):
            K.check(d, lmrl)

    def test_mrlj_intuitionistic_condition(self):
        j = Ultra(0)
        mrlj = K.MRLJ(2, j)
        # two i-formulas whose role sets both lie in J violate the side
        # condition (J-sets act as the "succedent")
        d = K.b_id((IFormula(1, A), IFormula(2, A)))
        d = K.b_weaken(d, IFormula(1, B), mrlj)
        with pytest.raises(K.CheckError):
            K.check(d, mrlj)
        K.check(d, K.MRL(2))

    @pytest.mark.parametrize("r", [2, 5, 64])
    def test_mrlj_ultrafilter_outside_the_universe(self, r):
        # with J outside the universe no role set lies in J, and the side
        # condition above would hold of every sequent
        with pytest.raises(K.KernelError, match=f"J = @{r} outside universe of 2 roles"):
            K.MRLJ(2, Ultra(r))
        with pytest.raises(K.KernelError, match="outside universe"):
            K.Calculus("mrl", 2, Ultra(r))
        K.MRLJ(2, Ultra(1))

    @pytest.mark.parametrize("kind", ["mrl", "lmrl"])
    def test_ultrafilter_only_in_mrlj(self, kind):
        # J belongs to mrlj alone: in Calculus("lmrl", 2, Ultra(1)),
        # axiom_multi refused the axiom of (tensor @0 a b) that check accepted
        with pytest.raises(K.KernelError, match=f"^calculus {kind} takes no ultrafilter J$"):
            K.Calculus(kind, 2, Ultra(1))

    def test_check_reports_path(self):
        calc = K.LMRL(2)
        bad = K.Derivation("id", (IFormula(1, A), IFormula(1, A)))
        good = K.b_id((IFormula(1, A), IFormula(2, A)))
        with pytest.raises(K.CheckError):
            K.check(bad, calc)
        assert K.check_ok(good, calc)
        assert not K.check_ok(bad, calc)


    def test_height_deeper_than_recursion_limit(self):
        leaf, d = weaken_chain(5000)
        assert d.height == 5001
        # above and below a node whose height is already cached
        assert K.Derivation("cut", (), (d, leaf)).height == 5002
        assert d.premises[0].height == 5000

    def test_rule_tags_deeper_than_recursion_limit(self):
        _, d = weaken_chain(5000)
        assert K.rule_tags(d) == {"id", "weaken"}


def weaken_chain(k: int):
    """An id leaf under k weakenings: a derivation of k + 1 rules."""
    leaf = K.b_id((IFormula(1, A), IFormula(2, A)))
    d = leaf
    for _ in range(k):
        d = K.Derivation("weaken", leaf.conclusion, (d,), 0)
    return leaf, d


class TestAxioms:
    @pytest.mark.parametrize("kind,n", [("mrl", 2), ("mrl", 3), ("lmrl", 2), ("lmrl", 3)])
    def test_axiom_multi_fuzz(self, kind, n):
        rng = random.Random(hash((kind, n)) & 0xFFFF)
        calc = K.MRL(n) if kind == "mrl" else K.LMRL(n)
        for _ in range(60):
            a = rand_formula(rng, calc, n, rng.randrange(4))
            parts = rand_partition(rng, n, rng.choice([1, 2, 3]))
            d = K.axiom_multi(a, parts, calc)
            K.check(d, calc)
            assert seq_equal(d.conclusion, tuple(IFormula(p, a) for p in parts))
            assert "cut" not in K.rule_tags(d)

    def test_axiom_fullset(self):
        calc = K.LMRL(3)
        d = K.axiom_fullset(Bang(Ultra(1), A), calc)
        K.check(d, calc)
        assert seq_equal(d.conclusion, (IFormula(7, Bang(Ultra(1), A)),))

    def test_deep_chain_at_the_default_recursion_limit(self):
        # _axiom is a loop: a Neg chain 3000 deep derives, checks and
        # round-trips through JSON under the interpreter's default limit
        assert sys.getrecursionlimit() <= 1000
        a = A
        for _ in range(3000):
            a = Neg(Endo((1, 0)), a)
        calc = K.MRL(2)
        d = K.axiom_multi(a, [1, 2], calc)
        assert d.height == 6001
        K.check(d, calc)
        assert seq_equal(d.conclusion, (IFormula(1, a), IFormula(2, a)))
        assert K.derivation_from_json(K.derivation_to_json(d), 2) is d

    def test_axiom_multi_rejects_non_partition(self):
        calc = K.LMRL(2)
        with pytest.raises((K.KernelError, rl.RoleError)):
            K.axiom_multi(A, [1, 1], calc)


class TestCutTransformers:
    def test_cut1_removes_empty_roleset(self):
        calc = K.LMRL(2)
        d = K.axiom_multi(A, [0, 3], calc)
        e = K.cut1(d, d.conclusion.index(IFormula(0, A)), calc)
        K.check(e, calc)
        assert seq_equal(e.conclusion, (IFormula(3, A),))

    def test_cut2_residual_conclusion_shape(self):
        calc = K.LMRL(3)
        a = parse_formula("(tensor @0 a (not [1,0,2] b))")
        R1, R2 = 0b011, 0b110  # comps {2} and {0} disjoint
        d1 = K.axiom_multi(a, [R1, 0b100], calc)
        d2 = K.axiom_multi(a, [R2, 0b001], calc)
        e = K.cut2_residual(d1, d1.conclusion.index(IFormula(R1, a)),
                            d2, d2.conclusion.index(IFormula(R2, a)), calc)
        K.check(e, calc)
        assert seq_equal(e.conclusion, (IFormula(0b100, a), IFormula(0b001, a),
                                        IFormula(R1 & R2, a)))
        assert "cut" not in K.rule_tags(e)

    def test_cut2_requires_disjoint_complements(self):
        calc = K.LMRL(2)
        d1 = K.axiom_multi(A, [1, 2], calc)
        d2 = K.axiom_multi(A, [1, 2], calc)
        with pytest.raises(K.KernelError):
            K.cut2_residual(d1, 0, d2, 0, calc)

    def test_split_roles(self):
        calc = K.LMRL(3)
        d = K.axiom_multi(A, [0b011, 0b100], calc)
        e = K.split_roles(d, d.conclusion.index(IFormula(0b011, A)),
                          0b001, 0b010, calc)
        K.check(e, calc)
        assert seq_equal(e.conclusion, (IFormula(0b001, A), IFormula(0b010, A),
                                        IFormula(0b100, A)))

    def test_mp_cut_gentzen_special_case(self):
        # binary mp-cut with complements partitioning the universe
        calc = K.LMRL(2)
        d1 = K.axiom_multi(A, [1, 2], calc)
        d2 = K.axiom_multi(A, [2, 1], calc)
        e = K.mp_cut([d1, d2],
                     [d1.conclusion.index(IFormula(1, A)),
                      d2.conclusion.index(IFormula(2, A))], calc)
        K.check(e, calc)
        assert seq_equal(e.conclusion, (IFormula(2, A), IFormula(1, A)))

    def test_mrl_cut_with_structural_noise(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.choice([2, 3])
            calc = K.MRL(n)
            full = rl.full_set(n)
            a = rand_formula(rng, calc, n, rng.randrange(4))
            R1 = rng.randrange(1 << n)
            R2 = (full & ~R1) | (rng.randrange(1 << n) & R1)
            d1 = K.axiom_multi(a, [R1, full & ~R1], calc)
            d2 = K.axiom_multi(a, [R2, full & ~R2], calc)
            x1, x2 = IFormula(R1, a), IFormula(R2, a)

            def enrich(d, x):
                for _ in range(rng.randrange(3)):
                    op = rng.choice(["w", "c", "other"])
                    if op == "w":
                        d = K.b_weaken(d, x, calc)
                    elif op == "c":
                        d = K.b_weaken(d, x, calc)
                        d = K.b_contract(d, x, calc)
                    else:
                        d = K.b_weaken(d, IFormula(rng.randrange(1 << n), Atom("z")), calc)
                return d

            d1, d2 = enrich(d1, x1), enrich(d2, x2)
            e = K.cut2_residual(d1, d1.conclusion.index(x1),
                                d2, d2.conclusion.index(x2), calc)
            K.check(e, calc)
            want = seq_minus(d1.conclusion, (x1,)) + seq_minus(d2.conclusion, (x2,)) \
                + (IFormula(R1 & R2, a),)
            assert seq_equal(e.conclusion, want)


def axioms_to_cut(a, calc, roles):
    """The axioms |- <R>a, <complement>a for R in roles, and where each holds
    its <R>a."""
    full = rl.full_set(calc.n)
    ds = [K.axiom_multi(a, [r, full & ~r], calc) for r in roles]
    return ds, [d.conclusion.index(IFormula(r, a)) for d, r in zip(ds, roles)]


def checked_mp_cut(ds, idx, calc):
    """mp_cut, checked, cut-free and with the conclusion the cut theorem
    predicts."""
    e = K.mp_cut(ds, idx, calc)
    K.check(e, calc)
    assert cut_free(e)
    want = ()
    for d, i in zip(ds, idx):
        want += d.conclusion[:i] + d.conclusion[i + 1 :]
    assert seq_equal(e.conclusion, want)
    return e


class TestMultipartyCut:
    """mp_cut reduces its k premises in one cut, with no residual built."""

    @pytest.mark.parametrize("kind", ["lmrl", "mrl"])
    def test_nodes_built(self, monkeypatch, kind):
        # node-table misses of 3-part cuts, complements {0}, {1} and {2}: a
        # fold of residual 2-cuts built 6.4x (LMRL) and 4.3x (MRL) the
        # output's distinct nodes on these inputs
        calc = K.LMRL(3) if kind == "lmrl" else K.MRL(3)
        make, made = K.Derivation._make, [0]

        def counted(key):
            made[0] += 1
            return make(key)

        monkeypatch.setattr(K.Derivation, "_make", staticmethod(counted))
        built = distinct = 0
        for seed in range(40):
            ds, idx = axioms_to_cut(rand_formula(random.Random(seed), calc, 3, 12), calc, [6, 5, 3])
            before = made[0]
            e = checked_mp_cut(ds, idx, calc)
            built += made[0] - before
            distinct += len(list(K._nodes(e)))
        assert built <= 2 * distinct

    @pytest.mark.parametrize("seed", [None, 18, 23, 25])
    def test_nested_bang_at_the_default_limit(self, seed):
        # the fold's intermediate residuals grew with each nested ! and raised
        # RecursionError on these
        assert sys.getrecursionlimit() <= 1000
        if seed is None:
            calc = K.LMRL(2)
            ds, idx = axioms_to_cut(parse_formula("(bang @0 (bang @1 (bang @0 a)))"), calc, [0, 3, 3])
        else:
            calc = K.LMRL(3)
            ds, idx = axioms_to_cut(rand_formula(random.Random(seed), calc, 3, 12), calc, [6, 5, 3])
        checked_mp_cut(ds, idx, calc)


class TestQuantifier:
    def test_forall_witness(self):
        calc = K.LMRL(2)
        u = Ultra(0)
        body = Atom("p", (Var("x"),))
        a = Forall(u, "x", body)
        d = K.axiom_fullset(a, calc)
        K.check(d, calc)

    def test_subst_derivation_eigen_freshening(self):
        calc = K.LMRL(2)
        u = Ultra(0)
        a = Forall(u, "x", Atom("p", (Var("x"),)))
        d = K.axiom_fullset(a, calc)
        e = K.subst_derivation(d, "zz", Const("c"))
        K.check(e, calc)
        assert e.conclusion == d.conclusion  # zz does not occur

    def test_transformer_output_is_history_independent(self):
        # eigenvariables are numbered per call, so repeating a call repeats its output
        rng = random.Random(1)
        calc = K.LMRL(3)
        full = rl.full_set(3)
        renamed = 0
        for _ in range(60):
            a = rand_formula(rng, calc, 3, rng.randrange(4))
            r1 = rng.randrange(1 << 3)
            r2 = (full & ~r1) | (rng.randrange(1 << 3) & r1)
            d1 = K.axiom_multi(a, [r1, full & ~r1], calc)
            d2 = K.axiom_multi(a, [r2, full & ~r2], calc)
            i1 = d1.conclusion.index(IFormula(r1, a))
            i2 = d2.conclusion.index(IFormula(r2, a))
            cut2 = [K.derivation_to_json(K.cut2_residual(d1, i1, d2, i2, calc))
                    for _ in range(2)]
            comps = rand_partition(rng, 3, 3)
            ds = [K.axiom_multi(a, [full & ~c, c], calc) for c in comps]
            idx = [d.conclusion.index(IFormula(full & ~c, a)) for d, c in zip(ds, comps)]
            mp = [K.derivation_to_json(K.mp_cut(ds, idx, calc)) for _ in range(2)]
            assert cut2[0] == cut2[1]
            assert mp[0] == mp[1]
            renamed += "~" in cut2[0] + mp[0]
        assert renamed

    def test_eigenvariables_numbered_above_input_names(self):
        calc = K.LMRL(2)
        a = Forall(Ultra(0), "x~7", Atom("p", (Var("x~7"),)))
        d1 = K.axiom_multi(a, [1, 2], calc)
        d2 = K.axiom_fullset(a, calc)
        e = K.cut2_residual(d1, d1.conclusion.index(IFormula(1, a)), d2, 0, calc)
        K.check(e, calc)
        eigens = set()
        stack = [e]
        while stack:
            d = stack.pop()
            stack += d.premises
            eigens.add(d.eigen)
        assert "x~8" in eigens and "x~1" not in eigens


class TestSharing:
    def test_equal_derivations_are_one_object(self):
        items = (IFormula(1, A), IFormula(2, A))
        assert K.Derivation("id", items) is K.b_id(list(items))
        calc = K.LMRL(2)
        d = K.axiom_multi(Neg(SWAP, A), [1, 2], calc)
        assert K.axiom_multi(Neg(SWAP, A), [1, 2], calc) is d

    def test_traversals_visit_each_distinct_node_once(self, monkeypatch):
        d = shared_conj(60)
        assert d.height == 61
        assert K.rule_tags(d) == {"id", "conj-pos"}
        visited = []
        check_node = K._check_node
        monkeypatch.setattr(K, "_check_node",
                            lambda node, *args: check_node(visited.append(node) or node, *args))
        K.check(d, K.MRL(2))
        assert len(visited) == len(set(visited)) == 61
        text = K.derivation_to_json(d)
        assert len(json.loads(text)["nodes"]) == 61
        assert K.derivation_from_json(text) is d

    def test_quantifier_rules_over_shared_subformulas(self):
        # free variables and substitution in formulas of 2^60 leaves as trees
        calc = K.MRL(2)
        d = shared_conj(60)
        c = d.conclusion[0].formula
        p = Forall(U0, "x", Conj(U0, c, Atom("p", (Var("x"),))))
        d = K.b_weaken(d, IFormula(2, Conj(U0, c, Atom("p", (Const("k"),)))), calc)
        d = K.b_rule("forall-neg", (d,), IFormula(2, p), witness=Const("k"))
        d = K.b_rule("forall-pos", (K.b_weaken(d, IFormula(1, B), calc),),
                     IFormula(1, Forall(U0, "x", B)), eigen="x")
        K.check(d, calc)
        assert K.derivation_from_json(K.derivation_to_json(d)) is d

    @pytest.mark.parametrize("how", ["cut1", "cut2_residual", "mp_cut", "split_roles"])
    def test_cuts_reduce_each_shared_node_once(self, monkeypatch, how):
        # k + 2 distinct nodes, 2^k as a tree: each transformer call keeps a
        # memo of its reductions, so the work grows with k and not with 2^k
        k, calc = 40, K.MRL(2)
        ax = K.axiom_multi(B, [1, 2], calc)
        d = shared_conj(k, IFormula(0 if how == "cut1" else 2, B))
        i, j = d.conclusion.index(IFormula(d.conclusion[0].roles, B)), 0
        for name in ("_commute", "_principal_case", "_axiom_rule"):
            work_bound(monkeypatch, K, name, 8 * k)
        match how:
            case "cut1":
                out = K.cut1(d, i, calc)
                assert out is shared_conj(k)
            case "cut2_residual":
                out = K.cut2_residual(d, i, ax, j, calc)
            case "mp_cut":
                out = K.mp_cut([d, ax], [i, j], calc)
            case "split_roles":
                out = K.split_roles(d, 1 - i, 1, 2, calc)
        K.check(out, calc)
        assert len(list(K._nodes(out))) <= 8 * k

    def test_subst_derivation_substitutes_each_shared_node_once(self, monkeypatch):
        k = 40
        d = shared_conj(k, a=Atom("p", (Var("x"),)))
        work_bound(monkeypatch, K, "_subst_derivation", 3 * k)
        assert K.subst_derivation(d, "x", Const("c")) is shared_conj(k, a=Atom("p", (Const("c"),)))

    def test_check_fails_at_the_first_occurrence_of_a_shared_node(self):
        bad = K.Derivation("weaken", (IFormula(3, A),), (), 0)  # no premise
        d = K.Derivation("conj-pos", (IFormula(3, Conj(U0, A, A)),), (bad, bad), 0)
        with pytest.raises(K.CheckError) as err:
            K.check(d, K.MRL(2))
        assert err.value.path == (0,)
        assert err.value.reason == "rule weaken expects 1 premises, got 0"


class TestSearch:
    def test_atoms_partition_derivable(self):
        calc = K.LMRL(3)
        got = K.search((IFormula(1, A), IFormula(2, A), IFormula(4, A)), calc, 4)
        assert got is not None
        K.check(got, calc)

    def test_pair_not_derivable(self):
        calc = K.LMRL(3)
        assert K.search((IFormula(3, A),), calc, 6) is None

    def test_entailment_reflexive(self):
        calc = K.LMRL(2)
        for r in (1, 2, 3):
            d = K.entailment(A, A, r, calc, 3)
            assert d is not None
            K.check(d, calc)


class TestJson:
    def test_roundtrip(self):
        rng = random.Random(5)
        calc = K.LMRL(2)
        for _ in range(20):
            a = rand_formula(rng, calc, 2, 3)
            d = K.axiom_multi(a, rand_partition(rng, 2, 2), calc)
            d2 = K.derivation_from_json(K.derivation_to_json(d))
            assert d2 == d
            K.check(d2, calc)

    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2**32 - 1))
    def test_axioms_and_cuts_read_back_as_the_same_object(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 3])
        calc = rng.choice([K.LMRL(n), K.MRL(n)])
        full = rl.full_set(n)
        a = rand_formula(rng, calc, n, rng.randrange(5))
        r1 = rng.randrange(1 << n)
        r2 = (full & ~r1) | (rng.randrange(1 << n) & r1)
        d1 = K.axiom_multi(a, [r1, full & ~r1], calc)
        d2 = K.axiom_multi(a, [r2, full & ~r2], calc)
        e = K.cut2_residual(d1, d1.conclusion.index(IFormula(r1, a)),
                            d2, d2.conclusion.index(IFormula(r2, a)), calc)
        for d in (d1, e):
            assert K.derivation_from_json(K.derivation_to_json(d)) is d
            assert K.derivation_from_json(K.derivation_to_json(d, pretty=True), n) is d

    def test_deeper_than_recursion_limit(self):
        d = deep_derivation(5000)
        assert d.height == 5000
        text = K.derivation_to_json(d)
        assert K.derivation_from_json(text) is d
        K.check(K.derivation_from_json(text), K.MRL(2))

    @pytest.mark.parametrize("name,obj", malformed_tables())
    def test_malformed_table(self, name, obj):
        with pytest.raises((K.KernelError, lg.FormulaError)):
            K.derivation_from_json(json.dumps(obj))

    def test_refuses_files_that_are_not_tables(self):
        shapes = dict(malformed_tables())
        for name, msg in (("the file is an array", "derivation JSON must be an object"),
                          ("an object in the old nested shape",
                           'derivation JSON has no "formulas"')):
            with pytest.raises(K.KernelError) as err:
                K.derivation_from_json(json.dumps(shapes[name]))
            assert str(err.value) == msg

    @pytest.mark.parametrize("item", MALFORMED_ITEMS)
    def test_malformed_conclusion_item(self, item):
        # a conclusion item is [roles, formula entry]: none of these is one,
        # whether a leaf holds it or a node above a well-formed leaf
        good = [[0], 0]
        leaf = {"rule": "id", "conclusion": [good]}
        for nodes in ([dict(leaf, conclusion=[good, item])],
                      [leaf, {"rule": "weaken", "conclusion": [good, item],
                              "principal": 1, "premises": [0]}]):
            obj = {"formulas": [["atom", "a"]], "nodes": nodes, "root": len(nodes) - 1}
            with pytest.raises(lg.FormulaError):
                K.derivation_from_json(json.dumps(obj))

    @pytest.mark.parametrize("node", [
        [], "id", {"conclusion": []}, {"rule": "id"},
        {"rule": ["id"], "conclusion": []},
        {"rule": "id", "conclusion": [], "inst": []},
        {"rule": "id", "conclusion": [], "inst": {"principal": "0"}},
        {"rule": "id", "conclusion": [], "inst": {"principal": True}},
        {"rule": "forall-pos", "conclusion": [], "inst": {"eigen": 5}},
        {"rule": "forall-neg", "conclusion": [], "inst": {"witness": ["x"]}},
        {"rule": "forall-neg", "conclusion": [], "inst": {"witness": 1}},
        {"rule": "id", "conclusion": [], "premises": 3},
        {"rule": "id", "conclusion": [], "premises": [7]},
    ])
    def test_malformed_node(self, node):
        # nodes in the retired nested format, alone or under a nested parent:
        # neither is a table, so both are refused
        wrapped = {"rule": "weaken", "conclusion": [],
                   "inst": {"principal": 0}, "premises": [node]}
        for obj in (node, wrapped):
            with pytest.raises(K.KernelError):
                K.derivation_from_json(json.dumps(obj))


def _swap_leaf(rng: random.Random, obj, values: list):
    """The JSON value obj with one number, string or bool in it (chosen at
    random) replaced by one of values, in place."""
    spots = []
    stack = [obj]
    while stack:
        x = stack.pop()
        for k, v in enumerate(x) if isinstance(x, list) else x.items():
            if isinstance(v, (list, dict)):
                stack.append(v)
            else:
                spots.append((x, k))
    x, k = rng.choice(spots)
    x[k] = rng.choice(values)
    return obj


class TestJsonReferenceOracles:
    """The derivation JSON writer and reader against their versions from
    before they handled each distinct conclusion item once."""

    CALCS = [K.MRL(2), K.MRL(3), K.MRLJ(2, Ultra(0)), K.MRLJ(3, Ultra(1)),
             K.LMRL(2), K.LMRL(3)]

    def derivations(self, rng, count):
        out = []
        while len(out) < count:
            calc = rng.choice(self.CALCS)
            d = rand_cut_output(rng, calc)
            if d is not None:
                K.check(d, calc)
                out.append((d, calc))
        return out

    def test_writers_agree(self):
        rules = set()
        for d, _ in self.derivations(random.Random(0), 500):
            want = derivation_to_obj_reference(d)
            assert K.derivation_to_obj(d) == want
            assert K.derivation_to_json(d) == json.dumps(want, separators=(",", ":"))
            assert K.derivation_to_json(d, pretty=True) == json.dumps(want, indent=2)
            rules |= K.rule_tags(d)
        assert {"id", "neg", "forall-neg", "forall-pos", "imp-pos", "mconj-pos",
                "bang-pos", "bang-neg-contract"} <= rules

    def test_mutated_texts_read_alike(self):
        def outcome(read, obj, n):
            try:
                return read(obj, n)
            except Exception as e:  # any class, which must match too
                return type(e), str(e)

        rng = random.Random(1)
        pool = self.derivations(rng, 40)
        texts = [(K.derivation_to_json(d, pretty=rng.random() < 0.3), calc.n) for d, calc in pool]
        donors = [t for t, _ in texts] + [
            "true", "false", "1.0", "-1", "[]", "{}", '"x"', "99", "[[1], 0]", "[[true], 0]",
            '"premises": [99]', '"witness": 0', '"principal": true', '"root": 99']
        values = [True, False, 1.0, -1, 0, 99, [], {}, "x"]
        outcomes = []
        while len(outcomes) < 4000:  # 2000 mutated texts, 2000 swapped values
            text, n = rng.choice(texts)
            if len(outcomes) % 2:
                obj = _swap_leaf(rng, json.loads(text), values)
            else:
                try:
                    obj = json.loads(mutate(rng, text, donors))
                except ValueError:
                    continue
            n = rng.choice([n, None])
            got = outcome(K.derivation_from_obj, obj, n)
            want = outcome(derivation_from_obj_reference, obj, n)
            assert got is want if isinstance(want, K.Derivation) else got == want, obj
            outcomes.append(got)
        refusals = Counter(o[0] for o in outcomes if isinstance(o, tuple))
        assert set(refusals) == {K.KernelError, lg.FormulaError}
        assert sum(isinstance(o, K.Derivation) for o in outcomes) > 600
        assert len({o for o in outcomes if isinstance(o, tuple)}) > 100

    def test_role_named_as_true_after_its_number(self):
        # both nodes list the item <{1}>a; the root's copy names role 1 as
        # true, which equals and hashes like 1 but is no role number
        d = K.b_id((IFormula(1, A), IFormula(2, A)))
        obj = K.derivation_to_obj(K.b_weaken(d, IFormula(1, B), K.MRL(2)))
        root = obj["nodes"][obj["root"]]
        assert [1] in [item[0] for item in obj["nodes"][0]["conclusion"]]
        root["conclusion"] = [[[True], k] if roles == [1] else [roles, k]
                              for roles, k in root["conclusion"]]
        for read in (K.derivation_from_obj, derivation_from_obj_reference):
            with pytest.raises(lg.FormulaError, match="must be a list of role numbers"):
                read(json.loads(json.dumps(obj)))


# ------------------------------------------- branch pins (strays, ⊸, splits)


C = Atom("c")
SWAP = Endo((1, 0))
IDENT = Endo((0, 1))
U0 = Ultra(0)


def cut_free(d):
    return not any(r.startswith("cut") for r in K.rule_tags(d))


def stray(d, calc):
    """d with a stray copy of its root's principal item x: x is weakened into
    every premise, the root rule is reapplied, and the copies the context
    gained are contracted into x again."""
    x = d.conclusion[d.principal]
    prems = tuple(K.b_weaken(p, x, calc) for p in d.premises)
    extra = len(prems) if d.rule in ("mconj-pos", "imp-pos") else 1
    concl = seq_minus(d.conclusion, (x,)) + (x,) * (extra + 1)
    out = K.Derivation(d.rule, concl, prems, len(concl) - 1,
                       witness=d.witness, eigen=d.eigen)
    for _ in range(extra):
        out = K.b_contract(out, x, calc)
    K.check(out, calc)
    return out


def doubled(d, x, calc):
    """d, a context-splitting node, with x weakened into both premises and
    the two copies contracted into one."""
    prems = tuple(K.b_weaken(p, x, calc) for p in d.premises)
    out = K.Derivation(d.rule, d.conclusion + (x, x), prems, d.principal)
    out = K.b_contract(out, x, calc)
    K.check(out, calc)
    return out


def checked_cut2(d1, x1, d2, x2, calc, swap=False):
    """cut2_residual of x1 in d1 against x2 in d2 (or the other way round),
    checked, cut-free and with the conclusion the cut theorem predicts."""
    if swap:
        d1, x1, d2, x2 = d2, x2, d1, x1
    e = K.cut2_residual(d1, d1.conclusion.index(x1), d2, d2.conclusion.index(x2), calc)
    K.check(e, calc)
    assert cut_free(e)
    want = seq_minus(d1.conclusion, (x1,)) + seq_minus(d2.conclusion, (x2,)) \
        + (IFormula(x1.roles & x2.roles, x1.formula),)
    assert seq_equal(e.conclusion, want)
    return e


def _stray_neg():
    a = Neg(SWAP, A)
    return K.MRL(2), K.axiom_multi(a, [2, 1], K.MRL(2)), K.axiom_multi(a, [2, 1], K.MRL(2))


def _stray_conj_neg(side):
    calc = K.MRL(2)
    a = Conj(U0, A, B)
    d = K.b_rule(f"conj-neg-{side}", (K.axiom_multi(A if side == "l" else B, [2, 1], calc),),
                 IFormula(2, a))
    return calc, d, K.axiom_multi(a, [1, 2], calc)


def _stray_conj_pos():
    calc = K.MRL(2)
    a = Conj(U0, A, B)
    return calc, K.axiom_multi(a, [1, 2], calc), K.axiom_multi(a, [2, 1], calc)


def _stray_forall_neg():
    calc = K.MRL(2)
    a = Forall(U0, "x", Atom("p", (Var("x"),)))
    d = K.b_rule("forall-neg", (K.axiom_multi(Atom("p", (Const("k"),)), [1, 2], calc),),
                 IFormula(2, a), witness=Const("k"))
    return calc, d, K.axiom_multi(a, [1, 2], calc)


def _stray_forall_pos(clash):
    calc = K.MRL(2)
    a = Forall(U0, "x", Atom("p", (Var("x"),)))
    other = K.axiom_multi(a, [2, 1], calc)
    if clash:  # the other side's context mentions the eigenvariable x
        other = K.b_weaken(other, IFormula(1, Atom("q", (Var("x"),))), calc)
    return calc, K.axiom_multi(a, [1, 2], calc), other


def _stray_imp_neg():
    calc = K.MRLJ(2, Ultra(0))
    a = Impl(IDENT, U0, A, B)
    return calc, K.axiom_multi(a, [1, 2], calc), K.axiom_multi(a, [2, 1], calc)


def _stray_imp_pos():
    calc = K.MRLJ(2, Ultra(1))
    a = Impl(SWAP, U0, A, B)
    d = K.axiom_multi(a, [1, 2], calc)
    assert d.rule == "imp-neg"
    return calc, d.premises[0], K.axiom_multi(a, [2, 1], calc)


STRAY_CASES = {
    "neg": _stray_neg,
    "conj-neg-l": lambda: _stray_conj_neg("l"),
    "conj-neg-r": lambda: _stray_conj_neg("r"),
    "conj-pos": _stray_conj_pos,
    "imp-neg": _stray_imp_neg,
    "imp-pos": _stray_imp_pos,
    "forall-neg": _stray_forall_neg,
    "forall-pos": lambda: _stray_forall_pos(False),
    "forall-pos-clash": lambda: _stray_forall_pos(True),
}


class TestStrayCopies:
    """A logical rule introducing a tracked occurrence while stray copies of
    it remain in the premises (structural calculi only)."""

    @pytest.mark.parametrize("swap", [False, True], ids=["side1", "side2"])
    @pytest.mark.parametrize("case", STRAY_CASES)
    def test_stray_case(self, case, swap):
        calc, d, other = STRAY_CASES[case]()
        rule = case.removesuffix("-clash")
        assert d.rule == rule
        x = d.conclusion[d.principal]
        d1 = stray(d, calc)
        # the other side carries the copy whose complement is disjoint from x's
        full = rl.full_set(calc.n)
        x2 = next(it for it in other.conclusion
                  if it.formula == x.formula and not (full & ~x.roles & ~it.roles))
        checked_cut2(d1, x, other, x2, calc, swap)


class TestContextSplit:
    """Tracked copies in both premises of a context-splitting node."""

    @pytest.mark.parametrize("swap", [False, True], ids=["side1", "side2"])
    def test_imp_pos_both_premises(self, swap):
        calc = K.MRLJ(2, Ultra(0))
        node = K.axiom_multi(Impl(IDENT, U0, A, B), [1, 2], calc).premises[0]
        assert node.rule == "imp-pos"
        x = IFormula(2, C)
        d1 = doubled(node, x, calc)
        checked_cut2(d1, x, K.axiom_multi(C, [1, 2], calc), IFormula(1, C), calc, swap)

    @pytest.mark.parametrize("swap", [False, True], ids=["side1", "side2"])
    def test_mconj_pos_both_premises(self, swap):
        calc = K.LMRL(2)
        node = K.axiom_multi(lg.MConj(U0, A, B), [1, 2], calc).premises[0]
        assert node.rule == "mconj-pos"
        bang = Bang(U0, C)
        x = IFormula(2, bang)  # ?-shaped: {1} is not in @0
        d1 = doubled(node, x, calc)
        other = K.axiom_multi(bang, [1, 2], calc)
        assert other.rule == "bang-pos"
        checked_cut2(d1, x, other, IFormula(1, bang), calc, swap)

    def test_cut1_through_imp_pos(self):
        calc = K.MRLJ(2, Ultra(1))
        a = Impl(SWAP, U0, A, B)
        d = K.axiom_multi(a, [0, 3], calc)
        assert d.rule == "imp-neg" and d.premises[0].rule == "imp-pos"
        e = K.cut1(d, d.conclusion.index(IFormula(0, a)), calc)
        K.check(e, calc)
        assert cut_free(e)
        assert seq_equal(e.conclusion, (IFormula(3, a),))


class TestImplication:
    """The ⊸ cases of the axiom, the checker and the principal 2-cut."""

    CALC = K.MRLJ(2, Ultra(1))
    IMP = Impl(SWAP, U0, A, B)

    @pytest.mark.parametrize("parts", [[1, 2], [2, 1], [3, 0], [0, 3]])
    def test_axiom(self, parts):
        d = K.axiom_multi(self.IMP, parts, self.CALC)
        K.check(d, self.CALC)
        assert cut_free(d)
        assert seq_equal(d.conclusion, tuple(IFormula(p, self.IMP) for p in parts))
        assert {"imp-pos", "imp-neg"} <= K.rule_tags(d)

    @pytest.mark.parametrize("r1,r2,label", [(1, 3, "imp-pos-pos"), (1, 2, "imp-pos-neg"),
                                             (2, 1, "imp-neg-pos")])
    def test_principal_cut(self, r1, r2, label):
        full = rl.full_set(2)
        d1 = K.axiom_multi(self.IMP, [r1, full & ~r1], self.CALC)
        d2 = K.axiom_multi(self.IMP, [r2, full & ~r2], self.CALC)
        K.reset_case_hits()
        checked_cut2(d1, IFormula(r1, self.IMP), d2, IFormula(r2, self.IMP), self.CALC)
        assert K.case_hits.get(label)

    def test_mp_cut(self):
        full = rl.full_set(2)
        ds = [K.axiom_multi(self.IMP, [full & ~c, c], self.CALC) for c in (1, 2)]
        e = K.mp_cut(ds, [d.conclusion.index(IFormula(full & ~c, self.IMP))
                          for d, c in zip(ds, (1, 2))], self.CALC)
        K.check(e, self.CALC)
        assert cut_free(e)
        assert seq_equal(e.conclusion, (IFormula(1, self.IMP), IFormula(2, self.IMP)))

    @pytest.mark.parametrize("rule,reason", [
        ("imp-neg", "principal must be implication"),
        ("imp-pos", "principal must be implication"),
        ("mconj-neg", "principal must be multiplicative conjunction"),
        ("mconj-pos", "principal must be multiplicative conjunction"),
    ])
    def test_check_names_the_connective(self, rule, reason):
        calc = self.CALC if rule.startswith("imp") else K.LMRL(2)
        a = self.IMP if rule.startswith("imp") else lg.MConj(U0, A, B)
        d = K.axiom_multi(a, [1, 2], calc)
        node = d if d.rule == rule else d.premises[0]
        assert node.rule == rule
        # the same node with its principal formula replaced by a negation
        wrong = IFormula(node.conclusion[node.principal].roles, Neg(IDENT, A))
        concl = node.conclusion[:-1] + (wrong,)
        bad = K.Derivation(node.rule, concl, node.premises, len(concl) - 1)
        with pytest.raises(K.CheckError) as err:
            K.check(bad, calc)
        assert err.value.reason == reason


class TestSearchSplits:
    """Both multiplicative connectives in search, negative side first and
    positive side first."""

    @pytest.mark.parametrize("parts", [[2, 1], [1, 2]])
    def test_mconj(self, parts):
        calc = K.LMRL(2)
        a = lg.MConj(U0, A, B)
        items = tuple(IFormula(p, a) for p in parts)
        d = K.search(items, calc, 5)
        assert d is not None
        K.check(d, calc)
        assert cut_free(d)
        assert seq_equal(d.conclusion, items)
        assert {"mconj-pos", "mconj-neg"} <= K.rule_tags(d)

    @pytest.mark.parametrize("parts", [[2, 1], [1, 2]])
    def test_imp(self, parts):
        calc = K.MRLJ(2, Ultra(1))
        a = Impl(SWAP, U0, A, B)
        items = tuple(IFormula(p, a) for p in parts)
        d = K.search(items, calc, 5)
        assert d is not None
        K.check(d, calc)
        assert cut_free(d)
        assert seq_equal(d.conclusion, items)
        assert {"imp-pos", "imp-neg"} <= K.rule_tags(d)


class TestMrljIntuitionistic:
    """MRLJ axioms and splits keep every sequent J-intuitionistic, or raise."""

    def test_probe(self):
        # n, J and a formula of up to 3 connectives per seed, and the axioms
        # of three transformers: a partition into 1..3 parts whose first part
        # is split into a subset and its rest; <R1>A cut against <R2>A with
        # disjoint complements, leaving <R1 n R2>A; and a multiparty cut of
        # 2..3 premises whose complements partition the universe.  Each output
        # checks with the conclusion the transformer promises, or an axiom it
        # needs is refused.
        outcomes = Counter()
        for seed in range(2000):
            rng = random.Random(seed)
            n = rng.choice([2, 3])
            full = rl.full_set(n)
            calc = K.MRLJ(n, Ultra(rng.randrange(n)))
            a = rand_formula(rng, calc, n, rng.randrange(4))
            parts = rand_partition(rng, n, rng.randrange(1, 4))
            r, sub = parts[0], rng.randrange(1 << n) & parts[0]
            r1 = rng.randrange(1 << n)
            r2 = (full & ~r1) | (rng.randrange(1 << n) & r1)
            comps = rand_partition(rng, n, rng.choice([2, 3]))

            def axiom(parts):
                d = K.axiom_multi(a, parts, calc)
                K.check(d, calc)
                return d

            def split_roles():
                d = axiom(parts)
                e = K.split_roles(d, d.conclusion.index(IFormula(r, a)), sub, r & ~sub, calc)
                return e, (IFormula(sub, a), IFormula(r & ~sub, a)) \
                    + tuple(IFormula(p, a) for p in parts[1:])

            def cut2_residual():
                d1, d2 = axiom([r1, full & ~r1]), axiom([r2, full & ~r2])
                e = K.cut2_residual(d1, d1.conclusion.index(IFormula(r1, a)),
                                    d2, d2.conclusion.index(IFormula(r2, a)), calc)
                return e, (IFormula(full & ~r1, a), IFormula(full & ~r2, a),
                           IFormula(r1 & r2, a))

            def mp_cut():
                ds = [axiom([full & ~c, c]) for c in comps]
                e = K.mp_cut(ds, [d.conclusion.index(IFormula(full & ~c, a))
                                  for d, c in zip(ds, comps)], calc)
                return e, tuple(IFormula(c, a) for c in comps)

            for transform in (split_roles, cut2_residual, mp_cut):
                try:
                    e, want = transform()
                    K.check(e, calc)
                    assert seq_equal(e.conclusion, want)
                    outcomes[transform.__name__, "checked"] += 1
                except K.KernelError as err:  # a CheckError names no such thing
                    assert str(err).startswith("axiom_multi: ") \
                        and "has no J-intuitionistic derivation" in str(err)
                    outcomes[transform.__name__, "refused"] += 1
        for transform in ("split_roles", "cut2_residual", "mp_cut"):
            assert outcomes[transform, "checked"] > 1500 and outcomes[transform, "refused"] > 0

    def test_negation_introduced_in_a_j_order(self):
        calc = K.MRLJ(2, Ultra(1))
        a = parse_formula("(not [1,0] a)")
        d = K.axiom_multi(a, [2, 0, 1], calc)
        K.check(d, calc)
        assert seq_equal(d.conclusion, (IFormula(2, a), IFormula(0, a), IFormula(1, a)))

    @pytest.mark.parametrize("text,parts", [("(imp [0,0] @1 a c)", [2, 1]),
                                            ("(imp [0,1] @0 c c)", [0, 2, 1])])
    def test_implication_without_a_j_order_raises(self, text, parts):
        calc = K.MRLJ(2, Ultra(1))
        with pytest.raises(K.KernelError, match=r"^axiom_multi: \|- .* has no J-intuitionistic "
                                                 r"derivation in mrlj with J = @1$"):
            K.axiom_multi(parse_formula(text), parts, calc)

    def test_tensor_is_no_mrlj_connective(self):
        # axiom_multi builds what it can and leaves the connective to check
        calc = K.MRLJ(2, Ultra(1))
        a = parse_formula("(tensor @0 a b)")
        with pytest.raises(K.CheckError, match="rule mconj-pos not available in mrlj"):
            K.check(K.axiom_multi(a, [3], calc), calc)
        with pytest.raises(K.KernelError, match="has no J-intuitionistic derivation"):
            K.axiom_multi(a, [1, 2], calc)

    def test_split_refused_with_its_axiom(self):
        calc = K.MRLJ(2, Ultra(1))
        a = parse_formula("(imp [0,1] @0 c c)")
        d = K.axiom_multi(a, [3, 0], calc)
        K.check(d, calc)
        with pytest.raises(K.KernelError, match="has no J-intuitionistic derivation"):
            K.split_roles(d, d.conclusion.index(IFormula(3, a)), 2, 1, calc)


def _replace(d: K.Derivation, old: K.Derivation, new: K.Derivation) -> K.Derivation:
    """d with every occurrence of the node old replaced by new."""
    memo: dict = {old: new}

    def walk(node):
        if node not in memo:
            memo[node] = K.Derivation(node.rule, node.conclusion,
                                      [walk(p) for p in node.premises],
                                      node.principal, node.witness, node.eigen)
        return memo[node]

    return walk(d)


def _mutant(rng: random.Random, d: K.Derivation, calc) -> K.Derivation:
    """d with one node changed in one way: its rule renamed, its premises
    cut short, reversed or replaced, one conclusion role set changed, its
    principal index moved, or its witness or eigenvariable toggled."""
    nodes = list(K._nodes(d))
    v = rng.choice(nodes)
    rule, concl, prems = v.rule, v.conclusion, v.premises
    principal, witness, eigen = v.principal, v.witness, v.eigen
    match rng.randrange(8):
        case 0:
            rule = rng.choice(sorted(K._ALLOWED_RULES[calc.kind]))
        case 1:
            prems = prems[:-1]
        case 2:
            prems = prems[::-1]
        case 3:
            k = rng.randrange(len(prems) + 1)
            prems = prems[:k] + (rng.choice(nodes),) + prems[k + 1:]
        case 4:
            k = rng.randrange(len(concl))
            item = IFormula(rng.randrange((1 << calc.n) + 1), concl[k].formula)
            concl = concl[:k] + (item,) + concl[k + 1:]
        case 5:
            principal = rng.choice([None, *range(-1, len(concl) + 1)])
        case 6:
            witness = None if witness is not None else rng.choice([Const("k"), Var("x")])
        case _:
            eigen = None if eigen is not None else rng.choice(["x", "y"])
    return _replace(d, v, K.Derivation(rule, concl, prems, principal, witness, eigen))


def _verdict(check, d, calc):
    try:
        check(d, calc)
    except K.KernelError as e:
        return type(e).__name__, str(e)
    return None


class TestRuleTableOracles:
    """The table-driven checker and search against the per-rule ones."""

    CALCS = [K.MRL(2), K.MRL(3), K.MRLJ(2, Ultra(0)), K.MRLJ(3, Ultra(0)),
             K.LMRL(2), K.LMRL(3)]

    def test_check_agrees_with_the_reference_on_mutants(self):
        rng = random.Random(0)
        verdicts = []
        while len(verdicts) < 2400:
            calc = rng.choice(self.CALCS)
            a = rand_formula(rng, calc, calc.n, rng.randrange(4))
            try:
                d = K.axiom_multi(a, rand_partition(rng, calc.n, rng.choice([2, 3])), calc)
            except K.KernelError:  # an mrlj split with no J order
                continue
            for _ in range(6):
                m = _mutant(rng, d, calc)
                got = _verdict(K.check, m, calc)
                assert got == _verdict(check_reference, m, calc)
                verdicts.append(got)
        reasons = Counter(v for v in verdicts if v is not None)
        assert verdicts.count(None) > 500 and len(reasons) > 60

    def test_search_agrees_with_the_reference(self):
        rng = random.Random(0)
        found = 0
        for _ in range(400):
            calc = rng.choice([c for c in self.CALCS if c.n == 2])
            a = rand_formula(rng, calc, 2, rng.randrange(3))
            items = [IFormula(p, a) for p in rand_partition(rng, 2, rng.choice([1, 2, 3]))]
            if rng.random() < 0.5:
                items.append(IFormula(rng.randrange(4), rand_formula(rng, calc, 2, 1)))
            rng.shuffle(items)
            depth = rng.randrange(1, 6)
            got = K.search(items, calc, depth)
            assert got is search_reference(items, calc, depth)
            found += got is not None
        assert 100 < found < 300

    def test_side_conditions(self):
        mrl, lmrl = K.MRL(2), K.LMRL(2)
        bang = Bang(U0, A)
        promoted = K.axiom_multi(bang, [1, 2], lmrl)
        p = Forall(U0, "x", Atom("p", (Var("x"),)))
        free_x = K.b_weaken(K.axiom_multi(p, [1, 2], mrl).premises[0],
                            IFormula(2, Atom("q", (Var("x"),))), mrl)
        q = K.axiom_multi(Forall(U0, "x", Atom("p", (Var("x"), Var("y")))), [3], mrl)
        for calc, d, reason in [
            (lmrl, K.Derivation("bang-pos", (IFormula(3, bang), IFormula(1, bang)),
                                promoted.premises, 1),
             "(bang-pos) context must consist of <R'>!_U' B' with R' not in U'"),
            (mrl, K.b_rule("forall-pos", (free_x,), IFormula(1, p), eigen="x"),
             "(forall-pos) eigenvariable occurs free in the context"),
            (mrl, K.Derivation(q.rule, q.conclusion, q.premises, q.principal, eigen="y"),
             "(forall-pos) eigenvariable captured in the body"),
        ]:
            want = ("CheckError", f"at node []: {reason}")
            assert _verdict(K.check, d, calc) == _verdict(check_reference, d, calc) == want

    def test_witness_candidates_beside_a_deep_formula(self):
        # the candidates are collected by a loop, at the default recursion limit
        deep = parse_formula("(q k)")
        for _ in range(3000):
            deep = Neg(SWAP, deep)
        items = (IFormula(1, parse_formula("(forall @1 x (p x))")),
                 IFormula(2, parse_formula("(p c)")), IFormula(1, deep))
        calc = K.MRL(2)
        d = K.search(items, calc, 3)
        K.check(d, calc)
        assert K.rule_tags(d) == {"id", "weaken", "forall-neg"}

    def test_bad_principal_index_is_reported_at_its_node(self):
        calc = K.MRL(2)
        ax = K.axiom_multi(Neg(SWAP, A), [1, 2], calc)
        bad = K.Derivation("neg", ax.conclusion, ax.premises, 7)
        root = K.Derivation("weaken", bad.conclusion + (IFormula(1, B),), (bad,), 2)
        want = ("CheckError", "at node [0]: rule neg: bad principal index 7")
        assert _verdict(K.check, root, calc) == _verdict(check_reference, root, calc) == want

    def test_search_refuses_items_that_check_refuses(self):
        mrl = K.MRL(2)
        for items, reason in [
            ((IFormula(1, A), IFormula(2, A), IFormula(1, Bang(U0, B))),
             "connective Bang not in calculus mrl"),
            ((IFormula(1, A), IFormula(4, A)), "role set outside universe"),
            ((IFormula(3, Neg(Endo((0, 1, 2)), A)),), "endo over 3 roles in universe of 2"),
            ((IFormula(3, lg.AConj(Ultra(2), A, B)),), "connective AConj not in calculus mrl"),
        ]:
            with pytest.raises(K.KernelError) as err:
                K.search(items, mrl, 3)
            assert (type(err.value), str(err.value)) == (K.KernelError, reason)
        with pytest.raises(K.KernelError, match=r"^ultrafilter @2 outside universe$"):
            K.search((IFormula(3, lg.MConj(Ultra(2), A, B)),), K.LMRL(2), 3)
