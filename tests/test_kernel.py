import random

import pytest

from multirole import kernel as K
from multirole import roles as rl
from multirole.logic import (
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

from helpers import rand_formula, rand_partition


A = Atom("a")
B = Atom("b")


class TestCheck:
    def test_id_axiom(self):
        calc = K.LMRL(2)
        d = K.b_id((IFormula(1, A), IFormula(2, A)))
        K.check(d, calc)

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

    def test_neg_preimage(self):
        calc = K.LMRL(2)
        f = Endo((1, 0))
        d = K.b_id((IFormula(1, A), IFormula(2, A)))
        e = K.b_neg(d, f.preimage(1), f, A)
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

    def test_check_reports_path(self):
        calc = K.LMRL(2)
        bad = K.Derivation("id", (IFormula(1, A), IFormula(1, A)))
        good = K.b_id((IFormula(1, A), IFormula(2, A)))
        with pytest.raises(K.CheckError):
            K.check(bad, calc)
        assert K.check_ok(good, calc)
        assert not K.check_ok(bad, calc)


    def test_height_deeper_than_recursion_limit(self):
        leaf = K.b_id((IFormula(1, A), IFormula(2, A)))
        d = leaf
        for _ in range(5000):
            d = K.Derivation("weaken", leaf.conclusion, (d,), 0)
        assert d.height == 5001
        # above and below a node whose height is already cached
        assert K.Derivation("cut", (), (d, leaf)).height == 5002
        assert d.premises[0].height == 5000


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
