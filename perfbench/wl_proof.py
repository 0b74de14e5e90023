"""proof: the kernel, `logic` and `roles` do all the work.

Jobs (per seed, counts fixed):
- cut jobs: formula text -> parse_formula -> axiom_multi -> one of the four
  cut entry points -> check -> JSON round trip -> check, on LMRL and MRL
  formulas of 3..127 connectives over 3 roles;
- check-only jobs on valid derivations, and on corrupted copies that must be
  rejected;
- search on propositional identity sequents (provable at depth height+2)
  and on non-theorems (an identity sequent plus a lone <{0}>q).
"""

from __future__ import annotations

import random

from multirole import kernel as kn
from multirole import logic as lg
from multirole import roles as rl
from multirole.logic import Atom, IFormula

import gen
from core import Job, expect

N = 3
FULL = rl.full_set(N)
CUT_KINDS = ("cut2_residual", "mp_cut", "split_roles", "cut1")


def _calc(kind: str) -> kn.Calculus:
    return kn.LMRL(N) if kind == "lmrl" else kn.MRL(N)


def cut_free(d) -> bool:
    return not any(r.startswith("cut") for r in kn.rule_tags(d))


def _roundtrip(d, calc):
    d2 = kn.derivation_from_json(kn.derivation_to_json(d), N)
    kn.check(d2, calc)
    return d2


def cut_job(rng: random.Random, calc_kind: str, cut: str, size: int, jid: str) -> Job:
    calc = _calc(calc_kind)
    text = lg.fmt_formula(gen.formula(rng, calc_kind, N, size))
    if cut == "cut2_residual":
        r1 = rng.randrange(1, FULL)
        r2 = (FULL & ~r1) | (rng.randrange(1 << N) & r1)
        want = lambda a: (IFormula(FULL & ~r1, a), IFormula(FULL & ~r2, a),
                          IFormula(r1 & r2, a))

        def op(a):
            d1 = kn.axiom_multi(a, [r1, FULL & ~r1], calc)
            d2 = kn.axiom_multi(a, [r2, FULL & ~r2], calc)
            return kn.cut2_residual(d1, d1.conclusion.index(IFormula(r1, a)),
                                    d2, d2.conclusion.index(IFormula(r2, a)), calc)
    elif cut == "mp_cut":
        comps = gen.partition(rng, N, rng.choice([2, 3]))
        want = lambda a: tuple(IFormula(c, a) for c in comps)

        def op(a):
            ds = [kn.axiom_multi(a, [FULL & ~c, c], calc) for c in comps]
            idx = [d.conclusion.index(IFormula(FULL & ~c, a)) for d, c in zip(ds, comps)]
            return kn.mp_cut(ds, idx, calc)
    elif cut == "split_roles":
        r, rest = gen.partition(rng, N, 2)
        sub = rng.randrange(1 << N) & r
        want = lambda a: (IFormula(sub, a), IFormula(r & ~sub, a), IFormula(rest, a))

        def op(a):
            d = kn.axiom_multi(a, [r, rest], calc)
            return kn.split_roles(d, d.conclusion.index(IFormula(r, a)), sub, r & ~sub, calc)
    else:
        want = lambda a: (IFormula(FULL, a),)

        def op(a):
            d = kn.axiom_multi(a, [0, FULL], calc)
            return kn.cut1(d, d.conclusion.index(IFormula(0, a)), calc)

    def run():
        a = lg.parse_formula(text, N)
        out = op(a)
        kn.check(out, calc)
        return a, out, _roundtrip(out, calc)

    def check(res):
        a, out, back = res
        expect(cut_free(out), "cut output contains a cut rule")
        # the conclusion the cut theorem predicts from the input role sets
        expect(lg.seq_equal(out.conclusion, want(a)), "unexpected cut conclusion")
        expect(lg.seq_equal(back.conclusion, out.conclusion),
               "JSON round trip changed the conclusion")

    return Job(jid, f"cut:{cut}", run, check)


def _corrupt(d):
    """A copy whose last leaf (in preorder) mentions an atom nothing else has;
    its parent's schema check must then fail."""
    if not d.premises:
        return kn.Derivation(d.rule, d.conclusion + (IFormula(0, Atom("zz")),))
    i = len(d.premises) - 1
    prems = d.premises[:i] + (_corrupt(d.premises[i]),)
    return kn.Derivation(d.rule, d.conclusion, prems, d.principal,
                         witness=d.witness, eigen=d.eigen)


def check_job(rng: random.Random, calc_kind: str, size: int, corrupt: bool, jid: str) -> Job:
    calc = _calc(calc_kind)
    a = gen.formula(rng, calc_kind, N, size)
    d = kn.axiom_multi(a, gen.partition(rng, N, rng.choice([2, 3])), calc)
    if corrupt:
        d = _corrupt(d)

    def run():
        try:
            kn.check(d, calc)
            return None
        except kn.CheckError as e:
            return e

    def check(err):
        if corrupt:
            expect(err is not None, "corrupted derivation accepted")
        else:
            expect(err is None, f"valid derivation rejected: {err}")

    return Job(jid, "check:" + ("corrupt" if corrupt else "valid"), run, check)


def search_input(rng: random.Random, size: int, k: int, provable: bool):
    """An LMRL identity sequent over k role sets and a search depth at which
    it is provable (its axiom_multi derivation's height + 2); a non-theorem
    adds a lone <{0}>q, which linear logic can never bring to an (id) node."""
    a = gen.formula(rng, "search", N, size)
    parts = gen.partition(rng, N, k, nonempty=True)
    items = tuple(IFormula(p, a) for p in parts)
    depth = kn.axiom_multi(a, parts, kn.LMRL(N)).height + 2
    if not provable:
        items += (IFormula(1, Atom("q")),)
    return items, depth


def search_job(rng: random.Random, size: int, k: int, provable: bool, jid: str) -> Job:
    calc = kn.LMRL(N)
    items, depth = search_input(rng, size, k, provable)

    def run():
        return kn.search(items, calc, depth)

    def check(found):
        if not provable:
            expect(found is None, "search proved a non-theorem")
            return
        expect(found is not None, "search missed a provable identity sequent")
        kn.check(found, calc)
        expect(lg.seq_equal(found.conclusion, items), "search proved another sequent")

    return Job(jid, "search:" + ("provable" if provable else "non-theorem"), run, check)


def build(seed: int) -> list[Job]:
    """168 jobs in three bands of cost.  68 cheap jobs, then 32 cut1 jobs at
    7 connectives in the middle, then 68 dearer ones whose top holds 24
    cut2_residual jobs at 31 connectives below two large cuts.  The median
    falls in the middle band and the 90th percentile inside the 24, so each
    quantile rests on many alike jobs rather than on one input."""
    rng = random.Random(f"proof:{seed}")
    jobs = []

    def add(job_fn, *args, times=1):
        for _ in range(times):
            jobs.append(job_fn(rng, *args, f"{':'.join(map(str, args))}:{len(jobs)}"))

    calcs = ("lmrl", "mrl")
    # cheap
    for calc_kind in calcs:
        for size in (3, 7):
            add(check_job, calc_kind, size, False, times=4)
            add(check_job, calc_kind, size, True, times=4)
        add(cut_job, calc_kind, "cut1", 3, times=3)
    for size in (2, 3, 4, 5):
        add(search_job, size, 2, True, times=6)
    add(search_job, 2, 2, False, times=6)
    # middle
    for calc_kind in calcs:
        add(cut_job, calc_kind, "cut1", 7, times=16)
    # dear
    for calc_kind in calcs:
        for size in (15, 31):
            add(check_job, calc_kind, size, False)
            add(check_job, calc_kind, size, True)
        for cut in CUT_KINDS[:3]:
            for size in (3, 7, 15):
                add(cut_job, calc_kind, cut, size)
        add(cut_job, calc_kind, "cut1", 15)
    for size in (6, 7):
        add(search_job, size, 2, True, times=2)
    for size in (2, 3, 4):
        add(search_job, size, 3, True, times=2)
    for size in (4, 5, 6, 7):
        add(search_job, size, 2, False)
    for calc_kind in calcs:
        add(cut_job, calc_kind, "cut2_residual", 31, times=12)
    # the largest inputs are MRL: an LMRL cut at 127 connectives costs
    # anywhere from 1x to 2.5x as much from one seed to the next
    add(cut_job, "mrl", "split_roles", 63)
    add(cut_job, "mrl", "cut2_residual", 127)
    return jobs
