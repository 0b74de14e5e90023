"""mtlc: substitution stepping and retyping dominate.

Jobs (per seed, counts fixed):
- two-party message-chain programs of 10..160 messages built through
  chan_create: typechecked, evaluated plain, and evaluated with
  retype_every_step.  The outer party sums the integers it receives, so the
  final value is known in advance;
- accept and reject typecheck jobs on the golden corpus (fixed programs with
  hand-written expected types or rejecting rules).
The runtime carries one channel per program and the kernel does nothing.
"""

from __future__ import annotations

import random

from multirole import mtlc as mt
from multirole import roles as rl
from multirole import runtime as rt
from multirole import session as sn

from core import Job, expect

# The corpus and the typechecks are cheap; above them the plain runs of the
# sixteen 10-message chains form the middle band, where the median falls,
# and the 90th percentile falls among the 25 retyped 20-message runs.
CHAIN_LENGTHS = (10,) * 16 + (20,) * 25 + (40,) * 2 + (80,) * 2 + (160,)

SES = '(chan {0} "a(0,1)@b(1,0)")'

# (source, expected type) for accepted programs; (source, rule) for rejected
CORPUS = [
    ("42", mt.TIntIdx(42)),
    ('"hi"', mt.TStr()),
    ("(iadd 2 3)", mt.TIntIdx(5)),
    ("(iadd 2 (if (randbit) 1 2))", mt.TInt()),
    ("(app (lam (x int) (iadd x x)) 5)", mt.TInt()),
    ("(lam (x int) x)", mt.TFunN(mt.TInt(), mt.TInt())),
    ("(llam (u 1) u)", mt.TFunL(mt.TUnit(), mt.TUnit())),
    ("(pair 1 true)", mt.TPair(mt.TIntIdx(1), mt.TBool())),
    ("(tensor 1 unit)", mt.TLPair(mt.TIntIdx(1), mt.TUnit())),
    ("(fst (pair 1 true))", mt.TIntIdx(1)),
    ('(snd (pair 1 "s"))', mt.TStr()),
    ("(let (a b) (tensor 1 unit) (iadd a 0))", mt.TIntIdx(1)),
    ("(app (llam (u 1) 5) unit)", mt.TIntIdx(5)),
    ("(thread_create (llam (u 1) unit))", mt.TUnit()),
    ('(app (fix (loop (-> int 1)) (lam (k int) '
     '(if (randbit) unit (app loop (iadd k 1))))) 0)', mt.TUnit()),
    ('(llam (a (chan {0} "m(0,1,int)@r(1,0)")) '
     '(llam (b (chan {1,2} "m(0,1,int)@r(1,0)")) (chan_2_cut a b)))',
     mt.TFunL(mt.TChan(0b001, (sn.Msg("m", 0, 1, "int"), sn.Msg("r", 1, 0))),
              mt.TFunL(mt.TChan(0b110, (sn.Msg("m", 0, 1, "int"), sn.Msg("r", 1, 0))),
                       mt.TUnit()))),
    (f"(llam (c {SES}) (tensor c c))", "ty-var"),
    (f"(llam (c {SES}) unit)", "ty-lam-l"),
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
    ('(llam (c (chan {1} "a(0,1)@b(1,0)")) (chan_sync (chan_send c unit)))', "chan_send"),
    (f"(llam (c {SES}) (chan_sync c))", "chan_sync"),
    ('(llam (a (chan {0} "m(0,1)")) (llam (b (chan {0} "m(0,1)")) '
     '(chan_2_cut a b)))', "chan_2_cut"),
    ('(llam (c (chan {0} "a(0,1,int)@b(1,0)")) (chan_sync (chan_send c true)))', "chan_send"),
    ('(llam (c (chan {0} "a(0,1)@b(1,0)")) (chan_sync (chan_skip c)))', "chan_skip"),
]


def _party(cursor, roleset, chan, acc, ctr):
    """The expression one party runs on its endpoint.  Sends carry the
    literal recorded in each segment; receives are added to `acc`, which
    the party returns after its final synchronisation."""
    head, rest = cursor[0], cursor[1:]
    if not rest:
        return mt.EApp(mt.ELLam("u", mt.TUnit(), acc), mt.EConst("chan_sync", (chan,)))
    kind = sn.next_actions(head, roleset).kind
    if kind == "send":
        nxt = mt.EConst("chan_send", (chan, mt.EInt(int(head.label[1:]))))
        return _party(rest, roleset, nxt, acc, ctr)
    ctr[0] += 1
    v, k = f"v{ctr[0]}", f"k{ctr[0]}"
    return mt.ELet(v, k, mt.EConst("chan_recv", (chan,)),
                   _party(rest, roleset, mt.EVar(k), mt.EConst("iadd", (acc, mt.EVar(v))), ctr))


def chain(rng: random.Random, length: int):
    """A chain program and the sum its outer party must return."""
    inner_roles = 1 << rng.randrange(2)
    outer_roles = rl.full_set(2) & ~inner_roles
    outer_role = outer_roles.bit_length() - 1
    segs, total = [], 0
    for i in range(length - 1):
        # the first message goes to the outer party, so its type is int
        frm = 1 - outer_role if i == 0 else rng.randrange(2)
        value = rng.randrange(1, 1000)
        segs.append(sn.Msg(f"m{value}", frm, 1 - frm, "int"))
        if frm != outer_role:
            total += value
    segs.append(sn.Msg("end", 0, 1))  # the final synchronisation
    segs = tuple(segs)
    ctr = [0]
    inner = mt.ELLam("c0", mt.TChan(inner_roles, segs),
                     mt.EApp(mt.ELLam("w", mt.TInt(), mt.EUnit()),
                             _party(segs, inner_roles, mt.EVar("c0"), mt.EInt(0), ctr)))
    outer = _party(segs, outer_roles, mt.EConst("chan_create", (inner,)), mt.EInt(0), ctr)
    return outer, total


def chain_jobs(rng: random.Random, length: int, tag: str) -> list[Job]:
    expr, total = chain(rng, length)
    seed = rng.randrange(1 << 16)
    results = {}

    def typecheck():
        return mt.typecheck(expr, n=2)

    def check_type(ty):
        expect(mt.compat(ty, mt.TInt()), f"chain program typed {ty}, expected int")

    def evaluate(retype: bool):
        def run():
            return mt.eval_pool(expr, n=2, seed=seed, retype_every_step=retype)

        def check(res):
            out, value = res
            expect(out.status == "done", f"evaluation ended {out.status}: {out.detail}")
            expect(value == mt.EInt(total), f"value {value!r}, expected {total}")
            keys = rt.message_keys(out.trace)
            expect(len(keys) == length, "wrong number of exchanges")
            # plain and retyped runs of one program agree
            other = results.get(not retype)
            if other is not None:
                expect(other == keys, "plain and retyped runs disagree")
            results[retype] = keys

        return run, check

    jobs = [Job(f"{tag}:typecheck", "chain-typecheck", typecheck, check_type)]
    for retype in (False, True):
        run, check = evaluate(retype)
        jobs.append(Job(f"{tag}:eval{'-retyped' if retype else ''}",
                        "chain-eval-retyped" if retype else "chain-eval", run, check))
    return jobs


def corpus_job(src: str, want, jid: str) -> Job:
    def run():
        try:
            return mt.typecheck(mt.parse_program(src, 3), n=3)
        except mt.MtlcTypeError as e:
            return e

    def check(got):
        if isinstance(want, str):
            expect(isinstance(got, mt.MtlcTypeError) and want in str(got),
                   f"expected rejection by {want}, got {got!r}")
        else:
            expect(got == want, f"typed {got!r}, expected {want!r}")

    return Job(jid, "corpus-" + ("reject" if isinstance(want, str) else "accept"), run, check)


def build(seed: int) -> list[Job]:
    rng = random.Random(f"mtlc:{seed}")
    jobs = []
    for i, length in enumerate(CHAIN_LENGTHS):
        jobs += chain_jobs(rng, length, f"chain:{length}:{i}")
    for i, (src, want) in enumerate(CORPUS):
        jobs.append(corpus_job(src, want, f"corpus:{i}"))
    return jobs

