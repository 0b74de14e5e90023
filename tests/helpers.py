"""Shared generators for the randomized test corpora.

All randomness flows through explicitly seeded random.Random instances so
every test is reproducible byte-for-byte.
"""

from __future__ import annotations

import random

from multirole import kernel as K
from multirole import roles as rl
from multirole import runtime as rt
from multirole import session as sn
from multirole.logic import (
    AConj,
    Atom,
    Bang,
    Conj,
    Forall,
    Impl,
    MConj,
    Neg,
    Var,
)
from multirole.roles import Endo, Ultra


# ------------------------------------------------------------- formulas


def rand_formula(rng: random.Random, calc, n: int, sz: int, bound=()):
    """A random formula of the given calculus with at most sz connectives."""
    choices = ["atom"]
    if sz > 0:
        if calc.kind == "lmrl":
            choices += ["neg", "aconj", "mconj", "bang", "forall"]
        elif calc.kind == "mrlj":
            choices += ["neg", "conj", "imp", "forall"]
        else:
            choices += ["neg", "conj", "forall"]
    c = rng.choice(choices)
    ru = Ultra(rng.randrange(n))
    f = Endo(tuple(rng.randrange(n) for _ in range(n)))
    if c == "atom":
        args = tuple(Var(b) for b in bound if rng.random() < 0.5)
        return Atom(rng.choice("abc"), args)
    if c == "neg":
        return Neg(f, rand_formula(rng, calc, n, sz - 1, bound))
    if c == "conj":
        return Conj(ru, rand_formula(rng, calc, n, sz - 1, bound),
                    rand_formula(rng, calc, n, sz - 1, bound))
    if c == "aconj":
        return AConj(ru, rand_formula(rng, calc, n, sz - 1, bound),
                     rand_formula(rng, calc, n, sz - 1, bound))
    if c == "mconj":
        return MConj(ru, rand_formula(rng, calc, n, sz - 1, bound),
                     rand_formula(rng, calc, n, sz - 1, bound))
    if c == "imp":
        return Impl(f, ru, rand_formula(rng, calc, n, sz - 1, bound),
                    rand_formula(rng, calc, n, sz - 1, bound))
    if c == "bang":
        return Bang(ru, rand_formula(rng, calc, n, sz - 1, bound))
    x = rng.choice("xyz")
    return Forall(ru, x, rand_formula(rng, calc, n, sz - 1, bound + (x,)))


def rand_partition(rng: random.Random, n: int, k: int) -> list[int]:
    """The universe split into k (possibly empty) role sets."""
    parts = [0] * k
    for r in range(n):
        parts[rng.randrange(k)] |= 1 << r
    return parts


def rand_nonempty_partition(rng: random.Random, n: int, k: int) -> list[int]:
    k = min(k, n)
    rs = list(range(n))
    rng.shuffle(rs)
    parts = [0] * k
    for i, r in enumerate(rs[:k]):
        parts[i] |= 1 << r
    for r in rs[k:]:
        parts[rng.randrange(k)] |= 1 << r
    return parts


# ------------------------------------------------------------- sessions

_LABELS = ["msg", "ack", "token", "ping", "blob", "tick", "quote"]
_PAYLOADS = ["unit", "int", "str"]


def rand_atom_session(rng: random.Random, n: int, allow_gather: bool = True):
    label = rng.choice(_LABELS)
    payload = rng.choice(_PAYLOADS)
    kind = rng.random()
    if kind < 0.15:
        return sn.Bcast(label, rng.randrange(n), payload)
    if kind < 0.3 and n > 2 and allow_gather:
        return sn.Gather(label, rng.randrange(n), payload)
    frm = rng.randrange(n)
    to = rng.choice([r for r in range(n) if r != frm])
    return sn.Msg(label, frm, to, payload)


def rand_session(rng: random.Random, n: int, budget: int,
                 allow_fork: bool = True, allow_choice: bool = True,
                 allow_gather: bool = True):
    """A random runnable session: forks only in final position, no repeat."""
    k = rng.randrange(1, 4)
    segs = []
    for i in range(k):
        last = i == k - 1
        roll = rng.random()
        if budget > 0 and allow_choice and roll < 0.3:
            r = rng.randrange(n)
            inner = rand_session(rng, n, budget - 1, False, allow_choice, allow_gather)
            pick = rng.random()
            if pick < 0.4:
                segs.append(sn.OptionT(r, inner))
            elif pick < 0.7:
                segs.append(sn.SAConj(
                    r, inner, rand_session(rng, n, budget - 1, False, allow_choice, allow_gather)))
            else:
                segs.append(sn.Repseq(r, inner))
        elif last and budget > 0 and allow_fork and roll < 0.5:
            r = rng.randrange(n)
            segs.append(sn.SMConj(
                r, rand_session(rng, n, budget - 1, False, allow_choice, allow_gather),
                rand_session(rng, n, budget - 1, False, allow_choice, allow_gather)))
        else:
            segs.append(rand_atom_session(rng, n, allow_gather))
    out = segs[-1]
    for s in reversed(segs[:-1]):
        out = sn.Append(s, out)
    return out


def scripted_parties(session, parts: list[int],
                     decisions: dict[int, rt.Decisions] | None = None):
    """One synthesized protocol-following script per party role set."""
    segs = rt.norm(session)
    out = []
    for part in parts:
        dec = decisions.get(part) if decisions else None
        out.append((part, rt.synthesize(segs, part, dec)))
    return out


def preset_decisions(rng: random.Random, parts: list[int]) -> dict[int, rt.Decisions]:
    """Frozen branch/loop decisions keyed by role set, reusable across
    topologies of the same protocol."""
    out = {}
    for part in parts:
        sides = [rng.choice(["l", "r"]) for _ in range(12)]
        loops = [rng.randrange(3) for _ in range(6)]
        out[part] = (tuple(sides), tuple(loops))
    return out


def decisions_view(preset: dict[int, tuple]) -> dict[int, rt.Decisions]:
    return {part: rt.Decisions(sides=list(s), loops=list(l))
            for part, (s, l) in preset.items()}


# --------------------------------------------------------------- oracles


def recount_every_event(pool: rt.Pool) -> rt.Pool:
    """After every event of the pool, recount the live pool from the full
    registries and compare it with the pool's counters and audit entry."""
    event = pool._event

    def checked(rule, **kw):
        event(rule, **kw)
        threads = sum(not t.finished for t in pool.threads.values())
        chans = [c for c in pool.channels.values() if c.live and c.cursor]
        eps = sum(e.live for c in chans for e in c.endpoints)
        assert (pool.live_threads(), pool.live_channels(), pool.live_endpoints()) \
            == (threads, len(chans), eps)
        assert pool.audit_log[-1] == \
            (pool.step_no, eps == 0 or threads + len(chans) >= eps + 1)
        for c in pool.channels.values():
            if c.live:
                covered = 0
                for e in c.endpoints:
                    if e.live:
                        assert not covered & e.roles, f"channel {c.cid} overlaps"
                        covered |= e.roles
                assert covered == pool.full, f"channel {c.cid} misses roles"

    pool._event = checked
    return pool
