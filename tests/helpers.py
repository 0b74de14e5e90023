"""Shared generators for the randomized test corpora.

All randomness flows through explicitly seeded random.Random instances so
every test is reproducible byte-for-byte.
"""

from __future__ import annotations

import random
from collections import Counter

from multirole import kernel as K
from multirole import mtlc as M
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
from multirole.mtlc import (
    EApp,
    EBool,
    EConst,
    EFix,
    EFst,
    EIf,
    EInt,
    ELam,
    ELet,
    ELLam,
    ELPair,
    EPair,
    ERc,
    ESnd,
    EStr,
    EUnit,
    EVar,
    Expr,
    MtlcTypeError,
    TBool,
    TChan,
    TFunL,
    TFunN,
    TInt,
    TIntIdx,
    TLPair,
    TPair,
    TUnit,
    Viewtype,
    _avoid,
    _check,
    compat,
    is_linear,
    rho,
    sig_result,
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


# i-formula JSON items that are not {"roles": [role, ...], "formula": text}
MALFORMED_ITEMS = [
    {"roles": [0]},
    {"formula": "a"},
    "a",
    None,
    [[0], "a"],
    {"roles": 0, "formula": "a"},
    {"roles": "0", "formula": "a"},
    {"roles": ["0"], "formula": "a"},
    {"roles": [0.0], "formula": "a"},
    {"roles": [-1], "formula": "a"},
    {"roles": [64], "formula": "a"},
    {"roles": [0], "formula": 3},
    {"roles": [0], "formula": ["a"]},
    {"roles": [0], "formula": None},
]


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


# ------------------------------------------------------------------ mtlc


def typecheck_declarative(e: Expr, gamma=None, delta=None, n: int = 2) -> Viewtype:
    """Reference checker with explicit context splits (exponential; small terms).

    Used to validate the threaded algorithmic checker: it enumerates every
    way of dividing the linear context at each two-subterm node.
    """
    gamma = dict(gamma or {})
    delta = dict(delta or {})

    def splits(d: dict):
        keys = sorted(d)
        for mask in range(1 << len(keys)):
            left = {k: d[k] for i, k in enumerate(keys) if mask & (1 << i)}
            right = {k: d[k] for i, k in enumerate(keys) if not mask & (1 << i)}
            yield left, right

    def chk(e: Expr, d: dict) -> Viewtype:
        match e:
            case EVar(x):
                if x in d:
                    if set(d) != {x}:
                        raise MtlcTypeError("ty-var", "leftover linear context")
                    return d[x]
                if x in gamma and not d:
                    return gamma[x]
                raise MtlcTypeError("ty-var", f"unbound or leftover at {x}")
            case EUnit() | EBool() | EInt() | EStr() | ERc():
                if d:
                    raise MtlcTypeError("ty-lit", "leftover linear context")
                t, _ = _check(e, gamma, {}, n)
                return t
            case EPair(a, b) | ELPair(a, b) | EApp(a, b):
                errs = None
                for dl, dr in splits(d):
                    try:
                        t1 = chk(a, dl)
                        t2 = chk(b, dr)
                    except MtlcTypeError as ex:
                        errs = ex
                        continue
                    match e:
                        case EPair():
                            if is_linear(t1) or is_linear(t2):
                                raise MtlcTypeError("ty-pair", "linear part")
                            return TPair(t1, t2)
                        case ELPair():
                            return TLPair(t1, t2)
                        case EApp():
                            if isinstance(t1, (TFunN, TFunL)) and compat(t2, t1.dom):
                                return t1.cod
                            errs = MtlcTypeError("ty-app", f"{t1} to {t2}")
                raise errs or MtlcTypeError("ty-split", "no valid context split")
            case EFst(b):
                t = chk(b, d)
                if isinstance(t, TPair):
                    return t.left
                raise MtlcTypeError("ty-fst", str(t))
            case ESnd(b):
                t = chk(b, d)
                if isinstance(t, TPair):
                    return t.right
                raise MtlcTypeError("ty-snd", str(t))
            case ELet(x1, x2, p, b):
                errs = None
                for dl, dr in splits(d):
                    try:
                        tp = chk(p, dl)
                        if not isinstance(tp, TLPair):
                            raise MtlcTypeError("ty-let", str(tp))
                        y1, b1 = _avoid(x1, b, dr)
                        y2, b1 = _avoid(x2, b1, dr)
                        inner = dict(dr)
                        saved = {}
                        for y, ty in ((y1, tp.left), (y2, tp.right)):
                            if is_linear(ty):
                                inner[y] = ty
                            else:
                                saved[y] = gamma.get(y)
                                gamma[y] = ty
                        try:
                            return chk(b1, inner)
                        finally:
                            for y, old in saved.items():
                                if old is None:
                                    del gamma[y]
                                else:
                                    gamma[y] = old
                    except MtlcTypeError as ex:
                        errs = ex
                raise errs or MtlcTypeError("ty-split", "no valid context split")
            case ELam(x, tx, body):
                if rho(body) or d:
                    raise MtlcTypeError("ty-lam-i", "resources or linear capture")
                if is_linear(tx):
                    return TFunN(tx, chk(body, {x: tx}))
                old = gamma.get(x)
                gamma[x] = tx
                try:
                    return TFunN(tx, chk(body, {}))
                finally:
                    if old is None:
                        del gamma[x]
                    else:
                        gamma[x] = old
            case ELLam(x, tx, body):
                x, body = _avoid(x, body, d)
                if is_linear(tx):
                    inner = dict(d)
                    inner[x] = tx
                    return TFunL(tx, chk(body, inner))
                old = gamma.get(x)
                gamma[x] = tx
                try:
                    return TFunL(tx, chk(body, d))
                finally:
                    if old is None:
                        del gamma[x]
                    else:
                        gamma[x] = old
            case EIf(c, a, b):
                errs = None
                if rho(a) != rho(b):
                    raise MtlcTypeError("ty-if", "branch resources differ")
                for dl, dr in splits(d):
                    try:
                        tc = chk(c, dl)
                        if not isinstance(tc, TBool):
                            raise MtlcTypeError("ty-if", str(tc))
                        t1 = chk(a, dr)
                        t2 = chk(b, dr)
                    except MtlcTypeError as ex:
                        errs = ex
                        continue
                    if t1 == t2:
                        return t1
                    if isinstance(t1, (TInt, TIntIdx)) and isinstance(t2, (TInt, TIntIdx)):
                        return TInt()
                    errs = MtlcTypeError("ty-if", f"{t1} vs {t2}")
                raise errs or MtlcTypeError("ty-split", "no valid context split")
            case EFix(x, tx, v):
                t, _ = _check(e, gamma, dict(d), n)
                if d:
                    raise MtlcTypeError("ty-fix", "leftover linear context")
                return t
            case EConst(name, args):
                if not args:
                    if d:
                        raise MtlcTypeError("ty-const", "leftover linear context")
                    return sig_result(name, [], n)
                errs = None
                for dl, dr in splits(d):
                    try:
                        if len(args) == 1:
                            if dr:
                                raise MtlcTypeError("ty-const", "leftover")
                            return sig_result(name, [chk(args[0], dl)], n)
                        if len(args) == 2:
                            return sig_result(name, [chk(args[0], dl), chk(args[1], dr)], n)
                        # three arguments: nest the split
                        for dll, dlr in splits(dl):
                            try:
                                return sig_result(
                                    name,
                                    [chk(args[0], dll), chk(args[1], dlr), chk(args[2], dr)],
                                    n)
                            except MtlcTypeError as ex:
                                errs = ex
                        raise errs or MtlcTypeError("ty-split", "no split")
                    except MtlcTypeError as ex:
                        errs = ex
                raise errs or MtlcTypeError("ty-split", "no valid context split")
        raise MtlcTypeError("ty", f"unknown expression {e!r}")

    return chk(e, delta)


def rho_recount(e) -> Counter:
    """The resource multiset of an expression by a fresh structural walk,
    independent of the per-node cache behind mtlc.rho."""
    out = Counter()
    stack = [e]
    while stack:
        cur = stack.pop()
        match cur:
            case ERc(ep):
                out[ep.eid] += 1
            case ELPair(a, b) | EPair(a, b) | EApp(a, b) | ELet(_, _, a, b):
                stack += [a, b]
            case ELLam(_, _, b) | ELam(_, _, b) | EFix(_, _, b) | EFst(b) | ESnd(b):
                stack.append(b)
            case EConst(_, args):
                stack += list(args)
            case EIf(c, a, _):
                stack += [c, a]
    return out


def eval_recounting_rho(expr, n: int = 2, seed: int = 0):
    """eval_pool with per-step retyping, where after every step pool_rho is
    also compared with a recount of every unfinished thread in the full
    thread registry.  Returns (result, final value, steps checked)."""
    steps = [0]

    def hook(pool, mt):
        M.retype_thread(pool, mt)
        recount = Counter()
        for t in pool.threads.values():
            if not t.finished and getattr(t, "mtlc", None) is not None:
                recount += rho_recount(t.mtlc.expr)
        assert M.pool_rho(pool) == recount, f"step {pool.step_no}"
        steps[0] += 1

    pool = rt.Pool(n, seed=seed)
    mt = M.MtlcThread(pool, expr, hook, expected=M.typecheck(expr, n=n))
    res = pool.run()
    return res, mt.expr, steps[0]


def _chain_party(cursor, roleset, chan, acc, ctr):
    head, rest = cursor[0], cursor[1:]
    if not rest:
        return EApp(ELLam("u", TUnit(), acc), EConst("chan_sync", (chan,)))
    if sn.next_actions(head, roleset).kind == "send":
        nxt = EConst("chan_send", (chan, EInt(int(head.label[1:]))))
        return _chain_party(rest, roleset, nxt, acc, ctr)
    ctr[0] += 1
    v, k = f"v{ctr[0]}", f"k{ctr[0]}"
    return ELet(v, k, EConst("chan_recv", (chan,)),
                _chain_party(rest, roleset, EVar(k), EConst("iadd", (acc, EVar(v))), ctr))


def chain_program(rng: random.Random, length: int):
    """A two-party chain of `length` messages through chan_create, built like
    the mtlc benchmark's: the outer party returns the sum of the integers it
    receives, which is returned with the program."""
    inner_roles = 1 << rng.randrange(2)
    outer_roles = rl.full_set(2) & ~inner_roles
    outer_role = outer_roles.bit_length() - 1
    segs, total = [], 0
    for i in range(length - 1):
        frm = 1 - outer_role if i == 0 else rng.randrange(2)
        value = rng.randrange(1, 1000)
        segs.append(sn.Msg(f"m{value}", frm, 1 - frm, "int"))
        if frm != outer_role:
            total += value
    segs.append(sn.Msg("end", 0, 1))
    segs = tuple(segs)
    ctr = [0]
    inner = ELLam("c0", TChan(inner_roles, segs),
                  EApp(ELLam("w", TInt(), EUnit()),
                       _chain_party(segs, inner_roles, EVar("c0"), EInt(0), ctr)))
    outer = _chain_party(segs, outer_roles, EConst("chan_create", (inner,)), EInt(0), ctr)
    return outer, total
