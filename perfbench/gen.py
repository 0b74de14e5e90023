"""Seeded input generators.  Every input is a function of a random.Random
that the workload seeds from --seed, so the same seed gives the same inputs."""

from __future__ import annotations

import random

from multirole import session as sn
from multirole.logic import AConj, Atom, Bang, Conj, Const, Forall, MConj, Neg, Var
from multirole.roles import Endo, Ultra

# Connectives of each formula kind, in the proportions every formula of that
# kind has (the list is repeated up to the size, then shuffled).
MIX = {
    "lmrl": ("aconj", "mconj", "neg", "forall", "aconj", "mconj"),
    "mrl": ("conj", "neg", "conj", "forall", "conj"),
    "search": ("aconj", "mconj", "neg"),  # the fragment where search is complete
}
BINARY = {"conj": Conj, "aconj": AConj, "mconj": MConj}


SMALL = 2  # a quantifier or ! binds at most this many connectives


def formula(rng: random.Random, kind: str, n: int, size: int):
    """A formula with exactly `size` connectives in the fixed proportions of
    its kind, arranged at random in a tree whose binary splits stay near the
    middle.  An LMRL formula of 3 or more connectives has exactly one !, and
    quantifiers and ! bind small subformulas only: the cost of cutting them
    grows with what they bind (nested ! duplicates work exponentially), so
    this keeps the cost of a size nearly the same for every seed."""
    ops = [MIX[kind][i % len(MIX[kind])] for i in range(size)]
    if kind == "lmrl" and size >= 3:
        ops[0] = "bang"
    rng.shuffle(ops)
    return _tree(rng, n, ops, ())


def _tree(rng: random.Random, n: int, ops: list, bound: tuple):
    if not ops:
        args = tuple(Var(b) for b in bound if rng.random() < 0.5)
        if rng.random() < 0.2:
            args += (Const("k"),)
        return Atom(rng.choice("abc"), args)
    if len(ops) > SMALL + 1 and ops[0] in ("forall", "bang"):
        # defer the binder below the first connective that can head this subtree
        j = next((i for i, o in enumerate(ops) if o not in ("forall", "bang")), None)
        if j is not None:
            ops = [ops[j]] + ops[:j] + ops[j + 1:]
    op, rest = ops[0], ops[1:]
    u = Ultra(rng.randrange(n))
    if op == "neg":
        return Neg(Endo(tuple(rng.randrange(n) for _ in range(n))), _tree(rng, n, rest, bound))
    if op == "bang":
        return Bang(u, _tree(rng, n, rest, bound))
    if op == "forall":
        x = rng.choice("xyz")
        return Forall(u, x, _tree(rng, n, rest, bound + (x,)))
    k = rng.randint(len(rest) // 4, len(rest) - len(rest) // 4)
    return BINARY[op](u, _tree(rng, n, rest[:k], bound), _tree(rng, n, rest[k:], bound))


def partition(rng: random.Random, n: int, k: int, nonempty: bool = False) -> list[int]:
    """The universe 0..n-1 split into k role sets."""
    parts = [0] * k
    roles = list(range(n))
    rng.shuffle(roles)
    for i, r in enumerate(roles):
        parts[i if nonempty and i < k else rng.randrange(k)] |= 1 << r
    return parts


# ---------------------------------------------------------------- sessions

LABELS = ("msg", "ack", "token", "ping", "blob", "tick", "quote")
PAYLOADS = ("unit", "int", "str")


def atom_session(rng: random.Random, n: int, gather: bool = True):
    label, payload = rng.choice(LABELS), rng.choice(PAYLOADS)
    roll = rng.random()
    if roll < 0.15:
        return sn.Bcast(label, rng.randrange(n), payload)
    if roll < 0.3 and n > 2 and gather:
        return sn.Gather(label, rng.randrange(n), payload)
    frm = rng.randrange(n)
    return sn.Msg(label, frm, rng.choice([r for r in range(n) if r != frm]), payload)


def session(rng: random.Random, n: int, budget: int, atoms: int,
            fork: bool = True, gather: bool = True):
    """A runnable session of about `atoms` segments: choices, options and
    loops nest up to `budget` deep, and a fork may only end the session.
    Sessions meant to be printed and parsed back leave gathers out: the
    printer writes `gather(t, label)`, which the parser does not read."""
    segs = []
    for i in range(atoms):
        roll = rng.random()
        if budget > 0 and roll < 0.25:
            r = rng.randrange(n)
            inner = session(rng, n, budget - 1, rng.randrange(1, 4), False, gather)
            pick = rng.random()
            if pick < 0.35:
                segs.append(sn.OptionT(r, inner))
            elif pick < 0.7:
                other = session(rng, n, budget - 1, rng.randrange(1, 4), False, gather)
                segs.append(sn.SAConj(r, inner, other))
            else:
                segs.append(sn.Repseq(r, inner))
        elif i == atoms - 1 and fork and budget > 0 and roll < 0.5:
            segs.append(sn.SMConj(
                rng.randrange(n),
                session(rng, n, budget - 1, rng.randrange(1, 4), False, gather),
                session(rng, n, budget - 1, rng.randrange(1, 4), False, gather)))
        else:
            segs.append(atom_session(rng, n, gather))
    out = segs[-1]
    for s in reversed(segs[:-1]):
        out = sn.Append(s, out)
    return out


def sync_count(s, side: str, loops: int) -> int:
    """Synchronisation (PR4) events of a run in which every choice takes
    `side` and every loop runs `loops` times, computed from the session."""
    match s:
        case sn.Msg() | sn.Bcast() | sn.Gather():
            return 1
        case sn.Nil():
            return 0
        case sn.Append(a, b):
            return sync_count(a, side, loops) + sync_count(b, side, loops)
        case sn.SAConj(_, a, b):
            return 1 + sync_count(a if side == "l" else b, side, loops)
        case sn.OptionT(_, a):
            return 1 + (sync_count(a, side, loops) if side == "l" else 0)
        case sn.Repseq(_, a):
            # continuing a loop is silent; only the exit is an exchange
            return loops * sync_count(a, side, loops) + 1
        case sn.SMConj(_, a, b):
            return sync_count(a, side, loops) + sync_count(b, side, loops)
    raise ValueError(f"unexpected session node {s!r}")


def wire_label(m) -> str:
    """The atom label a message should carry in the LMRL encoding."""
    suffix = "" if m.payload == "unit" else f":{m.payload}"
    match m:
        case sn.Msg(label, f, t, _):
            return f"{label}:{f}:{t}{suffix}"
        case sn.Bcast(label, f, _):
            return f"{label}:{f}:*{suffix}"
        case sn.Gather(label, t, _):
            return f"{label}:*:{t}{suffix}"


def messages(s, under_loop: bool = False) -> list:
    """Message atoms of a session, with whether a loop encloses them."""
    match s:
        case sn.Msg() | sn.Bcast() | sn.Gather():
            return [(s, under_loop)]
        case sn.Nil():
            return []
        case sn.Append(a, b) | sn.SAConj(_, a, b) | sn.SMConj(_, a, b):
            return messages(a, under_loop) + messages(b, under_loop)
        case sn.OptionT(_, a) | sn.Repeat(_, a):
            return messages(a, under_loop)
        case sn.Repseq(_, a):
            return messages(a, True)
    raise ValueError(f"unexpected session node {s!r}")
