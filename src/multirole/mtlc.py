"""A small linear lambda calculus over multiparty channels.

Expressions are immutable; evaluation is substitution-based small-step, so
the whole pool can be retyped between any two steps (the debug mode behind
--retype-every-step).  Channel effects are delegated to the runtime module:
each calculus thread is a generator joining a runtime Pool and blocking on
the same matching engine as scripted threads.

Types split into non-linear types (bool, int, indexed int, str, unit,
T1*T2, ->) and linear viewtypes (chan(R,S), tensor pairs, -o).  The
typechecker is algorithmic: the linear context is threaded through subterms
and each rule reports what it consumed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import roles as rl
from . import runtime as rt
from .runtime import Endpoint, Pool, _Block, norm
from .session import (
    Bcast,
    Gather,
    Msg,
    OptionT,
    Repseq,
    SAConj,
    SessionType,
    SMConj,
    next_actions,
    parse_session,
)


class MtlcTypeError(TypeError):
    def __init__(self, rule: str, msg: str):
        self.rule = rule
        super().__init__(f"({rule}) {msg}")


class StuckNonRedex(Exception):
    pass


class ClassificationImpossible(Exception):
    pass


# ---------------------------------------------------------------- types


@dataclass(frozen=True)
class TBool:
    pass


@dataclass(frozen=True)
class TInt:
    pass


@dataclass(frozen=True)
class TIntIdx:
    i: int


@dataclass(frozen=True)
class TStr:
    pass


@dataclass(frozen=True)
class TUnit:
    pass


@dataclass(frozen=True)
class TChan:
    roles: int
    cursor: tuple[SessionType, ...]


@dataclass(frozen=True)
class TPair:
    left: "Viewtype"
    right: "Viewtype"


@dataclass(frozen=True)
class TLPair:
    left: "Viewtype"
    right: "Viewtype"


@dataclass(frozen=True)
class TFunN:
    dom: "Viewtype"
    cod: "Viewtype"


@dataclass(frozen=True)
class TFunL:
    dom: "Viewtype"
    cod: "Viewtype"


Viewtype = TBool | TInt | TIntIdx | TStr | TUnit | TChan | TPair | TLPair | TFunN | TFunL


def is_linear(t: Viewtype) -> bool:
    return isinstance(t, (TChan, TLPair, TFunL))


def compat(new: Viewtype, old: Viewtype) -> bool:
    """Type preservation up to losing int indices (if-joins forget them)."""
    if new == old:
        return True
    if isinstance(old, TInt) and isinstance(new, (TInt, TIntIdx)):
        return True
    match (new, old):
        case (TPair(a, b), TPair(c, d)) | (TLPair(a, b), TLPair(c, d)):
            return compat(a, c) and compat(b, d)
    return False


_PAYLOAD_T = {"unit": TUnit(), "int": TInt(), "str": TStr()}


# ---------------------------------------------------------- expressions


@dataclass(frozen=True)
class EVar:
    name: str


@dataclass(frozen=True)
class ERc:
    ep: Endpoint

    def __eq__(self, other):
        return isinstance(other, ERc) and other.ep is self.ep

    def __hash__(self):
        return id(self.ep)


@dataclass(frozen=True)
class EUnit:
    pass


@dataclass(frozen=True)
class EBool:
    value: bool


@dataclass(frozen=True)
class EInt:
    value: int


@dataclass(frozen=True)
class EStr:
    value: str


@dataclass(frozen=True)
class EConst:
    name: str
    args: tuple["Expr", ...] = ()


@dataclass(frozen=True)
class EPair:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class ELPair:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class EFst:
    body: "Expr"


@dataclass(frozen=True)
class ESnd:
    body: "Expr"


@dataclass(frozen=True)
class ELet:
    x1: str
    x2: str
    pair: "Expr"
    body: "Expr"


@dataclass(frozen=True)
class ELam:
    x: str
    t: Viewtype
    body: "Expr"


@dataclass(frozen=True)
class ELLam:
    x: str
    t: Viewtype
    body: "Expr"


@dataclass(frozen=True)
class EApp:
    fun: "Expr"
    arg: "Expr"


@dataclass(frozen=True)
class EFix:
    x: str
    t: Viewtype
    value: "Expr"


@dataclass(frozen=True)
class EIf:
    cond: "Expr"
    then: "Expr"
    els: "Expr"


Expr = (EVar | ERc | EUnit | EBool | EInt | EStr | EConst | EPair | ELPair
        | EFst | ESnd | ELet | ELam | ELLam | EApp | EFix | EIf)


_RES_PARTS = {
    EConst: lambda e: e.args,
    EPair: lambda e: (e.left, e.right),
    ELPair: lambda e: (e.left, e.right),
    EApp: lambda e: (e.fun, e.arg),
    EFst: lambda e: (e.body,),
    ESnd: lambda e: (e.body,),
    ELet: lambda e: (e.pair, e.body),
    ELam: lambda e: (e.body,),
    ELLam: lambda e: (e.body,),
    EFix: lambda e: (e.value,),
    EIf: lambda e: (e.cond, e.then),  # both branches hold the same resources
}


def resources(e: Expr) -> tuple[int, ...]:
    """The endpoint ids of the resource constants in an expression, one per
    occurrence.

    Cached on each node on first request, so a step's new nodes are counted
    once and untouched subtrees not again; built from the children's cached
    tuples with an explicit stack, so depth is bounded by memory alone.
    """
    stack = [e]
    while stack:
        node = stack[-1]
        d = node.__dict__
        if "_res" in d:
            stack.pop()
            continue
        parts = _RES_PARTS.get(type(node))
        if parts is None:
            stack.pop()
            d["_res"] = (node.ep.eid,) if isinstance(node, ERc) else ()
            continue
        kids = parts(node)
        todo = [k for k in kids if "_res" not in k.__dict__]
        if todo:
            stack += todo
            continue
        stack.pop()
        out = ()
        for k in kids:
            out += k.__dict__["_res"]
        d["_res"] = out
    return e.__dict__["_res"]


def rho(e: Expr) -> Counter:
    """The multiset of resource constants occurring in an expression."""
    return Counter(resources(e))


def free_evars(e: Expr) -> set[str]:
    match e:
        case EVar(x):
            return {x}
        case ERc() | EUnit() | EBool() | EInt() | EStr():
            return set()
        case EConst(_, args):
            out = set()
            for a in args:
                out |= free_evars(a)
            return out
        case EPair(a, b) | ELPair(a, b) | EApp(a, b):
            return free_evars(a) | free_evars(b)
        case EFst(b) | ESnd(b):
            return free_evars(b)
        case ELet(x1, x2, p, b):
            return free_evars(p) | (free_evars(b) - {x1, x2})
        case ELam(x, _, b) | ELLam(x, _, b) | EFix(x, _, b):
            return free_evars(b) - {x}
        case EIf(c, a, b):
            return free_evars(c) | free_evars(a) | free_evars(b)
    raise TypeError(f"unknown expression {e!r}")


def _fresh(x: str, taken) -> str:
    """The smallest ``x~k`` (k >= 1, stem of x) not in taken."""
    stem, k = x.split("~")[0], 1
    while (z := f"{stem}~{k}") in taken:
        k += 1
    return z


def esubst(e: Expr, x: str, v: Expr) -> Expr:
    """e[v/x], capture-avoiding.

    A binder that would capture v is renamed to the smallest ``y~k`` not
    free in its body or in v and not x, so the result depends on e, x and v
    alone.
    """
    fv = free_evars(v)

    def go(e: Expr, x: str) -> Expr:
        match e:
            case EVar(y):
                return v if y == x else e
            case ERc() | EUnit() | EBool() | EInt() | EStr():
                return e
            case EConst(name, args):
                return EConst(name, tuple(go(a, x) for a in args))
            case EPair(a, b):
                return EPair(go(a, x), go(b, x))
            case ELPair(a, b):
                return ELPair(go(a, x), go(b, x))
            case EFst(b):
                return EFst(go(b, x))
            case ESnd(b):
                return ESnd(go(b, x))
            case EApp(a, b):
                return EApp(go(a, x), go(b, x))
            case EIf(c, a, b):
                return EIf(go(c, x), go(a, x), go(b, x))
            case ELet(x1, x2, p, b):
                p2 = go(p, x)
                if x in (x1, x2):
                    return ELet(x1, x2, p2, b)
                if x1 in fv or x2 in fv:
                    taken = fv | free_evars(b) | {x}
                    n1 = _fresh(x1, taken)
                    n2 = _fresh(x2, taken | {n1})
                    b = esubst(esubst(b, x1, EVar(n1)), x2, EVar(n2))
                    x1, x2 = n1, n2
                return ELet(x1, x2, p2, go(b, x))
            case ELam(y, t, b) | ELLam(y, t, b) | EFix(y, t, b):
                ctor = type(e)
                if y == x:
                    return e
                if y in fv:
                    ny = _fresh(y, fv | free_evars(b) | {x})
                    b = esubst(b, y, EVar(ny))
                    y = ny
                return ctor(y, t, go(b, x))
        raise TypeError(f"unknown expression {e!r}")

    return go(e, x)


def is_value(e: Expr) -> bool:
    match e:
        case EUnit() | EBool() | EInt() | EStr() | ERc() | ELam() | ELLam() | EFix():
            return True
        case EPair(a, b) | ELPair(a, b):
            return is_value(a) and is_value(b)
        case _:
            return False


# ----------------------------------------------------------- signatures

_PURE_CONSTS = {"iadd", "randbit", "thread_create"}
_CHAN_CONSTS = {
    "chan_create", "chan_sync", "chan_skip", "chan_send", "chan_recv",
    "chan_aconj_l", "chan_aconj_r", "chan_mconj", "chan_mdisj_l",
    "chan_mdisj_r", "chan_1_cut", "chan_2_cut", "chan_3_cut", "chan_2_cutres",
}
CONSTS = _PURE_CONSTS | _CHAN_CONSTS


def _chan_arg(rule: str, t: Viewtype) -> TChan:
    if not isinstance(t, TChan):
        raise MtlcTypeError(rule, f"expected a channel endpoint, got {t}")
    return t


def _action_head(rule: str, t: TChan) -> SessionType:
    if not t.cursor:
        raise MtlcTypeError(rule, "endpoint session is already finished")
    return t.cursor[0]


def sig_result(name: str, args: list[Viewtype], n: int) -> Viewtype:
    """Instantiate a constant's c-type schema at the given argument types."""
    full = rl.full_set(n)

    def arity(k: int):
        if len(args) != k:
            raise MtlcTypeError(name, f"expects {k} arguments, got {len(args)}")

    match name:
        case "iadd":
            arity(2)
            for a in args:
                if not isinstance(a, (TInt, TIntIdx)):
                    raise MtlcTypeError(name, f"integer expected, got {a}")
            if all(isinstance(a, TIntIdx) for a in args):
                return TIntIdx(args[0].i + args[1].i)
            return TInt()
        case "randbit":
            arity(0)
            return TBool()
        case "thread_create":
            arity(1)
            if args[0] != TFunL(TUnit(), TUnit()):
                raise MtlcTypeError(name, f"expects a linear 1 -o 1 function, got {args[0]}")
            return TUnit()
        case "chan_create":
            arity(1)
            match args[0]:
                case TFunL(TChan(roles_, cursor), TUnit()):
                    return TChan(full & ~roles_, cursor)
            raise MtlcTypeError(name, f"expects chan(R,S) -o 1, got {args[0]}")
        case "chan_sync":
            arity(1)
            t = _chan_arg(name, args[0])
            head = _action_head(name, t)
            if len(t.cursor) != 1 or not isinstance(head, (Msg, Bcast, Gather)):
                raise MtlcTypeError(name, "sync consumes a single final action")
            return TUnit()
        case "chan_skip":
            arity(1)
            t = _chan_arg(name, args[0])
            head = _action_head(name, t)
            if len(t.cursor) < 2 or not isinstance(head, (Msg, Bcast, Gather)) \
                    or next_actions(head, t.roles).kind != "skip":
                raise MtlcTypeError(name, "skip applies to uninvolved non-final actions")
            return TChan(t.roles, t.cursor[1:])
        case "chan_send":
            arity(2)
            t = _chan_arg(name, args[0])
            head = _action_head(name, t)
            if len(t.cursor) < 2 or not isinstance(head, (Msg, Bcast, Gather)) \
                    or next_actions(head, t.roles).kind != "send":
                raise MtlcTypeError(name, "these roles do not send here")
            want = _PAYLOAD_T[head.payload]
            if not compat(args[1], want):
                raise MtlcTypeError(name, f"payload {args[1]} does not fit {want}")
            return TChan(t.roles, t.cursor[1:])
        case "chan_recv":
            arity(1)
            t = _chan_arg(name, args[0])
            head = _action_head(name, t)
            if len(t.cursor) < 2 or not isinstance(head, (Msg, Bcast, Gather)) \
                    or next_actions(head, t.roles).kind != "recv":
                raise MtlcTypeError(name, "these roles do not receive here")
            return TLPair(_PAYLOAD_T[head.payload], TChan(t.roles, t.cursor[1:]))
        case "chan_aconj_l" | "chan_aconj_r":
            arity(1)
            t = _chan_arg(name, args[0])
            head = _action_head(name, t)
            if not isinstance(head, (SAConj, OptionT, Repseq)) \
                    or next_actions(head, t.roles).kind != "choose":
                raise MtlcTypeError(name, "these roles do not decide here")
            side = name[-1]
            match head:
                case SAConj(_, a, b):
                    cont = norm(a if side == "l" else b)
                case OptionT(_, a):
                    cont = norm(a) if side == "l" else ()
                case Repseq(_, a):
                    cont = (norm(a) + (head,)) if side == "l" else ()
            return TChan(t.roles, cont + t.cursor[1:])
        case "chan_mconj":
            arity(1)
            t = _chan_arg(name, args[0])
            head = _action_head(name, t)
            if not isinstance(head, SMConj) or len(t.cursor) != 1 \
                    or next_actions(head, t.roles).kind != "fork-conj":
                raise MtlcTypeError(name, "mconj requires the deciding roles at a final tensor")
            return TLPair(TChan(t.roles, norm(head.left)),
                          TChan(t.roles, norm(head.right)))
        case "chan_mdisj_l" | "chan_mdisj_r":
            arity(2)
            t = _chan_arg(name, args[0])
            head = _action_head(name, t)
            if not isinstance(head, SMConj) or len(t.cursor) != 1 \
                    or next_actions(head, t.roles).kind != "fork-disj":
                raise MtlcTypeError(name, "mdisj is for non-deciding roles at a final tensor")
            keep, give = (head.left, head.right) if name.endswith("l") \
                else (head.right, head.left)
            if args[1] != TFunL(TChan(t.roles, norm(give)), TUnit()):
                raise MtlcTypeError(name, f"second argument must consume the "
                                    f"{'right' if name.endswith('l') else 'left'} endpoint")
            return TChan(t.roles, norm(keep))
        case "chan_1_cut":
            arity(1)
            t = _chan_arg(name, args[0])
            if t.roles != 0:
                raise MtlcTypeError(name, "only an empty-role-set endpoint can be dropped")
            return TUnit()
        case "chan_2_cut":
            arity(2)
            t1, t2 = (_chan_arg(name, a) for a in args)
            if t1.cursor != t2.cursor:
                raise MtlcTypeError(name, "endpoint sessions differ")
            if t2.roles != full & ~t1.roles:
                raise MtlcTypeError(name, "role sets are not complementary")
            return TUnit()
        case "chan_3_cut":
            arity(3)
            ts = [_chan_arg(name, a) for a in args]
            if len({t.cursor for t in ts}) != 1:
                raise MtlcTypeError(name, "endpoint sessions differ")
            if not rl.partition_check([full & ~t.roles for t in ts], n):
                raise MtlcTypeError(name, "complements must partition the universe")
            return TUnit()
        case "chan_2_cutres":
            arity(2)
            t1, t2 = (_chan_arg(name, a) for a in args)
            if t1.cursor != t2.cursor:
                raise MtlcTypeError(name, "endpoint sessions differ")
            if (full & ~t1.roles) & (full & ~t2.roles):
                raise MtlcTypeError(name, "complements must be disjoint")
            return TChan(t1.roles & t2.roles, t1.cursor)
    raise MtlcTypeError(name, "unknown constant")


# ---------------------------------------------------------- typechecker


def _avoid(x: str, body: Expr, delta) -> tuple[str, Expr]:
    """Alpha-rename a binder that would shadow a linear-context entry;
    otherwise the shadowed resource could be dropped unnoticed.  The new name
    is the smallest ``x~k`` not free in the body and not in the context."""
    if x in delta:
        x2 = _fresh(x, free_evars(body) | delta.keys())
        return x2, esubst(body, x, EVar(x2))
    return x, body


def typecheck(e: Expr, gamma: dict[str, Viewtype] | None = None,
              delta: dict[str, Viewtype] | None = None, n: int = 2) -> Viewtype:
    t, left = _check(e, dict(gamma or {}), dict(delta or {}), n)
    if left:
        raise MtlcTypeError("ty-linear", f"unused linear variables: {sorted(left)}")
    return t


def _check(e: Expr, gamma, delta, n) -> tuple[Viewtype, dict]:
    match e:
        case EVar(x):
            if x in delta:
                rest = dict(delta)
                t = rest.pop(x)
                return t, rest
            if x in gamma:
                return gamma[x], delta
            raise MtlcTypeError("ty-var", f"unbound variable {x}")
        case ERc(ep):
            return TChan(ep.roles, ep.channel.cursor), delta
        case EUnit():
            return TUnit(), delta
        case EBool(_):
            return TBool(), delta
        case EInt(i):
            return TIntIdx(i), delta
        case EStr(_):
            return TStr(), delta
        case EPair(a, b):
            t1, d1 = _check(a, gamma, delta, n)
            t2, d2 = _check(b, gamma, d1, n)
            if is_linear(t1) or is_linear(t2):
                raise MtlcTypeError("ty-pair", "non-linear pairs cannot hold linear parts")
            return TPair(t1, t2), d2
        case ELPair(a, b):
            t1, d1 = _check(a, gamma, delta, n)
            t2, d2 = _check(b, gamma, d1, n)
            return TLPair(t1, t2), d2
        case EFst(b):
            t, d = _check(b, gamma, delta, n)
            if not isinstance(t, TPair):
                raise MtlcTypeError("ty-fst", f"projection from non-pair {t}")
            return t.left, d
        case ESnd(b):
            t, d = _check(b, gamma, delta, n)
            if not isinstance(t, TPair):
                raise MtlcTypeError("ty-snd", f"projection from non-pair {t}")
            return t.right, d
        case ELet(x1, x2, p, b):
            tp, d1 = _check(p, gamma, delta, n)
            if not isinstance(tp, TLPair):
                raise MtlcTypeError("ty-let", f"let-pair on non-tensor {tp}")
            x1, b = _avoid(x1, b, d1)
            x2, b = _avoid(x2, b, d1)
            inner = dict(d1)
            g = gamma
            for x, tx in ((x1, tp.left), (x2, tp.right)):
                if is_linear(tx):
                    inner[x] = tx
                else:
                    if g is gamma:
                        g = dict(gamma)
                    g[x] = tx
            t, d2 = _check(b, g, inner, n)
            for x, tx in ((x1, tp.left), (x2, tp.right)):
                if is_linear(tx) and x in d2:
                    raise MtlcTypeError("ty-let", f"linear variable {x} unused")
            return t, d2
        case ELam(x, tx, body):
            if resources(body):
                raise MtlcTypeError("ty-lam-i", "non-linear function holds resources")
            x, body = _avoid(x, body, delta)
            inner = dict(delta)
            g = gamma
            if is_linear(tx):
                inner[x] = tx
            else:
                g = dict(gamma)
                g[x] = tx
            t, d2 = _check(body, g, inner, n)
            if is_linear(tx) and x in d2:
                raise MtlcTypeError("ty-lam-i", f"linear parameter {x} unused")
            d2.pop(x, None)
            if d2 != delta:
                raise MtlcTypeError("ty-lam-i",
                                    "non-linear function captures linear variables")
            return TFunN(tx, t), delta
        case ELLam(x, tx, body):
            x, body = _avoid(x, body, delta)
            inner = dict(delta)
            g = gamma
            if is_linear(tx):
                inner[x] = tx
            else:
                g = dict(gamma)
                g[x] = tx
            t, d2 = _check(body, g, inner, n)
            if is_linear(tx) and x in d2:
                raise MtlcTypeError("ty-lam-l", f"linear parameter {x} unused")
            d2.pop(x, None)
            return TFunL(tx, t), d2
        case EApp(f, a):
            tf, d1 = _check(f, gamma, delta, n)
            if not isinstance(tf, (TFunN, TFunL)):
                raise MtlcTypeError("ty-app", f"application of non-function {tf}")
            ta, d2 = _check(a, gamma, d1, n)
            if not compat(ta, tf.dom):
                raise MtlcTypeError("ty-app", f"argument {ta} does not fit {tf.dom}")
            return tf.cod, d2
        case EFix(x, tx, v):
            if not is_value(v) and not isinstance(v, EVar):
                raise MtlcTypeError("ty-fix", "fixpoint body must be a value")
            if resources(v):
                raise MtlcTypeError("ty-fix", "fixpoint body holds resources")
            if is_linear(tx):
                raise MtlcTypeError("ty-fix", "fixpoint at a linear type")
            x, v = _avoid(x, v, delta)
            g = dict(gamma)
            g[x] = tx
            t, d2 = _check(v, g, delta, n)
            if d2 != delta:
                raise MtlcTypeError("ty-fix", "fixpoint body consumes linear context")
            if not compat(t, tx):
                raise MtlcTypeError("ty-fix", f"body type {t} differs from {tx}")
            return tx, delta
        case EIf(c, a, b):
            tc, d0 = _check(c, gamma, delta, n)
            if not isinstance(tc, TBool):
                raise MtlcTypeError("ty-if", f"condition of type {tc}")
            if rho(a) != rho(b):
                raise MtlcTypeError("ty-if", "branches hold different resources")
            t1, d1 = _check(a, gamma, d0, n)
            t2, d2 = _check(b, gamma, d0, n)
            if d1 != d2:
                raise MtlcTypeError("ty-if", "branches consume different linear variables")
            if t1 == t2:
                return t1, d1
            if isinstance(t1, (TInt, TIntIdx)) and isinstance(t2, (TInt, TIntIdx)):
                return TInt(), d1
            raise MtlcTypeError("ty-if", f"branch types differ: {t1} vs {t2}")
        case EConst(name, args):
            ts = []
            d = delta
            for a in args:
                ta, d = _check(a, gamma, d, n)
                ts.append(ta)
            return sig_result(name, ts, n), d
    raise MtlcTypeError("ty", f"unknown expression {e!r}")


# ------------------------------------------------------- canonical forms


def canonical_form(v: Expr, t: Viewtype) -> str:
    if not is_value(v):
        raise ClassificationImpossible("not a value")
    match t:
        case TUnit() if isinstance(v, EUnit):
            return "unit"
        case TBool() if isinstance(v, EBool):
            return "bool"
        case TInt() | TIntIdx() if isinstance(v, EInt):
            return "int"
        case TStr() if isinstance(v, EStr):
            return "str"
        case TChan() if isinstance(v, ERc):
            return "endpoint"
        case TPair() if isinstance(v, EPair):
            return "pair"
        case TLPair() if isinstance(v, ELPair):
            return "tensor-pair"
        case TFunN() if isinstance(v, (ELam, EFix)):
            return "lam"
        case TFunL() if isinstance(v, ELLam):
            return "linear-lam"
    raise ClassificationImpossible(f"value {v!r} at type {t}")


# ------------------------------------------------------------ evaluation


def _decompose(e: Expr):
    """Find the leftmost redex; returns (redex, rebuild) or None for values."""
    if is_value(e):
        return None

    def wrap(sub: Expr, rebuild):
        got = _decompose(sub)
        if got is None:
            return None
        r, rb = got
        return r, lambda v: rebuild(rb(v))

    match e:
        case EPair(a, b) | ELPair(a, b):
            ctor = type(e)
            if not is_value(a):
                return wrap(a, lambda a2: ctor(a2, b))
            return wrap(b, lambda b2: ctor(a, b2))
        case EFst(b) | ESnd(b):
            ctor = type(e)
            if not is_value(b):
                return wrap(b, lambda b2: ctor(b2))
            return e, lambda v: v
        case EApp(f, a):
            if not is_value(f):
                return wrap(f, lambda f2: EApp(f2, a))
            if not is_value(a):
                return wrap(a, lambda a2: EApp(f, a2))
            return e, lambda v: v
        case ELet(x1, x2, p, b):
            if not is_value(p):
                return wrap(p, lambda p2: ELet(x1, x2, p2, b))
            return e, lambda v: v
        case EIf(c, a, b):
            if not is_value(c):
                return wrap(c, lambda c2: EIf(c2, a, b))
            return e, lambda v: v
        case EConst(name, args):
            for i, a in enumerate(args):
                if not is_value(a):
                    return wrap(a, lambda a2, i=i: EConst(
                        name, args[:i] + (a2,) + args[i + 1:]))
            return e, lambda v: v
        case EVar(x):
            raise StuckNonRedex(f"free variable {x}")
    raise StuckNonRedex(f"cannot decompose {e!r}")


def _py_value(v: Expr):
    match v:
        case EUnit():
            return None
        case EInt(i):
            return i
        case EStr(s):
            return s
        case EBool(b):
            return b
    raise StuckNonRedex(f"payload value expected, got {v!r}")


def _lift(value) -> Expr:
    match value:
        case None:
            return EUnit()
        case bool(b):
            return EBool(b)
        case int(i):
            return EInt(i)
        case str(s):
            return EStr(s)
    raise StuckNonRedex(f"cannot lift payload {value!r}")


def _apply(f: Expr, a: Expr) -> Expr:
    match f:
        case ELam(x, _, body) | ELLam(x, _, body):
            return esubst(body, x, a)
        case EFix(x, _, v):
            return EApp(esubst(v, x, f), a)
    raise StuckNonRedex(f"application of non-function {f!r}")


class MtlcThread:
    """Adapter joining an expression to a runtime Pool as a generator thread."""

    def __init__(self, pool: Pool, expr: Expr, hook=None, expected: Viewtype | None = None):
        self.pool = pool
        self.expr = expr
        self.hook = hook
        self.expected = TUnit() if expected is None else expected
        self.thread = pool.add_thread(self._gen)
        self.thread.mtlc = self  # used for pool retyping

    def _gen(self, t):
        pool = self.pool
        while True:
            got = _decompose(self.expr)
            if got is None:
                return
            redex, rebuild = got
            effect = None
            match redex:
                case EApp(f, a):
                    out = _apply(f, a)
                case EFst(EPair(a, _)):
                    out = a
                case ESnd(EPair(_, b)):
                    out = b
                case ELet(x1, x2, ELPair(a, b), body):
                    out = esubst(esubst(body, x1, a), x2, b)
                case EIf(EBool(c), a, b):
                    out = a if c else b
                case EConst("iadd", (EInt(i), EInt(j))):
                    out = EInt(i + j)
                case EConst("randbit", ()):
                    out = EBool(bool(pool.rng.randrange(2)))
                case EConst("thread_create", (f,)):
                    MtlcThread(pool, EApp(f, EUnit()), self.hook)
                    pool._event("PR1", action="thread")
                    out = EUnit()
                case EConst(name, args) if name in _CHAN_CONSTS:
                    out, effect = self._channel_op(name, args)
                case _:
                    raise StuckNonRedex(f"no reduction for {redex!r}")
            if effect is not None:
                result = yield effect
                out = out(result)
            self.expr = rebuild(out)
            if self.hook:
                self.hook(self.pool, self)

    def _channel_op(self, name: str, args: tuple):
        pool = self.pool

        def ep_of(a: Expr) -> Endpoint:
            if not isinstance(a, ERc):
                raise StuckNonRedex(f"{name}: endpoint expected, got {a!r}")
            return a.ep

        match name:
            case "chan_create":
                f = args[0]
                tf = typecheck(f, n=pool.n)
                part = tf.dom.roles
                ch = pool.new_channel(tf.dom.cursor)
                spawned = pool.new_endpoint(ch, part)
                mine = pool.new_endpoint(ch, pool.full & ~part)
                nt = MtlcThread(pool, EApp(f, ERc(spawned)), self.hook)
                pool._event("PR3", chan=ch.cid, action="create", to=nt.thread.tid,
                            label=rl.fmt_roleset(part))
                return ERc(mine), None
            case "chan_sync" | "chan_skip":
                ep = ep_of(args[0])
                same = ERc(ep) if name == "chan_skip" else EUnit()
                return (lambda _v, out=same: out), _Block("sync", ep, "sync")
            case "chan_send":
                ep = ep_of(args[0])
                return (lambda _v, ep=ep: ERc(ep)), \
                    _Block("sync", ep, "send", payload=_py_value(args[1]))
            case "chan_recv":
                ep = ep_of(args[0])
                return (lambda v, ep=ep: ELPair(_lift(v), ERc(ep))), \
                    _Block("sync", ep, "recv")
            case "chan_aconj_l" | "chan_aconj_r":
                ep = ep_of(args[0])
                return (lambda _v, ep=ep: ERc(ep)), \
                    _Block("choice", ep, "choose", side=name[-1])
            case "chan_mconj":
                ep = ep_of(args[0])
                return (lambda pair: ELPair(ERc(pair[0]), ERc(pair[1]))), \
                    _Block("mconj", ep, "mconj")
            case "chan_mdisj_l" | "chan_mdisj_r":
                ep, f = ep_of(args[0]), args[1]

                def spawn(give, f=f):
                    MtlcThread(pool, EApp(f, ERc(give)), self.hook)

                return (lambda keep: ERc(keep)), \
                    _Block("mconj", ep, "mdisj", side=name[-1], spawn=spawn)
            case "chan_1_cut":
                pool.chan_1_cut(ep_of(args[0]))
                return EUnit(), None
            case "chan_2_cut":
                pool.chan_2_cut(ep_of(args[0]), ep_of(args[1]))
                return EUnit(), None
            case "chan_3_cut":
                pool.chan_3_cut(*(ep_of(a) for a in args))
                return EUnit(), None
            case "chan_2_cutres":
                resid = pool.chan_2_cutres(ep_of(args[0]), ep_of(args[1]))
                return ERc(resid), None
        raise StuckNonRedex(f"unknown channel constant {name}")


def pool_rho(pool: Pool) -> Counter:
    out = Counter()
    for t in pool.active_threads.values():
        m = getattr(t, "mtlc", None)
        if m is not None:
            out.update(resources(m.expr))
    return out


def res_ok(pool: Pool) -> bool:
    """Each live endpoint held at most once across the pool (RES membership)."""
    held = pool_rho(pool)
    return all(c == 1 for c in held.values())


def retype_thread(pool: Pool, mt: MtlcThread) -> None:
    """Per-step debug hook: the stepping thread stays well-typed and the
    pool as a whole stays within the resource discipline.

    Only the thread that just reduced is retyped: between a synchronisation
    firing and the other participants resuming, their expressions still show
    the pre-fire operation, so whole-pool retyping is meaningful only at
    quiescence (see retype_pool).
    """
    if not res_ok(pool):
        raise MtlcTypeError("ty-pool", "an endpoint is held more than once")
    ty = typecheck(mt.expr, n=pool.n)
    if not compat(ty, mt.expected):
        raise MtlcTypeError("ty-pool",
                            f"thread {mt.thread.tid} type {ty} drifted from {mt.expected}")


def retype_pool(pool: Pool) -> None:
    """Assert every unfinished calculus thread still has its declared type."""
    if not res_ok(pool):
        raise MtlcTypeError("ty-pool", "an endpoint is held more than once")
    for t in pool.active_threads.values():
        m = getattr(t, "mtlc", None)
        if m is None:
            continue
        ty = typecheck(m.expr, n=pool.n)
        if not compat(ty, m.expected):
            raise MtlcTypeError("ty-pool",
                                f"thread {t.tid} has type {ty}, expected {m.expected}")


def eval_pool(expr: Expr, n: int = 2, seed: int = 0, max_steps: int = 10000,
              retype_every_step: bool = False):
    """Evaluate a closed main expression as thread 0 of a fresh pool."""
    pool = Pool(n, seed=seed)
    main_type = typecheck(expr, n=n)
    hook = retype_thread if retype_every_step else None
    mt = MtlcThread(pool, expr, hook, expected=main_type)
    if retype_every_step:
        retype_pool(pool)
    result = pool.run(max_steps=max_steps)
    if retype_every_step:
        retype_pool(pool)
    return result, mt.expr


# --------------------------------------------------------------- parser
#
# s-expression source:  (llam (x (chan {0} "a(0,1)@b(1,0)" 2)) ...)


import re as _re

_TOK = _re.compile(r"\(|\)|\{[^{}]*\}|\"[^\"]*\"|[^\s()]+")


def _atoms(text: str) -> list:
    toks = _TOK.findall(text)
    pos = [0]

    def parse():
        if pos[0] >= len(toks):
            raise MtlcTypeError("parse", "unexpected end of input")
        t = toks[pos[0]]
        pos[0] += 1
        if t == "(":
            out = []
            while pos[0] < len(toks) and toks[pos[0]] != ")":
                out.append(parse())
            if pos[0] >= len(toks):
                raise MtlcTypeError("parse", "missing )")
            pos[0] += 1
            return out
        if t == ")":
            raise MtlcTypeError("parse", "unbalanced )")
        return t

    tree = parse()
    if pos[0] != len(toks):
        raise MtlcTypeError("parse", "trailing input")
    return tree


def parse_type(tree, n: int) -> Viewtype:
    match tree:
        case "bool":
            return TBool()
        case "int":
            return TInt()
        case "str":
            return TStr()
        case "unit" | "1":
            return TUnit()
        case ["int", i]:
            return TIntIdx(int(i))
        case ["chan", roleset, spec]:
            s = parse_session(spec.strip('"'), n)
            return TChan(rl.parse_roleset(roleset), norm(s))
        case ["pair", a, b]:
            return TPair(parse_type(a, n), parse_type(b, n))
        case ["tensor", a, b]:
            return TLPair(parse_type(a, n), parse_type(b, n))
        case ["->", a, b]:
            return TFunN(parse_type(a, n), parse_type(b, n))
        case ["-o", a, b]:
            return TFunL(parse_type(a, n), parse_type(b, n))
    raise MtlcTypeError("parse", f"unknown type {tree!r}")


def parse_expr(tree, n: int) -> Expr:
    match tree:
        case "unit":
            return EUnit()
        case "true":
            return EBool(True)
        case "false":
            return EBool(False)
        case str(t) if t.removeprefix("-").isdecimal():
            return EInt(int(t))
        case str(t) if t.startswith('"'):
            return EStr(t.strip('"'))
        case str(t):
            return EVar(t)
        case ["lam", [x, ty], body]:
            return ELam(x, parse_type(ty, n), parse_expr(body, n))
        case ["llam", [x, ty], body]:
            return ELLam(x, parse_type(ty, n), parse_expr(body, n))
        case ["fix", [x, ty], body]:
            return EFix(x, parse_type(ty, n), parse_expr(body, n))
        case ["app", f, a]:
            return EApp(parse_expr(f, n), parse_expr(a, n))
        case ["pair", a, b]:
            return EPair(parse_expr(a, n), parse_expr(b, n))
        case ["tensor", a, b]:
            return ELPair(parse_expr(a, n), parse_expr(b, n))
        case ["fst", a]:
            return EFst(parse_expr(a, n))
        case ["snd", a]:
            return ESnd(parse_expr(a, n))
        case ["let", [x1, x2], p, b]:
            return ELet(x1, x2, parse_expr(p, n), parse_expr(b, n))
        case ["if", c, a, b]:
            return EIf(parse_expr(c, n), parse_expr(a, n), parse_expr(b, n))
        case [str(c), *args] if c in CONSTS:
            return EConst(c, tuple(parse_expr(a, n) for a in args))
    raise MtlcTypeError("parse", f"unknown expression {tree!r}")


def parse_program(text: str, n: int) -> Expr:
    return parse_expr(_atoms(text), n)


def fmt_type(t: Viewtype) -> str:
    match t:
        case TBool():
            return "bool"
        case TInt():
            return "int"
        case TIntIdx(i):
            return f"int({i})"
        case TStr():
            return "str"
        case TUnit():
            return "1"
        case TChan(roles_, cursor):
            from .session import fmt_session
            body = "@".join(fmt_session(s) for s in cursor) or "nil"
            return f"chan({rl.fmt_roleset(roles_)}, {body})"
        case TPair(a, b):
            return f"({fmt_type(a)} * {fmt_type(b)})"
        case TLPair(a, b):
            return f"({fmt_type(a)} (x) {fmt_type(b)})"
        case TFunN(a, b):
            return f"({fmt_type(a)} -> {fmt_type(b)})"
        case TFunL(a, b):
            return f"({fmt_type(a)} -o {fmt_type(b)})"
    raise MtlcTypeError("fmt", f"unknown type {t!r}")
