"""A small linear lambda calculus over multiparty channels.

Expressions are immutable.  Each thread runs on an environment machine: a
program node or a value under an environment of closed values, and a stack
of frames, so a step binds or looks up and never rebuilds or substitutes
into the program.  Its reductions are those of substitution-based
small-step evaluation, in the same order, and a state can be read back as
the expression that evaluation would hold (MtlcThread.expr).  The whole
pool can be retyped between any two steps (the debug mode behind
--retype-every-step): each part of a state is typed as a closure, its term
under the types of its environment's values, which by the substitution
lemma is the judgement of the read-back.  Channel effects are delegated to
the runtime module: each calculus thread is a generator joining a runtime
Pool and blocking on the same matching engine as scripted threads.

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
    next_kind,
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

_VALUE_LEAVES = (EUnit, EBool, EInt, EStr, ERc, ELam, ELLam, EFix)


class _Rules(dict):
    """A traversal's rules keyed by node class: one lookup finds a node's
    rule, and a class without one gets the fallback.  Rules reach their
    children through the table, not through the traversal's entry point,
    so each level of nesting costs one frame."""

    def __init__(self, fallback, rules):
        super().__init__(rules)
        self.fallback = fallback

    def __missing__(self, cls):
        return self.fallback


@dataclass(frozen=True, eq=False)
class Clo:
    """A runtime closure: a term and the closed values of its free
    variables.  It stands for the term with its environment substituted and
    is typed and counted as that term; equality is identity."""
    term: Expr
    env: tuple | None


# Each composite expression class: its children in order, and its
# constructor from new children.  A binder (_BINDS) binds in its last child.
_SHAPE = {
    EConst: (lambda e: e.args, lambda e, k: EConst(e.name, tuple(k))),
    EPair: (lambda e: (e.left, e.right), lambda e, k: EPair(*k)),
    ELPair: (lambda e: (e.left, e.right), lambda e, k: ELPair(*k)),
    EApp: (lambda e: (e.fun, e.arg), lambda e, k: EApp(*k)),
    EFst: (lambda e: (e.body,), lambda e, k: EFst(*k)),
    ESnd: (lambda e: (e.body,), lambda e, k: ESnd(*k)),
    EIf: (lambda e: (e.cond, e.then, e.els), lambda e, k: EIf(*k)),
    ELet: (lambda e: (e.pair, e.body), lambda e, k: ELet(e.x1, e.x2, *k)),
    ELam: (lambda e: (e.body,), lambda e, k: ELam(e.x, e.t, *k)),
    ELLam: (lambda e: (e.body,), lambda e, k: ELLam(e.x, e.t, *k)),
    EFix: (lambda e: (e.value,), lambda e, k: EFix(e.x, e.t, *k)),
}
_BINDS = {ELet: lambda e: (e.x1, e.x2),
          **dict.fromkeys((ELam, ELLam, EFix), lambda e: (e.x,))}

_RES_PARTS = {
    **{cls: kids for cls, (kids, _) in _SHAPE.items()},
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
            d["_res"] = ((node.ep.eid,) if isinstance(node, ERc) else
                         _held(node.term, node.env) if type(node) is Clo else ())
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


class _FreeVars:
    """Free variables as bit masks over a table of variable names.  Each
    composite node caches its masks on itself, so those of nodes built while
    a program runs die with them; a spine holds free-variable sets of every
    length, too many to keep as sets.  The module keeps one table (_FV): it
    only interns names, and a name's bit never changes, so cached masks stay
    valid and no result depends on what ran before."""

    def __init__(self):
        self.bits: dict[str, int] = {}
        self.order: list[str] = []

    def bit(self, x: str) -> int:
        if x not in self.bits:
            self.bits[x] = 1 << len(self.order)
            self.order.append(x)
        return self.bits[x]

    def names(self, mask: int) -> list[str]:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.order[low.bit_length() - 1])
            mask ^= low
        return out

    def known(self, e: Expr) -> tuple[int, int, int] | None:
        """e's masks if e is a leaf or they are cached, else None."""
        cls = type(e)
        if cls is EVar:
            return (b := self.bit(e.name), b, 0)
        return e.__dict__.get("_fv") if cls in _SHAPE else (0, 0, 0)

    def __call__(self, e: Expr) -> tuple[int, int, int]:
        """e's free variables, those free in the parts resources() counts,
        and those free there more than once; built without recursion."""
        stack = [e]
        while stack:
            node = stack[-1]
            if self.known(node) is not None:
                stack.pop()
                continue
            kids = _SHAPE[type(node)][0](node)
            todo = [k for k in kids if self.known(k) is None]
            if todo:
                stack += todo
                continue
            stack.pop()
            kids = [self.known(k) for k in kids]
            cls = type(node)
            if cls in _BINDS or cls is EIf:
                bound = 0
                for x in _BINDS[cls](node) if cls in _BINDS else ():
                    bound |= self.bit(x)
                f, o, t = kids[-1]
                # a binder binds in its last child; an if counts its
                # condition and then-branch only, as resources() does
                kids[-1] = (f & ~bound, 0, 0) if cls is EIf else (f & ~bound, o & ~bound, t & ~bound)
            free = once = twice = 0
            for f, o, t in kids:
                free |= f
                twice |= t | once & o
                once |= o
            node.__dict__["_fv"] = (free, once, twice)
        return self.known(e)


_FV = _FreeVars()


def free_evars(e: Expr) -> frozenset[str]:
    return frozenset(_FV.names(_FV(e)[0]))


def _held(term: Expr, env) -> tuple[int, ...]:
    """resources() of term with the closed values of env substituted."""
    out = resources(term)
    if env is not None:
        _, once, twice = _FV(term)
        for x in _FV.names(once):
            if (b := _lookup(env, x)) and (r := resources(b[1])):
                if twice & _FV.bits[x]:  # rare: count on the substituted term
                    return resources(_read(term, env))
                out += r
    return out


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
    return _SUBST[type(e)](e, x, v, free_evars(v))


# The substitution rules take (e, x, v, fv), where fv holds v's free variables.
def _subst_const(e, x, v, fv):
    args = []
    for a in e.args:
        args.append(_SUBST[type(a)](a, x, v, fv))
    return EConst(e.name, tuple(args))


def _subst_let(e, x, v, fv):
    x1, x2, p, b = e.x1, e.x2, e.pair, e.body
    p2 = _SUBST[type(p)](p, x, v, fv)
    if x in (x1, x2):
        return ELet(x1, x2, p2, b)
    if x1 in fv or x2 in fv:
        taken = fv | free_evars(b) | {x}
        n1 = _fresh(x1, taken)
        n2 = _fresh(x2, taken | {n1})
        b = esubst(esubst(b, x1, EVar(n1)), x2, EVar(n2))
        x1, x2 = n1, n2
    return ELet(x1, x2, p2, _SUBST[type(b)](b, x, v, fv))


def _subst_binder(e, x, v, fv):
    y, b = e.x, (e.value if type(e) is EFix else e.body)
    if y == x:
        return e
    if y in fv:
        ny = _fresh(y, fv | free_evars(b) | {x})
        b = esubst(b, y, EVar(ny))
        y = ny
    return type(e)(y, e.t, _SUBST[type(b)](b, x, v, fv))


def _subst_unknown(e, x, v, fv):
    raise TypeError(f"unknown expression {e!r}")


_SUBST = _Rules(_subst_unknown, {
    EVar: lambda e, x, v, fv: v if e.name == x else e,
    **dict.fromkeys((ERc, EUnit, EBool, EInt, EStr), lambda e, x, v, fv: e),
    EConst: _subst_const,
    **dict.fromkeys((EPair, ELPair), lambda e, x, v, fv: type(e)(
        _SUBST[type(e.left)](e.left, x, v, fv), _SUBST[type(e.right)](e.right, x, v, fv))),
    EApp: lambda e, x, v, fv: EApp(_SUBST[type(e.fun)](e.fun, x, v, fv),
                                   _SUBST[type(e.arg)](e.arg, x, v, fv)),
    **dict.fromkeys((EFst, ESnd), lambda e, x, v, fv: type(e)(
        _SUBST[type(e.body)](e.body, x, v, fv))),
    EIf: lambda e, x, v, fv: EIf(_SUBST[type(e.cond)](e.cond, x, v, fv),
                                 _SUBST[type(e.then)](e.then, x, v, fv),
                                 _SUBST[type(e.els)](e.els, x, v, fv)),
    ELet: _subst_let, ELam: _subst_binder, ELLam: _subst_binder, EFix: _subst_binder,
})

_IS_VALUE = _Rules(lambda e: False, {
    **dict.fromkeys(_VALUE_LEAVES, lambda e: True),
    **dict.fromkeys((EPair, ELPair), lambda e: _IS_VALUE[type(e.left)](e.left)
                    and _IS_VALUE[type(e.right)](e.right)),
    **dict.fromkeys((EVar, EConst, EFst, ESnd, ELet, EApp, EIf), lambda e: False),
})


def is_value(e: Expr) -> bool:
    return _IS_VALUE[type(e)](e)


# ----------------------------------------------------------- signatures


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
    return _signature(name, len(args), n)(name, args, n)


def _signature(name: str, arity: int, n: int):
    """The rule giving the result type of a constant applied to arity
    arguments; it takes (name, args, n)."""
    rl.check_universe(n)
    try:
        k, rule = _SIGS[name]
    except KeyError:
        raise MtlcTypeError(name, "unknown constant") from None
    if arity != k:
        raise MtlcTypeError(name, f"expects {k} arguments, got {arity}")
    return rule


def _sig_iadd(name, args, n):
    for a in args:
        if not isinstance(a, (TInt, TIntIdx)):
            raise MtlcTypeError(name, f"integer expected, got {a}")
    a, b = args
    if isinstance(a, TIntIdx) and isinstance(b, TIntIdx):
        return TIntIdx(a.i + b.i)
    return TInt()


def _sig_thread_create(name, args, n):
    if args[0] != TFunL(TUnit(), TUnit()):
        raise MtlcTypeError(name, f"expects a linear 1 -o 1 function, got {args[0]}")
    return TUnit()


def _sig_create(name, args, n):
    match args[0]:
        case TFunL(TChan(roles_, cursor), TUnit()):
            return TChan(rl.full_set(n) & ~roles_, cursor)
    raise MtlcTypeError(name, f"expects chan(R,S) -o 1, got {args[0]}")


def _sig_sync(name, args, n):
    t = _chan_arg(name, args[0])
    head = _action_head(name, t)
    if len(t.cursor) != 1 or not isinstance(head, (Msg, Bcast, Gather)):
        raise MtlcTypeError(name, "sync consumes a single final action")
    return TUnit()


def _message(name, arg, kind, why):
    """The endpoint type arg and its head: a message these roles take as
    kind, with more of the session to follow."""
    t = _chan_arg(name, arg)
    head = _action_head(name, t)
    if len(t.cursor) < 2 or not isinstance(head, (Msg, Bcast, Gather)) \
            or next_kind(head, t.roles) != kind:
        raise MtlcTypeError(name, why)
    return t, head


def _sig_skip(name, args, n):
    t, _ = _message(name, args[0], "skip", "skip applies to uninvolved non-final actions")
    return TChan(t.roles, t.cursor[1:])


def _sig_send(name, args, n):
    t, head = _message(name, args[0], "send", "these roles do not send here")
    want = _PAYLOAD_T[head.payload]
    if not compat(args[1], want):
        raise MtlcTypeError(name, f"payload {args[1]} does not fit {want}")
    return TChan(t.roles, t.cursor[1:])


def _sig_recv(name, args, n):
    t, head = _message(name, args[0], "recv", "these roles do not receive here")
    return TLPair(_PAYLOAD_T[head.payload], TChan(t.roles, t.cursor[1:]))


def _sig_aconj(name, args, n):
    t = _chan_arg(name, args[0])
    head = _action_head(name, t)
    if not isinstance(head, (SAConj, OptionT, Repseq)) \
            or next_kind(head, t.roles) != "choose":
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


def _sig_mconj(name, args, n):
    t = _chan_arg(name, args[0])
    head = _action_head(name, t)
    if not isinstance(head, SMConj) or len(t.cursor) != 1 \
            or next_kind(head, t.roles) != "fork-conj":
        raise MtlcTypeError(name, "mconj requires the deciding roles at a final tensor")
    return TLPair(TChan(t.roles, norm(head.left)),
                  TChan(t.roles, norm(head.right)))


def _sig_mdisj(name, args, n):
    t = _chan_arg(name, args[0])
    head = _action_head(name, t)
    if not isinstance(head, SMConj) or len(t.cursor) != 1 \
            or next_kind(head, t.roles) != "fork-disj":
        raise MtlcTypeError(name, "mdisj is for non-deciding roles at a final tensor")
    keep, give = (head.left, head.right) if name.endswith("l") \
        else (head.right, head.left)
    if args[1] != TFunL(TChan(t.roles, norm(give)), TUnit()):
        raise MtlcTypeError(name, f"second argument must consume the "
                            f"{'right' if name.endswith('l') else 'left'} endpoint")
    return TChan(t.roles, norm(keep))


def _sig_1_cut(name, args, n):
    if _chan_arg(name, args[0]).roles != 0:
        raise MtlcTypeError(name, "only an empty-role-set endpoint can be dropped")
    return TUnit()


def _sig_2_cut(name, args, n):
    t1, t2 = (_chan_arg(name, a) for a in args)
    if t1.cursor != t2.cursor:
        raise MtlcTypeError(name, "endpoint sessions differ")
    if t2.roles != rl.full_set(n) & ~t1.roles:
        raise MtlcTypeError(name, "role sets are not complementary")
    return TUnit()


def _sig_3_cut(name, args, n):
    ts = [_chan_arg(name, a) for a in args]
    if len({t.cursor for t in ts}) != 1:
        raise MtlcTypeError(name, "endpoint sessions differ")
    full = rl.full_set(n)
    if not rl.partition_check([full & ~t.roles for t in ts], n):
        raise MtlcTypeError(name, "complements must partition the universe")
    return TUnit()


def _sig_2_cutres(name, args, n):
    t1, t2 = (_chan_arg(name, a) for a in args)
    if t1.cursor != t2.cursor:
        raise MtlcTypeError(name, "endpoint sessions differ")
    full = rl.full_set(n)
    if (full & ~t1.roles) & (full & ~t2.roles):
        raise MtlcTypeError(name, "complements must be disjoint")
    return TChan(t1.roles & t2.roles, t1.cursor)


# each constant's arity and signature rule
_SIGS = {
    "iadd": (2, _sig_iadd), "randbit": (0, lambda name, args, n: TBool()),
    "thread_create": (1, _sig_thread_create), "chan_create": (1, _sig_create),
    "chan_sync": (1, _sig_sync), "chan_skip": (1, _sig_skip),
    "chan_send": (2, _sig_send), "chan_recv": (1, _sig_recv),
    "chan_aconj_l": (1, _sig_aconj), "chan_aconj_r": (1, _sig_aconj),
    "chan_mconj": (1, _sig_mconj),
    "chan_mdisj_l": (2, _sig_mdisj), "chan_mdisj_r": (2, _sig_mdisj),
    "chan_1_cut": (1, _sig_1_cut), "chan_2_cut": (2, _sig_2_cut),
    "chan_3_cut": (3, _sig_3_cut), "chan_2_cutres": (2, _sig_2_cutres),
}
CONSTS = set(_SIGS)
_CHAN_CONSTS = {name for name in CONSTS if name.startswith("chan_")}


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
    t, left = _CHECK[type(e)](e, dict(gamma or {}), dict(delta or {}), n)
    if left:
        raise MtlcTypeError("ty-linear", f"unused linear variables: {sorted(left)}")
    return t


def _check(e: Expr, gamma, delta, n) -> tuple[Viewtype, dict]:
    return _CHECK[type(e)](e, gamma, delta, n)


# The typing rules take (e, gamma, delta, n) and return e's type and the
# linear context left over.
def _check_var(e, gamma, delta, n):
    x = e.name
    if x in delta:
        rest = dict(delta)
        t = rest.pop(x)
        return t, rest
    if x in gamma:
        return gamma[x], delta
    raise MtlcTypeError("ty-var", f"unbound variable {x}")


def _check_pair(e, gamma, delta, n):
    """EPair and ELPair."""
    a, b = e.left, e.right
    t1, d1 = _CHECK[type(a)](a, gamma, delta, n)
    t2, d2 = _CHECK[type(b)](b, gamma, d1, n)
    if type(e) is ELPair:
        return TLPair(t1, t2), d2
    if is_linear(t1) or is_linear(t2):
        raise MtlcTypeError("ty-pair", "non-linear pairs cannot hold linear parts")
    return TPair(t1, t2), d2


def _check_proj(e, gamma, delta, n):
    """EFst and ESnd."""
    b = e.body
    t, d = _CHECK[type(b)](b, gamma, delta, n)
    fst = type(e) is EFst
    if not isinstance(t, TPair):
        raise MtlcTypeError("ty-fst" if fst else "ty-snd", f"projection from non-pair {t}")
    return t.left if fst else t.right, d


def _check_let(e, gamma, delta, n):
    p = e.pair
    tp, d1 = _CHECK[type(p)](p, gamma, delta, n)
    if not isinstance(tp, TLPair):
        raise MtlcTypeError("ty-let", f"let-pair on non-tensor {tp}")
    x1, b = _avoid(e.x1, e.body, d1)
    x2, b = _avoid(e.x2, b, d1)
    inner = dict(d1)
    # non-linear binders are bound in gamma itself for the body and unbound
    # after it: a copy per let would cost the context's size
    shadowed = {}
    for x, tx in ((x1, tp.left), (x2, tp.right)):
        if is_linear(tx):
            inner[x] = tx
        else:
            shadowed.setdefault(x, gamma.get(x))
            gamma[x] = tx
    try:
        t, d2 = _CHECK[type(b)](b, gamma, inner, n)
    finally:
        for x, old in shadowed.items():
            if old is None:
                del gamma[x]
            else:
                gamma[x] = old
    for x, tx in ((x1, tp.left), (x2, tp.right)):
        if is_linear(tx) and x in d2:
            raise MtlcTypeError("ty-let", f"linear variable {x} unused")
    return t, d2


def _check_lam(e, gamma, delta, n):
    """ELam (rule ty-lam-i) and ELLam (ty-lam-l)."""
    linear = type(e) is ELLam
    rule = "ty-lam-l" if linear else "ty-lam-i"
    if not linear and resources(e.body):
        raise MtlcTypeError(rule, "non-linear function holds resources")
    tx = e.t
    x, body = _avoid(e.x, e.body, delta)
    inner = dict(delta)
    g = gamma
    if is_linear(tx):
        inner[x] = tx
    else:
        g = dict(gamma)
        g[x] = tx
    t, d2 = _CHECK[type(body)](body, g, inner, n)
    if is_linear(tx) and x in d2:
        raise MtlcTypeError(rule, f"linear parameter {x} unused")
    d2.pop(x, None)
    if linear:
        return TFunL(tx, t), d2
    if d2 != delta:
        raise MtlcTypeError(rule, "non-linear function captures linear variables")
    return TFunN(tx, t), delta


def _check_app(e, gamma, delta, n):
    f, a = e.fun, e.arg
    tf, d1 = _CHECK[type(f)](f, gamma, delta, n)
    if not isinstance(tf, (TFunN, TFunL)):
        raise MtlcTypeError("ty-app", f"application of non-function {tf}")
    ta, d2 = _CHECK[type(a)](a, gamma, d1, n)
    if not compat(ta, tf.dom):
        raise MtlcTypeError("ty-app", f"argument {ta} does not fit {tf.dom}")
    return tf.cod, d2


def _check_fix(e, gamma, delta, n):
    tx, v = e.t, e.value
    if not is_value(v) and not isinstance(v, EVar):
        raise MtlcTypeError("ty-fix", "fixpoint body must be a value")
    if resources(v):
        raise MtlcTypeError("ty-fix", "fixpoint body holds resources")
    if is_linear(tx):
        raise MtlcTypeError("ty-fix", "fixpoint at a linear type")
    x, v = _avoid(e.x, v, delta)
    g = dict(gamma)
    g[x] = tx
    t, d2 = _CHECK[type(v)](v, g, delta, n)
    if d2 != delta:
        raise MtlcTypeError("ty-fix", "fixpoint body consumes linear context")
    if not compat(t, tx):
        raise MtlcTypeError("ty-fix", f"body type {t} differs from {tx}")
    return tx, delta


def _check_if(e, gamma, delta, n):
    c, a, b = e.cond, e.then, e.els
    tc, d0 = _CHECK[type(c)](c, gamma, delta, n)
    if not isinstance(tc, TBool):
        raise MtlcTypeError("ty-if", f"condition of type {tc}")
    if rho(a) != rho(b):
        raise MtlcTypeError("ty-if", "branches hold different resources")
    t1, d1 = _CHECK[type(a)](a, gamma, d0, n)
    t2, d2 = _CHECK[type(b)](b, gamma, d0, n)
    if d1 != d2:
        raise MtlcTypeError("ty-if", "branches consume different linear variables")
    if t1 == t2:
        return t1, d1
    if isinstance(t1, (TInt, TIntIdx)) and isinstance(t2, (TInt, TIntIdx)):
        return TInt(), d1
    raise MtlcTypeError("ty-if", f"branch types differ: {t1} vs {t2}")


def _check_const(e, gamma, delta, n):
    ts = []
    d = delta
    for a in e.args:
        ta, d = _CHECK[type(a)](a, gamma, d, n)
        ts.append(ta)
    # the rule is called from here, not through sig_result, to save a frame
    return _signature(e.name, len(ts), n)(e.name, ts, n), d


def _check_unknown(e, gamma, delta, n):
    raise MtlcTypeError("ty", f"unknown expression {e!r}")


_CHECK = _Rules(_check_unknown, {
    EVar: _check_var,
    ERc: lambda e, gamma, delta, n: (TChan(e.ep.roles, e.ep.channel.cursor), delta),
    EUnit: lambda e, gamma, delta, n: (TUnit(), delta),
    EBool: lambda e, gamma, delta, n: (TBool(), delta),
    EInt: lambda e, gamma, delta, n: (TIntIdx(e.value), delta),
    EStr: lambda e, gamma, delta, n: (TStr(), delta),
    EPair: _check_pair, ELPair: _check_pair, EFst: _check_proj, ESnd: _check_proj,
    ELet: _check_let, ELam: _check_lam, ELLam: _check_lam, EApp: _check_app,
    EFix: _check_fix, EIf: _check_if, EConst: _check_const,
    Clo: lambda e, gamma, delta, n: (_closure_type(e.term, e.env, n), delta),
})


def _closure_type(term: Expr, env, n: int, hole: Viewtype | None = None) -> Viewtype:
    """The type of term with the closed values of env substituted (and the
    hole at the given type): term typed through typecheck under the types of
    its free variables' values.  By the substitution lemma this is the
    judgement of the substituted term."""
    gamma, delta = {}, {}
    if hole is not None:
        (delta if is_linear(hole) else gamma)[_HOLE.name] = hole
    if env is not None:
        for x in _FV.names(_FV(term)[0]):
            if b := _lookup(env, x):  # else typecheck reports it unbound
                t = _CHECK[type(b[1])](b[1], _EMPTY, _EMPTY, n)[0]
                (delta if is_linear(t) else gamma)[x] = t
    return typecheck(term, gamma, delta, n)


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


# Threads run on an environment machine, after the CEK machine of Felleisen
# and Friedman.  A state is a control, a term under an environment or a
# value, and a continuation: a linked list of frames (node, env, values,
# next) in which node's first children have evaluated to the values, the
# next one is being evaluated and the rest wait under env.  Environments
# bind variables to closed values (literals, endpoints, pairs and closures),
# so a step binds and looks up and never rebuilds a program node.  A state
# stands for the closed expression substitution would have reached: the
# control, then each frame's node with its hole (at the child being
# evaluated) filled by the part inside it, each with its environment
# substituted.
#
# An environment is None (empty) or (log, n): the first n bindings made in
# a log, which keeps each name's bindings newest first, as a linked list of
# (index, value, older).  Environments extended from one another share a
# log: extending the newest one adds to the log in O(1), and a lookup skips
# only bindings made after its environment.  Extending an older one (a
# closure's, say, once the program has bound more) first copies the
# bindings it sees into a new log.


class _Log(dict):
    size = 0  # the number of bindings made in the log


def _bind(env, x: str, v: Expr):
    """env with x bound to v."""
    log, n = env or (_Log(), 0)
    if log.size != n:
        log = _Log()
        for y, w in _bindings(env).items():
            log[y] = (log.size, w, None)
            log.size += 1
        n = log.size
    log[x] = (n, v, log.get(x))
    log.size = n + 1
    return log, n + 1


def _lookup(env, x: str) -> tuple | None:
    """x's binding (index, value, older) in env, if any."""
    if env is None:
        return None
    got = env[0].get(x)
    while got is not None and got[0] >= env[1]:
        got = got[2]
    return got


def _bindings(env) -> dict:
    """env as a dict from names to values."""
    return {} if env is None else {x: got[1] for x in env[0] if (got := _lookup(env, x))}


_HOLE = EVar("[ ]")  # a frame's hole; no parsed program can name it
_EMPTY: dict = {}
_SELF = (EUnit, EBool, EInt, EStr, ERc, Clo)  # they evaluate to themselves
_CLOSES = (ELam, ELLam, EFix)  # they evaluate to closures
_FRAMED = _SHAPE.keys() - set(_CLOSES)  # their children are evaluated first


def _read(term: Expr, env, hole: Expr | None = None) -> Expr:
    """term with the closed values of env substituted and the hole filled,
    if a filling is given.  Values are closed, so no binder needs renaming."""
    out, todo = [], [(term, _bindings(env))]
    while todo:
        item = todo.pop()
        if type(item) is not tuple:  # item's rebuilt children end out
            kids, make = _SHAPE[type(item)]
            i = len(out) - len(kids(item))
            node = make(item, out[i:])
            del out[i:]
            out.append(node)
            continue
        e, env = item
        cls = type(e)
        if cls is Clo:
            todo.append((e.term, _bindings(e.env)))
        elif cls is EVar:
            if e.name in env:
                todo.append((env[e.name], _EMPTY))
            else:
                out.append(hole if e is _HOLE and hole is not None else e)
        elif cls in _SHAPE:
            todo.append(e)
            kids = _SHAPE[cls][0](e)
            bound = _BINDS[cls](e) if cls in _BINDS else ()
            for i in range(len(kids) - 1, -1, -1):
                if i == len(kids) - 1 and not env.keys().isdisjoint(bound):
                    todo.append((kids[i], {x: v for x, v in env.items() if x not in bound}))
                else:
                    todo.append((kids[i], env))
        else:
            out.append(e)
    return out[0]


class MtlcThread:
    """Adapter joining an expression to a runtime Pool as a generator thread."""

    def __init__(self, pool: Pool, expr: Expr, hook=None, expected: Viewtype | None = None):
        self.pool = pool
        self.hook = hook
        self.expected = TUnit() if expected is None else expected
        # (term, env, value, continuation), the value standing when term is
        # None; saved after every reduction, and steps in between do not
        # change what it stands for
        self.state = (expr, None, None, None)
        self._parts = self._held = (None, None)  # (state, its parts / resources)
        self.thread = pool.add_thread(self._gen)
        self.thread.mtlc = self  # used for pool retyping

    def parts(self) -> list[tuple]:
        """The state as closures (term, env), innermost first: the control
        and each frame's node with its hole, built once per state."""
        if self._parts[0] is not self.state:
            term, env, val, k = self.state
            out = [(val, None) if term is None else (term, env)]
            while k is not None:
                node, fenv, vals, k = k
                kids, make = _SHAPE[type(node)]
                out.append((make(node, vals + (_HOLE,) + kids(node)[len(vals) + 1:]), fenv))
            self._parts = (self.state, out)
        return self._parts[1]

    def held(self) -> tuple[int, ...]:
        """resources() of the expression the state stands for."""
        if self._held[0] is not self.state:
            out = ()
            for term, env in self.parts():
                out += _held(term, env)
            self._held = (self.state, out)
        return self._held[1]

    @property
    def expr(self) -> Expr:
        """The closed expression the state stands for (read-back)."""
        out = None
        for term, env in self.parts():
            out = _read(term, env, out)
        return out

    def state_type(self) -> Viewtype:
        """The type of the expression the state stands for: each part typed
        under its environment, its hole at the type of the part inside it."""
        ty = None
        for term, env in self.parts():
            ty = _closure_type(term, env, self.pool.n, ty)
        return ty

    def _gen(self, t):
        pool = self.pool
        term, env, val, k = self.state
        while True:
            if term is None:  # return val to the innermost frame
                if k is None:
                    self.state = (None, None, val, None)
                    return
                node, fenv, vals, k = k
                vals += (val,)
            else:
                cls = type(term)
                if cls in _FRAMED:
                    node, fenv, vals = term, env, ()
                else:
                    if cls is EVar:
                        if not (got := _lookup(env, term.name)):
                            raise StuckNonRedex(f"free variable {term.name}")
                        val = got[1]
                    elif cls in _CLOSES:
                        val = Clo(term, env)
                    elif cls in _SELF:
                        val = term
                    else:
                        raise StuckNonRedex(f"cannot decompose {term!r}")
                    term = None
                    continue
            kids, make = _SHAPE[type(node)]
            kids = kids(node)
            if len(vals) < (1 if type(node) in (ELet, EIf) else len(kids)):
                k = (node, fenv, vals, k)
                term, env = kids[len(vals)], fenv
                continue
            term = None
            redex = make(node, vals + kids[len(vals):])
            if type(redex) in (EPair, ELPair):  # a pair of values is a value
                val = redex
                continue
            effect = None
            match redex:
                case EApp(Clo(ELam(x, _, body) | ELLam(x, _, body), cenv), a):
                    term, env = body, _bind(cenv, x, a)
                case EApp(Clo(EFix(x, _, v), cenv) as f, a):
                    term, env = EApp(v, a), _bind(cenv, x, f)
                case EApp(f, _):
                    raise StuckNonRedex(f"application of non-function {_read(f, None)!r}")
                case EFst(EPair(a, _)):
                    val = a
                case ESnd(EPair(_, b)):
                    val = b
                case ELet(x1, x2, ELPair(a, b), body):
                    term, env = body, _bind(_bind(fenv, x2, b), x1, a)
                case EIf(EBool(c), a, b):
                    term, env = (a if c else b), fenv
                case EConst("iadd", (EInt(i), EInt(j))):
                    val = EInt(i + j)
                case EConst("randbit", ()):
                    val = EBool(bool(pool.rng.randrange(2)))
                case EConst("thread_create", (f,)):
                    self._spawn(f, EUnit())
                    pool._event("PR1", action="thread")
                    val = EUnit()
                case EConst(name, args) if name in _CHAN_CONSTS:
                    val, effect = self._channel_op(name, args)
                case _:
                    raise StuckNonRedex(f"no reduction for {_read(redex, fenv)!r}")
            if effect is not None:
                result = yield effect
                val = val(result)
            self.state = (term, env, val, k)
            if self.hook:
                self.hook(self.pool, self)

    def _spawn(self, f, arg) -> MtlcThread:
        """A thread of this thread's class applying value f to arg."""
        return type(self)(self.pool, EApp(f, arg), self.hook)

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
                nt = self._spawn(f, ERc(spawned))
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
                    self._spawn(f, ERc(give))

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
            out.update(m.held())
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
    ty = mt.state_type()
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
        ty = m.state_type()
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
