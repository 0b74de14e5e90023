"""A small linear lambda calculus over multiparty channels.

Expressions are immutable.  Each thread runs on an environment machine: a
program node or a value under an environment of closed values, and a stack
of frames, so a step binds or looks up and never rebuilds or substitutes
into the program; a reduction dispatches on its frame's node class and
builds no redex.  Its reductions are those of substitution-based small-step
evaluation, in the same order, and a state can be read back as the
expression that evaluation would hold (MtlcThread.expr).  Retyping after
every reduction (--retype-every-step) notes the program's judgements once,
and then checks at each step only what the step changed (MtlcThread.judge),
fitting values to types without building theirs (_Judgements.fit).  Channel
effects are delegated to the runtime module: each calculus thread is a
generator joining a runtime Pool and blocking on the same matching engine as
scripted threads.

Types split into non-linear types (bool, int, indexed int, str, unit,
T1*T2, ->) and linear viewtypes (chan(R,S), tensor pairs, -o), ordered by
subtyping (compat).  The typechecker is algorithmic: the linear context is
threaded through subterms and each rule returns what it left, noting its
judgement only in a judging run.  A message of a chain costs at most 25
Python calls to type, 75 to run and 130 to run retyped (the tests' census).  A
channel type's cursor steps by the runtime's rule: the signatures of the
endpoint operations take it from session.advance and session.forks, which
build every cursor and continuation.
"""

from __future__ import annotations

from collections import Counter
from itertools import filterfalse
from operator import attrgetter

from . import roles as rl
from . import runtime as rt
from .roles import Record
from .runtime import Endpoint, Pool, _Block
from .session import (
    Bcast,
    Gather,
    Msg,
    OptionT,
    Repseq,
    SAConj,
    SessionError,
    SessionType,
    _ACTIONS,
    _rules,
    advance,
    fmt_session,
    forks,
    norm,
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


class TBool(Record):
    pass


class TInt(Record):
    pass


class TIntIdx(Record):
    i: int


class TStr(Record):
    pass


class TUnit(Record):
    pass


class TChan(Record):
    roles: int
    cursor: tuple[SessionType, ...]


class TPair(Record):
    left: "Viewtype"
    right: "Viewtype"


class TLPair(Record):
    left: "Viewtype"
    right: "Viewtype"


class TFunN(Record):
    dom: "Viewtype"
    cod: "Viewtype"


class TFunL(Record):
    dom: "Viewtype"
    cod: "Viewtype"


Viewtype = TBool | TInt | TIntIdx | TStr | TUnit | TChan | TPair | TLPair | TFunN | TFunL
_LINEAR = frozenset((TChan, TLPair, TFunL))


def is_linear(t: Viewtype) -> bool:
    return type(t) in _LINEAR


def compat(sub: Viewtype, sup: Viewtype) -> bool:
    """Subtyping: sub <: sup when sup is their least upper bound; int(i) <:
    int is decided without building the join."""
    if sub is sup or type(sup) is TInt and type(sub) is TIntIdx:
        return True
    return sub == sup or _join(sub, sup) == sup


def _join(a: Viewtype, b: Viewtype, up: bool = True) -> Viewtype | None:
    """The least upper bound of two types (the greatest lower bound if not
    up), or None: int(i) <: int; pairs, tensors and codomains are covariant,
    and domains are contravariant."""
    if a == b:
        return a
    match a, b:
        case TIntIdx(), TIntIdx():
            return TInt() if up else None
        case (TIntIdx(), TInt()) | (TInt(), TIntIdx()):
            return TInt() if up else a if type(a) is TIntIdx else b
        case (TPair(l1, r1), TPair(l2, r2)) | (TLPair(l1, r1), TLPair(l2, r2)):
            left, right = _join(l1, l2, up), _join(r1, r2, up)
        case (TFunN(l1, r1), TFunN(l2, r2)) | (TFunL(l1, r1), TFunL(l2, r2)):
            left, right = _join(l1, l2, not up), _join(r1, r2, up)
        case _:
            return None
    return None if left is None or right is None else type(a)(left, right)


_UNIT, _BOOL, _INT, _STR = TUnit(), TBool(), TInt(), TStr()  # types are immutable
_PAYLOAD_T = {"unit": _UNIT, "int": _INT, "str": _STR}


# ---------------------------------------------------------- expressions


class EVar(Record):
    name: str


class ERc(Record):
    ep: Endpoint

    def __eq__(self, other):
        return isinstance(other, ERc) and other.ep is self.ep

    def __hash__(self):
        return id(self.ep)


class EUnit(Record):
    pass


class EBool(Record):
    value: bool


class EInt(Record):
    value: int


class EStr(Record):
    value: str


class EConst(Record):
    name: str
    args: tuple["Expr", ...] = ()


class EPair(Record):
    left: "Expr"
    right: "Expr"


class ELPair(Record):
    left: "Expr"
    right: "Expr"


class EFst(Record):
    body: "Expr"


class ESnd(Record):
    body: "Expr"


class ELet(Record):
    x1: str
    x2: str
    pair: "Expr"
    body: "Expr"


class ELam(Record):
    x: str
    t: Viewtype
    body: "Expr"


class ELLam(Record):
    x: str
    t: Viewtype
    body: "Expr"


class EApp(Record):
    fun: "Expr"
    arg: "Expr"


class EFix(Record):
    x: str
    t: Viewtype
    value: "Expr"


class EIf(Record):
    cond: "Expr"
    then: "Expr"
    els: "Expr"


Expr = (EVar | ERc | EUnit | EBool | EInt | EStr | EConst | EPair | ELPair
        | EFst | ESnd | ELet | ELam | ELLam | EApp | EFix | EIf)

_VALUE_LEAVES = (EUnit, EBool, EInt, EStr, ERc, ELam, ELLam, EFix)
_LEAF_T = {EUnit: _UNIT, EBool: _BOOL, EStr: _STR}


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


class Clo(Record, eq=False):
    """A runtime closure: a term and the closed values of its free
    variables.  It stands for the term with its environment substituted and
    is typed and counted as that term; equality is identity."""
    term: Expr
    env: tuple | None


# Each composite expression class: its children in order (read without a
# Python call by an attrgetter where it can), and its constructor from new
# children.  A binder (_BINDS) binds in its last child.
_SHAPE = {
    EConst: (attrgetter("args"), lambda e, k: EConst(e.name, tuple(k))),
    EPair: (attrgetter("left", "right"), lambda e, k: EPair(*k)),
    ELPair: (attrgetter("left", "right"), lambda e, k: ELPair(*k)),
    EApp: (attrgetter("fun", "arg"), lambda e, k: EApp(*k)),
    EFst: (lambda e: (e.body,), lambda e, k: EFst(*k)),
    ESnd: (lambda e: (e.body,), lambda e, k: ESnd(*k)),
    EIf: (attrgetter("cond", "then", "els"), lambda e, k: EIf(*k)),
    ELet: (attrgetter("pair", "body"), lambda e, k: ELet(e.x1, e.x2, *k)),
    ELam: (lambda e: (e.body,), lambda e, k: ELam(e.x, e.t, *k)),
    ELLam: (lambda e: (e.body,), lambda e, k: ELLam(e.x, e.t, *k)),
    EFix: (lambda e: (e.value,), lambda e, k: EFix(e.x, e.t, *k)),
}
_BINDS = {ELet: lambda e: (e.x1, e.x2),
          **dict.fromkeys((ELam, ELLam, EFix), lambda e: (e.x,))}

_RES_PARTS = {
    **{cls: kids for cls, (kids, _) in _SHAPE.items()},
    EIf: attrgetter("cond", "then"),  # both branches hold the same resources
}


def resources(e: Expr) -> tuple[int, ...]:
    """The endpoint ids of the resource constants in an expression, one per
    occurrence; a closure's are those of the term it stands for.

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
                         resources(_read(node.term, node.env)) if type(node) is Clo else ())
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


_IS_VALUE = _Rules(lambda e: False, {
    **dict.fromkeys(_VALUE_LEAVES, lambda e: True),
    **dict.fromkeys((EPair, ELPair), lambda e: _IS_VALUE[type(e.left)](e.left)
                    and _IS_VALUE[type(e.right)](e.right)),
    **dict.fromkeys((EVar, EConst, EFst, ESnd, ELet, EApp, EIf), lambda e: False),
})


def is_value(e: Expr) -> bool:
    return _IS_VALUE[type(e)](e)


# ----------------------------------------------------------- signatures


_MESSAGES = (Msg, Bcast, Gather)


def _head(name: str, t: Viewtype, why: str, heads=None, kind=None, final=None) -> SessionType:
    """The head of endpoint type t.  Refused in this order: a non-channel, a
    finished session, and, worded why, a head not of heads, not taken as kind
    by t's roles, or that does (final) or does not end the session."""
    if not isinstance(t, TChan):
        raise MtlcTypeError(name, f"expected a channel endpoint, got {t}")
    cursor = t.cursor
    if not cursor:
        raise MtlcTypeError(name, "endpoint session is already finished")
    head = cursor[0]
    if heads is not None and not isinstance(head, heads) \
            or final is not None and (len(cursor) == 1) is not final \
            or kind is not None \
            and (_ACTIONS.get(head.__class__) or _rules(head))[0](head, t.roles) != kind:
        raise MtlcTypeError(name, why)
    return head


def sig_result(name: str, args: list[Viewtype], n: int) -> Viewtype:
    """Instantiate a constant's c-type schema at the given argument types."""
    rl.check_universe(n)
    try:
        k, rule = _SIGS[name]
    except KeyError:
        raise MtlcTypeError(name, "unknown constant") from None
    if len(args) != k:
        raise MtlcTypeError(name, f"expects {k} arguments, got {len(args)}")
    return rule(name, args, n)


def _sig_iadd(name, args, n):
    for a in args:
        if not isinstance(a, (TInt, TIntIdx)):
            raise MtlcTypeError(name, f"integer expected, got {a}")
    a, b = args
    if isinstance(a, TIntIdx) and isinstance(b, TIntIdx):
        return TIntIdx(a.i + b.i)
    return _INT


def _sig_thread_create(name, args, n):
    if args[0] != TFunL(TUnit(), TUnit()):
        raise MtlcTypeError(name, f"expects a linear 1 -o 1 function, got {args[0]}")
    return _UNIT


def _sig_create(name, args, n):
    match args[0]:
        case TFunL(TChan(roles_, cursor), TUnit()):
            return TChan(rl.full_set(n) & ~roles_, cursor)
    raise MtlcTypeError(name, f"expects chan(R,S) -o 1, got {args[0]}")


def _sig_sync(name, args, n):
    _head(name, args[0], "sync consumes a single final action", _MESSAGES, final=True)
    return _UNIT


def _sig_skip(name, args, n):
    t = args[0]
    _head(name, t, "skip applies to uninvolved non-final actions", _MESSAGES, "skip", False)
    return TChan(t.roles, advance(t.cursor))


def _sig_send(name, args, n):
    t, v = args
    want = _PAYLOAD_T[_head(name, t, "these roles do not send here", _MESSAGES, "send",
                            False).payload]
    if not compat(v, want):
        raise MtlcTypeError(name, f"payload {v} does not fit {want}")
    return TChan(t.roles, advance(t.cursor))


def _sig_recv(name, args, n):
    t = args[0]
    head = _head(name, t, "these roles do not receive here", _MESSAGES, "recv", False)
    return TLPair(_PAYLOAD_T[head.payload], TChan(t.roles, advance(t.cursor)))


def _sig_aconj(name, args, n):
    t = args[0]
    _head(name, t, "these roles do not decide here", (SAConj, OptionT, Repseq), "choose")
    return TChan(t.roles, advance(t.cursor, name[-1]))


def _forked(name, t, kind, why):
    """The two endpoint types a final mconj head of t splits into, for
    roles that take the head as kind."""
    _head(name, t, why, kind=kind)  # only an mconj head forks
    try:
        left, right = forks(t.cursor)
    except SessionError:
        raise MtlcTypeError(name, why) from None
    return TChan(t.roles, left), TChan(t.roles, right)


def _sig_mconj(name, args, n):
    return TLPair(*_forked(name, args[0], "fork-conj",
                           "mconj requires the deciding roles at a final tensor"))


def _sig_mdisj(name, args, n):
    left, right = _forked(name, args[0], "fork-disj",
                          "mdisj is for non-deciding roles at a final tensor")
    keep, give = (left, right) if name.endswith("l") else (right, left)
    if args[1] != TFunL(give, TUnit()):
        raise MtlcTypeError(name, f"second argument must consume the "
                            f"{'right' if name.endswith('l') else 'left'} endpoint")
    return keep


# each cut's refusal when its role sets fail the side condition (roles.cut_residual)
_CUT_REFUSALS = {"chan_1_cut": "only an empty-role-set endpoint can be dropped",
                 "chan_2_cut": "role sets are not complementary",
                 "chan_3_cut": "complements must partition the universe",
                 "chan_2_cutres": "complements must be disjoint"}


def _sig_cut(name, args, n):
    """A cut of its k arguments' endpoints, all at one cursor; chan_2_cutres
    keeps the residual endpoint, the others keep none."""
    for t in args:
        if not isinstance(t, TChan):
            raise MtlcTypeError(name, f"expected a channel endpoint, got {t}")
    if any(t.cursor != args[0].cursor for t in args):
        raise MtlcTypeError(name, "endpoint sessions differ")
    resid = rl.cut_residual([t.roles for t in args], n)
    keep = name == "chan_2_cutres"
    if resid is None or resid and not keep:
        raise MtlcTypeError(name, _CUT_REFUSALS[name])
    return TChan(resid, args[0].cursor) if keep else _UNIT


# each constant's arity and signature rule
_SIGS = {
    "iadd": (2, _sig_iadd), "randbit": (0, lambda name, args, n: _BOOL),
    "thread_create": (1, _sig_thread_create), "chan_create": (1, _sig_create),
    "chan_sync": (1, _sig_sync), "chan_skip": (1, _sig_skip),
    "chan_send": (2, _sig_send), "chan_recv": (1, _sig_recv),
    "chan_aconj_l": (1, _sig_aconj), "chan_aconj_r": (1, _sig_aconj),
    "chan_mconj": (1, _sig_mconj),
    "chan_mdisj_l": (2, _sig_mdisj), "chan_mdisj_r": (2, _sig_mdisj),
    "chan_1_cut": (1, _sig_cut), "chan_2_cut": (2, _sig_cut),
    "chan_3_cut": (3, _sig_cut), "chan_2_cutres": (2, _sig_cut),
}
CONSTS = set(_SIGS)
_CHAN_CONSTS = {name for name in CONSTS if name.startswith("chan_")}


# ---------------------------------------------------------- typechecker


class _Typing:
    """A plain typing run: its universe size, checked once for the run.  The
    rules give a judging run (_Judgements) each judgement as they return it."""
    __slots__ = ("n",)
    judging = False

    def __init__(self, n: int):
        rl.check_universe(n)
        self.n = n


def typecheck(e: Expr, gamma: dict[str, Viewtype] | None = None,
              delta: dict[str, Viewtype] | None = None, n: int = 2) -> Viewtype:
    return _typed(e, gamma, delta, _Typing(n))


def _typed(e: Expr, gamma, delta, cx: _Typing) -> Viewtype:
    t, left = _CHECK[type(e)](e, dict(gamma or {}), dict(delta or {}), cx)
    if left:
        raise MtlcTypeError("ty-linear", f"unused linear variables: {sorted(left)}")
    return t


# The typing rules take (e, gamma, delta, cx) and return e's type and the
# linear context left over; a judging run's cx notes them first.
def _check_var(e, gamma, delta, cx):
    x = e.name
    if x in delta:
        left = dict(delta)
        t = left.pop(x)
    elif x in gamma:
        t, left = gamma[x], delta
    else:
        raise MtlcTypeError("ty-var", f"unbound variable {x}")
    return cx.noted(e, t, delta, left) if cx.judging else (t, left)


def _check_leaf(e, gamma, delta, cx):
    """A literal or a resource constant."""
    cls = type(e)
    t = TIntIdx(e.value) if cls is EInt else _LEAF_T[cls] if cls in _LEAF_T \
        else TChan(e.ep.roles, e.ep.channel.cursor)
    return cx.noted(e, t, delta, delta) if cx.judging else (t, delta)


def _check_pair(e, gamma, delta, cx):
    """EPair and ELPair."""
    a, b = e.left, e.right
    t1, d1 = _CHECK[type(a)](a, gamma, delta, cx)
    t2, d2 = _CHECK[type(b)](b, gamma, d1, cx)
    if type(e) is EPair and (type(t1) in _LINEAR or type(t2) in _LINEAR):
        raise MtlcTypeError("ty-pair", "non-linear pairs cannot hold linear parts")
    t = (TLPair if type(e) is ELPair else TPair)(t1, t2)
    return cx.noted(e, t, delta, d2) if cx.judging else (t, d2)


def _check_proj(e, gamma, delta, cx):
    """EFst and ESnd."""
    b = e.body
    t, d = _CHECK[type(b)](b, gamma, delta, cx)
    fst = type(e) is EFst
    if not isinstance(t, TPair):
        raise MtlcTypeError("ty-fst" if fst else "ty-snd", f"projection from non-pair {t}")
    t = t.left if fst else t.right
    return cx.noted(e, t, delta, d) if cx.judging else (t, d)


def _check_let(e, gamma, delta, cx):
    if e.x1 == e.x2:  # evaluation binds the first; the body would see the second
        raise MtlcTypeError("ty-let", f"let binds {e.x1} twice")
    p = e.pair
    tp, d1 = _CHECK[type(p)](p, gamma, delta, cx)
    if not isinstance(tp, TLPair):
        raise MtlcTypeError("ty-let", f"let-pair on non-tensor {tp}")
    x1, x2, b = e.x1, e.x2, e.body
    inner = dict(d1)
    # the binders hide the linear entries they shadow until the body is typed
    hidden = {x: inner.pop(x) for x in (x1, x2) if x in inner}
    # non-linear binders are bound in gamma itself for the body and unbound
    # after it: a copy per let would cost the context's size
    shadowed = {}
    for x, tx in ((x1, tp.left), (x2, tp.right)):
        if type(tx) in _LINEAR:
            inner[x] = tx
        else:
            shadowed.setdefault(x, gamma.get(x))
            gamma[x] = tx
    try:
        t, d2 = _CHECK[type(b)](b, gamma, inner, cx)
    finally:
        for x, old in shadowed.items():
            if old is None:
                del gamma[x]
            else:
                gamma[x] = old
    for x, tx in ((x1, tp.left), (x2, tp.right)):
        if type(tx) in _LINEAR and x in d2:
            raise MtlcTypeError("ty-let", f"linear variable {x} unused")
    d2.update(hidden)
    if not cx.judging:
        return t, d2
    return cx.noted(e, t, delta, d2, (b, ((x2, tp.right), (x1, tp.left))))


def _check_lam(e, gamma, delta, cx):
    """ELam (rule ty-lam-i) and ELLam (ty-lam-l)."""
    linear = type(e) is ELLam
    rule = "ty-lam-l" if linear else "ty-lam-i"
    if not linear and resources(e.body):
        raise MtlcTypeError(rule, "non-linear function holds resources")
    tx, x, body = e.t, e.x, e.body
    inner = dict(delta)
    hidden = inner.pop(x, None)  # a linear entry the parameter shadows
    g = gamma
    if type(tx) in _LINEAR:
        inner[x] = tx
    else:
        g = dict(gamma)
        g[x] = tx
    t, d2 = _CHECK[type(body)](body, g, inner, cx)
    if type(tx) in _LINEAR and x in d2:
        raise MtlcTypeError(rule, f"linear parameter {x} unused")
    d2.pop(x, None)
    if hidden is not None:
        d2[x] = hidden
    if not linear and d2 != delta:
        raise MtlcTypeError(rule, "non-linear function captures linear variables")
    t = (TFunL if linear else TFunN)(tx, t)
    return cx.noted(e, t, delta, d2, (body, ((x, tx),))) if cx.judging else (t, d2)


def _check_app(e, gamma, delta, cx):
    f, a = e.fun, e.arg
    tf, d1 = _CHECK[type(f)](f, gamma, delta, cx)
    if not isinstance(tf, (TFunN, TFunL)):
        raise MtlcTypeError("ty-app", f"application of non-function {tf}")
    ta, d2 = _CHECK[type(a)](a, gamma, d1, cx)
    if not compat(ta, tf.dom):
        raise MtlcTypeError("ty-app", f"argument {ta} does not fit {tf.dom}")
    return cx.noted(e, tf.cod, delta, d2) if cx.judging else (tf.cod, d2)


def _check_fix(e, gamma, delta, cx):
    tx, v = e.t, e.value
    if not is_value(v) and not isinstance(v, EVar):
        raise MtlcTypeError("ty-fix", "fixpoint body must be a value")
    if resources(v):
        raise MtlcTypeError("ty-fix", "fixpoint body holds resources")
    if type(tx) in _LINEAR:
        raise MtlcTypeError("ty-fix", "fixpoint at a linear type")
    x, d = e.x, dict(delta)
    d.pop(x, None)  # a linear entry the binder shadows
    g = dict(gamma)
    g[x] = tx
    t, d2 = _CHECK[type(v)](v, g, d, cx)
    if d2 != d:
        raise MtlcTypeError("ty-fix", "fixpoint body consumes linear context")
    if not compat(t, tx):
        raise MtlcTypeError("ty-fix", f"body type {t} differs from {tx}")
    return cx.noted(e, tx, delta, delta, (v, ((x, tx),))) if cx.judging else (tx, delta)


def _check_if(e, gamma, delta, cx):
    c, a, b = e.cond, e.then, e.els
    tc, d0 = _CHECK[type(c)](c, gamma, delta, cx)
    if not isinstance(tc, TBool):
        raise MtlcTypeError("ty-if", f"condition of type {tc}")
    if rho(a) != rho(b):
        raise MtlcTypeError("ty-if", "branches hold different resources")
    t1, d1 = _CHECK[type(a)](a, gamma, d0, cx)
    t2, d2 = _CHECK[type(b)](b, gamma, d0, cx)
    if d1 != d2:
        raise MtlcTypeError("ty-if", "branches consume different linear variables")
    t = _join(t1, t2)
    if t is None:
        raise MtlcTypeError("ty-if", f"branch types differ: {t1} vs {t2}")
    return cx.noted(e, t, delta, d1, (a, ()), (b, ())) if cx.judging else (t, d1)


def _check_const(e, gamma, delta, cx):
    ts = []
    d = delta
    for a in e.args:
        ta, d = _CHECK[type(a)](a, gamma, d, cx)
        ts.append(ta)
    # the rule is called from here, not through sig_result, to save a frame;
    # sig_result words the refusal of an unknown constant or a wrong arity
    sig = _SIGS.get(e.name)
    t = (sig[1] if sig and sig[0] == len(ts) else sig_result)(e.name, ts, cx.n)
    return cx.noted(e, t, delta, d) if cx.judging else (t, d)


def _check_unknown(e, gamma, delta, cx):
    raise MtlcTypeError("ty", f"unknown expression {e!r}")


_CHECK = _Rules(_check_unknown, {
    EVar: _check_var, **dict.fromkeys((ERc, EUnit, EBool, EInt, EStr), _check_leaf),
    EPair: _check_pair, ELPair: _check_pair, EFst: _check_proj, ESnd: _check_proj,
    ELet: _check_let, ELam: _check_lam, ELLam: _check_lam, EApp: _check_app,
    EFix: _check_fix, EIf: _check_if, EConst: _check_const,
    # a closure is typed as the closed term it stands for
    Clo: lambda e, gamma, delta, cx: (typecheck(_read(e.term, e.env), n=cx.n), delta),
})


class _Unjudged(Exception):
    """A part of a state that the run's judgements do not cover."""


class _Judgements(dict):
    """A run's typing derivation, noted while its program is typed once:
    each node's id maps to (node, type, the linear variables it consumes,
    the binders whose values a reduction binds before it), or to None where
    a node shared by two places has two judgements.  A body is typed under
    its binders' types, so by the substitution lemma its type is, up to
    subtyping, that of the body under any environment whose values fit them.
    The methods judge parts of a machine state from the notes, or raise
    _Unjudged."""

    judging = True

    def __init__(self, n: int, root: Expr):
        super().__init__()
        self.n, self.plain = n, _Typing(n)
        _typed(root, None, None, self)

    def noted(self, e: Expr, t: Viewtype, delta: dict, left: dict, *bodies):
        """Note e's judgement, after the binders of each body of binder e."""
        for body, binds in bodies:
            if (got := self.get(id(body))) is not None:
                self[id(body)] = got[:3] + (binds,) if got[3] in (None, binds) else None
        # e consumes what of delta is not left
        lin = () if len(left) == len(delta) else tuple(filterfalse(left.__contains__, delta))
        note = (e, t, lin, None)
        got = self.setdefault(id(e), note)
        if got is not note and got is not None and got[1:3] != note[1:3]:
            self[id(e)] = None
        return t, left

    def of(self, e: Expr) -> tuple:
        if (got := self.get(id(e))) is None:
            raise _Unjudged
        return got

    def term(self, e: Expr, env) -> tuple[Viewtype, tuple]:
        """The type and resources of a control term under env: a body or a
        branch, each value its reduction bound checked at its binder, or a
        function applied to a value (a fixpoint unfolded, a thread spawned)."""
        got = self.get(id(e))
        if got is not None:
            for x, tx in got[3] or ():
                if (b := _lookup(env, x)) is None:
                    raise _Unjudged
                if not self.fit(b[1], tx):
                    raise MtlcTypeError("ty-bind", f"{x} bound to a {self.value(b[1])[0]}, "
                                        f"which does not fit {tx}")
            return got[1], self.held(e, env)
        if type(e) is not EApp:
            raise _Unjudged
        tf, hf = self.term(e.fun, env) if id(e.fun) in self else self.value(e.fun)
        if not isinstance(tf, (TFunN, TFunL)) or not self.fit(e.arg, tf.dom):
            raise MtlcTypeError("ty-app", f"{tf} applied to {self.value(e.arg)[0]}")
        return tf.cod, hf + self.held_of(e.arg)

    def held(self, e: Expr, env, bound=()) -> tuple[int, ...]:
        """resources() of program node e under env but for the variables
        bound: its constants and those of the linear variables' values."""
        out = resources(e)
        if (got := self.get(id(e))) is None:
            raise _Unjudged
        for x in got[2]:
            if x not in bound:
                if (b := _lookup(env, x)) is None:
                    raise _Unjudged
                out += self.held_of(b[1])
        return out

    def value(self, v: Expr) -> tuple[Viewtype, tuple]:
        """The type and resources of a value."""
        held, cls = self.held_of(v), type(v)  # held_of raises _Unjudged on a non-value
        if cls is EPair or cls is ELPair:
            t = (TPair if cls is EPair else TLPair)(self.value(v.left)[0], self.value(v.right)[0])
        else:
            t = self.of(v.term)[1] if cls is Clo else _CHECK[cls](v, _EMPTY, _EMPTY, self.plain)[0]
        return t, held

    def fit(self, v: Expr, t: Viewtype) -> bool:
        """compat(self.value(v)[0], t), decided from the value itself: an
        int by its literal, an endpoint by its roles and its channel's
        cursor, a pair by its components, a closure by its term's type."""
        cls = type(v)
        if cls is EInt:
            return type(t) is TInt or type(t) is TIntIdx and t.i == v.value
        if cls is ERc:
            return type(t) is TChan and t.roles == v.ep.roles and t.cursor == v.ep.channel.cursor
        if cls is EPair or cls is ELPair:
            return type(t) is (TPair if cls is EPair else TLPair) \
                and self.fit(v.left, t.left) and self.fit(v.right, t.right)
        return compat(self.of(v.term)[1] if cls is Clo else self.value(v)[0], t)

    def held_of(self, v: Expr) -> tuple[int, ...]:
        """The resources of a value: its endpoints, and a closure's are those
        of the term it stands for."""
        cls = type(v)
        if cls is Clo:
            return self.held(v.term, v.env)
        if cls is EPair or cls is ELPair:
            return self.held_of(v.left) + self.held_of(v.right)
        if cls not in _SELF:
            raise _Unjudged  # not a value
        return (v.ep.eid,) if cls is ERc else ()


# ------------------------------------------------------- canonical forms


# the canonical form of a value of each class at each type class
_CANONICAL = {(TUnit, EUnit): "unit", (TBool, EBool): "bool", (TInt, EInt): "int",
              (TIntIdx, EInt): "int", (TStr, EStr): "str", (TChan, ERc): "endpoint",
              (TPair, EPair): "pair", (TLPair, ELPair): "tensor-pair",
              (TFunN, ELam): "lam", (TFunN, EFix): "lam", (TFunL, ELLam): "linear-lam"}


def canonical_form(v: Expr, t: Viewtype) -> str:
    if not is_value(v):
        raise ClassificationImpossible("not a value")
    if (type(t), type(v)) not in _CANONICAL:
        raise ClassificationImpossible(f"value {v!r} at type {t}")
    return _CANONICAL[type(t), type(v)]


# ------------------------------------------------------------ evaluation


def _py_value(v: Expr):
    if type(v) is EUnit:
        return None
    if type(v) not in (EInt, EStr, EBool):
        raise StuckNonRedex(f"payload value expected, got {v!r}")
    return v.value


_LIFT = {type(None): lambda _: EUnit(), bool: EBool, int: EInt, str: EStr}


def _lift(value) -> Expr:
    if type(value) not in _LIFT:
        raise StuckNonRedex(f"cannot lift payload {value!r}")
    return _LIFT[type(value)](value)


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


class _Holders(Counter):
    """The endpoints a pool's live calculus threads hold, as their last
    judgements counted them: eid -> holders, shared the number of eids held
    more than once, and queue the threads made with a hook, which the step
    that made them judges (retype_thread)."""

    shared = 0

    def __init__(self):
        super().__init__()
        self.queue = []

    def move(self, old: tuple, new: tuple) -> None:
        """Count one thread's resources as new in place of old."""
        for eid in old:
            self.shared -= self[eid] == 2
            self[eid] -= 1
        for eid in new:
            self[eid] += 1
            self.shared += self[eid] == 2


class MtlcThread:
    """Adapter joining an expression to a runtime Pool as a generator thread."""

    _notes = None  # the run's _Judgements, from the first retyping on
    _parent = None  # the thread that spawned this one, whose notes it shares
    _frames = None  # (index, top): the frames judged so far, see judge()
    _fitted = None  # the type judge() last found to fit expected
    _held = (None, ())  # (state, its resources) as judge() last counted them

    def __init__(self, pool: Pool, expr: Expr, hook=None, expected: Viewtype | None = None):
        self.pool = pool
        self.hook = hook
        self.root = expr
        self.expected = TUnit() if expected is None else expected
        # (term, env, value, continuation), the value standing when term is
        # None; saved after every reduction, and steps in between do not
        # change what it stands for
        self.state = (expr, None, None, None)
        self.holders = vars(pool).setdefault("mtlc_holders", _Holders())  # shared
        self.thread = pool.add_thread(self._gen)
        self.thread.mtlc = self  # used for pool retyping
        if hook is not None:
            self.holders.queue.append(self)

    def held(self) -> tuple[int, ...]:
        """resources() of the expression the state stands for: as the last
        retyping of this state counted them, else on its read-back."""
        return self._held[1] if self._held[0] is self.state else resources(self.expr)

    @property
    def expr(self) -> Expr:
        """The closed expression the state stands for (read-back): the
        control, then each frame's node with the part inside it at its hole,
        each with its environment substituted."""
        term, env, val, k = self.state
        out = _read(val, None) if term is None else _read(term, env)
        while k is not None:
            node, fenv, vals, k = k
            kids, make = _SHAPE[type(node)]
            out = _read(make(node, vals + (_HOLE,) + kids(node)[len(vals) + 1:]), fenv, out)
        return out

    def judge(self) -> Viewtype:
        """Retype the state, and count its resources for held() and in the
        pool's count (_Holders).  Each frame is judged once from the notes
        (_Judgements), when first seen: its hole's type, its node's, which
        must fit the hole below, and the resources from it down.  A step
        checks its control at the top hole and each value it bound at its
        binder.  By the replacement lemma this is the type of the read-back,
        or a supertype where a binder's type stands in for a value's refined
        one.  A state the notes do not cover is typed on its read-back."""
        try:
            ty, held = self._judge_state()
        except _Unjudged:
            e = self.expr
            ty, held = typecheck(e, n=self.pool.n), resources(e)
        # the bottom frame's type is one object from step to step
        if ty is not self._fitted and not compat(ty, self.expected):
            raise MtlcTypeError("ty-pool",
                                f"thread {self.thread.tid} type {ty} drifted from {self.expected}")
        if held != self._held[1]:
            self.holders.move(self._held[1], held)
        self._fitted, self._held = ty, (self.state, held)
        return ty

    def _judgements(self) -> _Judgements:
        if self._notes is None:
            self._notes = (self._parent._judgements() if self._parent is not None
                           else _Judgements(self.pool.n, self.root))
        return self._notes

    def _judge_state(self) -> tuple[Viewtype, tuple]:
        notes = self._notes or self._judgements()  # never empty: the root is noted
        term, env, val, k = self.state
        # a judged frame is (frame, hole type, resources from it down, the
        # judged frame below, the thread's type), indexed by the frame's id;
        # the index keeps its frames alive, so no id is reused
        index, top = self._frames or ({}, None)
        self._frames = None  # until this judgement succeeds
        new, below = [], None
        while k is not None and (below := index.get(id(k))) is None:
            new.append(k)
            k = k[3]
        while top is not below:  # forget the frames popped since
            del index[id(top[0])]
            top = top[3]
        for k in reversed(new):
            node, fenv, vals, _ = k
            cls = type(node)
            kids = _SHAPE[cls][0](node)
            if (got := notes.get(id(node))) is None:
                raise _Unjudged
            ty = got[1]
            if below is not None and not compat(ty, below[1]):
                raise MtlcTypeError("ty-hole", f"{ty} does not fit its hole, of type {below[1]}")
            held = sum(map(notes.held_of, vals), () if below is None else below[2])
            # an if counts its condition and then-branch only, as resources() does
            for c in kids[len(vals) + 1:2 if cls is EIf else None]:
                held += notes.held(c, fenv, (node.x1, node.x2) if cls is ELet else ())
            if (got := notes.get(id(kids[len(vals)]))) is None:
                raise _Unjudged
            below = index[id(k)] = (k, got[1], held, below, ty if below is None else below[4])
        self._frames = (index, below)
        if term is not None:
            ty, held = notes.term(term, env)
        elif below is None or not notes.fit(val, below[1]):
            ty, held = notes.value(val)  # a final value, or one to word a misfit with
        else:  # a value that fits its hole is judged without building its type
            return below[4], notes.held_of(val) + below[2]
        if below is not None and not compat(ty, below[1]):
            raise MtlcTypeError("ty-hole", f"{ty} does not fit its hole, of type {below[1]}")
        return (ty, held) if below is None else (below[4], held + below[2])

    def _exit(self) -> None:
        """Take the finished thread's resources out of the pool's count."""
        self.holders.move(self._held[1], ())
        self._held = (None, ())

    def _gen(self, t):
        """The runtime thread: the calculus thread's steps, then its exit."""
        pool = self.pool
        term, env, val, k = self.state
        while True:
            if term is None:  # return val to the innermost frame
                if k is None:
                    self.state = (None, None, val, None)
                    self._exit()
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
            cls = type(node)
            kids = _SHAPE[cls][0](node)
            if len(vals) < (1 if cls is ELet or cls is EIf else len(kids)):
                k = (node, fenv, vals, k)
                term, env = kids[len(vals)], fenv
                continue
            # reduce: node's evaluated children are vals, the rest wait in fenv
            term = effect = None
            if cls is EApp:
                f, a = vals
                if type(f) is not Clo:
                    raise StuckNonRedex(f"application of non-function {_read(f, None)!r}")
                lam = f.term
                if type(lam) is EFix:
                    term, env = EApp(lam.value, a), _bind(f.env, lam.x, f)
                else:
                    term, env = lam.body, _bind(f.env, lam.x, a)
            elif cls is EConst and node.name in _CHAN_CONSTS:
                val, effect = self._channel_op(node.name, vals)
            elif cls is EConst and node.name == "iadd" and len(vals) == 2 \
                    and type(vals[0]) is type(vals[1]) is EInt:
                val = EInt(vals[0].value + vals[1].value)
            elif cls is EConst and node.name == "randbit" and not vals:
                val = EBool(bool(pool.rng.randrange(2)))
            elif cls is EConst and node.name == "thread_create" and len(vals) == 1:
                self._spawn(vals[0], EUnit())
                pool._event("PR1", action="thread")
                val = EUnit()
            elif cls is ELet and type(p := vals[0]) is ELPair:
                term, env = node.body, _bind(_bind(fenv, node.x2, p.right), node.x1, p.left)
            elif cls is EPair or cls is ELPair:  # a pair of values is a value
                val = cls(*vals)
                continue
            elif cls is EIf and type(c := vals[0]) is EBool:
                term, env = (node.then if c.value else node.els), fenv
            elif cls is EFst and type(p := vals[0]) is EPair:
                val = p.left
            elif cls is ESnd and type(p := vals[0]) is EPair:
                val = p.right
            else:  # the redex is built only to word the fault
                redex = _SHAPE[cls][1](node, vals + kids[len(vals):])
                raise StuckNonRedex(f"no reduction for {_read(redex, fenv)!r}")
            if effect is not None:
                result = yield effect
                val = val(result)
            self.state = (term, env, val, k)
            if self.hook:
                self.hook(self.pool, self)

    def _spawn(self, f, arg) -> MtlcThread:
        """A thread of this thread's class applying value f to arg."""
        nt = type(self)(self.pool, EApp(f, arg), self.hook)
        nt._parent = self
        return nt

    def _channel_op(self, name: str, args: tuple):
        pool = self.pool
        if name == "chan_create":
            f = args[0]
            lam = f.term if type(f) is Clo else f
            if type(lam) is not ELLam or type(lam.t) is not TChan:
                raise StuckNonRedex(f"chan_create: chan(R,S) -o 1 expected, got {f!r}")
            return ERc(pool.chan_spawn(lam.t.roles, lam.t.cursor,
                                       lambda ep: self._spawn(f, ERc(ep)).thread)), None
        # a cut's arguments are endpoints, the others' first argument is
        eps = []
        for a in (args if name in _CUT_REFUSALS else args[:1]):
            if not isinstance(a, ERc):
                raise StuckNonRedex(f"{name}: endpoint expected, got {a!r}")
            eps.append(a.ep)
        ep = eps[0]
        match name:
            case "chan_sync" | "chan_skip":
                same = ERc(ep) if name == "chan_skip" else EUnit()
                return (lambda _v: same), _Block("sync", ep, "sync")
            case "chan_send":
                return (lambda _v: ERc(ep)), \
                    _Block("sync", ep, "send", payload=_py_value(args[1]))
            case "chan_recv":
                return (lambda v: ELPair(_lift(v), ERc(ep))), _Block("sync", ep, "recv")
            case "chan_aconj_l" | "chan_aconj_r":
                return (lambda _v: ERc(ep)), _Block("choice", ep, "choose", side=name[-1])
            case "chan_mconj":
                return (lambda pair: ELPair(ERc(pair[0]), ERc(pair[1]))), \
                    _Block("mconj", ep, "mconj")
            case "chan_mdisj_l" | "chan_mdisj_r":
                return (lambda keep: ERc(keep)), _Block(
                    "mconj", ep, "mdisj", side=name[-1],
                    spawn=lambda give: self._spawn(args[1], ERc(give)))
            case "chan_1_cut" | "chan_2_cut" | "chan_3_cut" | "chan_2_cutres":
                resid = pool.chan_cut(eps, name == "chan_2_cutres")
                return (EUnit() if resid is None else ERc(resid)), None
        raise StuckNonRedex(f"unknown channel constant {name}")


def _threads(pool: Pool):
    """The pool's unfinished calculus threads."""
    for t in pool.active_threads.values():
        if (m := getattr(t, "mtlc", None)) is not None:
            yield m


def pool_rho(pool: Pool) -> Counter:
    out = Counter()
    for m in _threads(pool):
        out.update(m.held())
    return out


def res_ok(pool: Pool) -> bool:
    """Each live endpoint held at most once across the pool (RES membership)."""
    return max(pool_rho(pool).values(), default=0) <= 1


def retype_thread(pool: Pool, mt: MtlcThread) -> None:
    """Per-step debug hook: the stepping thread stays well-typed and the
    pool as a whole stays within the resource discipline.

    Only the thread that just reduced is retyped, with any thread made
    since the last step: between a synchronisation firing and the other
    participants resuming, their expressions still show the pre-fire
    operation, so whole-pool retyping is meaningful only at quiescence (see
    retype_pool).  The discipline is read off the pool's count, which each
    judgement and each exit keeps up to date (_Holders).
    """
    mt.judge()
    holders = mt.holders
    for m in holders.queue:
        if m is not mt and not m.thread.finished:
            m.judge()
    holders.queue.clear()
    if holders.shared:
        raise MtlcTypeError("ty-pool", "an endpoint is held more than once")


def retype_pool(pool: Pool) -> None:
    """Assert every unfinished calculus thread still has its declared type,
    and each live endpoint is held once, by a full recount."""
    for m in _threads(pool):
        m.judge()
    if not res_ok(pool):
        raise MtlcTypeError("ty-pool", "an endpoint is held more than once")


def eval_pool(expr: Expr, n: int = 2, seed: int = 0, max_steps: int = 10000,
              retype_every_step: bool = False):
    """Evaluate a closed main expression as thread 0 of a fresh pool."""
    pool = Pool(n, seed=seed)
    if retype_every_step:  # typed once, noting its judgements for the steps
        notes = _Judgements(n, expr)
        mt = MtlcThread(pool, expr, retype_thread, expected=notes.of(expr)[1])
        mt._notes = notes
        retype_pool(pool)
    else:
        mt = MtlcThread(pool, expr, expected=typecheck(expr, n=n))
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
    """The s-expression tree of text, as nested lists of tokens, read in one
    loop: an open list waits on the stack."""
    stack = [[]]
    for t in _TOK.findall(text):
        if len(stack) == 1 and stack[0]:
            raise MtlcTypeError("parse", "trailing input")
        if t == "(":
            stack.append([])
        elif t != ")":
            stack[-1].append(t)
        elif len(stack) == 1:
            raise MtlcTypeError("parse", "unbalanced )")
        else:
            done = stack.pop()
            stack[-1].append(done)
    if len(stack) > 1:
        raise MtlcTypeError("parse", "missing )")
    if not stack[0]:
        raise MtlcTypeError("parse", "unexpected end of input")
    return stack[0][0]


_NAMED_TYPES = {**_PAYLOAD_T, "bool": _BOOL, "1": _UNIT}
_TYPE_FORMS = {"pair": TPair, "tensor": TLPair, "->": TFunN, "-o": TFunL}


def parse_type(tree, n: int) -> Viewtype:
    match tree:
        case str(name) if name in _NAMED_TYPES:
            return _NAMED_TYPES[name]
        case ["int", str(i)] if rl.is_digits(i.removeprefix("-")):
            return TIntIdx(int(i))
        case ["chan", str(roleset), str(spec)]:
            s = parse_session(spec.strip('"'), n)
            return TChan(rl.parse_roleset(roleset, n), norm(s))
        case [str(op), a, b] if op in _TYPE_FORMS:
            return _TYPE_FORMS[op](parse_type(a, n), parse_type(b, n))
    raise MtlcTypeError("parse", f"unknown type {tree!r}")


_FORMS = {"lam": ELam, "llam": ELLam, "fix": EFix, "app": EApp, "pair": EPair,
          "tensor": ELPair, "fst": EFst, "snd": ESnd}


def parse_expr(tree, n: int) -> Expr:
    match tree:
        case "unit":
            return EUnit()
        case "true":
            return EBool(True)
        case "false":
            return EBool(False)
        case str(t) if rl.is_digits(t.removeprefix("-")):
            return EInt(int(t))
        case str(t) if t.startswith('"'):
            return EStr(t.strip('"'))
        case str(t):
            return EVar(t)
        case [("lam" | "llam" | "fix") as form, [str(x), ty], body]:
            return _FORMS[form](x, parse_type(ty, n), parse_expr(body, n))
        case [("app" | "pair" | "tensor") as form, a, b]:
            return _FORMS[form](parse_expr(a, n), parse_expr(b, n))
        case [("fst" | "snd") as form, a]:
            return _FORMS[form](parse_expr(a, n))
        case ["let", [str(x1), str(x2)], p, b]:
            return ELet(x1, x2, parse_expr(p, n), parse_expr(b, n))
        case ["if", c, a, b]:
            return EIf(parse_expr(c, n), parse_expr(a, n), parse_expr(b, n))
        case [str(c), *args] if c in CONSTS:
            return EConst(c, tuple(parse_expr(a, n) for a in args))
    raise MtlcTypeError("parse", f"unknown expression {tree!r}")


def parse_program(text: str, n: int) -> Expr:
    return parse_expr(_atoms(text), n)


_TYPE_NAMES = {TBool: "bool", TInt: "int", TStr: "str", TUnit: "1"}
_INFIX = {TPair: "*", TLPair: "(x)", TFunN: "->", TFunL: "-o"}


def fmt_type(t: Viewtype) -> str:
    cls = type(t)
    if cls in _TYPE_NAMES:
        return _TYPE_NAMES[cls]
    if cls is TIntIdx:
        return f"int({t.i})"
    if cls is TChan:
        body = "@".join(fmt_session(s) for s in t.cursor) or "nil"
        return f"chan({rl.fmt_roleset(t.roles)}, {body})"
    if cls not in _INFIX:
        raise MtlcTypeError("fmt", f"unknown type {t!r}")
    a, b = vars(t).values()  # left and right, or domain and codomain
    return f"({fmt_type(a)} {_INFIX[cls]} {fmt_type(b)})"
