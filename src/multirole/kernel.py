"""Derivation checking and admissible-rule transformers for the three calculi.

The classical calculus (MRL) has structural rules; the intuitionistic one
(MRLJ) fixes an ultrafilter J and restricts every sequent to at most one
i-formula whose role set belongs to J; the linear one (LMRL) drops the
structural rules and adds the multiplicative/exponential connectives.

Derivations are immutable and hash-consed, so a derivation is a DAG whose
equal subderivations are one node.  check() validates each node against its
rule schema using multiset sequent arithmetic, so transformers are free to
order conclusion items however is convenient.  The transformers
(axiom_fullset/axiom_multi, split_roles, cut1, cut2_residual, mp_cut) are
executable admissibility proofs: their outputs contain only primitive rule
nodes and are themselves checkable.  The four cuts are one reduction, _cut,
of k premises at once: cut1 is k = 1, cut2_residual k = 2 keeping the
residual, and mp_cut and split_roles build no residual.  Every traversal
and transformer call visits or reduces each distinct node once.
"""

from __future__ import annotations

import json

from . import roles as rl
from .logic import (
    AConj,
    Atom,
    Bang,
    Conj,
    Const,
    Forall,
    Formula,
    FormulaError,
    FormulaTable,
    FreshNames,
    IFormula,
    Impl,
    MConj,
    Neg,
    Sequent,
    Term,
    Var,
    _children,
    _substitute,
    fmt_formula,
    fmt_sequent,
    formulas_from_table,
    free_vars,
    names_in,
    roles_from_obj,
    seq_counts,
    seq_equal,
    seq_free_vars,
    seq_minus,
    size,
    substitute,
)
from .roles import BRIEF, Node, Record, Ultra


class KernelError(Exception):
    pass


class CheckError(KernelError):
    """A derivation node violating its rule schema.

    path is the premise-index route from the root to the offending node.
    """

    def __init__(self, path: tuple[int, ...], reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"at node {list(path)}: {reason}")


# -------------------------------------------------------------- calculi


class Calculus(Record):
    kind: str  # "mrl" | "mrlj" | "lmrl"
    n: int
    j: Ultra | None = None

    def __post_init__(self):
        rl.check_universe(self.n)
        if self.kind not in ("mrl", "mrlj", "lmrl"):
            raise KernelError(f"unknown calculus {self.kind!r}")
        if self.kind == "mrlj" and self.j is None:
            raise KernelError("mrlj requires the intuitionistic ultrafilter J")
        if self.j is not None and self.j.r >= self.n:
            raise KernelError(f"ultrafilter J = @{self.j.r} outside universe of "
                              f"{self.n} roles")
        if self.j is not None and self.kind != "mrlj":
            raise KernelError(f"calculus {self.kind} takes no ultrafilter J")

    @property
    def linear(self) -> bool:
        return self.kind == "lmrl"


def MRL(n: int) -> Calculus:
    return Calculus("mrl", n)


def MRLJ(n: int, j: Ultra) -> Calculus:
    return Calculus("mrlj", n, j)


def LMRL(n: int) -> Calculus:
    return Calculus("lmrl", n)


def is_intuitionistic(items: Sequent, j: Ultra) -> bool:
    """At most one i-formula whose role set belongs to J."""
    return sum(1 for it in items if j.contains(it.roles)) <= 1


_ALLOWED_CONNECTIVES = {
    "mrl": (Atom, Neg, Conj, Forall),
    "mrlj": (Atom, Neg, Conj, Impl, Forall),
    "lmrl": (Atom, Neg, AConj, MConj, Bang, Forall),
}

_ALLOWED_RULES = {
    "mrl": {
        "id", "weaken", "contract", "neg",
        "conj-neg-l", "conj-neg-r", "conj-pos", "forall-neg", "forall-pos",
    },
    "mrlj": {
        "id", "weaken", "contract", "neg",
        "conj-neg-l", "conj-neg-r", "conj-pos", "imp-neg", "imp-pos",
        "forall-neg", "forall-pos",
    },
    "lmrl": {
        "id", "neg", "aconj-neg-l", "aconj-neg-r", "aconj-pos",
        "mconj-neg", "mconj-pos", "bang-pos", "bang-neg-weaken",
        "bang-neg-derelict", "bang-neg-contract", "forall-neg", "forall-pos",
    },
}


# ---------------------------------------------------------- derivations


class Derivation(Node):
    """One rule application: its conclusion, its premises and the rule's
    instance data (principal index, witness term, eigenvariable).

    Derivations are hash-consed like formulas, so equal subderivations are
    one object and a derivation is a DAG.  Every traversal keeps the nodes
    it has seen and visits each distinct node once.
    """

    __match_args__ = ("rule", "conclusion", "premises", "principal", "witness", "eigen")
    __slots__ = __match_args__ + ("_height",)
    rule: str
    conclusion: Sequent
    premises: tuple["Derivation", ...]
    principal: int | None
    witness: Term | None
    eigen: str | None

    def __new__(cls, rule: str, conclusion: Sequent, premises=(), principal=None,
                witness=None, eigen=None):
        # Node.__new__ for six fields, without packing them
        key = (cls, rule, tuple(conclusion), tuple(premises), principal, witness, eigen)
        ref = Node._table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        return cls._make(key)

    @property
    def height(self) -> int:
        """Rules on the longest branch; computed on first access, bottom-up
        with an explicit stack, and kept on every node it visits."""
        stack = [self]
        while stack:
            d = stack[-1]
            if hasattr(d, "_height"):
                stack.pop()
                continue
            todo = [p for p in d.premises if not hasattr(p, "_height")]
            if todo:
                stack += todo
                continue
            stack.pop()
            object.__setattr__(d, "_height", 1 + max((p._height for p in d.premises), default=0))
        return self._height


def _nodes(*ds: Derivation):
    """Each distinct node of the derivations, once."""
    seen = set()
    stack = list(ds)
    while stack:
        d = stack.pop()
        if d not in seen:
            seen.add(d)
            yield d
            stack += d.premises


def rule_tags(d: Derivation) -> set[str]:
    """The rules used anywhere in d."""
    return {node.rule for node in _nodes(d)}


def _principal_item(d: Derivation, path: tuple[int, ...] = ()) -> IFormula:
    """d's principal item; a bad index is reported at path, d's own."""
    if d.principal is None or not 0 <= d.principal < len(d.conclusion):
        raise CheckError(path, f"rule {d.rule}: bad principal index {d.principal}")
    return d.conclusion[d.principal]


def _ctx(d: Derivation) -> Sequent:
    i = d.principal
    return d.conclusion[:i] + d.conclusion[i + 1 :]


def _formula_ok(a: Formula, calc: Calculus, ok: set) -> str | None:
    """The first fault, in preorder, of a's nodes in calc, or None.

    Subformulas in ok are known to be good and are skipped; when a is good,
    all its nodes are added to ok.
    """
    allowed = _ALLOWED_CONNECTIVES[calc.kind]
    good: set = set()
    stack = [a]
    while stack:
        b = stack.pop()
        if b in ok or b in good:
            continue
        if not isinstance(b, allowed):
            return f"connective {type(b).__name__} not in calculus {calc.kind}"
        match b:
            case Neg(f, body):
                if f.n != calc.n:
                    return f"endo over {f.n} roles in universe of {calc.n}"
                stack.append(body)
            case Bang(u, body) | Forall(u, _, body):
                if not 0 <= u.r < calc.n:
                    return f"ultrafilter @{u.r} outside universe"
                stack.append(body)
            case Impl(f, u, l, r):
                if f.n != calc.n or not 0 <= u.r < calc.n:
                    return "endo/ultrafilter outside universe"
                stack += (r, l)
            case Conj(u, l, r) | AConj(u, l, r) | MConj(u, l, r):
                if not 0 <= u.r < calc.n:
                    return f"ultrafilter @{u.r} outside universe"
                stack += (r, l)
        good.add(b)
    ok.update(good)
    return None


def _is_why_not(it: IFormula) -> bool:
    """?-shaped: <R>!_U B with R not in U (weakenable/contractable in LMRL)."""
    return isinstance(it.formula, Bang) and not it.formula.u.contains(it.roles)


def _expect(cond: bool, path, reason: str, *args) -> None:
    """Raise CheckError(path, reason.format(*args)) unless cond; the
    message is formatted only then."""
    if not cond:
        raise CheckError(path, reason.format(*args) if args else reason)


def _arity(d: Derivation, path, k: int) -> None:
    _expect(len(d.premises) == k, path, "rule {} expects {} premises, got {}",
            d.rule, k, len(d.premises))


# ---------------------------------------------------------------- rules
#
# The one description of every rule but (id).  Each rule gives the class
# of its principal formula <R>A; its polarity: R must lie in A's
# ultrafilter U (True), outside it (False), or either (None); whether the
# premises divide the context between them (else each premise holds all
# of it); and what each premise holds beside the context, as a function
# of R, A, the witness and the eigenvariable.  Checking, building, search
# and the cuts all read this table.  Within a connective, search tries
# rules in table order, so a dereliction comes before a weakening and the
# structural rules come last.

_RULES = {  # rule: principal class, polarity, split, additions
    "neg": (Neg, None, False, lambda r, a, w, y: ((IFormula(a.f.preimage(r), a.body),),)),
    "conj-neg-l": (Conj, False, False, lambda r, a, w, y: ((IFormula(r, a.left),),)),
    "conj-neg-r": (Conj, False, False, lambda r, a, w, y: ((IFormula(r, a.right),),)),
    "conj-pos": (Conj, True, False,
                 lambda r, a, w, y: ((IFormula(r, a.left),), (IFormula(r, a.right),))),
    "imp-neg": (Impl, False, False,
                lambda r, a, w, y: ((IFormula(a.f.preimage(r), a.left), IFormula(r, a.right)),)),
    "imp-pos": (Impl, True, True,
                lambda r, a, w, y: ((IFormula(a.f.preimage(r), a.left),), (IFormula(r, a.right),))),
    "aconj-neg-l": (AConj, False, False, lambda r, a, w, y: ((IFormula(r, a.left),),)),
    "aconj-neg-r": (AConj, False, False, lambda r, a, w, y: ((IFormula(r, a.right),),)),
    "aconj-pos": (AConj, True, False,
                  lambda r, a, w, y: ((IFormula(r, a.left),), (IFormula(r, a.right),))),
    "mconj-neg": (MConj, False, False,
                  lambda r, a, w, y: ((IFormula(r, a.left), IFormula(r, a.right)),)),
    "mconj-pos": (MConj, True, True,
                  lambda r, a, w, y: ((IFormula(r, a.left),), (IFormula(r, a.right),))),
    "bang-pos": (Bang, True, False, lambda r, a, w, y: ((IFormula(r, a.body),),)),
    "bang-neg-derelict": (Bang, False, False, lambda r, a, w, y: ((IFormula(r, a.body),),)),
    "bang-neg-weaken": (Bang, False, False, lambda r, a, w, y: ((),)),
    "bang-neg-contract": (Bang, False, False, lambda r, a, w, y: ((IFormula(r, a),) * 2,)),
    "forall-neg": (Forall, False, False,
                   lambda r, a, w, y: ((IFormula(r, substitute(a.body, a.var, w)),),)),
    "forall-pos": (Forall, True, False,
                   lambda r, a, w, y: ((IFormula(r, substitute(a.body, a.var, Var(y))),),)),
    "weaken": (Formula, None, False, lambda r, a, w, y: ((),)),
    "contract": (Formula, None, False, lambda r, a, w, y: ((IFormula(r, a),) * 2,)),
}
_CONTRACTIONS = frozenset({"contract", "bang-neg-contract"})
# the rules search tries on an item of each class
_INTRODUCING = {cls: tuple(rule for rule, (c, *_) in _RULES.items()
                           if issubclass(cls, c) and rule not in _CONTRACTIONS)
                for cls in Formula.__args__}
_CLASS_TEXTS = {
    Neg: "(neg) principal must be a negation",
    Conj: "principal must be additive conjunction",
    AConj: "principal must be additive conjunction",
    Impl: "principal must be implication",
    MConj: "principal must be multiplicative conjunction",
    Bang: "principal must be of ! shape",
    Forall: "principal must be universal",
}


def _additions(rule: str, item: IFormula, witness: Term | None = None,
               eigen: str | None = None) -> tuple[Sequent, ...]:
    """What each premise of rule on item holds beside the context."""
    return _RULES[rule][3](item.roles, item.formula, witness, eigen)


def _items_fault(items: Sequent, calc: Calculus, ok: set) -> str | None:
    """The first fault of items, as a conclusion or a searched sequent: a
    role set outside the universe or a formula outside calc (see
    _formula_ok), or None."""
    full = (1 << calc.n) - 1
    for it in items:
        if not 0 <= it.roles <= full:
            return "role set outside universe"
        if it.formula not in ok:
            bad = _formula_ok(it.formula, calc, ok)
            if bad is not None:
                return bad
    return None


def _check_node(d: Derivation, calc: Calculus, allowed: set, full: int, ok: set,
                checked: set) -> None:
    """Raise CheckError unless d keeps its rule's schema.  allowed is calc's
    rule set and full its universe; items in checked and formulas in ok
    passed earlier in this call and are skipped.  A passing node is tested
    inline, each premise first by tuple equality; the helpers that word a
    fault run only once one is found."""
    path = ()  # check() puts in d's path
    rule, concl, prems = d.rule, d.conclusion, d.premises
    if rule not in allowed:
        raise CheckError(path, f"rule {rule} not available in {calc.kind}")
    for it in concl:  # as _items_fault, each distinct item once per call
        if it not in checked:
            if not 0 <= it.roles <= full:
                raise CheckError(path, "role set outside universe")
            if it.formula not in ok:
                bad = _formula_ok(it.formula, calc, ok)
                if bad is not None:
                    raise CheckError(path, bad)
            checked.add(it)
    if calc.j is not None and not is_intuitionistic(concl, calc.j):
        raise CheckError(path, "sequent is not J-intuitionistic")

    if rule == "id":
        if prems or not concl or not isinstance(concl[0].formula, Atom):
            _arity(d, path, 0)
            _expect(len(concl) >= 1, path, "(id) needs at least one i-formula")
            raise CheckError(path, "(id) items must be primitive")
        first = concl[0].formula
        seen = overlap = 0
        for it in concl:
            if it.formula is not first:
                raise CheckError(path, "(id) items must share one primitive formula")
            overlap |= seen & it.roles
            seen |= it.roles
        if overlap or seen != full:
            raise CheckError(path, "(id) role sets must partition the universe")
        return

    i = d.principal  # as _principal_item and _ctx
    if i is None or not 0 <= i < len(concl):
        raise CheckError(path, f"rule {rule}: bad principal index {i}")
    item = concl[i]
    ctx = concl[:i] + concl[i + 1 :]
    a = item.formula
    cls, positive, split, adds = _RULES[rule]
    if not isinstance(a, cls):
        raise CheckError(path, _CLASS_TEXTS[cls])
    if positive is not None and (item.roles >> a.u.r & 1) != positive:
        raise CheckError(path, f"({rule}) needs R in U" if positive
                         else f"({rule}) needs R not in U")
    y = None
    if rule == "bang-pos":
        for it in ctx:  # as _is_why_not
            if not isinstance(it.formula, Bang) or it.roles >> it.formula.u.r & 1:
                raise CheckError(path, "(bang-pos) context must consist of <R'>!_U' B' "
                                 "with R' not in U'")
    elif rule == "forall-neg":
        if d.witness is None:
            raise CheckError(path, "(forall-neg) needs a witness term")
    elif rule == "forall-pos":
        y = d.eigen if d.eigen is not None else a.var
        if y in seq_free_vars(ctx):
            raise CheckError(path, "(forall-pos) eigenvariable occurs free in the context")
        if y != a.var and y in free_vars(a.body):
            raise CheckError(path, "(forall-pos) eigenvariable captured in the body")
    added = adds(item.roles, a, d.witness, y)
    if len(prems) != len(added):
        raise CheckError(path, f"rule {rule} expects {len(added)} premises, got {len(prems)}")
    # A premise passes at once when, less one copy of a lone added item, it
    # is its context as a tuple: the builders keep the context's order.
    if split:  # each premise adds one item and holds its part of the context
        c1, c2 = prems[0].conclusion, prems[1].conclusion
        (y1,), (y2,) = added
        if y1 in c1 and y2 in c2:
            j1, j2 = c1.index(y1), c2.index(y2)
            if c1[:j1] + c1[j1 + 1 :] + c2[:j2] + c2[j2 + 1 :] == ctx:
                return
        g1, g2 = seq_minus(c1, (y1,)), seq_minus(c2, (y2,))
        _expect(g1 is not None and g2 is not None, path,
                "({}): premises missing the introduced i-formulas", rule)
        _expect(seq_equal(g1 + g2, ctx), path,
                "({}): context split does not reassemble the conclusion", rule)
        return
    for k, add in enumerate(added):  # each premise holds the context and its addition
        c = prems[k].conclusion
        if c == ctx + add:
            continue
        if len(add) == 1 and add[0] in c:
            j = c.index(add[0])
            if c[:j] + c[j + 1 :] == ctx:
                continue
        if not seq_equal(c, ctx + add):
            if len(added) > 1:
                raise CheckError(path, f"({rule}): {('left', 'right')[k]} premise mismatch")
            raise CheckError(path, f"({rule}): premise must hold one extra copy"
                             if rule in _CONTRACTIONS
                             else f"rule {rule}: premise does not match schema")


def check(d: Derivation, calc: Calculus, path: tuple[int, ...] = ()) -> None:
    """Raise CheckError at the first node, in preorder, violating its rule schema.

    A node met again is skipped: its first occurrence, and every node below
    it, came earlier in preorder and passed.
    """
    allowed = _ALLOWED_RULES[calc.kind]
    full = (1 << calc.n) - 1
    ok: set = set()  # formulas found well-formed in calc during this call
    checked: set = set()  # conclusion items found good during this call
    seen: set = set()
    stack = [d]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        try:
            _check_node(node, calc, allowed, full, ok, checked)
        except CheckError as e:  # the path is found only for the failing node
            raise CheckError(path + _route(d, node), e.reason) from None
        stack += reversed(node.premises)


def _route(d: Derivation, target: Derivation) -> tuple[int, ...]:
    """The premise indices from d to target's first occurrence in preorder."""
    seen: dict = {}  # each node met, to its parent and its premise index there
    stack = [(d, None, None)]
    while stack:
        node, parent, i = stack.pop()
        if node in seen:
            continue
        seen[node] = parent, i
        if node is target:
            break
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((node.premises[i], node, i))
    at = []
    while parent is not None:
        at.append(i)
        parent, i = seen[parent]
    return tuple(reversed(at))


def check_ok(d: Derivation, calc: Calculus) -> bool:
    try:
        check(d, calc)
        return True
    except CheckError:
        return False


# ------------------------------------------------------------- builders
#
# Builders assemble a node from already-built premises.  They locate the
# items to consume by value (multiset arithmetic), so callers never track
# positions.


def _take(items: Sequent, consumed: Sequent, rule: str) -> Sequent:
    left = seq_minus(items, consumed)
    if left is None:
        raise KernelError(f"builder {rule}: premise {fmt_sequent(items, BRIEF)} lacks "
                          f"{fmt_sequent(consumed, BRIEF)}")
    return left


def b_id(items) -> Derivation:
    return Derivation("id", tuple(items))


def b_rule(rule: str, premises, item: IFormula, witness: Term | None = None,
           eigen: str | None = None) -> Derivation:
    """rule applied to item above premises: the context is what the
    premises hold beyond the rule's additions, and item comes last."""
    _, _, split, adds = _RULES[rule]
    added = adds(item.roles, item.formula, witness, eigen)
    if split:
        ctx: Sequent = ()
        for p, add in zip(premises, added):
            ctx += _take(p.conclusion, add, rule)
    else:
        ctx = seq_minus(premises[0].conclusion, added[0])
        if ctx is None:
            _take(premises[0].conclusion, added[0], rule)  # raises
    concl = ctx + (item,)
    return Derivation(rule, concl, premises, len(concl) - 1, witness, eigen)


def b_weaken(d: Derivation, item: IFormula, calc: Calculus) -> Derivation:
    if calc.linear and not _is_why_not(item):
        raise KernelError(f"cannot weaken non-? item into a linear derivation: "
                          f"{fmt_formula(item.formula, limit=BRIEF)}")
    return b_rule("bang-neg-weaken" if calc.linear else "weaken", (d,), item)


def b_contract(d: Derivation, item: IFormula, calc: Calculus) -> Derivation:
    rule = "bang-neg-contract" if calc.linear else "contract"
    if calc.linear and not _is_why_not(item):
        raise KernelError("cannot contract non-? item in a linear derivation")
    concl = _take(d.conclusion, (item,), rule)
    if item not in concl:
        raise KernelError(f"builder {rule}: premise lacks a second {fmt_sequent((item,), BRIEF)}")
    return Derivation(rule, concl, (d,), concl.index(item))


# --------------------------------------------- derivation-wide renaming


def _names(*ds: Derivation) -> set[str]:
    """Every name occurring in the derivations."""
    names: set[str] = set()
    items: set = set()
    for d in _nodes(*ds):
        items.update(d.conclusion)
        if d.eigen is not None:
            names.add(d.eigen)
        if d.witness is not None:
            names.add(d.witness.name)
    return names | names_in({it.formula for it in items})


def subst_derivation(d: Derivation, x: str, t: Term,
                     fresh: FreshNames | None = None) -> Derivation:
    """Substitute t for the free variable x throughout a derivation.

    Inner eigenvariables clashing with x or with variables of t are
    renamed first, to names from fresh (by default, names occurring
    nowhere in d, x or t), so the result remains schema-valid.
    """
    if fresh is None:
        fresh = FreshNames(lambda: _names(d) | {x, t.name})
    return _subst_derivation(d, x, t, fresh, {})


def _subst_derivation(d: Derivation, x: str, t: Term, fresh: FreshNames,
                      done: dict) -> Derivation:
    """done maps each (x, t) substituted in this call to one memo of the
    nodes and formulas substituted so far, so a node or formula that the
    DAG shares is substituted once per (x, t)."""
    memo = done.get((x, t))
    if memo is None:
        memo = done[x, t] = {}
    out = memo.get(d)
    if out is not None:
        return out
    tvars = {t.name} if isinstance(t, Var) else set()
    eigen = d.eigen
    node = d
    if d.rule == "forall-pos":
        a = _principal_item(d).formula
        y = eigen if eigen is not None else a.var
        if y == x or y in tvars:
            z = fresh(y)
            prem = _subst_derivation(d.premises[0], y, Var(z), fresh, done)
            node = Derivation(d.rule, d.conclusion, (prem,), d.principal, eigen=z)
            eigen = z
    witness = node.witness
    if isinstance(witness, Var) and witness.name == x:
        witness = t
    out = memo[d] = Derivation(
        node.rule,
        tuple(IFormula(it.roles, _substitute(it.formula, x, t, memo)) for it in node.conclusion),
        tuple(_subst_derivation(p, x, t, fresh, done) for p in node.premises),
        node.principal,
        witness=witness,
        eigen=eigen,
    )
    return out


# ----------------------------------------------------- axiom procedures


def axiom_multi(a: Formula, parts: list[int], calc: Calculus) -> Derivation:
    """A derivation of |- <R1>A, ..., <Rn>A for a partition R1 u ... u Rn.

    Structural induction on A; each case introduces the connective once
    positively (at the unique part containing the head role) and
    negatively everywhere else.
    """
    if not rl.partition_check(parts, calc.n):
        raise KernelError("axiom_multi: role sets do not partition the universe")
    return _axiom(a, tuple(parts), calc, {})


def _pos_index(u: Ultra, parts: list[int]) -> int:
    for i, p in enumerate(parts):
        if u.contains(p):
            return i
    raise KernelError("no part contains the head role")  # unreachable for partitions


def _axiom(a: Formula, parts: tuple[int, ...], calc: Calculus, done: dict) -> Derivation:
    """done maps the (formula, parts) seen in this call to their results, so a
    subformula that a's DAG shares is derived once.  A postorder with an
    explicit stack, so depth is bounded by memory alone: an entry is a key
    and, once its premises are pushed, their keys."""
    stack: list = [((a, parts), None)]
    while stack:
        key, prems = stack.pop()
        if key in done:
            continue
        if prems is None:
            prems = _axiom_premises(*key, calc)
            stack.append((key, prems))
            stack += [(k, None) for k in reversed(prems)]
        else:
            done[key] = _axiom_rule(*key, calc, [done[k] for k in prems])
    return done[a, parts]


def _axiom_premises(a: Formula, parts: tuple[int, ...], calc: Calculus) -> tuple:
    """The (formula, parts) keys whose derivations _axiom_rule builds on, in
    the order they are derived."""
    match a:
        case Atom():
            return ()
        case Neg(f, body):
            return ((body, tuple(f.preimage(p) for p in parts)),)
        case Conj(_, left, right) | AConj(_, left, right):
            return ((left, parts), (right, parts))
        case MConj(u, left, right) | Impl(_, u, left, right):
            i = _pos_index(u, parts)
            pos = "imp-pos" if isinstance(a, Impl) else "mconj-pos"
            lefts = tuple(_additions(pos, IFormula(p, a))[0][0].roles for p in parts)
            if calc.j is not None and not calc.j.contains(lefts[i]):
                # the J-items of both premises would meet in its conclusion
                raise KernelError(
                    f"axiom_multi: {fmt_sequent(tuple(IFormula(p, a) for p in parts), BRIEF)} "
                    f"has no J-intuitionistic derivation in mrlj with J = @{calc.j.r}")
            return ((left, lefts), (right, parts))
        case Bang(_, body) | Forall(_, _, body):
            return ((body, parts),)
    raise KernelError(f"axiom_multi: unsupported formula {a!r}")


def _axiom_rule(a: Formula, parts: tuple[int, ...], calc: Calculus, prems: list) -> Derivation:
    """The derivation of |- <p>a for p in parts, given the derivations of
    the keys _axiom_premises gave, in its order."""
    match a:
        case Atom():
            return b_id(tuple(IFormula(p, a) for p in parts))
        case Neg(f, _):
            d = prems[0]
            if calc.j is not None:  # the premise's J-item leaves before the conclusion's comes
                parts = sorted(parts, key=lambda p: not calc.j.contains(f.preimage(p)))
            for p in parts:
                d = b_rule("neg", (d,), IFormula(p, a))
            return d
        case Conj(u, _, _) | AConj(u, _, _):
            base = "aconj" if isinstance(a, AConj) else "conj"
            i = _pos_index(u, parts)
            d1, d2 = prems
            for j, p in enumerate(parts):
                if j != i:
                    d1 = b_rule(f"{base}-neg-l", (d1,), IFormula(p, a))
                    d2 = b_rule(f"{base}-neg-r", (d2,), IFormula(p, a))
            return b_rule(f"{base}-pos", (d1, d2), IFormula(parts[i], a))
        case MConj(u, _, _) | Impl(_, u, _, _):
            base = "imp" if isinstance(a, Impl) else "mconj"
            i = _pos_index(u, parts)
            d = b_rule(f"{base}-pos", prems, IFormula(parts[i], a))
            for j, p in enumerate(parts):
                if j != i:
                    d = b_rule(f"{base}-neg", (d,), IFormula(p, a))
            return d
        case Bang(u, _):
            i = _pos_index(u, parts)
            d = prems[0]
            for j, p in enumerate(parts):
                if j != i:
                    d = b_rule("bang-neg-derelict", (d,), IFormula(p, a))
            return b_rule("bang-pos", (d,), IFormula(parts[i], a))
        case Forall(u, x, _):
            i = _pos_index(u, parts)
            d = prems[0]
            for j, p in enumerate(parts):
                if j != i:
                    d = b_rule("forall-neg", (d,), IFormula(p, a), witness=Var(x))
            return b_rule("forall-pos", (d,), IFormula(parts[i], a), eigen=x)
    raise KernelError(f"axiom_multi: unsupported formula {a!r}")  # unreachable: _axiom_premises raised first


def axiom_fullset(a: Formula, calc: Calculus) -> Derivation:
    """A derivation of |- <universe>A."""
    return axiom_multi(a, [rl.full_set(calc.n)], calc)


# ------------------------------------------------------------------ cut
#
# One reduction, _cut, eliminates a cut of k >= 1 sides (d, x, n), each n
# copies of an item x = <R>A of d's conclusion, the complements of the R
# disjoint.  It derives each side's context (less its n copies), in order,
# and with keep the residual <R1 n ... n Rk>A.  Each transformer call keeps
# one memo, keyed on the sides, so a subderivation that a DAG shares is cut
# once per call; a result derives a sequent fixed by its key, so it is
# valid wherever reused.

case_hits: dict[str, int] = {}


def reset_case_hits() -> None:
    case_hits.clear()


def _hit(label: str, sides: tuple) -> None:
    if len(sides) > 1:  # a 1-cut's cases are not counted
        case_hits[label] = case_hits.get(label, 0) + 1


def cut1(d: Derivation, index: int, calc: Calculus) -> Derivation:
    """Erase a designated empty-role-set i-formula from a derivation: k = 1."""
    if not 0 <= index < len(d.conclusion):
        raise KernelError(f"cut1: bad index {index}")
    item = d.conclusion[index]
    if item.roles != 0:
        raise KernelError("cut1: designated i-formula must carry the empty role set")
    return _cut(((d, item, 1),), False, calc, FreshNames(lambda: _names(d)), {})


def cut2_residual(d1: Derivation, i1: int, d2: Derivation, i2: int,
                  calc: Calculus) -> Derivation:
    """Cut <R1>A against <R2>A, leaving the residual <R1 n R2>A: k = 2 with
    the residual kept.  Requires complement(R1) n complement(R2) = empty; the
    conclusion is exactly ctx(d1), ctx(d2), <R1 n R2>A as a multiset."""
    x1, x2 = d1.conclusion[i1], d2.conclusion[i2]
    if x1.formula != x2.formula:
        raise KernelError("cut2_residual: designated i-formulas carry different formulas")
    if rl.cut_residual((x1.roles, x2.roles), calc.n) is None:
        raise KernelError("cut2_residual: complements of the role sets overlap")
    return _cut(((d1, x1, 1), (d2, x2, 1)), True, calc,
                FreshNames(lambda: _names(d1, d2)), {})


def mp_cut(ds: list[Derivation], indices: list[int], calc: Calculus) -> Derivation:
    """Multiparty cut of k = len(ds) premises Gamma_i, <R_i>A with the
    complements of the R_i partitioning the universe; conclusion Gamma_1,
    ..., Gamma_k.  One reduction over all k premises: no residual is built."""
    if len(ds) != len(indices) or not ds:
        raise KernelError("mp_cut: need one occurrence index per premise")
    occs = [d.conclusion[i] for d, i in zip(ds, indices)]
    a = occs[0].formula
    for oc in occs:
        if oc.formula != a:
            raise KernelError("mp_cut: premises cut different formulas")
    if rl.cut_residual([oc.roles for oc in occs], calc.n) != 0:
        raise KernelError("mp_cut: complements of the role sets must partition the universe")
    if calc.j is not None:
        for d in ds:
            if not is_intuitionistic(d.conclusion, calc.j):
                raise KernelError("mp_cut: non-intuitionistic premise")
    return _cut(tuple((d, oc, 1) for d, oc in zip(ds, occs)), False, calc,
                FreshNames(lambda: _names(*ds)), {})


def split_roles(d: Derivation, index: int, r1: int, r2: int, calc: Calculus) -> Derivation:
    """Split a designated <R1 u R2>A into <R1>A, <R2>A: d cut against the
    axiom |- <complement>A, <R1>A, <R2>A, k = 2 with no residual built."""
    if not 0 <= index < len(d.conclusion):
        raise KernelError(f"split_roles: bad index {index}")
    if r1 & r2:
        raise KernelError("split_roles: role sets must be disjoint")
    item = d.conclusion[index]
    if item.roles != (r1 | r2):
        raise KernelError("split_roles: designated i-formula does not carry R1 u R2")
    a = item.formula
    comp = rl.full_set(calc.n) & ~item.roles
    w = axiom_multi(a, [comp, r1, r2], calc)
    return _cut(((d, item, 1), (w, IFormula(comp, a), 1)), False, calc,
                FreshNames(lambda: _names(d)), {})


# a structural rule on a tracked copy: the change to its count, its case label
_STRUCTURAL = {"weaken": (-1, None), "contract": (1, None),
               "bang-neg-weaken": (-1, "bang-weaken"), "bang-neg-contract": (1, "bang-contract")}


def _cut(sides: tuple, keep: bool, calc: Calculus, fresh: FreshNames,
         memo: dict) -> Derivation:
    """Derive every side's context and, with keep, the residual.  The first side
    not principal on x commutes, a structural rule on x changes its count."""
    out = memo.get(sides)
    if out is not None:
        return out
    key = sides
    if len(sides) > 1:
        sides = _arrange(sides, calc)
    for i, (d, x, n) in enumerate(sides):
        rule = d.rule
        if rule == "id":
            continue
        if d.conclusion[d.principal] is not x:
            out = _commute(sides, i, keep, calc, fresh, memo)
        elif rule == "bang-neg-derelict":
            out = _derelict_case(sides, i, keep, calc, fresh, memo)
        elif rule in _STRUCTURAL:
            step, label = _STRUCTURAL[rule]
            if label:
                _hit(label, sides)
            out = _cut_copies(sides, i, d.premises[0], n + step, keep, calc, fresh, memo)
        elif n > 1:
            out = _commute(sides, i, keep, calc, fresh, memo)
        else:
            continue
        break
    else:
        out = _principal_case(sides, keep, calc, fresh, memo)
    memo[key] = out
    return out


def _arrange(sides: tuple, calc: Calculus) -> tuple:
    """sides with a linear !'s one ?-side (R outside its ultrafilter) last, and
    the stray copies at an (id) node, only <{}>-items, dropped."""
    if calc.linear:  # where only a ?-item contracts, so no (id) node holds strays
        a = sides[0][1].formula
        if type(a) is Bang:
            for i, s in enumerate(sides):
                if not a.u.contains(s[1].roles):
                    return sides[:i] + sides[i + 1 :] + (s,)
        return sides
    for i, (d, x, n) in enumerate(sides):
        if n > 1 and d.rule == "id":
            sides = sides[:i] + ((b_id(seq_minus(d.conclusion, (x,) * (n - 1))), x, 1),) \
                + sides[i + 1 :]
    return sides


def _others(sides: tuple, i: int, keep: bool) -> Sequent:
    """What a cut adds to side i: the others' contexts in order, with keep the residual."""
    extra: Sequent = ()
    for j, (d, x, n) in enumerate(sides):
        if j != i:
            extra += seq_minus(d.conclusion, (x,) * n)
    return extra + (_residual(sides),) if keep else extra


def _residual(sides: tuple) -> IFormula:
    roles = -1
    for _, x, _ in sides:
        roles &= x.roles
    return IFormula(roles, sides[0][1].formula)


def _cut_copies(sides: tuple, i: int, p: Derivation, n: int, keep: bool, calc: Calculus,
                fresh: FreshNames, memo: dict) -> Derivation:
    """The cut with side i now (p, x, n); for n = 0, p with the rest weakened in."""
    if n:
        return _cut(sides[:i] + ((p, sides[i][1], n),) + sides[i + 1 :], keep, calc, fresh, memo)
    for it in _others(sides, i, keep):
        p = b_weaken(p, it, calc)
    return p


def _commute(sides: tuple, i: int, keep: bool, calc: Calculus, fresh: FreshNames,
             memo: dict) -> Derivation:
    """Push the cut into the premises of side i's derivation d and reapply
    d's rule, adding what the cut adds to side i.  A context split sends each
    premise its copies; when both get some, what the cut adds comes twice and
    is contracted once.  When d's principal is a tracked copy while strays
    remain (structural calculi only), the strays are cut first, and then the
    one copy the rule reintroduces."""
    d, x, n = sides[i]
    item = d.conclusion[d.principal]  # _cut found it
    extra = before = after = ()
    if len(sides) > 1:
        extra = _others(sides, i, keep)
        before, after = sides[:i], sides[i + 1 :]
    stray = item == x
    if stray:
        if calc.linear:
            raise KernelError("cut: stray linear occurrences at a logical rule")
        n -= 1
    if d.rule == "forall-pos":
        # extra may mention the eigenvariable; freshen it first
        y = d.eigen if d.eigen is not None else item.formula.var
        if y in seq_free_vars(extra):
            z = fresh(y)
            prem = subst_derivation(d.premises[0], y, Var(z), fresh)
            d = Derivation(d.rule, d.conclusion, (prem,), d.principal, eigen=z)
    concl = seq_minus(d.conclusion, (x,) * n)
    if concl is None:
        raise KernelError("internal: tracked occurrences missing from sequent")
    ms = (n,) * len(d.premises)
    split = _RULES[d.rule][2]
    if split:
        new_l = _additions(d.rule, item, d.witness, d.eigen)[0]
        m0 = min((seq_minus(d.premises[0].conclusion, new_l) or ()).count(x), n)
        ms = (m0, n - m0)
    prems = []  # a loop, not a generator: one frame less per level of recursion
    for p, m in zip(d.premises, ms):
        prems.append(_cut(before + ((p, x, m),) + after, keep, calc, fresh, memo) if m else p)
    dup = split and all(ms)
    concl += extra * 2 if dup else extra
    out = Derivation(d.rule, concl, prems, concl.index(item), d.witness, d.eigen)
    for it in extra if dup else ():  # what came twice is contracted once
        out = b_contract(out, it, calc)
    if stray:
        out = _cut(before + ((out, x, 1),) + after, keep, calc, fresh, memo)
        for it in extra:
            out = b_contract(out, it, calc)
    return out


def _derelict_case(sides: tuple, i: int, keep: bool, calc: Calculus, fresh: FreshNames,
                   memo: dict) -> Derivation:
    """The last side derelicts a copy of <R>!B, every other is promoted (ends
    in bang-pos).  Cut the other copies, then <R>B against each promoted
    premise; the promoted contexts, then there twice, are contracted once."""
    if i != len(sides) - 1:
        raise KernelError("cut: dereliction on a positive-side occurrence")
    _hit("bang-derelict", sides)
    d, x, n = sides[i]
    body = x.formula.body
    e = _cut_copies(sides, i, d.premises[0], n - 1, keep, calc, fresh, memo)
    # e proves the promoted contexts, d's context, <R>B and the residual
    inner = []
    gamma: Sequent = ()
    for dp, xp, _ in sides[:i]:
        if dp.rule != "bang-pos":
            raise KernelError("cut: promoted side does not end in bang-pos")
        inner.append((dp.premises[0], IFormula(xp.roles, body), 1))
        gamma += seq_minus(dp.conclusion, (xp,))
    inner.append((e, IFormula(x.roles, body), 1))
    f = _cut(tuple(inner), keep, calc, fresh, memo)
    # f proves gamma twice, d's context, the residual and the residual's body
    if keep:
        resid = _residual(sides)
        f = b_contract(b_rule("bang-neg-derelict", (f,), resid), resid, calc)
    for it in gamma:
        f = b_contract(f, it, calc)
    return f


_TAGS = {Conj: "conj", AConj: "with", MConj: "tensor", Impl: "imp", Bang: "bang", Forall: "forall"}


def _principal_case(sides: tuple, keep: bool, calc: Calculus, fresh: FreshNames,
                    memo: dict) -> Derivation:
    """Every side introduces its copy of A by a logical rule (an atom's at an
    (id) node).  When every role set holds A's head role, or A is a negation,
    premise j of each side is cut against premise j of the others.  Else the
    negative side lacks it: what its rule added is cut item after item, against
    the matching premise of every promoted side (a 1-cut has none)."""
    if len(sides) == 1:
        d, x, n = sides[0]
        if d.rule == "id":
            return b_id(seq_minus(d.conclusion, (x,) * n))
        if _RULES[d.rule][1]:
            raise KernelError(f"cut1: rule {d.rule} cannot introduce an empty-role "
                              "i-formula positively")
        e = d.premises[0]
        for y in _additions(d.rule, x, d.witness)[0]:
            e = _cut(((e, y, 1),), keep, calc, fresh, memo)
        return e
    a = sides[0][1].formula
    cls = type(a)
    if cls is Atom:
        _hit("primitive", sides)
        items: Sequent = ()
        for d, x, n in sides:
            if d.rule != "id":
                raise KernelError("cut: primitive case without (id) nodes")
            items += seq_minus(d.conclusion, (x,) * n)
        return b_id(items + (_residual(sides),) if keep else items)
    neg = None
    if cls is not Neg:
        u = a.u.r
        for s in sides:
            if not s[1].roles >> u & 1:
                neg = s
                break
    pos = []  # each (promoted) side's premises and what its rule added to each
    if neg is None:  # every side introduces A by one rule
        rule = sides[0][0].rule
        _hit("neg" if cls is Neg else _TAGS[cls] + "-pos-pos", sides)
        z = None
        if cls is Forall:  # every premise gets the one fresh eigenvariable z
            z = fresh(a.var)
            bz = substitute(a.body, a.var, Var(z))
        for d, x, _ in sides:
            if d.rule != rule or _RULES[rule][1] is False:
                raise KernelError(f"cut: unsupported principal case {rule}/{d.rule}")
            if z is None:
                pos.append((d.premises, _additions(rule, x)))
                continue
            y = d.eigen if d.eigen is not None else a.var
            p = d.premises[0] if y == z else subst_derivation(d.premises[0], y, Var(z), fresh)
            pos.append(((p,), ((IFormula(x.roles, bz),),)))
        cuts = []
        for j in range(len(pos[0][0])):
            cuts.append(_cut(tuple([(ps[j], add[j][0], 1) for ps, add in pos]),
                             keep, calc, fresh, memo))
        return b_rule(rule, cuts, _residual(sides), eigen=z) if keep else cuts[0]
    dn, xn, _ = neg
    if _RULES[dn.rule][1] is not False:
        raise KernelError(f"cut: rule {dn.rule} cannot introduce <R>A for R outside A's U")
    ys = _additions(dn.rule, xn, dn.witness)[0]
    first = dn.rule.endswith("-r")  # (a)conj-neg-r's addition is the second premise's
    tag = _TAGS[cls]
    if cls is MConj or cls is Impl:
        _hit(tag + ("-neg-pos" if neg is sides[0] else "-pos-neg"), sides)
    else:
        _hit(tag + "-pos-neg" + ("" if cls is Forall else "lr"[first]), sides)
    for s in sides:
        if s is neg:
            continue
        d, x, _ = s
        if cls is Forall:  # the promoted premise, instantiated at the witness
            y = d.eigen if d.eigen is not None else a.var
            pos.append(((subst_derivation(d.premises[0], y, dn.witness, fresh),),
                        ((IFormula(x.roles, ys[0].formula),),)))
        else:
            pos.append((d.premises, _additions(d.rule, x)))
    e = dn.premises[0]
    for j, y in enumerate(ys, first):
        inner = ()
        for ps, add in pos:
            inner += ((ps[j], add[j][0], 1),)
        e = _cut(inner + ((e, y, 1),), keep, calc, fresh, memo)
    return b_rule(dn.rule, (e,), _residual(sides), dn.witness) if keep else e


# --------------------------------------------------------------- search


def search(items: Sequent, calc: Calculus, depth: int) -> Derivation | None:
    """Bounded proof search (iterative deepening inside the given bound).

    Complete for propositional linear sequents without ! (premises shrink);
    for the structural calculi a miss is not a refutation.  Contraction is
    never searched.  Items that check would refuse in a conclusion raise
    KernelError with check's text.
    """
    items = tuple(items)
    bad = _items_fault(items, calc, set())
    if bad is not None:
        raise KernelError(bad)
    fresh = FreshNames(lambda: names_in(it.formula for it in items))
    return _search(items, calc, depth, {}, fresh)


def _search(items: Sequent, calc: Calculus, depth: int, memo: dict,
            fresh: FreshNames) -> Derivation | None:
    if depth <= 0:
        return None
    key = frozenset(seq_counts(items).items())  # the multiset of items
    known = memo.get(key)
    if known is not None:
        found, tried = known
        if found is not None:
            return found
        if tried >= depth:
            return None
    out = _search_raw(items, calc, depth, memo, fresh)
    memo[key] = (out, depth)
    return out


def _candidates_ok(premises: list, calc: Calculus) -> bool:
    return calc.j is None or all(is_intuitionistic(p, calc.j) for p in premises)


def _search_raw(items, calc, depth, memo, fresh):
    if items and isinstance(items[0].formula, Atom):
        a0 = items[0].formula
        if all(it.formula == a0 for it in items) \
                and rl.partition_check([it.roles for it in items], calc.n):
            return b_id(items)

    allowed = _ALLOWED_RULES[calc.kind]
    for i, it in enumerate(items):
        ctx = items[:i] + items[i + 1 :]
        a = it.formula
        for rule in _INTRODUCING[type(a)]:
            _, positive, split, adds = _RULES[rule]
            if rule not in allowed or positive is not None and a.u.contains(it.roles) != positive:
                continue
            if rule == "bang-pos" and not all(_is_why_not(c) for c in ctx):
                continue
            if rule == "forall-neg":
                instances = [(t, None) for t in _witness_candidates(items)]
            elif rule == "forall-pos":
                y = a.var if a.var not in seq_free_vars(ctx) else fresh(a.var)
                instances = [(None, y)]
            else:
                instances = [(None, None)]
            for w, y in instances:
                added = adds(it.roles, a, w, y)
                for ctxs in _splits(ctx) if split else ((ctx,) * len(added),):
                    premises = [c + add for c, add in zip(ctxs, added)]
                    if not _candidates_ok(premises, calc):
                        continue
                    found = []
                    for p in premises:
                        s = _search(p, calc, depth - 1, memo, fresh)
                        if s is None:
                            break
                        found.append(s)
                    else:
                        return b_rule(rule, found, it, w, y)
    return None


def _splits(ctx: Sequent):
    """Each division of ctx into the contexts of two premises, by mask."""
    for mask in range(1 << len(ctx)):
        yield (tuple(c for k, c in enumerate(ctx) if mask & (1 << k)),
               tuple(c for k, c in enumerate(ctx) if not mask & (1 << k)))


def _witness_candidates(items: Sequent) -> list[Term]:
    """The terms items name, in order of first occurrence, then c0: a loop,
    so the depth of the items is bounded by memory alone."""
    names: dict[str, None] = {}  # an ordered set
    seen: set = set()
    stack = [it.formula for it in reversed(items)]
    while stack:
        a = stack.pop()
        if a in seen:
            continue
        seen.add(a)
        if isinstance(a, Atom):
            names.update(dict.fromkeys(t.name for t in a.args))
        else:
            stack += reversed(_children(a))
    return [Const(n) for n in names] + [Const("c0")]


def entailment(a: Formula, b: Formula, r: int, calc: Calculus,
               depth: int) -> Derivation | None:
    """Search for the witness |- <complement(R)>A, <R>B of A => B at R."""
    comp = rl.full_set(calc.n) & ~r
    return search((IFormula(comp, a), IFormula(r, b)), calc, depth)


# ----------------------------------------------------------------- JSON
#
# A derivation file is {"formulas": [...], "nodes": [...], "root": k}.
# "formulas" is a formula table (see logic), with one entry per distinct
# term and formula; "nodes" has one entry per distinct node, and a node's
# premises are indices of earlier nodes.  A node is {"rule": r,
# "conclusion": [[roles, formula], ...], "premises": [node, ...]}, plus
# "principal", "witness" (a term) and "eigen" when it has them; "premises"
# is left out when empty.  This is the one format: the reader refuses any
# other shape, and reads any depth of nodes and formulas with loops.


def derivation_to_obj(d: Derivation) -> dict:
    """d as a table of its distinct formulas and nodes (format above).
    Equal conclusion items share one [roles, formula entry] list."""
    formulas = FormulaTable()
    nodes: list = []
    nindex: dict = {}
    members: dict = {}  # each role set's list of roles, made once per call
    entries: dict = {}  # each item's [roles, formula entry], made once per call
    stack = [d]
    while stack:  # postorder as logic.postorder, premises left to right
        node = stack[-1]
        if node in nindex:
            stack.pop()
            continue
        todo = [p for p in node.premises if p not in nindex]
        if todo:
            stack += reversed(todo)
            continue
        stack.pop()
        conclusion = []
        for it in node.conclusion:
            entry = entries.get(it)
            if entry is None:
                roles_ = members.get(it.roles)
                if roles_ is None:
                    roles_ = members[it.roles] = rl.members(it.roles)
                entry = entries[it] = [roles_, formulas.index(it.formula)]
            conclusion.append(entry)
        entry = {"rule": node.rule, "conclusion": conclusion}
        if node.premises:
            entry["premises"] = [nindex[p] for p in node.premises]
        if node.principal is not None:
            entry["principal"] = node.principal
        if node.witness is not None:
            entry["witness"] = formulas.index(node.witness)
        if node.eigen is not None:
            entry["eigen"] = node.eigen
        nindex[node] = len(nodes)
        nodes.append(entry)
    return {"formulas": formulas.entries, "nodes": nodes, "root": nindex[d]}


def derivation_to_json(d: Derivation, pretty: bool = False) -> str:
    # the object is fresh and holds no cycle (items share lists, but a list
    # never holds itself), so the encoder's cycle check is skipped
    if pretty:
        return json.dumps(derivation_to_obj(d), indent=2, check_circular=False)
    return json.dumps(derivation_to_obj(d), separators=(",", ":"), check_circular=False)


def derivation_from_obj(obj, n: int | None = None) -> Derivation:
    """Read a derivation in the table format; raise KernelError or
    FormulaError on malformed input.  n, when given, is the size of the role
    universe every role, endo and ultrafilter must fit."""
    if not isinstance(obj, dict):
        raise KernelError("derivation JSON must be an object")
    try:
        formulas, nodes, root = obj["formulas"], obj["nodes"], obj["root"]
    except KeyError as e:
        raise KernelError(f'derivation JSON has no "{e.args[0]}"') from None
    if not isinstance(nodes, list):
        raise KernelError('a derivation JSON\'s "nodes" must be an array')
    syntax = formulas_from_table(formulas, n)
    # formula (not term) entries by index, and the items read so far by their
    # checked mask, never the raw list: [[true], k] must fail after [[1], k]
    entry_formulas = {k: a for k, a in enumerate(syntax) if not isinstance(a, Term)}
    item_memo: dict = {}
    built: list = []
    for k, entry in enumerate(nodes):
        if not isinstance(entry, dict):
            raise KernelError(f"derivation JSON node {k} must be an object")
        try:
            rule, conclusion = entry["rule"], entry["conclusion"]
        except KeyError as e:
            raise KernelError(f'derivation JSON node {k} has no "{e.args[0]}"') from None
        premises = entry.get("premises", [])
        principal, witness, eigen = entry.get("principal"), entry.get("witness"), entry.get("eigen")
        if not (isinstance(rule, str) and isinstance(conclusion, list)
                and (principal is None or type(principal) is int)
                and (eigen is None or isinstance(eigen, str))):
            raise KernelError(f'derivation JSON node {k}: its "rule", "conclusion", '
                              '"principal" or "eigen" has the wrong type')
        prems = [built[p] for p in premises if type(p) is int and 0 <= p < k] \
            if isinstance(premises, list) else None
        if prems is None or len(prems) != len(premises):
            raise KernelError(f'derivation JSON node {k}: "premises" must list earlier nodes')
        if witness is not None:
            if not (type(witness) is int and 0 <= witness < len(syntax)
                    and isinstance(syntax[witness], Term)):
                raise KernelError(f"derivation JSON node {k}: the witness must be a term entry")
            witness = syntax[witness]
        items = []
        for item in conclusion:
            if not (isinstance(item, list) and len(item) == 2 and type(item[1]) is int
                    and item[1] in entry_formulas):
                raise FormulaError(f"derivation JSON node {k}: a conclusion item must be "
                                   "[roles, formula entry]")
            key = (roles_from_obj(item[0], n), item[1])
            it = item_memo.get(key)
            if it is None:
                it = item_memo[key] = IFormula(key[0], entry_formulas[item[1]])
            items.append(it)
        built.append(Derivation(rule, items, prems, principal, witness, eigen))
    if not (type(root) is int and 0 <= root < len(built)):
        raise KernelError(f"derivation JSON root {root!r} is not a node index")
    return built[root]


def derivation_from_json(text: str, n: int | None = None) -> Derivation:
    return derivation_from_obj(json.loads(text), n)
