"""Derivation checking and admissible-rule transformers for the three calculi.

The classical calculus (MRL) has structural rules; the intuitionistic one
(MRLJ) fixes an ultrafilter J and restricts every sequent to at most one
i-formula whose role set belongs to J; the linear one (LMRL) drops the
structural rules and adds the multiplicative/exponential connectives.

Derivations are immutable trees.  check() validates each node against its
rule schema using multiset sequent arithmetic, so transformers are free to
order conclusion items however is convenient.  The transformers
(axiom_fullset/axiom_multi, split_roles, cut1, cut2_residual, mp_cut) are
executable admissibility proofs: their outputs contain only primitive rule
nodes and are themselves checkable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import roles as rl
from .logic import (
    AConj,
    Atom,
    Bang,
    Conj,
    Const,
    Forall,
    Formula,
    FreshNames,
    IFormula,
    Impl,
    MConj,
    Neg,
    Sequent,
    Term,
    Var,
    fmt_formula,
    fmt_sequent,
    free_vars,
    names_in,
    parse_formula,
    seq_counts,
    seq_equal,
    seq_free_vars,
    seq_minus,
    sequent_from_obj,
    size,
    substitute,
)
from .roles import Endo, Ultra


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


@dataclass(frozen=True)
class Calculus:
    kind: str  # "mrl" | "mrlj" | "lmrl"
    n: int
    j: Ultra | None = None

    def __post_init__(self):
        rl.check_universe(self.n)
        if self.kind not in ("mrl", "mrlj", "lmrl"):
            raise KernelError(f"unknown calculus {self.kind!r}")
        if self.kind == "mrlj" and self.j is None:
            raise KernelError("mrlj requires the intuitionistic ultrafilter J")

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


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: Sequent
    premises: tuple["Derivation", ...] = ()
    principal: int | None = None
    witness: Term | None = None
    eigen: str | None = None

    @property
    def height(self) -> int:
        """Rules on the longest branch; computed on first access, bottom-up
        with an explicit stack, and cached on every node it visits."""
        stack = [self]
        while stack:
            d = stack[-1]
            if "_height" in d.__dict__:
                stack.pop()
                continue
            todo = [p for p in d.premises if "_height" not in p.__dict__]
            if todo:
                stack += todo
                continue
            stack.pop()
            d.__dict__["_height"] = 1 + max(
                (p.__dict__["_height"] for p in d.premises), default=0)
        return self.__dict__["_height"]


def rule_tags(d: Derivation) -> set[str]:
    """The rules used anywhere in d, collected with an explicit stack."""
    out = set()
    stack = [d]
    while stack:
        node = stack.pop()
        out.add(node.rule)
        stack += node.premises
    return out


def _principal_item(d: Derivation) -> IFormula:
    if d.principal is None or not 0 <= d.principal < len(d.conclusion):
        raise CheckError((), f"rule {d.rule}: bad principal index {d.principal}")
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
    good = []
    stack = [a]
    while stack:
        b = stack.pop()
        if b in ok:
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
        good.append(b)
    ok.update(good)
    return None


def _is_why_not(it: IFormula) -> bool:
    """?-shaped: <R>!_U B with R not in U (weakenable/contractable in LMRL)."""
    return isinstance(it.formula, Bang) and not it.formula.u.contains(it.roles)


def _expect(cond: bool, path, reason: str) -> None:
    if not cond:
        raise CheckError(path, reason)


def _check_node(d: Derivation, calc: Calculus, path: tuple[int, ...], ok: set) -> None:
    _expect(d.rule in _ALLOWED_RULES[calc.kind], path,
            f"rule {d.rule} not available in {calc.kind}")
    full = rl.full_set(calc.n)
    for it in d.conclusion:
        _expect(0 <= it.roles <= full, path, "role set outside universe")
        bad = _formula_ok(it.formula, calc, ok)
        _expect(bad is None, path, bad or "")
    if calc.kind == "mrlj":
        _expect(is_intuitionistic(d.conclusion, calc.j), path,
                "sequent is not J-intuitionistic")

    def arity(k: int) -> None:
        _expect(len(d.premises) == k, path,
                f"rule {d.rule} expects {k} premises, got {len(d.premises)}")

    def one_premise_is(expected: Sequent) -> None:
        arity(1)
        _expect(seq_equal(d.premises[0].conclusion, expected), path,
                f"rule {d.rule}: premise does not match schema")

    if d.rule == "id":
        arity(0)
        _expect(len(d.conclusion) >= 1, path, "(id) needs at least one i-formula")
        first = d.conclusion[0].formula
        _expect(isinstance(first, Atom), path, "(id) items must be primitive")
        for it in d.conclusion:
            _expect(it.formula == first, path, "(id) items must share one primitive formula")
        _expect(rl.partition_check([it.roles for it in d.conclusion], calc.n),
                path, "(id) role sets must partition the universe")
        return

    item = _principal_item(d)
    ctx = _ctx(d)
    roles_ = item.roles
    a = item.formula

    match d.rule:
        case "weaken":
            one_premise_is(ctx)
        case "contract":
            arity(1)
            _expect(seq_equal(d.premises[0].conclusion, d.conclusion + (item,)),
                    path, "(contract): premise must hold one extra copy")
        case "neg":
            _expect(isinstance(a, Neg), path, "(neg) principal must be a negation")
            one_premise_is(ctx + (IFormula(a.f.preimage(roles_), a.body),))
        case "conj-neg-l" | "aconj-neg-l":
            _expect(isinstance(a, (Conj, AConj)), path, "principal must be additive conjunction")
            _expect(not a.u.contains(roles_), path, f"({d.rule}) needs R not in U")
            one_premise_is(ctx + (IFormula(roles_, a.left),))
        case "conj-neg-r" | "aconj-neg-r":
            _expect(isinstance(a, (Conj, AConj)), path, "principal must be additive conjunction")
            _expect(not a.u.contains(roles_), path, f"({d.rule}) needs R not in U")
            one_premise_is(ctx + (IFormula(roles_, a.right),))
        case "conj-pos" | "aconj-pos":
            _expect(isinstance(a, (Conj, AConj)), path, "principal must be additive conjunction")
            _expect(a.u.contains(roles_), path, f"({d.rule}) needs R in U")
            arity(2)
            _expect(seq_equal(d.premises[0].conclusion, ctx + (IFormula(roles_, a.left),)),
                    path, f"({d.rule}): left premise mismatch")
            _expect(seq_equal(d.premises[1].conclusion, ctx + (IFormula(roles_, a.right),)),
                    path, f"({d.rule}): right premise mismatch")
        case "mconj-neg":
            _expect(isinstance(a, MConj), path, "principal must be multiplicative conjunction")
            _expect(not a.u.contains(roles_), path, "(mconj-neg) needs R not in U")
            one_premise_is(ctx + (IFormula(roles_, a.left), IFormula(roles_, a.right)))
        case "mconj-pos" | "imp-pos":
            if d.rule == "mconj-pos":
                _expect(isinstance(a, MConj), path, "principal must be multiplicative conjunction")
                new_l = IFormula(roles_, a.left)
            else:
                _expect(isinstance(a, Impl), path, "principal must be implication")
                new_l = IFormula(a.f.preimage(roles_), a.left)
            _expect(a.u.contains(roles_), path, f"({d.rule}) needs R in U")
            arity(2)
            new_r = IFormula(roles_, a.right)
            g1 = seq_minus(d.premises[0].conclusion, (new_l,))
            g2 = seq_minus(d.premises[1].conclusion, (new_r,))
            _expect(g1 is not None and g2 is not None, path,
                    f"({d.rule}): premises missing the introduced i-formulas")
            _expect(seq_equal(g1 + g2, ctx), path,
                    f"({d.rule}): context split does not reassemble the conclusion")
        case "imp-neg":
            _expect(isinstance(a, Impl), path, "principal must be implication")
            _expect(not a.u.contains(roles_), path, "(imp-neg) needs R not in U")
            one_premise_is(ctx + (IFormula(a.f.preimage(roles_), a.left),
                                  IFormula(roles_, a.right)))
        case "bang-pos":
            _expect(isinstance(a, Bang), path, "principal must be of ! shape")
            _expect(a.u.contains(roles_), path, "(bang-pos) needs R in U")
            for it in ctx:
                _expect(_is_why_not(it), path,
                        "(bang-pos) context must consist of <R'>!_U' B' with R' not in U'")
            one_premise_is(ctx + (IFormula(roles_, a.body),))
        case "bang-neg-weaken":
            _expect(isinstance(a, Bang), path, "principal must be of ! shape")
            _expect(not a.u.contains(roles_), path, "(bang-neg-weaken) needs R not in U")
            one_premise_is(ctx)
        case "bang-neg-derelict":
            _expect(isinstance(a, Bang), path, "principal must be of ! shape")
            _expect(not a.u.contains(roles_), path, "(bang-neg-derelict) needs R not in U")
            one_premise_is(ctx + (IFormula(roles_, a.body),))
        case "bang-neg-contract":
            _expect(isinstance(a, Bang), path, "principal must be of ! shape")
            _expect(not a.u.contains(roles_), path, "(bang-neg-contract) needs R not in U")
            arity(1)
            _expect(seq_equal(d.premises[0].conclusion, d.conclusion + (item,)),
                    path, "(bang-neg-contract): premise must hold one extra copy")
        case "forall-neg":
            _expect(isinstance(a, Forall), path, "principal must be universal")
            _expect(not a.u.contains(roles_), path, "(forall-neg) needs R not in U")
            _expect(d.witness is not None, path, "(forall-neg) needs a witness term")
            one_premise_is(ctx + (IFormula(roles_, substitute(a.body, a.var, d.witness)),))
        case "forall-pos":
            _expect(isinstance(a, Forall), path, "principal must be universal")
            _expect(a.u.contains(roles_), path, "(forall-pos) needs R in U")
            y = d.eigen if d.eigen is not None else a.var
            _expect(y not in seq_free_vars(ctx), path,
                    "(forall-pos) eigenvariable occurs free in the context")
            _expect(y == a.var or y not in (free_vars(a.body) - {a.var}), path,
                    "(forall-pos) eigenvariable captured in the body")
            one_premise_is(ctx + (IFormula(roles_, substitute(a.body, a.var, Var(y))),))
        case _:
            raise CheckError(path, f"unknown rule {d.rule}")


def check(d: Derivation, calc: Calculus, path: tuple[int, ...] = ()) -> None:
    """Raise CheckError at the first node, in preorder, violating its rule schema."""
    ok: set = set()  # formulas found well-formed in calc during this call
    stack = [(d, path)]
    while stack:
        node, at = stack.pop()
        _check_node(node, calc, at, ok)
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((node.premises[i], at + (i,)))


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
# positions.  The principal formula is always appended last.


def _take(items: Sequent, consumed: Sequent, rule: str) -> Sequent:
    left = seq_minus(items, consumed)
    if left is None:
        raise KernelError(f"builder {rule}: premise {fmt_sequent(items)} lacks "
                          f"{fmt_sequent(consumed)}")
    return left


def b_id(items) -> Derivation:
    return Derivation("id", tuple(items))


def b_weaken(d: Derivation, item: IFormula, calc: Calculus) -> Derivation:
    rule = "bang-neg-weaken" if calc.linear else "weaken"
    if calc.linear and not _is_why_not(item):
        raise KernelError(f"cannot weaken non-? item into a linear derivation: "
                          f"{fmt_formula(item.formula)}")
    concl = d.conclusion + (item,)
    return Derivation(rule, concl, (d,), len(concl) - 1)


def b_contract(d: Derivation, item: IFormula, calc: Calculus) -> Derivation:
    rule = "bang-neg-contract" if calc.linear else "contract"
    if calc.linear and not _is_why_not(item):
        raise KernelError("cannot contract non-? item in a linear derivation")
    concl = _take(d.conclusion, (item,), rule)
    idx = concl.index(item)
    return Derivation(rule, concl, (d,), idx)


def b_neg(d: Derivation, roles_: int, f: Endo, body: Formula) -> Derivation:
    sub = IFormula(f.preimage(roles_), body)
    concl = _take(d.conclusion, (sub,), "neg") + (IFormula(roles_, Neg(f, body)),)
    return Derivation("neg", concl, (d,), len(concl) - 1)


def b_add_neg(d: Derivation, roles_: int, a: Conj | AConj, side: str) -> Derivation:
    sub = IFormula(roles_, a.left if side == "l" else a.right)
    base = "aconj" if isinstance(a, AConj) else "conj"
    concl = _take(d.conclusion, (sub,), f"{base}-neg-{side}") + (IFormula(roles_, a),)
    return Derivation(f"{base}-neg-{side}", concl, (d,), len(concl) - 1)


def b_add_pos(d1: Derivation, d2: Derivation, roles_: int, a: Conj | AConj) -> Derivation:
    base = "aconj" if isinstance(a, AConj) else "conj"
    ctx = _take(d1.conclusion, (IFormula(roles_, a.left),), f"{base}-pos")
    concl = ctx + (IFormula(roles_, a),)
    return Derivation(f"{base}-pos", concl, (d1, d2), len(concl) - 1)


def b_mconj_neg(d: Derivation, roles_: int, a: MConj) -> Derivation:
    consumed = (IFormula(roles_, a.left), IFormula(roles_, a.right))
    concl = _take(d.conclusion, consumed, "mconj-neg") + (IFormula(roles_, a),)
    return Derivation("mconj-neg", concl, (d,), len(concl) - 1)


def b_mconj_pos(d1: Derivation, d2: Derivation, roles_: int, a: MConj) -> Derivation:
    g1 = _take(d1.conclusion, (IFormula(roles_, a.left),), "mconj-pos")
    g2 = _take(d2.conclusion, (IFormula(roles_, a.right),), "mconj-pos")
    concl = g1 + g2 + (IFormula(roles_, a),)
    return Derivation("mconj-pos", concl, (d1, d2), len(concl) - 1)


def b_imp_neg(d: Derivation, roles_: int, a: Impl) -> Derivation:
    consumed = (IFormula(a.f.preimage(roles_), a.left), IFormula(roles_, a.right))
    concl = _take(d.conclusion, consumed, "imp-neg") + (IFormula(roles_, a),)
    return Derivation("imp-neg", concl, (d,), len(concl) - 1)


def b_imp_pos(d1: Derivation, d2: Derivation, roles_: int, a: Impl) -> Derivation:
    g1 = _take(d1.conclusion, (IFormula(a.f.preimage(roles_), a.left),), "imp-pos")
    g2 = _take(d2.conclusion, (IFormula(roles_, a.right),), "imp-pos")
    concl = g1 + g2 + (IFormula(roles_, a),)
    return Derivation("imp-pos", concl, (d1, d2), len(concl) - 1)


def b_bang_pos(d: Derivation, roles_: int, a: Bang) -> Derivation:
    concl = _take(d.conclusion, (IFormula(roles_, a.body),), "bang-pos") + (IFormula(roles_, a),)
    return Derivation("bang-pos", concl, (d,), len(concl) - 1)


def b_bang_derelict(d: Derivation, roles_: int, a: Bang) -> Derivation:
    concl = _take(d.conclusion, (IFormula(roles_, a.body),), "bang-neg-derelict") \
        + (IFormula(roles_, a),)
    return Derivation("bang-neg-derelict", concl, (d,), len(concl) - 1)


def b_forall_neg(d: Derivation, roles_: int, a: Forall, witness: Term) -> Derivation:
    sub = IFormula(roles_, substitute(a.body, a.var, witness))
    concl = _take(d.conclusion, (sub,), "forall-neg") + (IFormula(roles_, a),)
    return Derivation("forall-neg", concl, (d,), len(concl) - 1, witness=witness)


def b_forall_pos(d: Derivation, roles_: int, a: Forall, eigen: str) -> Derivation:
    sub = IFormula(roles_, substitute(a.body, a.var, Var(eigen)))
    concl = _take(d.conclusion, (sub,), "forall-pos") + (IFormula(roles_, a),)
    return Derivation("forall-pos", concl, (d,), len(concl) - 1, eigen=eigen)


# --------------------------------------------- derivation-wide renaming


def _names(*ds: Derivation) -> set[str]:
    """Every name occurring in the derivations."""
    names: set[str] = set()
    formulas: set = set()
    stack = list(ds)
    while stack:
        d = stack.pop()
        stack += d.premises
        formulas.update(it.formula for it in d.conclusion)
        if d.eigen is not None:
            names.add(d.eigen)
        if d.witness is not None:
            names.add(d.witness.name)
    return names | names_in(formulas)


def subst_derivation(d: Derivation, x: str, t: Term,
                     fresh: FreshNames | None = None) -> Derivation:
    """Substitute t for the free variable x throughout a derivation.

    Inner eigenvariables clashing with x or with variables of t are
    renamed first, to names from fresh (by default, names occurring
    nowhere in d, x or t), so the result remains schema-valid.
    """
    if fresh is None:
        fresh = FreshNames(lambda: _names(d) | {x, t.name})
    tvars = {t.name} if isinstance(t, Var) else set()
    eigen = d.eigen
    node = d
    if d.rule == "forall-pos":
        a = _principal_item(d).formula
        y = eigen if eigen is not None else a.var
        if y == x or y in tvars:
            z = fresh(y)
            prem = subst_derivation(d.premises[0], y, Var(z), fresh)
            node = Derivation(d.rule, d.conclusion, (prem,), d.principal, eigen=z)
            eigen = z
    witness = node.witness
    if isinstance(witness, Var) and witness.name == x:
        witness = t
    return Derivation(
        node.rule,
        tuple(IFormula(it.roles, substitute(it.formula, x, t)) for it in node.conclusion),
        tuple(subst_derivation(p, x, t, fresh) for p in node.premises),
        node.principal,
        witness=witness,
        eigen=eigen,
    )


# ----------------------------------------------------- axiom procedures


def axiom_multi(a: Formula, parts: list[int], calc: Calculus) -> Derivation:
    """A derivation of |- <R1>A, ..., <Rn>A for a partition R1 u ... u Rn.

    Structural induction on A; each case introduces the connective once
    positively (at the unique part containing the head role) and
    negatively everywhere else.
    """
    if not rl.partition_check(parts, calc.n):
        raise KernelError("axiom_multi: role sets do not partition the universe")
    return _axiom(a, list(parts), calc)


def _pos_index(u: Ultra, parts: list[int]) -> int:
    for i, p in enumerate(parts):
        if u.contains(p):
            return i
    raise KernelError("no part contains the head role")  # unreachable for partitions


def _axiom(a: Formula, parts: list[int], calc: Calculus) -> Derivation:
    match a:
        case Atom():
            return b_id(tuple(IFormula(p, a) for p in parts))
        case Neg(f, body):
            d = _axiom(body, [f.preimage(p) for p in parts], calc)
            for p in parts:
                d = b_neg(d, p, f, body)
            return d
        case Conj(u, left, right) | AConj(u, left, right):
            i = _pos_index(u, parts)
            d1 = _axiom(left, parts, calc)
            d2 = _axiom(right, parts, calc)
            for j, p in enumerate(parts):
                if j != i:
                    d1 = b_add_neg(d1, p, a, "l")
                    d2 = b_add_neg(d2, p, a, "r")
            return b_add_pos(d1, d2, parts[i], a)
        case MConj(u, left, right):
            i = _pos_index(u, parts)
            d1 = _axiom(left, parts, calc)
            d2 = _axiom(right, parts, calc)
            d = b_mconj_pos(d1, d2, parts[i], a)
            for j, p in enumerate(parts):
                if j != i:
                    d = b_mconj_neg(d, p, a)
            return d
        case Impl(f, u, left, right):
            i = _pos_index(u, parts)
            d1 = _axiom(left, [f.preimage(p) for p in parts], calc)
            d2 = _axiom(right, parts, calc)
            d = b_imp_pos(d1, d2, parts[i], a)
            for j, p in enumerate(parts):
                if j != i:
                    d = b_imp_neg(d, p, a)
            return d
        case Bang(u, body):
            i = _pos_index(u, parts)
            d = _axiom(body, parts, calc)
            for j, p in enumerate(parts):
                if j != i:
                    d = b_bang_derelict(d, p, a)
            return b_bang_pos(d, parts[i], a)
        case Forall(u, x, _):
            i = _pos_index(u, parts)
            d = _axiom(a.body, parts, calc)
            for j, p in enumerate(parts):
                if j != i:
                    d = b_forall_neg(d, p, a, Var(x))
            return b_forall_pos(d, parts[i], a, x)
    raise KernelError(f"axiom_multi: unsupported formula {a!r}")


def axiom_fullset(a: Formula, calc: Calculus) -> Derivation:
    """A derivation of |- <universe>A."""
    return axiom_multi(a, [rl.full_set(calc.n)], calc)


# ------------------------------------------------------------- 1-cut


def cut1(d: Derivation, index: int, calc: Calculus) -> Derivation:
    """Erase a designated empty-role-set i-formula from a derivation."""
    if not 0 <= index < len(d.conclusion):
        raise KernelError(f"cut1: bad index {index}")
    item = d.conclusion[index]
    if item.roles != 0:
        raise KernelError("cut1: designated i-formula must carry the empty role set")
    return _cut1(d, item, 1, calc)


def _cut1(d: Derivation, x: IFormula, n: int, calc: Calculus) -> Derivation:
    if n == 0:
        return d
    a = x.formula
    if d.rule == "id":
        return b_id(seq_minus(d.conclusion, (x,) * n))
    principal = _principal_item(d)
    if principal == x:
        p = d.premises[0]
        match d.rule:
            case "weaken" | "bang-neg-weaken":
                return _cut1(p, x, n - 1, calc)
            case "contract" | "bang-neg-contract":
                return _cut1(p, x, n + 1, calc)
            case "neg":
                e = _cut1(p, x, n - 1, calc)
                return _cut1(e, IFormula(0, a.body), 1, calc)
            case "conj-neg-l" | "aconj-neg-l":
                e = _cut1(p, x, n - 1, calc)
                return _cut1(e, IFormula(0, a.left), 1, calc)
            case "conj-neg-r" | "aconj-neg-r":
                e = _cut1(p, x, n - 1, calc)
                return _cut1(e, IFormula(0, a.right), 1, calc)
            case "mconj-neg":
                e = _cut1(p, x, n - 1, calc)
                e = _cut1(e, IFormula(0, a.left), 1, calc)
                return _cut1(e, IFormula(0, a.right), 1, calc)
            case "imp-neg":
                e = _cut1(p, x, n - 1, calc)
                e = _cut1(e, IFormula(0, a.left), 1, calc)
                return _cut1(e, IFormula(0, a.right), 1, calc)
            case "bang-neg-derelict":
                e = _cut1(p, x, n - 1, calc)
                return _cut1(e, IFormula(0, a.body), 1, calc)
            case "forall-neg":
                e = _cut1(p, x, n - 1, calc)
                return _cut1(e, IFormula(0, substitute(a.body, a.var, d.witness)), 1, calc)
            case _:
                raise KernelError(f"cut1: rule {d.rule} cannot introduce an empty-role "
                                  "i-formula positively")
    # commutative case: the principal is some other i-formula
    return _rebuild_minus(d, x, n, calc, lambda p, m: _cut1(p, x, m, calc))


def _rebuild_minus(d: Derivation, x: IFormula, n: int, calc: Calculus, recurse):
    """Rebuild a non-principal node with m copies of x removed from each premise."""
    new_concl = seq_minus(d.conclusion, (x,) * n)
    if new_concl is None:
        raise KernelError("internal: tracked occurrences missing from sequent")
    if d.rule in ("conj-pos", "aconj-pos"):
        prems = tuple(recurse(p, n) for p in d.premises)
    elif d.rule in ("mconj-pos", "imp-pos"):
        item = _principal_item(d)
        a = item.formula
        if d.rule == "mconj-pos":
            new_items = [(IFormula(item.roles, a.left),), (IFormula(item.roles, a.right),)]
        else:
            new_items = [(IFormula(a.f.preimage(item.roles), a.left),),
                         (IFormula(item.roles, a.right),)]
        c0 = seq_counts(seq_minus(d.premises[0].conclusion, new_items[0]) or ()).get(x, 0)
        m0 = min(c0, n)
        ms = (m0, n - m0)
        prems = tuple(recurse(p, m) if m else p for p, m in zip(d.premises, ms))
    else:
        prems = tuple(recurse(p, n) for p in d.premises)
    new_principal = new_concl.index(_principal_item(d))
    return Derivation(d.rule, new_concl, prems, new_principal,
                      witness=d.witness, eigen=d.eigen)


# ------------------------------------------------- 2-cut with residual

case_hits: dict[str, int] = {}


def reset_case_hits() -> None:
    case_hits.clear()


def _hit(label: str) -> None:
    case_hits[label] = case_hits.get(label, 0) + 1


def cut2_residual(d1: Derivation, i1: int, d2: Derivation, i2: int,
                  calc: Calculus) -> Derivation:
    """Cut <R1>A against <R2>A, leaving the residual <R1 n R2>A.

    Requires complement(R1) n complement(R2) = empty.  The conclusion is
    exactly ctx(d1), ctx(d2), <R1 n R2>A as a multiset.
    """
    x1, x2 = d1.conclusion[i1], d2.conclusion[i2]
    if x1.formula != x2.formula:
        raise KernelError("cut2_residual: designated i-formulas carry different formulas")
    full = rl.full_set(calc.n)
    if (full & ~x1.roles) & (full & ~x2.roles):
        raise KernelError("cut2_residual: complements of the role sets overlap")
    return _cut2(d1, x1, 1, d2, x2, 1, calc, FreshNames(lambda: _names(d1, d2)), 0)


_MAX_CUT_DEPTH = 100_000


def _swap_for_linear(d1, x1, n1, d2, x2, n2, calc):
    """For the linear ! case, keep the side whose roles are in U first."""
    a = x1.formula
    if calc.linear and isinstance(a, Bang) and not a.u.contains(x1.roles) \
            and a.u.contains(x2.roles):
        return d2, x2, n2, d1, x1, n1, True
    return d1, x1, n1, d2, x2, n2, False


def _merge_weaken(d: Derivation, items: Sequent, calc: Calculus) -> Derivation:
    for it in items:
        d = b_weaken(d, it, calc)
    return d


def _contract_extras(d: Derivation, extras: Sequent, calc: Calculus) -> Derivation:
    for it in extras:
        d = b_contract(d, it, calc)
    return d


def _is_principal_on(d: Derivation, x: IFormula) -> bool:
    if d.rule == "id":
        return x in d.conclusion
    return _principal_item(d) == x


def _cut2(d1, x1, n1, d2, x2, n2, calc: Calculus, fresh: FreshNames,
          depth: int) -> Derivation:
    """Derive (C1 - n1*x1) u (C2 - n2*x2) u {<R1 n R2>A}."""
    if depth > _MAX_CUT_DEPTH:
        raise KernelError("cut2_residual: recursion guard tripped "
                          "(pathological structural-rule tower)")
    d1, x1, n1, d2, x2, n2, _ = _swap_for_linear(d1, x1, n1, d2, x2, n2, calc)
    a = x1.formula
    resid = IFormula(x1.roles & x2.roles, a)

    if n1 == 0:
        return _merge_weaken(d1, seq_minus(d2.conclusion, (x2,) * n2) + (resid,), calc)
    if n2 == 0:
        return _merge_weaken(d2, seq_minus(d1.conclusion, (x1,) * n1) + (resid,), calc)

    # stray copies at an (id) node can only be <{}>-occurrences; drop them
    if d1.rule == "id" and n1 > 1:
        d1, n1 = b_id(seq_minus(d1.conclusion, (x1,) * (n1 - 1))), 1
    if d2.rule == "id" and n2 > 1:
        d2, n2 = b_id(seq_minus(d2.conclusion, (x2,) * (n2 - 1))), 1

    if not _is_principal_on(d1, x1):
        return _push(d1, x1, n1, d2, x2, n2, calc, fresh, depth, into=1)

    # side 1 is at its principal occurrence; handle side-1 structural rules
    if d1.rule in ("weaken", "bang-neg-weaken") and _principal_item(d1) == x1:
        return _cut2(d1.premises[0], x1, n1 - 1, d2, x2, n2, calc, fresh, depth + 1)
    if d1.rule in ("contract", "bang-neg-contract") and _principal_item(d1) == x1:
        return _cut2(d1.premises[0], x1, n1 + 1, d2, x2, n2, calc, fresh, depth + 1)
    if d1.rule == "bang-neg-derelict" and _principal_item(d1) == x1:
        # only reachable when both sides are ?-sided; cannot happen since
        # at least one role set contains the head role
        raise KernelError("cut2_residual: dereliction on a positive-side occurrence")
    if n1 > 1 and d1.rule != "id":
        return _stray_trick(d1, x1, n1, d2, x2, n2, calc, fresh, depth, into=1)

    if not _is_principal_on(d2, x2):
        return _push(d2, x2, n2, d1, x1, n1, calc, fresh, depth, into=2)

    if d2.rule in ("weaken", "bang-neg-weaken") and _principal_item(d2) == x2:
        if d2.rule == "bang-neg-weaken":
            _hit("bang-weaken")
        return _cut2(d1, x1, n1, d2.premises[0], x2, n2 - 1, calc, fresh, depth + 1)
    if d2.rule in ("contract", "bang-neg-contract") and _principal_item(d2) == x2:
        if d2.rule == "bang-neg-contract":
            _hit("bang-contract")
        return _cut2(d1, x1, n1, d2.premises[0], x2, n2 + 1, calc, fresh, depth + 1)
    if d2.rule == "bang-neg-derelict" and _principal_item(d2) == x2:
        return _derelict_case(d1, x1, d2, x2, n2, calc, fresh, depth)
    if n2 > 1 and d2.rule != "id":
        return _stray_trick(d2, x2, n2, d1, x1, n1, calc, fresh, depth, into=2)

    return _principal_case(d1, x1, d2, x2, calc, fresh, depth)


def _push(ds, xs, ns, do, xo, no, calc: Calculus, fresh: FreshNames, depth: int,
          into: int) -> Derivation:
    """Commutative case: push the cut into the premises of side `into`.

    do/xo/no is the other (fixed) side; merged items may be duplicated when
    a context-splitting rule hosts tracked copies in both premises, and the
    duplicates are contracted away afterwards.
    """
    merged = seq_minus(do.conclusion, (xo,) * no)
    resid = IFormula(xs.roles & xo.roles, xs.formula)

    def sub(p, m):
        if into == 1:
            return _cut2(p, xs, m, do, xo, no, calc, fresh, depth + 1)
        return _cut2(do, xo, no, p, xs, m, calc, fresh, depth + 1)

    d = ds
    if d.rule == "forall-pos":
        # the merged context may mention the eigenvariable; freshen it first
        item = _principal_item(d)
        y = d.eigen if d.eigen is not None else item.formula.var
        if y in seq_free_vars(merged + (resid,)):
            z = fresh(y)
            prem = subst_derivation(d.premises[0], y, Var(z), fresh)
            d = Derivation(d.rule, d.conclusion, (prem,), d.principal, eigen=z)

    new_concl = seq_minus(d.conclusion, (xs,) * ns) + merged + (resid,)
    item = _principal_item(d)
    a = item.formula

    if d.rule in ("conj-pos", "aconj-pos"):
        prems = tuple(sub(p, ns) for p in d.premises)
        new_principal = new_concl.index(item)
        return Derivation(d.rule, new_concl, prems, new_principal,
                          witness=d.witness, eigen=d.eigen)

    if d.rule in ("mconj-pos", "imp-pos"):
        if d.rule == "mconj-pos":
            new0 = (IFormula(item.roles, a.left),)
        else:
            new0 = (IFormula(a.f.preimage(item.roles), a.left),)
        c0 = seq_counts(seq_minus(d.premises[0].conclusion, new0) or ()).get(xs, 0)
        m0 = min(c0, ns)
        ms = (m0, ns - m0)
        prems = []
        dup = 0
        for p, m in zip(d.premises, ms):
            if m:
                prems.append(sub(p, m))
                dup += 1
            else:
                prems.append(p)
        if d.rule == "mconj-pos":
            out = b_mconj_pos(prems[0], prems[1], item.roles, a)
        else:
            out = b_imp_pos(prems[0], prems[1], item.roles, a)
        if dup == 2:
            out = _contract_extras(out, merged + (resid,), calc)
        return out

    # single-premise rules: the tracked copies all live in the one premise
    prems = (sub(d.premises[0], ns),)
    new_principal = new_concl.index(item)
    return Derivation(d.rule, new_concl, prems, new_principal,
                      witness=d.witness, eigen=d.eigen)


def _stray_trick(ds, xs, ns, do, xo, no, calc: Calculus, fresh: FreshNames, depth: int,
                 into: int) -> Derivation:
    """A logical rule applies to a tracked occurrence while stray copies remain.

    Cut the strays out of the premises first, reapply the rule (which
    reintroduces a single occurrence at the root), then cut that occurrence;
    the doubly-merged other context is contracted away.  Only the structural
    calculi can reach this (linear tracked copies are ?-shaped and never
    principal in a logical rule).
    """
    if calc.linear:
        raise KernelError("cut2_residual: stray linear occurrences at a logical rule")

    def sub(p, m):
        if into == 1:
            return _cut2(p, xs, m, do, xo, no, calc, fresh, depth + 1)
        return _cut2(do, xo, no, p, xs, m, calc, fresh, depth + 1)

    merged = seq_minus(do.conclusion, (xo,) * no)
    resid = IFormula(xs.roles & xo.roles, xs.formula)
    item = _principal_item(ds)
    a = item.formula
    rebuilt = None
    match ds.rule:
        case "neg":
            rebuilt = b_neg(sub(ds.premises[0], ns - 1), item.roles, a.f, a.body)
        case "conj-neg-l":
            rebuilt = b_add_neg(sub(ds.premises[0], ns - 1), item.roles, a, "l")
        case "conj-neg-r":
            rebuilt = b_add_neg(sub(ds.premises[0], ns - 1), item.roles, a, "r")
        case "conj-pos":
            rebuilt = b_add_pos(sub(ds.premises[0], ns - 1),
                                sub(ds.premises[1], ns - 1), item.roles, a)
        case "imp-neg":
            rebuilt = b_imp_neg(sub(ds.premises[0], ns - 1), item.roles, a)
        case "imp-pos":
            new0 = (IFormula(a.f.preimage(item.roles), a.left),)
            c0 = seq_counts(seq_minus(ds.premises[0].conclusion, new0) or ()).get(xs, 0)
            m0 = min(c0, ns - 1)
            p0 = sub(ds.premises[0], m0) if m0 else ds.premises[0]
            m1 = ns - 1 - m0
            p1 = sub(ds.premises[1], m1) if m1 else ds.premises[1]
            rebuilt = b_imp_pos(p0, p1, item.roles, a)
            if m0 and m1:
                rebuilt = _contract_extras(rebuilt, merged + (resid,), calc)
        case "forall-neg":
            rebuilt = b_forall_neg(sub(ds.premises[0], ns - 1), item.roles, a, ds.witness)
        case "forall-pos":
            y = ds.eigen if ds.eigen is not None else a.var
            prem = ds.premises[0]
            if y in seq_free_vars(merged + (resid,)):
                z = fresh(y)
                prem = subst_derivation(prem, y, Var(z), fresh)
                y = z
            rebuilt = b_forall_pos(sub(prem, ns - 1), item.roles, a, y)
        case _:
            raise KernelError(f"cut2_residual: unsupported stray case {ds.rule}")
    if ns == 1:
        # nothing was actually cut in the rebuild; avoid an infinite loop
        raise KernelError("internal: stray trick invoked with a single occurrence")
    if into == 1:
        out = _cut2(rebuilt, xs, 1, do, xo, no, calc, fresh, depth + 1)
    else:
        out = _cut2(do, xo, no, rebuilt, xs, 1, calc, fresh, depth + 1)
    return _contract_extras(out, merged + (resid,), calc)


def _derelict_case(d1, x1, d2, x2, n2, calc: Calculus, fresh: FreshNames,
                   depth: int) -> Derivation:
    """! on side 1 (promoted) against a dereliction of a tracked copy on side 2."""
    _hit("bang-derelict")
    a = x1.formula  # Bang
    resid = IFormula(x1.roles & x2.roles, a)
    sub_body = IFormula(x2.roles, a.body)
    prem2 = d2.premises[0]  # ... (n2-1 copies of x2), <R2>body
    e = _cut2(d1, x1, 1, prem2, x2, n2 - 1, calc, fresh, depth + 1)
    # e proves gamma1, (C2 - n2*x2), <R2>body, resid  with gamma1 = ?(ctx of d1)
    if d1.rule != "bang-pos":
        raise KernelError("cut2_residual: promoted side does not end in bang-pos")
    d11 = d1.premises[0]
    x1_body = IFormula(x1.roles, a.body)
    f = _cut2(d11, x1_body, 1, e, sub_body, 1, calc, fresh, depth + 1)
    # f proves gamma1, gamma1, (C2 - n2*x2), resid, <R1 n R2>body
    f = b_bang_derelict(f, resid.roles, a)
    f = b_contract(f, resid, calc)
    gamma1 = seq_minus(d1.conclusion, (x1,))
    return _contract_extras(f, gamma1, calc)


def _principal_case(d1, x1, d2, x2, calc: Calculus, fresh: FreshNames,
                    depth: int) -> Derivation:
    a = x1.formula
    r1, r2 = x1.roles, x2.roles
    rr = r1 & r2
    resid = IFormula(rr, a)

    match a:
        case Atom():
            _hit("primitive")
            if d1.rule != "id" or d2.rule != "id":
                raise KernelError("cut2_residual: primitive case without (id) nodes")
            items = seq_minus(d1.conclusion, (x1,)) + seq_minus(d2.conclusion, (x2,)) + (resid,)
            return b_id(items)

        case Neg(f, body):
            _hit("neg")
            y1 = IFormula(f.preimage(r1), body)
            y2 = IFormula(f.preimage(r2), body)
            e = _cut2(d1.premises[0], y1, 1, d2.premises[0], y2, 1, calc, fresh, depth + 1)
            return b_neg(e, rr, f, body)

        case Conj(u, left, right) | AConj(u, left, right):
            tag = "with" if isinstance(a, AConj) else "conj"
            pos1, pos2 = u.contains(r1), u.contains(r2)
            if pos1 and pos2:
                _hit(f"{tag}-pos-pos")
                e1 = _cut2(d1.premises[0], IFormula(r1, left), 1,
                           d2.premises[0], IFormula(r2, left), 1, calc, fresh, depth + 1)
                e2 = _cut2(d1.premises[1], IFormula(r1, right), 1,
                           d2.premises[1], IFormula(r2, right), 1, calc, fresh, depth + 1)
                return b_add_pos(e1, e2, rr, a)
            dp, xp, dn, xn = (d1, x1, d2, x2) if pos1 else (d2, x2, d1, x1)
            side = "l" if dn.rule.endswith("neg-l") else "r"
            _hit(f"{tag}-pos-neg{side}")
            branch = left if side == "l" else right
            k = 0 if side == "l" else 1
            e = _cut2(dp.premises[k], IFormula(xp.roles, branch), 1,
                      dn.premises[0], IFormula(xn.roles, branch), 1, calc, fresh, depth + 1)
            return b_add_neg(e, rr, a, side)

        case MConj(u, left, right):
            pos1, pos2 = u.contains(r1), u.contains(r2)
            if pos1 and pos2:
                _hit("tensor-pos-pos")
                e1 = _cut2(d1.premises[0], IFormula(r1, left), 1,
                           d2.premises[0], IFormula(r2, left), 1, calc, fresh, depth + 1)
                e2 = _cut2(d1.premises[1], IFormula(r1, right), 1,
                           d2.premises[1], IFormula(r2, right), 1, calc, fresh, depth + 1)
                return b_mconj_pos(e1, e2, rr, a)
            _hit("tensor-pos-neg" if pos1 else "tensor-neg-pos")
            dp, xp, dn, xn = (d1, x1, d2, x2) if pos1 else (d2, x2, d1, x1)
            e1 = _cut2(dp.premises[0], IFormula(xp.roles, left), 1,
                       dn.premises[0], IFormula(xn.roles, left), 1, calc, fresh, depth + 1)
            e2 = _cut2(dp.premises[1], IFormula(xp.roles, right), 1,
                       e1, IFormula(xn.roles, right), 1, calc, fresh, depth + 1)
            return b_mconj_neg(e2, rr, a)

        case Impl(f, u, left, right):
            pos1, pos2 = u.contains(r1), u.contains(r2)
            if pos1 and pos2:
                _hit("imp-pos-pos")
                e1 = _cut2(d1.premises[0], IFormula(f.preimage(r1), left), 1,
                           d2.premises[0], IFormula(f.preimage(r2), left), 1,
                           calc, fresh, depth + 1)
                e2 = _cut2(d1.premises[1], IFormula(r1, right), 1,
                           d2.premises[1], IFormula(r2, right), 1, calc, fresh, depth + 1)
                return b_imp_pos(e1, e2, rr, a)
            _hit("imp-pos-neg" if pos1 else "imp-neg-pos")
            dp, xp, dn, xn = (d1, x1, d2, x2) if pos1 else (d2, x2, d1, x1)
            e1 = _cut2(dp.premises[0], IFormula(f.preimage(xp.roles), left), 1,
                       dn.premises[0], IFormula(f.preimage(xn.roles), left), 1,
                       calc, fresh, depth + 1)
            e2 = _cut2(dp.premises[1], IFormula(xp.roles, right), 1,
                       e1, IFormula(xn.roles, right), 1, calc, fresh, depth + 1)
            return b_imp_neg(e2, rr, a)

        case Bang(u, body):
            # both sides promoted (both role sets contain the head role)
            _hit("bang-pos-pos")
            if d1.rule != "bang-pos" or d2.rule != "bang-pos":
                raise KernelError("cut2_residual: ! principal case without promotions")
            e = _cut2(d1.premises[0], IFormula(r1, body), 1,
                      d2.premises[0], IFormula(r2, body), 1, calc, fresh, depth + 1)
            return b_bang_pos(e, rr, a)

        case Forall(u, xv, body):
            pos1, pos2 = u.contains(r1), u.contains(r2)
            if pos1 and pos2:
                _hit("forall-pos-pos")
                z = fresh(xv)
                p1 = _realign_eigen(d1, z, fresh)
                p2 = _realign_eigen(d2, z, fresh)
                bz = substitute(body, xv, Var(z))
                e = _cut2(p1, IFormula(r1, bz), 1, p2, IFormula(r2, bz), 1, calc, fresh, depth + 1)
                return b_forall_pos(e, rr, a, z)
            _hit("forall-pos-neg")
            dp, xp, dn, xn = (d1, x1, d2, x2) if pos1 else (d2, x2, d1, x1)
            t = dn.witness
            y = dp.eigen if dp.eigen is not None else xv
            p = subst_derivation(dp.premises[0], y, t, fresh)
            bt = substitute(body, xv, t)
            e = _cut2(p, IFormula(xp.roles, bt), 1,
                      dn.premises[0], IFormula(xn.roles, bt), 1, calc, fresh, depth + 1)
            return b_forall_neg(e, rr, a, t)

    raise KernelError(f"cut2_residual: unsupported principal case {d1.rule}/{d2.rule}")


def _realign_eigen(d: Derivation, z: str, fresh: FreshNames) -> Derivation:
    """Premise of a forall-pos node with its eigenvariable renamed to z."""
    item = _principal_item(d)
    y = d.eigen if d.eigen is not None else item.formula.var
    if y == z:
        return d.premises[0]
    return subst_derivation(d.premises[0], y, Var(z), fresh)


# -------------------------------------------------------------- mp-cut


def mp_cut(ds: list[Derivation], indices: list[int], calc: Calculus) -> Derivation:
    """n-ary multiparty cut: premises Gamma_i, <R_i>A with the complements
    of the R_i partitioning the universe; conclusion Gamma_1, ..., Gamma_n."""
    if len(ds) != len(indices) or not ds:
        raise KernelError("mp_cut: need one occurrence index per premise")
    occs = [d.conclusion[i] for d, i in zip(ds, indices)]
    a = occs[0].formula
    for oc in occs:
        if oc.formula != a:
            raise KernelError("mp_cut: premises cut different formulas")
    full = rl.full_set(calc.n)
    if not rl.partition_check([full & ~oc.roles for oc in occs], calc.n):
        raise KernelError("mp_cut: complements of the role sets must partition the universe")
    if calc.kind == "mrlj":
        for d in ds:
            if not is_intuitionistic(d.conclusion, calc.j):
                raise KernelError("mp_cut: non-intuitionistic premise")
    if len(ds) == 1:
        return cut1(ds[0], indices[0], calc)
    acc = ds[0]
    occ = occs[0]
    fresh = FreshNames(lambda: _names(*ds))
    for d, oc in zip(ds[1:], occs[1:]):
        acc = _cut2(acc, occ, 1, d, oc, 1, calc, fresh, 0)
        occ = IFormula(occ.roles & oc.roles, a)
    return _cut1(acc, occ, 1, calc)


# --------------------------------------------------------- split roles


def split_roles(d: Derivation, index: int, r1: int, r2: int, calc: Calculus) -> Derivation:
    """Split a designated <R1 u R2>A into <R1>A, <R2>A."""
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
    e = _cut2(d, item, 1, w, IFormula(comp, a), 1, calc, FreshNames(lambda: _names(d)), 0)
    return _cut1(e, IFormula(0, a), 1, calc)


# --------------------------------------------------------------- search


def search(items: Sequent, calc: Calculus, depth: int) -> Derivation | None:
    """Bounded proof search (iterative deepening inside the given bound).

    Complete for propositional linear sequents without ! (premises shrink);
    for the structural calculi a miss is not a refutation.  Contraction is
    never searched.
    """
    items = tuple(items)
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


def _candidate_ok(items: Sequent, calc: Calculus) -> bool:
    return calc.kind != "mrlj" or is_intuitionistic(items, calc.j)


def _search_raw(items, calc, depth, memo, fresh):
    if items and isinstance(items[0].formula, Atom):
        a0 = items[0].formula
        if all(it.formula == a0 for it in items) \
                and rl.partition_check([it.roles for it in items], calc.n):
            return b_id(items)

    linear = calc.linear
    for i, it in enumerate(items):
        ctx = items[:i] + items[i + 1 :]
        r = it.roles
        a = it.formula

        def rec1(premise, build):
            if not _candidate_ok(premise, calc):
                return None
            p = _search(premise, calc, depth - 1, memo, fresh)
            return build(p) if p is not None else None

        match a:
            case Neg(f, body):
                out = rec1(ctx + (IFormula(f.preimage(r), body),),
                           lambda p: b_neg(p, r, f, body))
                if out:
                    return out
            case Conj(u, left, right) | AConj(u, left, right):
                if u.contains(r):
                    p1 = ctx + (IFormula(r, left),)
                    p2 = ctx + (IFormula(r, right),)
                    if _candidate_ok(p1, calc) and _candidate_ok(p2, calc):
                        s1 = _search(p1, calc, depth - 1, memo, fresh)
                        s2 = _search(p2, calc, depth - 1, memo, fresh) if s1 else None
                        if s1 and s2:
                            return b_add_pos(s1, s2, r, a)
                else:
                    for side, branch in (("l", left), ("r", right)):
                        out = rec1(ctx + (IFormula(r, branch),),
                                   lambda p, s=side: b_add_neg(p, r, a, s))
                        if out:
                            return out
            case MConj(u, left, right):
                if u.contains(r):
                    for mask in range(1 << len(ctx)):
                        g1 = tuple(c for k, c in enumerate(ctx) if mask & (1 << k))
                        g2 = tuple(c for k, c in enumerate(ctx) if not mask & (1 << k))
                        p1 = g1 + (IFormula(r, left),)
                        p2 = g2 + (IFormula(r, right),)
                        if not (_candidate_ok(p1, calc) and _candidate_ok(p2, calc)):
                            continue
                        s1 = _search(p1, calc, depth - 1, memo, fresh)
                        s2 = _search(p2, calc, depth - 1, memo, fresh) if s1 else None
                        if s1 and s2:
                            return b_mconj_pos(s1, s2, r, a)
                else:
                    out = rec1(ctx + (IFormula(r, left), IFormula(r, right)),
                               lambda p: b_mconj_neg(p, r, a))
                    if out:
                        return out
            case Impl(f, u, left, right):
                fl = IFormula(f.preimage(r), left)
                if u.contains(r):
                    for mask in range(1 << len(ctx)):
                        g1 = tuple(c for k, c in enumerate(ctx) if mask & (1 << k))
                        g2 = tuple(c for k, c in enumerate(ctx) if not mask & (1 << k))
                        p1 = g1 + (fl,)
                        p2 = g2 + (IFormula(r, right),)
                        if not (_candidate_ok(p1, calc) and _candidate_ok(p2, calc)):
                            continue
                        s1 = _search(p1, calc, depth - 1, memo, fresh)
                        s2 = _search(p2, calc, depth - 1, memo, fresh) if s1 else None
                        if s1 and s2:
                            return b_imp_pos(s1, s2, r, a)
                else:
                    out = rec1(ctx + (fl, IFormula(r, right)),
                               lambda p: b_imp_neg(p, r, a))
                    if out:
                        return out
            case Bang(u, body):
                if u.contains(r):
                    if all(_is_why_not(c) for c in ctx):
                        out = rec1(ctx + (IFormula(r, body),),
                                   lambda p: b_bang_pos(p, r, a))
                        if out:
                            return out
                else:
                    out = rec1(ctx + (IFormula(r, body),),
                               lambda p: b_bang_derelict(p, r, a))
                    if out:
                        return out
                    out = rec1(ctx, lambda p: b_weaken(p, it, calc))
                    if out:
                        return out
            case Forall(u, xv, body):
                if u.contains(r):
                    y = xv if xv not in seq_free_vars(ctx) else fresh(xv)
                    out = rec1(ctx + (IFormula(r, substitute(body, xv, Var(y))),),
                               lambda p: b_forall_pos(p, r, a, y))
                    if out:
                        return out
                else:
                    for t in _witness_candidates(items):
                        out = rec1(ctx + (IFormula(r, substitute(body, xv, t)),),
                                   lambda p, w=t: b_forall_neg(p, r, a, w))
                        if out:
                            return out
        if not linear:
            out = None
            if _candidate_ok(ctx, calc):
                p = _search(ctx, calc, depth - 1, memo, fresh)
                out = b_weaken(p, it, calc) if p is not None else None
            if out:
                return out
    return None


def _witness_candidates(items: Sequent) -> list[Term]:
    names: list[str] = []

    def walk(a: Formula):
        match a:
            case Atom(_, args):
                for t in args:
                    if t.name not in names:
                        names.append(t.name)
            case Neg(_, b) | Bang(_, b) | Forall(_, _, b):
                walk(b)
            case Conj(_, l, r) | AConj(_, l, r) | MConj(_, l, r) | Impl(_, _, l, r):
                walk(l)
                walk(r)

    for it in items:
        walk(it.formula)
    out: list[Term] = [Const(n) for n in names]
    out.append(Const("c0"))
    return out


def entailment(a: Formula, b: Formula, r: int, calc: Calculus,
               depth: int) -> Derivation | None:
    """Search for the witness |- <complement(R)>A, <R>B of A => B at R."""
    comp = rl.full_set(calc.n) & ~r
    return search((IFormula(comp, a), IFormula(r, b)), calc, depth)


# ----------------------------------------------------------------- JSON


def derivation_to_obj(d: Derivation) -> dict:
    texts: dict = {}  # each distinct formula is printed once per call

    def fmt(a: Formula) -> str:
        text = texts.get(a)
        if text is None:
            text = texts[a] = fmt_formula(a)
        return text

    return _to_obj(d, fmt)


def _to_obj(d: Derivation, fmt) -> dict:
    inst: dict = {}
    if d.principal is not None:
        inst["principal"] = d.principal
    if d.witness is not None:
        inst["witness"] = d.witness.name
        inst["witness_kind"] = "var" if isinstance(d.witness, Var) else "const"
    if d.eigen is not None:
        inst["eigen"] = d.eigen
    return {
        "rule": d.rule,
        "conclusion": [{"roles": rl.members(it.roles), "formula": fmt(it.formula)}
                       for it in d.conclusion],
        "inst": inst,
        "premises": [_to_obj(p, fmt) for p in d.premises],
    }


def derivation_to_json(d: Derivation, pretty: bool = False) -> str:
    return json.dumps(derivation_to_obj(d), indent=2 if pretty else None)


def derivation_from_obj(obj: dict, n: int | None = None) -> Derivation:
    formulas: dict = {}  # each distinct formula text is parsed once per call

    def parse(text: str) -> Formula:
        a = formulas.get(text)
        if a is None:
            a = formulas[text] = parse_formula(text, n)
        return a

    return _from_obj(obj, parse, n)


def _from_obj(obj, parse, n: int | None) -> Derivation:
    try:
        rule, conclusion = obj["rule"], obj["conclusion"]
        inst, premises = obj.get("inst", {}), obj.get("premises", [])
        principal, eigen = inst.get("principal"), inst.get("eigen")
    except KeyError as e:
        raise KernelError(f'derivation JSON has no "{e.args[0]}"') from None
    except (TypeError, AttributeError):
        raise KernelError('a derivation JSON node and its "inst" must be '
                          'objects') from None
    if not (isinstance(rule, str) and isinstance(premises, list)
            and (principal is None or type(principal) is int)
            and (eigen is None or isinstance(eigen, str))):
        raise KernelError('a derivation JSON node\'s "rule", "premises", '
                          '"principal" or "eigen" has the wrong type')
    witness = None
    if "witness" in inst:
        name = inst["witness"]
        if not isinstance(name, str):
            raise KernelError(f"derivation JSON node {rule}: the witness "
                              "must be a string")
        kind = inst.get("witness_kind", "const")
        witness = Var(name) if kind == "var" else Const(name)
    return Derivation(
        rule,
        sequent_from_obj(conclusion, parse, n),
        tuple(_from_obj(p, parse, n) for p in premises),
        principal,
        witness=witness,
        eigen=eigen,
    )


def derivation_from_json(text: str, n: int | None = None) -> Derivation:
    return derivation_from_obj(json.loads(text), n)
