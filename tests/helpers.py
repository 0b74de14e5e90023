"""Shared generators for the randomized test corpora.

All randomness flows through explicitly seeded random.Random instances so
every test is reproducible byte-for-byte.
"""

from __future__ import annotations

import gc
import inspect
import json
import random
import re
import sys
from collections import Counter

from multirole import kernel as K
from multirole import logic as lg
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
    IFormula,
    Impl,
    MConj,
    Neg,
    Var,
    free_vars,
    seq_equal,
    seq_free_vars,
    seq_minus,
    substitute,
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


def rand_binder_formula(rng: random.Random, sz: int, names=("x", "y", "x~1", "x~2")):
    """A random formula of at most sz connectives over all the connectives,
    whose atoms take variables and constants of a few names, free or bound
    by foralls of the same names: inputs where substitution must rename a
    binder, and where the names it picks are already taken."""
    u, f = Ultra(rng.randrange(2)), Endo((rng.randrange(2), rng.randrange(2)))
    c = rng.choice(["atom"] * 2 + ["neg", "conj", "imp", "aconj", "mconj", "bang"]
                   + ["forall"] * 3 if sz > 0 else ["atom"])
    if c == "atom":
        return Atom(rng.choice("pq"), tuple((Var if rng.random() < 0.8 else lg.Const)(
            rng.choice(names)) for _ in range(rng.randrange(3))))
    sub = lambda: rand_binder_formula(rng, sz - 1, names)
    if c in ("neg", "bang"):
        return Neg(f, sub()) if c == "neg" else Bang(u, sub())
    if c == "forall":
        return Forall(u, rng.choice(names), sub())
    if c == "imp":
        return Impl(f, u, sub(), sub())
    return {"conj": Conj, "aconj": AConj, "mconj": MConj}[c](u, sub(), sub())


def size_reference(a) -> int:
    """logic.size as a recursion over the formula's tree."""
    match a:
        case Atom():
            return 0
        case Neg(_, body) | Bang(_, body) | Forall(_, _, body):
            return 1 + size_reference(body)
        case Conj(_, l, r) | AConj(_, l, r) | MConj(_, l, r) | Impl(_, _, l, r):
            return 1 + size_reference(l) + size_reference(r)
    raise lg.FormulaError(f"not a formula: {a!r}")


def free_vars_reference(a) -> frozenset[str]:
    """logic.free_vars as a recursion over the formula's tree."""
    match a:
        case Atom(_, args):
            return frozenset(t.name for t in args if isinstance(t, Var))
        case Neg(_, body) | Bang(_, body):
            return free_vars_reference(body)
        case Forall(_, x, body):
            return free_vars_reference(body) - {x}
        case Conj(_, l, r) | AConj(_, l, r) | MConj(_, l, r) | Impl(_, _, l, r):
            return free_vars_reference(l) | free_vars_reference(r)
    raise lg.FormulaError(f"not a formula: {a!r}")


def substitute_reference(a, x: str, t):
    """logic.substitute as a recursion over the formula's tree: a binder y
    that would capture t becomes the smallest y~k not free in its body."""
    sub = lambda b: substitute_reference(b, x, t)
    match a:
        case Atom(label, args):
            return Atom(label, tuple(t if isinstance(s, Var) and s.name == x else s for s in args))
        case Neg(f, body):
            return Neg(f, sub(body))
        case Bang(u, body):
            return Bang(u, sub(body))
        case Conj(u, l, r) | AConj(u, l, r) | MConj(u, l, r):
            return type(a)(u, sub(l), sub(r))
        case Impl(f, u, l, r):
            return Impl(f, u, sub(l), sub(r))
        case Forall(u, y, body):
            if y == x:
                return a
            if isinstance(t, Var) and t.name == y and x in (fv := free_vars_reference(body)):
                stem, k = y.split("~")[0], 1
                while (z := f"{stem}~{k}") in fv or z == y:
                    k += 1
                return Forall(u, z, sub(substitute_reference(body, y, Var(z))))
            return Forall(u, y, sub(body))
    raise lg.FormulaError(f"not a formula: {a!r}")


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


def rand_sequent(rng: random.Random, pool: list, size: int) -> tuple:
    """size items drawn from pool with replacement, so items repeat."""
    return tuple(rng.choice(pool) for _ in range(size))


def counter_minus(a: tuple, b: tuple) -> tuple | None:
    """The oracle of logic.seq_minus, by Counter: None unless b is contained
    in a, else a with the last occurrences of b's items dropped."""
    drop = Counter(b)
    if drop - Counter(a):
        return None
    out = []
    for it in reversed(a):
        if drop[it]:
            drop[it] -= 1
        else:
            out.append(it)
    return tuple(reversed(out))


def counter_equal(a: tuple, b: tuple) -> bool:
    """The oracle of logic.seq_equal."""
    return Counter(a) == Counter(b)


# ---------------------------------------------------------- derivations


def deep_derivation(rules: int) -> K.Derivation:
    """An MRL(2) derivation `rules` rules tall: an (id) under weakenings and
    contractions of <{}>b, taken in turn."""
    calc = K.MRL(2)
    extra = IFormula(0, Atom("b"))
    d = K.b_weaken(K.b_id((IFormula(1, Atom("a")), IFormula(2, Atom("a")))), extra, calc)
    for k in range(rules - 2):
        d = K.b_weaken(d, extra, calc) if k % 2 == 0 else K.b_contract(d, extra, calc)
    return d


def shared_conj(k: int, extra: IFormula | None = None, a: Atom = Atom("a")) -> K.Derivation:
    """|- <{0,1}>C_k with C_0 = a and C_i+1 = C_i and C_i in MRL(2), plus the
    item extra weakened in at the top when given: a tree of 2^k leaves, and
    k + 1 (or k + 2) distinct nodes."""
    d = K.b_id((IFormula(3, a),))
    if extra is not None:
        d = K.b_weaken(d, extra, K.MRL(2))
    for _ in range(k):
        d = K.b_rule("conj-pos", (d, d), IFormula(3, Conj(rl.Ultra(0), a, a)))
        a = Conj(rl.Ultra(0), a, a)
    return d


def work_bound(monkeypatch, module, name: str, limit: int) -> list[int]:
    """Count the calls of module.name for the rest of the test, and fail the
    call past the limit-th, so a blow-up fails fast and does not hang."""
    calls = [0]
    f = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        if calls[0] > limit:
            raise AssertionError(f"{name} called more than {limit} times")
        return f(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


# --------------------------------------------- kernel reference oracles
#
# The kernel's per-rule checker and search from before its rule table,
# kept as differential oracles for K.check and K.search: each writes every
# rule out by hand.


def python_calls(f) -> tuple[object, int]:
    """f() and the Python calls it made: sys.setprofile's "call" events, one
    for each Python function entered and each generator resumed.  The
    collector stays off, since what it frees can call back into Python (the
    node table's weak references do)."""
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        out = f()
    finally:
        sys.setprofile(None)
        gc.enable()
    return out, calls[0]


def _introduced(roles_: int, a: MConj | Impl) -> tuple[IFormula, IFormula]:
    left = a.f.preimage(roles_) if isinstance(a, Impl) else roles_
    return IFormula(left, a.left), IFormula(roles_, a.right)


def _one_premise_is(d, path, expected) -> None:
    K._arity(d, path, 1)
    K._expect(seq_equal(d.premises[0].conclusion, expected), path,
              "rule {}: premise does not match schema", d.rule)


def _check_node_reference(d, calc, path, ok) -> None:
    expect = K._expect
    expect(d.rule in K._ALLOWED_RULES[calc.kind], path,
           "rule {} not available in {}", d.rule, calc.kind)
    full = (1 << calc.n) - 1
    for it in d.conclusion:
        expect(0 <= it.roles <= full, path, "role set outside universe")
        if it.formula not in ok:
            bad = K._formula_ok(it.formula, calc, ok)
            expect(bad is None, path, bad or "")
    if calc.kind == "mrlj":
        expect(K.is_intuitionistic(d.conclusion, calc.j), path,
               "sequent is not J-intuitionistic")

    if d.rule == "id":
        K._arity(d, path, 0)
        expect(len(d.conclusion) >= 1, path, "(id) needs at least one i-formula")
        first = d.conclusion[0].formula
        expect(isinstance(first, Atom), path, "(id) items must be primitive")
        for it in d.conclusion:
            expect(it.formula == first, path, "(id) items must share one primitive formula")
        expect(rl.partition_check([it.roles for it in d.conclusion], calc.n),
               path, "(id) role sets must partition the universe")
        return

    item = K._principal_item(d, path)
    ctx = K._ctx(d)
    roles_ = item.roles
    a = item.formula

    match d.rule:
        case "weaken":
            _one_premise_is(d, path, ctx)
        case "contract":
            K._arity(d, path, 1)
            expect(seq_equal(d.premises[0].conclusion, d.conclusion + (item,)),
                   path, "(contract): premise must hold one extra copy")
        case "neg":
            expect(isinstance(a, Neg), path, "(neg) principal must be a negation")
            _one_premise_is(d, path, ctx + (IFormula(a.f.preimage(roles_), a.body),))
        case "conj-neg-l" | "aconj-neg-l":
            expect(isinstance(a, (Conj, AConj)), path, "principal must be additive conjunction")
            expect(not a.u.contains(roles_), path, "({}) needs R not in U", d.rule)
            _one_premise_is(d, path, ctx + (IFormula(roles_, a.left),))
        case "conj-neg-r" | "aconj-neg-r":
            expect(isinstance(a, (Conj, AConj)), path, "principal must be additive conjunction")
            expect(not a.u.contains(roles_), path, "({}) needs R not in U", d.rule)
            _one_premise_is(d, path, ctx + (IFormula(roles_, a.right),))
        case "conj-pos" | "aconj-pos":
            expect(isinstance(a, (Conj, AConj)), path, "principal must be additive conjunction")
            expect(a.u.contains(roles_), path, "({}) needs R in U", d.rule)
            K._arity(d, path, 2)
            expect(seq_equal(d.premises[0].conclusion, ctx + (IFormula(roles_, a.left),)),
                   path, "({}): left premise mismatch", d.rule)
            expect(seq_equal(d.premises[1].conclusion, ctx + (IFormula(roles_, a.right),)),
                   path, "({}): right premise mismatch", d.rule)
        case "mconj-neg" | "mconj-pos" | "imp-neg" | "imp-pos":
            if d.rule.startswith("imp"):
                expect(isinstance(a, Impl), path, "principal must be implication")
            else:
                expect(isinstance(a, MConj), path, "principal must be multiplicative conjunction")
            new_l, new_r = _introduced(roles_, a)
            if d.rule.endswith("-neg"):
                expect(not a.u.contains(roles_), path, "({}) needs R not in U", d.rule)
                _one_premise_is(d, path, ctx + (new_l, new_r))
            else:
                expect(a.u.contains(roles_), path, "({}) needs R in U", d.rule)
                K._arity(d, path, 2)
                g1 = seq_minus(d.premises[0].conclusion, (new_l,))
                g2 = seq_minus(d.premises[1].conclusion, (new_r,))
                expect(g1 is not None and g2 is not None, path,
                       "({}): premises missing the introduced i-formulas", d.rule)
                expect(seq_equal(g1 + g2, ctx), path,
                       "({}): context split does not reassemble the conclusion", d.rule)
        case "bang-pos":
            expect(isinstance(a, Bang), path, "principal must be of ! shape")
            expect(a.u.contains(roles_), path, "(bang-pos) needs R in U")
            for it in ctx:
                expect(K._is_why_not(it), path,
                       "(bang-pos) context must consist of <R'>!_U' B' with R' not in U'")
            _one_premise_is(d, path, ctx + (IFormula(roles_, a.body),))
        case "bang-neg-weaken":
            expect(isinstance(a, Bang), path, "principal must be of ! shape")
            expect(not a.u.contains(roles_), path, "(bang-neg-weaken) needs R not in U")
            _one_premise_is(d, path, ctx)
        case "bang-neg-derelict":
            expect(isinstance(a, Bang), path, "principal must be of ! shape")
            expect(not a.u.contains(roles_), path, "(bang-neg-derelict) needs R not in U")
            _one_premise_is(d, path, ctx + (IFormula(roles_, a.body),))
        case "bang-neg-contract":
            expect(isinstance(a, Bang), path, "principal must be of ! shape")
            expect(not a.u.contains(roles_), path, "(bang-neg-contract) needs R not in U")
            K._arity(d, path, 1)
            expect(seq_equal(d.premises[0].conclusion, d.conclusion + (item,)),
                   path, "(bang-neg-contract): premise must hold one extra copy")
        case "forall-neg":
            expect(isinstance(a, Forall), path, "principal must be universal")
            expect(not a.u.contains(roles_), path, "(forall-neg) needs R not in U")
            expect(d.witness is not None, path, "(forall-neg) needs a witness term")
            body = substitute(a.body, a.var, d.witness)
            _one_premise_is(d, path, ctx + (IFormula(roles_, body),))
        case "forall-pos":
            expect(isinstance(a, Forall), path, "principal must be universal")
            expect(a.u.contains(roles_), path, "(forall-pos) needs R in U")
            y = d.eigen if d.eigen is not None else a.var
            expect(y not in seq_free_vars(ctx), path,
                   "(forall-pos) eigenvariable occurs free in the context")
            expect(y == a.var or y not in (free_vars(a.body) - {a.var}), path,
                   "(forall-pos) eigenvariable captured in the body")
            body = substitute(a.body, a.var, Var(y))
            _one_premise_is(d, path, ctx + (IFormula(roles_, body),))
        case _:
            raise K.CheckError(path, f"unknown rule {d.rule}")


def check_reference(d: K.Derivation, calc) -> None:
    """K.check by the per-rule checker: raise the same CheckError."""
    ok: set = set()
    seen: set = set()
    stack = [(d, ())]
    while stack:
        node, at = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        _check_node_reference(node, calc, at, ok)
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((node.premises[i], at + (i,)))


def search_reference(items, calc, depth: int):
    """K.search by the per-connective search: the same derivation or None."""
    items = tuple(items)
    fresh = lg.FreshNames(lambda: lg.names_in(it.formula for it in items))
    return _search_reference(items, calc, depth, {}, fresh)


def _search_reference(items, calc, depth, memo, fresh):
    if depth <= 0:
        return None
    key = frozenset(lg.seq_counts(items).items())
    known = memo.get(key)
    if known is not None:
        found, tried = known
        if found is not None:
            return found
        if tried >= depth:
            return None
    out = _search_raw_reference(items, calc, depth, memo, fresh)
    memo[key] = (out, depth)
    return out


def _search_raw_reference(items, calc, depth, memo, fresh):
    if items and isinstance(items[0].formula, Atom):
        a0 = items[0].formula
        if all(it.formula == a0 for it in items) \
                and rl.partition_check([it.roles for it in items], calc.n):
            return K.b_id(items)

    def ok(premise):
        return calc.kind != "mrlj" or K.is_intuitionistic(premise, calc.j)

    def sub(premise):
        return _search_reference(premise, calc, depth - 1, memo, fresh)

    for i, it in enumerate(items):
        ctx = items[:i] + items[i + 1 :]
        r = it.roles
        a = it.formula

        def rec1(premise, build):
            if not ok(premise):
                return None
            p = sub(premise)
            return build(p) if p is not None else None

        def rule1(rule, premise, **instance):
            return rec1(premise, lambda p: K.b_rule(rule, (p,), it, **instance))

        out = None
        match a:
            case Neg(f, body):
                out = rule1("neg", ctx + (IFormula(f.preimage(r), body),))
            case Conj(u, left, right) | AConj(u, left, right):
                base = "aconj" if isinstance(a, AConj) else "conj"
                if u.contains(r):
                    p1, p2 = ctx + (IFormula(r, left),), ctx + (IFormula(r, right),)
                    if ok(p1) and ok(p2):
                        s1 = sub(p1)
                        s2 = sub(p2) if s1 else None
                        if s1 and s2:
                            return K.b_rule(f"{base}-pos", (s1, s2), it)
                else:
                    out = rule1(f"{base}-neg-l", ctx + (IFormula(r, left),)) \
                        or rule1(f"{base}-neg-r", ctx + (IFormula(r, right),))
            case MConj(u, _, _) | Impl(_, u, _, _):
                base = "imp" if isinstance(a, Impl) else "mconj"
                new_l, new_r = _introduced(r, a)
                if u.contains(r):
                    for mask in range(1 << len(ctx)):
                        g1 = tuple(c for k, c in enumerate(ctx) if mask & (1 << k))
                        g2 = tuple(c for k, c in enumerate(ctx) if not mask & (1 << k))
                        p1, p2 = g1 + (new_l,), g2 + (new_r,)
                        if not (ok(p1) and ok(p2)):
                            continue
                        s1 = sub(p1)
                        s2 = sub(p2) if s1 else None
                        if s1 and s2:
                            return K.b_rule(f"{base}-pos", (s1, s2), it)
                else:
                    out = rule1(f"{base}-neg", ctx + (new_l, new_r))
            case Bang(u, body):
                if u.contains(r):
                    if all(K._is_why_not(c) for c in ctx):
                        out = rule1("bang-pos", ctx + (IFormula(r, body),))
                else:
                    out = rule1("bang-neg-derelict", ctx + (IFormula(r, body),)) \
                        or rec1(ctx, lambda p: K.b_weaken(p, it, calc))
            case Forall(u, xv, body):
                if u.contains(r):
                    y = xv if xv not in seq_free_vars(ctx) else fresh(xv)
                    out = rule1("forall-pos", ctx + (IFormula(r, substitute(body, xv, Var(y))),),
                                eigen=y)
                else:
                    for t in K._witness_candidates(items):
                        out = rule1("forall-neg", ctx + (IFormula(r, substitute(body, xv, t)),),
                                    witness=t)
                        if out:
                            break
        if out:
            return out
        if not calc.linear:
            out = rec1(ctx, lambda p: K.b_weaken(p, it, calc))
            if out:
                return out
    return None


# The kernel's derivation JSON writer and reader from before they handled
# each distinct conclusion item once, kept as differential oracles for
# K.derivation_to_obj and K.derivation_from_obj.


def derivation_to_obj_reference(d: K.Derivation) -> dict:
    formulas = lg.FormulaTable()
    nodes: list = []
    nindex: dict = {}
    members: dict = {}

    def add_node(node: K.Derivation) -> int:
        conclusion = []
        for it in node.conclusion:
            roles_ = members.get(it.roles)
            if roles_ is None:
                roles_ = members[it.roles] = rl.members(it.roles)
            conclusion.append([roles_, formulas.index(it.formula)])
        entry: dict = {"rule": node.rule, "conclusion": conclusion}
        if node.premises:
            entry["premises"] = [nindex[p] for p in node.premises]
        if node.principal is not None:
            entry["principal"] = node.principal
        if node.witness is not None:
            entry["witness"] = formulas.index(node.witness)
        if node.eigen is not None:
            entry["eigen"] = node.eigen
        nodes.append(entry)
        return len(nodes) - 1

    stack = [d]
    while stack:  # a postorder, premises first and left to right
        node = stack[-1]
        if node in nindex:
            stack.pop()
            continue
        todo = [p for p in node.premises if p not in nindex]
        if todo:
            stack += reversed(todo)
            continue
        stack.pop()
        nindex[node] = add_node(node)
    return {"formulas": formulas.entries, "nodes": nodes, "root": nindex[d]}


def derivation_from_obj_reference(obj, n: int | None = None) -> K.Derivation:
    if not isinstance(obj, dict):
        raise K.KernelError("derivation JSON must be an object")
    try:
        formulas, nodes, root = obj["formulas"], obj["nodes"], obj["root"]
    except KeyError as e:
        raise K.KernelError(f'derivation JSON has no "{e.args[0]}"') from None
    if not isinstance(nodes, list):
        raise K.KernelError('a derivation JSON\'s "nodes" must be an array')
    syntax = lg.formulas_from_table(formulas, n)
    built: list = []
    for entry in nodes:
        built.append(_node_entry_reference(entry, syntax, built, n))
    if not (type(root) is int and 0 <= root < len(built)):
        raise K.KernelError(f"derivation JSON root {root!r} is not a node index")
    return built[root]


def _node_entry_reference(entry, syntax: list, built: list, n: int | None) -> K.Derivation:
    k = len(built)
    if not isinstance(entry, dict):
        raise K.KernelError(f"derivation JSON node {k} must be an object")
    try:
        rule, conclusion = entry["rule"], entry["conclusion"]
    except KeyError as e:
        raise K.KernelError(f'derivation JSON node {k} has no "{e.args[0]}"') from None
    premises = entry.get("premises", [])
    principal, witness, eigen = entry.get("principal"), entry.get("witness"), entry.get("eigen")
    if not (isinstance(rule, str) and isinstance(conclusion, list)
            and (principal is None or type(principal) is int)
            and (eigen is None or isinstance(eigen, str))):
        raise K.KernelError(f'derivation JSON node {k}: its "rule", "conclusion", '
                            '"principal" or "eigen" has the wrong type')
    if not (isinstance(premises, list) and all(type(p) is int and 0 <= p < k for p in premises)):
        raise K.KernelError(f'derivation JSON node {k}: "premises" must list earlier nodes')
    if witness is not None:
        if not (type(witness) is int and 0 <= witness < len(syntax)
                and isinstance(syntax[witness], lg.Term)):
            raise K.KernelError(f"derivation JSON node {k}: the witness must be a term entry")
        witness = syntax[witness]
    items = []
    for item in conclusion:
        if not (isinstance(item, list) and len(item) == 2 and type(item[1]) is int
                and 0 <= item[1] < len(syntax) and not isinstance(syntax[item[1]], lg.Term)):
            raise lg.FormulaError(f"derivation JSON node {k}: a conclusion item must be "
                                  "[roles, formula entry]")
        items.append(IFormula(lg.roles_from_obj(item[0], n), syntax[item[1]]))
    return K.Derivation(rule, items, [built[p] for p in premises], principal, witness, eigen)


def mp_cut_fold(ds: list, indices: list[int], calc) -> K.Derivation:
    """The multiparty cut as a fold: residual 2-cuts of each premise into the
    ones before it, then a 1-cut of the last residual, <{}>A.  A
    differential oracle for K.mp_cut, which cuts all premises at once; its
    later stages cut earlier cut outputs."""
    acc, i = ds[0], indices[0]
    for d, j in zip(ds[1:], indices[1:]):
        occ, oc = acc.conclusion[i], d.conclusion[j]
        acc = K.cut2_residual(acc, i, d, j, calc)
        i = acc.conclusion.index(IFormula(occ.roles & oc.roles, occ.formula))
    return K.cut1(acc, i, calc)


def rand_cut_output(rng: random.Random, calc) -> K.Derivation | None:
    """axiom_multi on a random formula of calc, cut by one of the four cut
    entry points (or left uncut); None where mrlj has no such derivation."""
    n, full = calc.n, rl.full_set(calc.n)
    a = rand_formula(rng, calc, n, rng.randrange(5))
    how = rng.choice(["axiom", "cut1", "cut2_residual", "mp_cut", "split_roles"])
    try:
        if how == "axiom":
            return K.axiom_multi(a, rand_partition(rng, n, rng.choice([1, 2, 3])), calc)
        if how == "cut1":
            d = K.axiom_multi(a, [0, full], calc)
            return K.cut1(d, d.conclusion.index(IFormula(0, a)), calc)
        if how == "cut2_residual":
            r1 = rng.randrange(1, full) if full > 1 else 1
            r2 = (full & ~r1) | (rng.randrange(1 << n) & r1)
            d1 = K.axiom_multi(a, [r1, full & ~r1], calc)
            d2 = K.axiom_multi(a, [r2, full & ~r2], calc)
            return K.cut2_residual(d1, d1.conclusion.index(IFormula(r1, a)),
                                   d2, d2.conclusion.index(IFormula(r2, a)), calc)
        if how == "mp_cut":
            comps = rand_partition(rng, n, rng.choice([2, 3]))
            ds = [K.axiom_multi(a, [full & ~c, c], calc) for c in comps]
            return K.mp_cut(ds, [d.conclusion.index(IFormula(full & ~c, a))
                                 for d, c in zip(ds, comps)], calc)
        r, rest = rand_partition(rng, n, 2)
        sub = rng.randrange(1 << n) & r
        d = K.axiom_multi(a, [r, rest], calc)
        return K.split_roles(d, d.conclusion.index(IFormula(r, a)), sub, r & ~sub, calc)
    except K.KernelError:
        if calc.j is None:
            raise
        return None  # an mrlj split with no J order


def malformed_tables() -> list[tuple[str, object]]:
    """Derivation files in the table format, each broken in one place, and
    files in other shapes: (what is broken, the file's JSON value)."""
    a = Forall(Ultra(0), "x", Atom("p", (Var("x"),)))
    base = K.derivation_to_obj(K.axiom_multi(a, [1, 2], K.LMRL(2)))
    # formulas: 0 var x, 1 atom p(x), 2 forall; nodes: 0 id, 1 forall-neg, 2 forall-pos
    assert [f[0] for f in base["formulas"]] == ["var", "atom", "forall"]
    assert [n["rule"] for n in base["nodes"]] == ["id", "forall-neg", "forall-pos"]
    cases = [
        ("premise is a later node", "nodes", 1, "premises", [2]),
        ("premise is the node itself", "nodes", 1, "premises", [1]),
        ("premise index is negative", "nodes", 1, "premises", [-1]),
        ("premise index is a bool", "nodes", 1, "premises", [True]),
        ("premises is not a list", "nodes", 1, "premises", 0),
        ("principal is a string", "nodes", 1, "principal", "1"),
        ("principal is a bool", "nodes", 1, "principal", True),
        ("rule is not a string", "nodes", 0, "rule", ["id"]),
        ("eigen is not a string", "nodes", 2, "eigen", 5),
        ("witness is a name", "nodes", 1, "witness", "x"),
        ("witness is a formula entry", "nodes", 1, "witness", 1),
        ("witness is past the table", "nodes", 1, "witness", 3),
        ("conclusion is not a list", "nodes", 0, "conclusion", {"roles": [0]}),
        ("conclusion item is an object", "nodes", 0, "conclusion",
         [{"roles": [0], "formula": 1}, [[1], 1]]),
        ("conclusion formula is text", "nodes", 0, "conclusion", [[[0], "p"], [[1], 1]]),
        ("conclusion formula is past the table", "nodes", 0, "conclusion",
         [[[0], 3], [[1], 1]]),
        ("conclusion formula is a term", "nodes", 0, "conclusion", [[[0], 0], [[1], 1]]),
        ("role outside the universe", "nodes", 0, "conclusion", [[[64], 1], [[1], 1]]),
        ("roles is not a list", "nodes", 0, "conclusion", [[0, 1], [[1], 1]]),
        ("unknown head", "formulas", 1, 0, "frob"),
        ("head is not a string", "formulas", 1, 0, 7),
        ("formula child is a later entry", "formulas", 2, 3, 2),
        ("formula child is a term", "formulas", 2, 3, 0),
        ("atom argument is a formula", "formulas", 1, 2, 1),
        ("atom label is not a string", "formulas", 1, 1, 3),
        ("ultrafilter outside the universe", "formulas", 2, 1, 64),
        ("ultrafilter is text", "formulas", 2, 1, "@0"),
        ("variable name is not a string", "formulas", 0, 1, None),
    ]
    out = []
    for name, table, k, field, value in cases:
        obj = json.loads(json.dumps(base))
        obj[table][k][field] = value
        out.append((name, obj))
    out += [
        ("node is a list", dict(base, nodes=[["id", []]])),
        ("node has no rule", dict(base, nodes=[{"conclusion": []}])),
        ("formula entry is empty", dict(base, formulas=[[]])),
        ("formula entry lacks a field", dict(base, formulas=[["forall", 0, "x"]])),
        ("endo outside the universe", dict(base, formulas=[["atom", "a"], ["not", [0, 5], 0]])),
        ("endo is not a list", dict(base, formulas=[["atom", "a"], ["not", "[0,1]", 0]])),
        ("endo is empty", dict(base, formulas=[["atom", "a"], ["not", [], 0]])),
        ("formulas is not a list", dict(base, formulas={})),
        ("root is past the table", dict(base, root=3)),
        ("root is a string", dict(base, root="2")),
        ("no root", {"formulas": base["formulas"], "nodes": base["nodes"]}),
        ("no formulas", {"nodes": base["nodes"], "root": 2}),
    ]
    for name, roles in (("role is a bool", [True]), ("role listed twice", [0, 0])):
        obj = json.loads(json.dumps(base))
        obj["nodes"][0]["conclusion"] = [[roles, 1], [[1], 1]]
        out.append((name, obj))
    out += [
        ("the file is an array", [base["formulas"], base["nodes"], base["root"]]),
        ("an object in the old nested shape", {  # nodes holding premises and texts
            "rule": "id", "inst": {}, "premises": [],
            "conclusion": [{"roles": [0], "formula": "a"}, {"roles": [1], "formula": "a"}]}),
    ]
    return out


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
    {"roles": [True], "formula": "a"},
    {"roles": [0, 0], "formula": "a"},
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


def next_actions_match(s, roleset: int) -> sn.Action:
    """session.next_actions as a chain of match cases, the form it had before
    its rules were put in a table keyed by node class; the reference for
    that table."""

    def holds(r: int) -> bool:
        return bool(roleset & (1 << r))

    match s:
        case sn.Nil():
            return sn.Action("done")
        case sn.Append(_, _):
            return sn.Action("append")
        case sn.Msg(label, f, t, p):
            if holds(f) and not holds(t):
                return sn.Action("send", label, f, t, payload=p)
            if holds(t) and not holds(f):
                return sn.Action("recv", label, f, t, payload=p)
            return sn.Action("skip", label, f, t, payload=p)
        case sn.Bcast(label, f, p):
            if holds(f):
                return sn.Action("send", label, frm=f, payload=p)
            return sn.Action("recv", label, frm=f, payload=p)
        case sn.Gather(label, t, p):
            if holds(t):
                return sn.Action("recv", label, to=t, payload=p)
            return sn.Action("send", label, to=t, payload=p)
        case sn.SAConj(r, _, _) | sn.OptionT(r, _) | sn.Repseq(r, _) | sn.Repeat(r, _):
            return sn.Action("choose" if holds(r) else "offer", role=r)
        case sn.SMConj(r, _, _):
            return sn.Action("fork-conj" if holds(r) else "fork-disj", role=r)
    raise sn.SessionError(f"unknown session node {s!r}")


# The session text layer as it was before each pass became a loop: a
# recursive-descent reader, a role check that unions a set per node, a
# printer's part function that matches on the node, and a recursive encoder.
# The references for session.parse_session, check_session, fmt_session and
# encode_lmrl.


def roles_used_reference(s) -> set[int]:
    match s:
        case sn.Msg(_, f, t, _):
            return {f, t}
        case sn.Bcast(_, f, _):
            return {f}
        case sn.Gather(_, t, _):
            return {t}
        case sn.Nil():
            return set()
        case sn.Append(a, b):
            return roles_used_reference(a) | roles_used_reference(b)
        case sn.SMConj(r, a, b) | sn.SAConj(r, a, b):
            return {r} | roles_used_reference(a) | roles_used_reference(b)
        case sn.OptionT(r, a) | sn.Repseq(r, a) | sn.Repeat(r, a):
            return {r} | roles_used_reference(a)
    raise sn.SessionError(f"unknown session node {s!r}")


def check_session_reference(s, n: int) -> None:
    bad = [r for r in roles_used_reference(s) if not 0 <= r < n]
    if bad:
        raise sn.SessionError(f"roles {sorted(bad)} outside universe of {n}")


def fmt_session_reference(s) -> str:
    return lg._unfold([s], _session_parts_reference)


def _session_parts_reference(s) -> list:
    def atom(label: str, parts: list, payload: str) -> list:
        if payload != "unit":
            parts = parts + [payload]
        return [f"{label}({', '.join(str(p) for p in parts)})"]

    match s:
        case sn.Msg(label, f, t, p):
            return atom(label, [f, t], p)
        case sn.Bcast(label, f, p):
            return atom(label, [f], p)
        case sn.Gather(label, t, p):
            if p == "unit" and label not in sn.PAYLOADS:
                return [f"gather({t}, {label})"]
            return [f"gather({t}, {label}, {p})"]
        case sn.Nil():
            return ["nil"]
        case sn.Append(a, b):
            if isinstance(a, sn.Append):
                return ["(", a, ")@", b]
            return [a, "@", b]
        case sn.SMConj(r, a, b) | sn.SAConj(r, a, b):
            return [f"{sn._NAMES[type(s)]}({r}, ", a, ", ", b, ")"]
        case sn.OptionT(r, a) | sn.Repseq(r, a) | sn.Repeat(r, a):
            return [f"{sn._NAMES[type(s)]}({r}, ", a, ")"]
    raise sn.SessionError(f"unknown session node {s!r}")


_SESSION_TOKEN = re.compile(r"\(|\)|@|,|[A-Za-z_][A-Za-z0-9_]*|\d+|\S")


class _SessionReader:
    def __init__(self, text: str):
        self.toks = _SESSION_TOKEN.findall(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise sn.SessionError("unexpected end of session expression")
        self.i += 1
        return t

    def expect(self, t):
        got = self.next()
        if got != t:
            raise sn.SessionError(f"expected {t!r}, got {got!r}")

    def role(self) -> int:
        t = self.next()
        if not t.isdecimal():
            raise sn.SessionError(f"expected a role number, got {t!r}")
        return int(t)

    def session(self):
        left = self.atomish()
        if self.peek() == "@":
            self.next()
            return sn.Append(left, self.session())  # right-associative
        return left

    def atomish(self):
        t = self.next()
        if t == "(":
            s = self.session()
            self.expect(")")
            return s
        if t == "nil":
            return sn.Nil()
        cls = sn._COMBINATORS.get(t)
        if cls is not None:
            self.expect("(")
            r = self.role()
            self.expect(",")
            a = self.session()
            if cls in (sn.SMConj, sn.SAConj):
                self.expect(",")
                b = self.session()
                self.expect(")")
                return cls(r, a, b)
            self.expect(")")
            return cls(r, a)
        if not sn._IDENT.fullmatch(t):
            raise sn.SessionError(f"unexpected token {t!r}")
        label = t
        self.expect("(")
        args: list[str] = [self.next()]
        while self.peek() == ",":
            self.next()
            args.append(self.next())
        self.expect(")")
        payload = "unit"
        if args and args[-1] in sn.PAYLOADS:
            payload = args.pop()
        if label == "gather" and len(args) == 2 and args[0].isdecimal() \
                and sn._IDENT.fullmatch(args[1]):
            return sn.Gather(args[1], int(args[0]), payload)
        if not args or not all(a.isdecimal() for a in args) or len(args) > 2:
            raise sn.SessionError(f"bad argument list for atom {label}")
        if len(args) == 1:
            return sn.Bcast(label, int(args[0]), payload)
        return sn.Msg(label, int(args[0]), int(args[1]), payload)


def parse_session_reference(text: str, n: int | None = None):
    p = _SessionReader(text)
    s = p.session()
    if p.peek() is not None:
        raise sn.SessionError(f"trailing input at token {p.peek()!r}")
    if n is not None:
        check_session_reference(s, n)
    return s


def atom_label_reference(s) -> str:
    suffix = "" if s.payload == "unit" else f":{s.payload}"
    match s:
        case sn.Msg(label, f, t, _):
            return f"{label}:{f}:{t}{suffix}"
        case sn.Bcast(label, f, _):
            return f"{label}:{f}:*{suffix}"
        case sn.Gather(label, t, _):
            return f"{label}:*:{t}{suffix}"


def encode_lmrl_reference(s, unroll: int = 0):
    enc = lambda x, k=unroll: encode_lmrl_reference(x, k)
    match s:
        case sn.Msg() | sn.Bcast() | sn.Gather():
            return Atom(atom_label_reference(s))
        case sn.Nil():
            return Atom("nil")
        case sn.Append(a, b):
            return MConj(rl.Ultra(0), enc(a), enc(b))
        case sn.SMConj(r, a, b):
            return MConj(rl.Ultra(r), enc(a), enc(b))
        case sn.SAConj(r, a, b):
            return AConj(rl.Ultra(r), enc(a), enc(b))
        case sn.OptionT(r, a):
            return AConj(rl.Ultra(r), enc(a), Atom("nil"))
        case sn.Repseq(r, a):
            if unroll == 0:
                return Atom("nil")
            return AConj(rl.Ultra(r), MConj(rl.Ultra(0), enc(a), enc(s, unroll - 1)),
                         Atom("nil"))
        case sn.Repeat(r, a):
            return Bang(rl.Ultra(r), enc(a))
    raise sn.SessionError(f"unknown session node {s!r}")


class RescanPool(rt.Pool):
    """A pool that finds runnable threads and the channel to fire by scanning
    the live pool on every event, as Pool.run did before its ready list and
    candidate heap; the reference for both."""

    def _runnable(self) -> list[rt.Thread]:
        runnable = [t for t in self.active_threads.values() if t.block is None]
        self.rng.shuffle(runnable)
        return runnable

    def _matching_set(self):
        blocked = self._blocked
        for cid in sorted({t.block.ep.channel.cid for t in blocked.values()}):
            ch = self.open_channels.get(cid)
            if ch is None:
                continue
            eps = [e for e in ch.endpoints if e.live]
            if all(e.eid in blocked for e in eps):
                return ch, [(e, blocked[e.eid], blocked[e.eid].block) for e in eps]
        return None


class Registry:
    """Every thread and channel a pool makes, recorded as Pool.add_thread and
    Pool.new_channel make them, finished or not: the record of a run's
    history the pool itself does not keep.  Installed on a pool that already
    has threads, it starts from the pool's live dicts, which hold everything
    made so far as long as nothing has finished (its counters must agree)."""

    def __init__(self, pool: rt.Pool):
        self.threads = dict(pool.active_threads)
        self.channels = {**pool.open_channels, **pool._finished}
        assert (len(self.threads), len(self.channels)) \
            == (pool._next_tid, pool._next_cid), "installed after something finished"
        add_thread, new_channel = pool.add_thread, pool.new_channel

        def recorded_thread(make_gen, regs=None):
            t = add_thread(make_gen, regs)
            self.threads[t.tid] = t
            return t

        def recorded_channel(cursor):
            ch = new_channel(cursor)
            self.channels[ch.cid] = ch
            return ch

        pool.add_thread, pool.new_channel = recorded_thread, recorded_channel


def _ended(t: rt.Thread) -> bool:
    """Whether thread t has returned, as its generator, not the pool, says."""
    return inspect.getgeneratorstate(t.gen) == inspect.GEN_CLOSED


def recount_every_event(pool: rt.Pool) -> rt.Pool:
    """After every event of the pool, recount the live pool from a Registry
    of everything it made and compare it with the pool's counters and audit
    entry."""
    event = pool._event
    made = Registry(pool)

    def checked(ev):
        event(ev)
        threads = sum(not _ended(t) for t in made.threads.values())
        chans = [c for c in made.channels.values() if c.live and c.cursor]
        eps = sum(e.live for c in chans for e in c.endpoints)
        assert (pool.live_threads(), pool.live_channels(), pool.live_endpoints()) \
            == (threads, len(chans), eps)
        assert pool.audit_log[-1] == \
            (pool.step_no, eps == 0 or threads + len(chans) >= eps + 1)
        for c in made.channels.values():
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
#
# Capture-avoiding substitution, for the substitution stepper and the
# declarative checker below; the calculus itself never substitutes.


def free_evars(e: Expr) -> frozenset[str]:
    """The free variables of an expression, built without recursion; a node
    shared within it is visited once."""
    free: dict[int, frozenset] = {}
    stack = [e]
    while stack:
        node = stack[-1]
        cls = type(node)
        if cls not in M._SHAPE:
            free[id(node)] = frozenset((node.name,)) if cls is EVar else frozenset()
            stack.pop()
            continue
        kids = M._SHAPE[cls][0](node)
        todo = [k for k in kids if id(k) not in free]
        if todo:
            stack += todo
            continue
        stack.pop()
        sets = [free[id(k)] for k in kids]
        if cls in M._BINDS:  # a binder binds in its last child
            sets[-1] = sets[-1].difference(M._BINDS[cls](node))
        free[id(node)] = frozenset().union(*sets)
    return free[id(e)]


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


_SUBST = M._Rules(_subst_unknown, {
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

def _avoid(x: str, body: Expr, delta) -> tuple[str, Expr]:
    """Alpha-rename a binder that would shadow a linear-context entry;
    otherwise the shadowed resource could be dropped unnoticed.  The new name
    is the smallest ``x~k`` not free in the body and not in the context."""
    if x in delta:
        x2 = _fresh(x, free_evars(body) | delta.keys())
        return x2, esubst(body, x, EVar(x2))
    return x, body


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
                return M.typecheck(e, gamma, {}, n)
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
                if x1 == x2:
                    raise MtlcTypeError("ty-let", f"let binds {x1} twice")
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
                    if (t := M._join(t1, t2)) is not None:
                        return t
                    errs = MtlcTypeError("ty-if", f"{t1} vs {t2}")
                raise errs or MtlcTypeError("ty-split", "no valid context split")
            case EFix(x, tx, v):
                if d:
                    raise MtlcTypeError("ty-fix", "leftover linear context")
                return M.typecheck(e, gamma, {}, n)
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
    also compared with a recount of every unfinished thread in a Registry of
    every thread made, and the pool's incremental count (which holds no
    zero entry) and its verdict with pool_rho and res_ok.  Returns (result,
    final value, steps checked)."""
    steps = [0]

    def hook(pool, mt):
        M.retype_thread(pool, mt)
        recount = Counter()
        for t in made.threads.values():
            if not _ended(t) and t.mtlc is not None:
                recount += rho_recount(t.mtlc.expr)
        assert M.pool_rho(pool) == recount, f"step {pool.step_no}"
        # as dicts, so an entry left at zero counts as a difference
        assert dict(mt.holders) == dict(recount), f"step {pool.step_no}"
        assert (mt.holders.shared == 0) == M.res_ok(pool), f"step {pool.step_no}"
        steps[0] += 1

    pool = rt.Pool(n, seed=seed)
    made = Registry(pool)
    mt = M.MtlcThread(pool, expr, hook, expected=M.typecheck(expr, n=n))
    res = pool.run()
    return res, mt.expr, steps[0]


# ------------------------------------------------ mtlc substitution stepper
#
# The stepper mtlc ran before its environment machine: find the leftmost
# redex, contract it, substitute into the rest of the expression and rebuild
# it.  Each step costs the size of the whole expression.  It is the oracle
# the machine's traces, values and per-step states are compared with.


def _decompose(e: Expr):
    """Find the leftmost redex; returns (redex, rebuild) or None for values."""
    return _DECOMPOSE[type(e)](e)


# The decomposition rules look for a redex in a node's parts first, left to right.
def _decompose_pair(e):
    a, b = e.left, e.right
    if got := _DECOMPOSE[type(a)](a):
        r, rb = got
        return r, lambda v: type(e)(rb(v), b)
    if got := _DECOMPOSE[type(b)](b):
        r, rb = got
        return r, lambda v: type(e)(a, rb(v))
    return None


def _decompose_app(e):
    f, a = e.fun, e.arg
    if got := _DECOMPOSE[type(f)](f):
        r, rb = got
        return r, lambda v: EApp(rb(v), a)
    if got := _DECOMPOSE[type(a)](a):
        r, rb = got
        return r, lambda v: EApp(f, rb(v))
    return e, lambda v: v


def _decompose_const(e):
    name, args = e.name, e.args
    for i, a in enumerate(args):
        if got := _DECOMPOSE[type(a)](a):
            r, rb = got
            return r, lambda v: EConst(name, args[:i] + (rb(v),) + args[i + 1:])
    return e, lambda v: v


def _decompose_proj(e):
    b = e.body
    if got := _DECOMPOSE[type(b)](b):
        r, rb = got
        return r, lambda v: type(e)(rb(v))
    return e, lambda v: v


def _decompose_let(e):
    p = e.pair
    if got := _DECOMPOSE[type(p)](p):
        r, rb = got
        return r, lambda v: ELet(e.x1, e.x2, rb(v), e.body)
    return e, lambda v: v


def _decompose_if(e):
    c = e.cond
    if got := _DECOMPOSE[type(c)](c):
        r, rb = got
        return r, lambda v: EIf(rb(v), e.then, e.els)
    return e, lambda v: v


def _decompose_var(e):
    raise M.StuckNonRedex(f"free variable {e.name}")


def _decompose_unknown(e):
    raise M.StuckNonRedex(f"cannot decompose {e!r}")


_DECOMPOSE = M._Rules(_decompose_unknown, {
    **dict.fromkeys(M._VALUE_LEAVES, lambda e: None),
    EVar: _decompose_var, EPair: _decompose_pair, ELPair: _decompose_pair,
    EApp: _decompose_app, EConst: _decompose_const, EFst: _decompose_proj,
    ESnd: _decompose_proj, ELet: _decompose_let, EIf: _decompose_if,
})


def _apply(f: Expr, a: Expr) -> Expr:
    match f:
        case ELam(x, _, body) | ELLam(x, _, body):
            return esubst(body, x, a)
        case EFix(x, _, v):
            return EApp(esubst(v, x, f), a)
    raise M.StuckNonRedex(f"application of non-function {f!r}")


class SubstThread(M.MtlcThread):
    """An mtlc thread stepped by substitution: its state is the whole
    expression, which the pool's retyping types and counts as it is."""

    expr = None  # an attribute, not the machine's read-back

    def __init__(self, pool, expr, hook=None, expected=None):
        self.expr = expr
        super().__init__(pool, expr, hook, expected)

    def _judge_state(self):
        return M.typecheck(self.expr, n=self.pool.n), M.resources(self.expr)

    def held(self):
        return M.resources(self.expr)

    def _gen(self, t):
        pool = self.pool
        while True:
            got = _decompose(self.expr)
            if got is None:
                self._exit()
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
                    SubstThread(pool, EApp(f, EUnit()), self.hook)
                    pool._event({"step": pool.step_no, "rule": "PR1", "action": "thread"})
                    out = EUnit()
                case EConst(name, args) if name in M._CHAN_CONSTS:
                    out, effect = self._channel_op(name, args)
                case _:
                    raise M.StuckNonRedex(f"no reduction for {redex!r}")
            if effect is not None:
                result = yield effect
                out = out(result)
            self.expr = rebuild(out)
            if self.hook:
                self.hook(self.pool, self)


def subst_eval_pool(expr, n: int = 2, seed: int = 0, max_steps: int = 10000,
                    retype_every_step: bool = False):
    """mtlc.eval_pool on the substitution stepper."""
    pool = rt.Pool(n, seed=seed)
    main_type = M.typecheck(expr, n=n)
    hook = M.retype_thread if retype_every_step else None
    st = SubstThread(pool, expr, hook, expected=main_type)
    if retype_every_step:
        M.retype_pool(pool)
    result = pool.run(max_steps=max_steps)
    if retype_every_step:
        M.retype_pool(pool)
    return result, st.expr


# ------------------------------------------------ mtlc reference typechecker
#
# The typechecker and judgement noting as mtlc had them before their rules
# returned without a hop: each rule reports through cx.noted, the channel
# signatures read their endpoint through _chan_arg, _action_head and
# _message, and the kind of a head through session.next_kind.  mtlc's own
# typecheck and _Judgements are compared with these on every corpus.


def _chan_arg_reference(rule: str, t: Viewtype) -> TChan:
    if not isinstance(t, TChan):
        raise MtlcTypeError(rule, f"expected a channel endpoint, got {t}")
    return t


def _action_head_reference(rule: str, t: TChan):
    if not t.cursor:
        raise MtlcTypeError(rule, "endpoint session is already finished")
    return t.cursor[0]


def _sig_iadd_reference(name, args, n):
    for a in args:
        if not isinstance(a, (TInt, TIntIdx)):
            raise MtlcTypeError(name, f"integer expected, got {a}")
    a, b = args
    if isinstance(a, TIntIdx) and isinstance(b, TIntIdx):
        return TIntIdx(a.i + b.i)
    return TInt()


def _sig_thread_create_reference(name, args, n):
    if args[0] != TFunL(TUnit(), TUnit()):
        raise MtlcTypeError(name, f"expects a linear 1 -o 1 function, got {args[0]}")
    return TUnit()


def _sig_create_reference(name, args, n):
    match args[0]:
        case TFunL(TChan(roles_, cursor), TUnit()):
            return TChan(rl.full_set(n) & ~roles_, cursor)
    raise MtlcTypeError(name, f"expects chan(R,S) -o 1, got {args[0]}")


def _sig_sync_reference(name, args, n):
    t = _chan_arg_reference(name, args[0])
    head = _action_head_reference(name, t)
    if len(t.cursor) != 1 or not isinstance(head, (sn.Msg, sn.Bcast, sn.Gather)):
        raise MtlcTypeError(name, "sync consumes a single final action")
    return TUnit()


def _message_reference(name, arg, kind, why):
    t = _chan_arg_reference(name, arg)
    head = _action_head_reference(name, t)
    if len(t.cursor) < 2 or not isinstance(head, (sn.Msg, sn.Bcast, sn.Gather)) \
            or sn.next_kind(head, t.roles) != kind:
        raise MtlcTypeError(name, why)
    return t, head


def _sig_skip_reference(name, args, n):
    t, _ = _message_reference(name, args[0], "skip",
                              "skip applies to uninvolved non-final actions")
    return TChan(t.roles, sn.advance(t.cursor))


def _sig_send_reference(name, args, n):
    t, head = _message_reference(name, args[0], "send", "these roles do not send here")
    want = M._PAYLOAD_T[head.payload]
    if not compat(args[1], want):
        raise MtlcTypeError(name, f"payload {args[1]} does not fit {want}")
    return TChan(t.roles, sn.advance(t.cursor))


def _sig_recv_reference(name, args, n):
    t, head = _message_reference(name, args[0], "recv", "these roles do not receive here")
    return TLPair(M._PAYLOAD_T[head.payload], TChan(t.roles, sn.advance(t.cursor)))


def _sig_aconj_reference(name, args, n):
    t = _chan_arg_reference(name, args[0])
    head = _action_head_reference(name, t)
    if not isinstance(head, (sn.SAConj, sn.OptionT, sn.Repseq)) \
            or sn.next_kind(head, t.roles) != "choose":
        raise MtlcTypeError(name, "these roles do not decide here")
    return TChan(t.roles, sn.advance(t.cursor, name[-1]))


def _forked_reference(name, arg, kind, why):
    t = _chan_arg_reference(name, arg)
    head = _action_head_reference(name, t)
    if sn.next_kind(head, t.roles) != kind:
        raise MtlcTypeError(name, why)
    try:
        left, right = sn.forks(t.cursor)
    except sn.SessionError:
        raise MtlcTypeError(name, why) from None
    return TChan(t.roles, left), TChan(t.roles, right)


def _sig_mconj_reference(name, args, n):
    return TLPair(*_forked_reference(name, args[0], "fork-conj",
                                     "mconj requires the deciding roles at a final tensor"))


def _sig_mdisj_reference(name, args, n):
    left, right = _forked_reference(name, args[0], "fork-disj",
                                    "mdisj is for non-deciding roles at a final tensor")
    keep, give = (left, right) if name.endswith("l") else (right, left)
    if args[1] != TFunL(give, TUnit()):
        raise MtlcTypeError(name, f"second argument must consume the "
                            f"{'right' if name.endswith('l') else 'left'} endpoint")
    return keep


def _sig_1_cut_reference(name, args, n):
    if _chan_arg_reference(name, args[0]).roles != 0:
        raise MtlcTypeError(name, "only an empty-role-set endpoint can be dropped")
    return TUnit()


def _sig_2_cut_reference(name, args, n):
    t1, t2 = (_chan_arg_reference(name, a) for a in args)
    if t1.cursor != t2.cursor:
        raise MtlcTypeError(name, "endpoint sessions differ")
    if t2.roles != rl.full_set(n) & ~t1.roles:
        raise MtlcTypeError(name, "role sets are not complementary")
    return TUnit()


def _sig_3_cut_reference(name, args, n):
    ts = [_chan_arg_reference(name, a) for a in args]
    if len({t.cursor for t in ts}) != 1:
        raise MtlcTypeError(name, "endpoint sessions differ")
    full = rl.full_set(n)
    if not rl.partition_check([full & ~t.roles for t in ts], n):
        raise MtlcTypeError(name, "complements must partition the universe")
    return TUnit()


def _sig_2_cutres_reference(name, args, n):
    t1, t2 = (_chan_arg_reference(name, a) for a in args)
    if t1.cursor != t2.cursor:
        raise MtlcTypeError(name, "endpoint sessions differ")
    full = rl.full_set(n)
    if (full & ~t1.roles) & (full & ~t2.roles):
        raise MtlcTypeError(name, "complements must be disjoint")
    return TChan(t1.roles & t2.roles, t1.cursor)


_SIGS_REFERENCE = {
    "iadd": (2, _sig_iadd_reference), "randbit": (0, lambda name, args, n: TBool()),
    "thread_create": (1, _sig_thread_create_reference),
    "chan_create": (1, _sig_create_reference),
    "chan_sync": (1, _sig_sync_reference), "chan_skip": (1, _sig_skip_reference),
    "chan_send": (2, _sig_send_reference), "chan_recv": (1, _sig_recv_reference),
    "chan_aconj_l": (1, _sig_aconj_reference), "chan_aconj_r": (1, _sig_aconj_reference),
    "chan_mconj": (1, _sig_mconj_reference),
    "chan_mdisj_l": (2, _sig_mdisj_reference), "chan_mdisj_r": (2, _sig_mdisj_reference),
    "chan_1_cut": (1, _sig_1_cut_reference), "chan_2_cut": (2, _sig_2_cut_reference),
    "chan_3_cut": (3, _sig_3_cut_reference), "chan_2_cutres": (2, _sig_2_cutres_reference),
}


def _signature_reference(name: str, arity: int):
    try:
        k, rule = _SIGS_REFERENCE[name]
    except KeyError:
        raise MtlcTypeError(name, "unknown constant") from None
    if arity != k:
        raise MtlcTypeError(name, f"expects {k} arguments, got {arity}")
    return rule


class _TypingReference:
    """A plain typing run: its universe size, and no notes."""

    def __init__(self, n: int):
        rl.check_universe(n)
        self.n = n

    @staticmethod
    def noted(e, t, delta, left):
        return t, left


def typecheck_reference(e: Expr, gamma=None, delta=None, n: int = 2) -> Viewtype:
    return _typed_reference(e, gamma, delta, _TypingReference(n))


def _typed_reference(e, gamma, delta, cx) -> Viewtype:
    t, left = _CHECK_REFERENCE[type(e)](e, dict(gamma or {}), dict(delta or {}), cx)
    if left:
        raise MtlcTypeError("ty-linear", f"unused linear variables: {sorted(left)}")
    return t


def _check_var_reference(e, gamma, delta, cx):
    x = e.name
    if x in delta:
        rest = dict(delta)
        return cx.noted(e, rest.pop(x), delta, rest)
    if x in gamma:
        return cx.noted(e, gamma[x], delta, delta)
    raise MtlcTypeError("ty-var", f"unbound variable {x}")


def _check_pair_reference(e, gamma, delta, cx):
    a, b = e.left, e.right
    t1, d1 = _CHECK_REFERENCE[type(a)](a, gamma, delta, cx)
    t2, d2 = _CHECK_REFERENCE[type(b)](b, gamma, d1, cx)
    if type(e) is ELPair:
        return cx.noted(e, TLPair(t1, t2), delta, d2)
    if is_linear(t1) or is_linear(t2):
        raise MtlcTypeError("ty-pair", "non-linear pairs cannot hold linear parts")
    return cx.noted(e, TPair(t1, t2), delta, d2)


def _check_proj_reference(e, gamma, delta, cx):
    b = e.body
    t, d = _CHECK_REFERENCE[type(b)](b, gamma, delta, cx)
    fst = type(e) is EFst
    if not isinstance(t, TPair):
        raise MtlcTypeError("ty-fst" if fst else "ty-snd", f"projection from non-pair {t}")
    return cx.noted(e, t.left if fst else t.right, delta, d)


def _check_let_reference(e, gamma, delta, cx):
    if e.x1 == e.x2:
        raise MtlcTypeError("ty-let", f"let binds {e.x1} twice")
    p = e.pair
    tp, d1 = _CHECK_REFERENCE[type(p)](p, gamma, delta, cx)
    if not isinstance(tp, TLPair):
        raise MtlcTypeError("ty-let", f"let-pair on non-tensor {tp}")
    x1, x2, b = e.x1, e.x2, e.body
    inner = dict(d1)
    hidden = {x: inner.pop(x) for x in (x1, x2) if x in inner}
    shadowed = {}
    for x, tx in ((x1, tp.left), (x2, tp.right)):
        if is_linear(tx):
            inner[x] = tx
        else:
            shadowed.setdefault(x, gamma.get(x))
            gamma[x] = tx
    try:
        t, d2 = _CHECK_REFERENCE[type(b)](b, gamma, inner, cx)
    finally:
        for x, old in shadowed.items():
            if old is None:
                del gamma[x]
            else:
                gamma[x] = old
    for x, tx in ((x1, tp.left), (x2, tp.right)):
        if is_linear(tx) and x in d2:
            raise MtlcTypeError("ty-let", f"linear variable {x} unused")
    d2.update(hidden)
    if type(cx) is JudgementsReference:
        cx.bind(b, {x2: tp.right, x1: tp.left})
    return cx.noted(e, t, delta, d2)


def _check_lam_reference(e, gamma, delta, cx):
    linear = type(e) is ELLam
    rule = "ty-lam-l" if linear else "ty-lam-i"
    if not linear and M.resources(e.body):
        raise MtlcTypeError(rule, "non-linear function holds resources")
    tx, x, body = e.t, e.x, e.body
    inner = dict(delta)
    hidden = inner.pop(x, None)
    g = gamma
    if is_linear(tx):
        inner[x] = tx
    else:
        g = dict(gamma)
        g[x] = tx
    t, d2 = _CHECK_REFERENCE[type(body)](body, g, inner, cx)
    if is_linear(tx) and x in d2:
        raise MtlcTypeError(rule, f"linear parameter {x} unused")
    d2.pop(x, None)
    if hidden is not None:
        d2[x] = hidden
    if type(cx) is JudgementsReference:
        cx.bind(body, {x: tx})
    if linear:
        return cx.noted(e, TFunL(tx, t), delta, d2)
    if d2 != delta:
        raise MtlcTypeError(rule, "non-linear function captures linear variables")
    return cx.noted(e, TFunN(tx, t), delta, delta)


def _check_app_reference(e, gamma, delta, cx):
    f, a = e.fun, e.arg
    tf, d1 = _CHECK_REFERENCE[type(f)](f, gamma, delta, cx)
    if not isinstance(tf, (TFunN, TFunL)):
        raise MtlcTypeError("ty-app", f"application of non-function {tf}")
    ta, d2 = _CHECK_REFERENCE[type(a)](a, gamma, d1, cx)
    if not compat(ta, tf.dom):
        raise MtlcTypeError("ty-app", f"argument {ta} does not fit {tf.dom}")
    return cx.noted(e, tf.cod, delta, d2)


def _check_fix_reference(e, gamma, delta, cx):
    tx, v = e.t, e.value
    if not M.is_value(v) and not isinstance(v, EVar):
        raise MtlcTypeError("ty-fix", "fixpoint body must be a value")
    if M.resources(v):
        raise MtlcTypeError("ty-fix", "fixpoint body holds resources")
    if is_linear(tx):
        raise MtlcTypeError("ty-fix", "fixpoint at a linear type")
    x, d = e.x, dict(delta)
    d.pop(x, None)
    g = dict(gamma)
    g[x] = tx
    t, d2 = _CHECK_REFERENCE[type(v)](v, g, d, cx)
    if d2 != d:
        raise MtlcTypeError("ty-fix", "fixpoint body consumes linear context")
    if not compat(t, tx):
        raise MtlcTypeError("ty-fix", f"body type {t} differs from {tx}")
    if type(cx) is JudgementsReference:
        cx.bind(v, {x: tx})
    return cx.noted(e, tx, delta, delta)


def _check_if_reference(e, gamma, delta, cx):
    c, a, b = e.cond, e.then, e.els
    tc, d0 = _CHECK_REFERENCE[type(c)](c, gamma, delta, cx)
    if not isinstance(tc, TBool):
        raise MtlcTypeError("ty-if", f"condition of type {tc}")
    if rho(a) != rho(b):
        raise MtlcTypeError("ty-if", "branches hold different resources")
    t1, d1 = _CHECK_REFERENCE[type(a)](a, gamma, d0, cx)
    t2, d2 = _CHECK_REFERENCE[type(b)](b, gamma, d0, cx)
    if d1 != d2:
        raise MtlcTypeError("ty-if", "branches consume different linear variables")
    t = M._join(t1, t2)
    if t is None:
        raise MtlcTypeError("ty-if", f"branch types differ: {t1} vs {t2}")
    if type(cx) is JudgementsReference:
        cx.bind(a, {})
        cx.bind(b, {})
    return cx.noted(e, t, delta, d1)


def _check_const_reference(e, gamma, delta, cx):
    ts = []
    d = delta
    for a in e.args:
        ta, d = _CHECK_REFERENCE[type(a)](a, gamma, d, cx)
        ts.append(ta)
    return cx.noted(e, _signature_reference(e.name, len(ts))(e.name, ts, cx.n), delta, d)


def _check_unknown_reference(e, gamma, delta, cx):
    raise MtlcTypeError("ty", f"unknown expression {e!r}")


_CHECK_REFERENCE = M._Rules(_check_unknown_reference, {
    EVar: _check_var_reference,
    ERc: lambda e, gamma, delta, cx: cx.noted(e, TChan(e.ep.roles, e.ep.channel.cursor),
                                              delta, delta),
    EUnit: lambda e, gamma, delta, cx: cx.noted(e, TUnit(), delta, delta),
    EBool: lambda e, gamma, delta, cx: cx.noted(e, TBool(), delta, delta),
    EInt: lambda e, gamma, delta, cx: cx.noted(e, TIntIdx(e.value), delta, delta),
    EStr: lambda e, gamma, delta, cx: cx.noted(e, M.TStr(), delta, delta),
    EPair: _check_pair_reference, ELPair: _check_pair_reference,
    EFst: _check_proj_reference, ESnd: _check_proj_reference,
    ELet: _check_let_reference, ELam: _check_lam_reference, ELLam: _check_lam_reference,
    EApp: _check_app_reference, EFix: _check_fix_reference, EIf: _check_if_reference,
    EConst: _check_const_reference,
    M.Clo: lambda e, gamma, delta, cx: (
        typecheck_reference(M._read(e.term, e.env), n=cx.n), delta),
})


class JudgementsReference(dict):
    """The notes of mtlc._Judgements, taken through the rules above: each
    node's id maps to (node, type, the linear variables it consumes, the
    binders a reduction binds before it), or to None for a node shared by
    two places with two judgements."""

    def __init__(self, n: int, root: Expr):
        super().__init__()
        self.n = n
        rl.check_universe(n)
        _typed_reference(root, None, None, self)

    def noted(self, e, t, delta, left):
        lin = () if len(left) == len(delta) else tuple(
            x for x in delta if x not in left)
        note = (e, t, lin, None)
        got = self.setdefault(id(e), note)
        if got is not note and got is not None and got[1:3] != note[1:3]:
            self[id(e)] = None
        return t, left

    def bind(self, body: Expr, binds: dict) -> None:
        if (got := self.get(id(body))) is not None:
            binds = tuple(binds.items())
            self[id(body)] = got[:3] + (binds,) if got[3] in (None, binds) else None


# ---------------------------------------------- mtlc closure retyping oracle
#
# How mtlc retyped a state before it noted judgements: each part of the
# state, the control and each frame's node with a hole at the child being
# evaluated, is typed as a closure, its term under the types of its
# environment's values, with the hole at the type of the part inside it.
# By the substitution lemma this is the judgement of the read-back.  Each
# step costs the size of the whole state.  It is the oracle MtlcThread.judge
# is compared with.


def closure_type(term: Expr, env, n: int, hole: Viewtype | None = None) -> Viewtype:
    gamma, delta = {}, {}
    if hole is not None:
        (delta if is_linear(hole) else gamma)[M._HOLE.name] = hole
    for x in free_evars(term):
        if b := M._lookup(env, x):  # else typecheck reports it unbound
            t = M.typecheck(b[1], n=n)
            (delta if is_linear(t) else gamma)[x] = t
    return M.typecheck(term, gamma, delta, n)


def state_parts(mt: M.MtlcThread) -> list[tuple]:
    """A machine state as closures (term, env), innermost first: the control
    and each frame's node with its hole."""
    if isinstance(mt, SubstThread):
        return [(mt.expr, None)]
    term, env, val, k = mt.state
    out = [(val, None) if term is None else (term, env)]
    while k is not None:
        node, fenv, vals, k = k
        kids, make = M._SHAPE[type(node)]
        out.append((make(node, vals + (M._HOLE,) + kids(node)[len(vals) + 1:]), fenv))
    return out


def state_type(mt: M.MtlcThread) -> Viewtype:
    """The type of the expression mt's state stands for, by closure typing;
    MtlcTypeError if it has none or it does not fit mt's declared type."""
    ty = None
    for term, env in state_parts(mt):
        ty = closure_type(term, env, mt.pool.n, ty)
    if not compat(ty, mt.expected):
        raise MtlcTypeError("ty-pool", f"thread {mt.thread.tid} type {ty} drifted "
                            f"from {mt.expected}")
    return ty


def erase(t: Viewtype) -> Viewtype:
    """t with every int index forgotten."""
    match t:
        case TIntIdx():
            return TInt()
        case TPair(a, b) | TLPair(a, b) | TFunN(a, b) | TFunL(a, b):
            return type(t)(erase(a), erase(b))
    return t


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


def rand_int_src(rng: random.Random, depth: int, ivars: tuple = (), tag: str = "") -> str:
    """The source of a random closed-over-ivars mtlc expression of type int.
    It reaches closures with environments (curried and shadowing lambdas,
    let-pairs), fix, if on randbit and thread_create."""
    if depth <= 0 or rng.random() < 0.2:
        if ivars and rng.random() < 0.6:
            return rng.choice(ivars)
        return str(rng.randrange(10))
    d = depth - 1
    sub = lambda vs=ivars: rand_int_src(rng, d, vs, tag + str(rng.randrange(3)))
    x = f"x{tag}"
    match rng.randrange(9):
        case 0:
            return f"(iadd {sub()} {sub()})"
        case 1:
            return f"(if (randbit) {sub()} {sub()})"
        case 2:
            return f"(app (lam ({x} int) {sub(ivars + (x,))}) {sub()})"
        case 3:  # a curried closure applied twice, its inner lambda shadowing x
            return (f"(app (app (lam ({x} int) (lam ({x} int) "
                    f"{sub(ivars + (x,))})) {sub()}) {sub()})")
        case 4:
            return f"(let ({x} u{tag}) (tensor {sub()} unit) {sub(ivars + (x,))})"
        case 5:
            return f"(fst (pair {sub()} true))"
        case 6:
            return (f"(app (fix (loop{tag} (-> int int)) (lam ({x} int) "
                    f"(if (randbit) {x} (app loop{tag} (iadd {x} 1))))) {sub()})")
        case 7:
            return f"(app (llam (u{tag} 1) {sub()}) (thread_create (llam (w{tag} 1) unit)))"
        case _:
            # a function argument whose body may use only ints it captures:
            # its result type is int under its binders, and refined (int(i))
            # once those ints are bound, which only subtyping accepts
            return (f"(app (lam (f{tag} (-> int int)) (app f{tag} {sub()})) "
                    f"(lam ({x} int) {sub(ivars + (x,))}))")


def rand_mtlc_program(rng: random.Random) -> tuple[str, int]:
    """A random well-typed mtlc program and its universe size.  Each takes
    one channel pattern (ping-pong, mconj with mdisj_l or mdisj_r, 1-cut,
    2-cut, 3-cut, 2-cut with residual, or none) with random int expressions
    as its payloads and results."""
    e = lambda vs=(): rand_int_src(rng, rng.randrange(4), vs, str(rng.randrange(100)))
    side, keep, give = rng.choice([("l", "x", "y"), ("r", "y", "x")])
    programs = [
        (f'''(let (v c2)
               (chan_recv (chan_create (llam (c (chan {{0}} "ping(0,1,int)@pong(1,0)"))
                  (chan_sync (chan_send c {e()})))))
             (app (llam (u 1) (iadd v {e(("v",))})) (chan_sync c2)))''', 2),
        (f'''(let (a b)
               (chan_mconj (chan_send
                  (chan_create (llam (c (chan {{1}} "q(0,1,int)@(mconj(0, x(1,0), y(1,0)))"))
                     (let (u c2) (chan_recv c)
                        (chan_sync (chan_mdisj_{side} c2
                           (llam (g (chan {{1}} "{give}(1,0)")) (chan_sync g)))))))
                  {e()}))
             (app (llam (u 1) (chan_sync b)) (chan_sync a)))''', 2),
        (f'''(app (llam (u 1) {e()})
               (chan_1_cut (chan_create (llam (c (chan {{0,1}} "m(0,1,int)"))
                  (chan_sync c)))))''', 2),
        (f'''(app (llam (u 1) {e()})
              (chan_2_cut
                (chan_create (llam (c (chan {{0}} "m(0,1,int)@r(1,0)"))
                   (chan_sync (chan_send c {e()}))))
                (chan_create (llam (d (chan {{1}} "m(0,1,int)@r(1,0)"))
                   (let (v d2) (chan_recv d)
                      (app (llam (w int) (chan_sync d2)) {e(("v",))}))))))''', 2),
        (f'''(app (llam (u 1) {e()})
              (chan_3_cut
                (chan_create (llam (c (chan {{0}} "m(0,1,int)@r(1,2)"))
                   (chan_sync (chan_send c {e()}))))
                (chan_create (llam (c (chan {{1}} "m(0,1,int)@r(1,2)"))
                   (let (v k) (chan_recv c) (app (llam (w int) (chan_sync k)) v))))
                (chan_create (llam (c (chan {{2}} "m(0,1,int)@r(1,2)"))
                   (chan_sync (chan_skip c))))))''', 3),
        (f'''(let (v k)
               (chan_recv (chan_skip (chan_2_cutres
                  (chan_create (llam (c (chan {{0}} "m(0,1,int)@r(1,2,int)@e(0,2)"))
                     (chan_sync (chan_skip (chan_send c {e()})))))
                  (chan_create (llam (c (chan {{1}} "m(0,1,int)@r(1,2,int)@e(0,2)"))
                     (let (v k) (chan_recv c) (chan_sync (chan_send k {e(("v",))}))))))))
             (app (llam (u 1) (iadd v {e(("v",))})) (chan_sync k)))''', 3),
        (e(), 2),
    ]
    return rng.choice(programs)
