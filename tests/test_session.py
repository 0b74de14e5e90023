import pickle
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirole import session as sn
from multirole.logic import AConj, Atom, Bang, MConj
from multirole.session import (
    Append,
    Bcast,
    EndpointType,
    Gather,
    Msg,
    Nil,
    OptionT,
    Repseq,
    SAConj,
    SMConj,
    SessionMismatch,
    NotPartition,
    advance,
    check_session,
    coherence_check,
    encode_lmrl,
    fmt_session,
    forks,
    next_actions,
    next_kind,
    norm,
    parse_protocol,
    parse_session,
)

from helpers import (
    check_session_reference,
    encode_lmrl_reference,
    fmt_session_reference,
    next_actions_match,
    parse_session_reference,
    rand_session,
)
from test_cli import mutate

EX1 = ("title(1, 0)@quote(0, 1)@quote(0, 2)@"
       "contrib(1, 2)@option(2, proof(2, 0)@receipt(0, 2))")
EX2 = "userid(0, 1)@userid(1, 2)@repseq(2, query(2, 0)@answer(0, 2))@result(2, 1)"
EX3 = "query(0)@(mconj(0, answer(1, 0)@score(0, 1), answer(2, 0)@score(0, 2)))"


class TestParse:
    def test_two_role_atom_is_msg(self):
        assert parse_session("title(1, 0)", 3) == Msg("title", 1, 0)

    def test_one_role_atom_is_bcast(self):
        assert parse_session("query(0)", 3) == Bcast("query", 0)

    def test_gather_roundtrip(self):
        s = Append(Msg("title", 1, 0), Append(Gather("tick", 2, "int"), Gather("ack", 0)))
        text = fmt_session(s)
        assert text == "title(1, 0)@gather(2, tick, int)@gather(0, ack)"
        assert parse_session(text, 3) == s

    @pytest.mark.parametrize("s", [
        Gather("unit", 2), Gather("int", 2), Gather("str", 2),
        Bcast("gather", 2, "int"), Bcast("gather", 2, "str"), Bcast("gather", 2)])
    def test_gather_named_like_a_payload_roundtrip(self, s):
        assert parse_session(fmt_session(s), 3) == s

    @pytest.mark.parametrize("text, why", [
        ("m(\u0661, 0)", "bad argument list for atom m"),
        ("m(0, \uff11, int)", "bad argument list for atom m"),
        ("q(\u0661)", "bad argument list for atom q"),
        ("gather(\u0661, m)", "bad argument list for atom gather"),
        ("option(\u0661, m(0, 1))", "expected a role number, got '\u0661'"),
    ])
    def test_digits_other_than_ascii_refused(self, text, why):
        with pytest.raises(sn.SessionError, match=f"^{why}$"):
            parse_session(text, 2)

    def test_universe_in_digits_other_than_ascii_refused(self):
        with pytest.raises(sn.SessionError, match=r"^line 1: expected `roles N`$"):
            parse_protocol("roles \u0662\nsession s = m(0, 1)\n")

    def test_gather_with_two_roles_is_msg(self):
        assert parse_session("gather(0, 1)", 3) == Msg("gather", 0, 1)

    def test_random_roundtrip_with_gather(self):
        rng = random.Random(22)
        gathers = 0
        for _ in range(100):
            s = rand_session(rng, 3, 2)
            gathers += "gather(" in fmt_session(s)
            assert parse_session(fmt_session(s), 3) == s
        assert gathers

    def test_payload_tag(self):
        assert parse_session("quote(0, 1, int)", 2) == Msg("quote", 0, 1, "int")

    def test_append_right_assoc(self):
        s = parse_session("a(0, 1)@b(1, 0)@c(0, 1)", 2)
        assert isinstance(s, Append)
        assert isinstance(s.rest, Append)

    def test_combinators(self):
        s = parse_session("aconj(1, a(0, 1), b(1, 0))", 2)
        assert isinstance(s, SAConj) and s.r == 1
        s = parse_session("option(0, a(0, 1))", 2)
        assert isinstance(s, OptionT)
        s = parse_session("repeat(1, a(0, 1))", 2)
        assert isinstance(s, sn.Repeat)

    @pytest.mark.parametrize("text", [EX1, EX2])
    def test_example_roundtrip_verbatim(self, text):
        s = parse_session(text, 3)
        assert fmt_session(s) == text
        assert parse_session(fmt_session(s), 3) == s

    def test_example3_roundtrip(self):
        # the parens around the trailing mconj are optional grouping
        s = parse_session(EX3, 3)
        assert parse_session(fmt_session(s), 3) == s
        assert isinstance(s, Append) and isinstance(s.rest, SMConj)

    def test_random_roundtrip(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.choice([2, 3])
            s = rand_session(rng, n, 2, allow_gather=False)
            assert parse_session(fmt_session(s), n) == s

    def test_fmt_deeper_than_recursion_limit(self):
        # 5000 messages nested to the right, as the parser reads them, and to the left
        assert sys.getrecursionlimit() <= 1000
        msgs = [Msg(f"m{i}", i % 2, 1 - i % 2, "int" if i % 3 else "unit") for i in range(5000)]
        texts = [fmt_session(m) for m in msgs]
        right = msgs[-1]
        for m in reversed(msgs[:-1]):
            right = Append(m, right)
        assert fmt_session(right) == "@".join(texts)
        left = msgs[0]
        for m in msgs[1:]:
            left = Append(left, m)
        assert fmt_session(left) == \
            "(" * 4998 + texts[0] + "".join(f"@{t})" for t in texts[1:-1]) + "@" + texts[-1]

    def test_protocol_file(self):
        n, sessions = parse_protocol(f"roles 3\nsession buy = {EX1}\n")
        assert n == 3
        assert fmt_session(sessions["buy"]) == EX1

    def test_roles_out_of_range(self):
        with pytest.raises(sn.SessionError):
            parse_session("a(0, 5)", 2)


def _outcome(f, *args):
    """f's result, or the class and text of the SessionError it raised; any
    other exception escapes."""
    try:
        return "ok", f(*args)
    except sn.SessionError as e:
        return type(e), str(e)


class TestReferenceOracles:
    """Every session pass is a loop; the recursive passes they replaced, in
    helpers, are their references."""

    def test_random_sessions_agree(self):
        rng = random.Random(20)
        for _ in range(1200):
            n = rng.randrange(2, 5)
            s = rand_session(rng, n, rng.randrange(3))
            text = fmt_session(s)
            assert text == fmt_session_reference(s)
            assert parse_session(text, n) == s == parse_session_reference(text, n)
            for unroll in range(3):
                assert encode_lmrl(s, unroll) is encode_lmrl_reference(s, unroll)
            for m in range(n + 1):
                assert _outcome(check_session, s, m) == _outcome(check_session_reference, s, m)

    def test_mutated_texts_read_alike(self):
        """Both readers give equal sessions, or the same error text."""
        rng = random.Random(21)
        texts = []
        for _ in range(60):
            n = rng.randrange(2, 5)
            texts.append((fmt_session(rand_session(rng, n, 2)), n))
        donors = [*sn.PAYLOADS, "gather(2, tick, int)", "gather(0, ack)", "(", ")", ",",
                  "@", "nil", "nil(0, 1)", "m(0, 7)", "b(9)", "repseq(5, a(0, 1))", "option(",
                  "aconj(1, a(0, 1), nil)", "mconj(0, a(1, 0), b(0, 1))",
                  "x(12345678901234567890, 0)", *(t for t, _ in texts[:4])]
        seen = Counter()
        for _ in range(2500):
            text, n = rng.choice(texts)
            mutated = mutate(rng, text, donors)
            got = _outcome(parse_session, mutated, n)
            assert got == _outcome(parse_session_reference, mutated, n), mutated
            seen[got[0] if got[0] == "ok" else got[1].split(" ")[0]] += 1
        assert seen["ok"] > 150 and seen["roles"] >= 5 and len(seen) >= 7, seen


def _deep(shape: str, k: int = 5000):
    """k messages nested k deep: to the right as the reader builds an
    @-run, to the left as parentheses group it, or through combinators."""
    msgs = [Msg(f"m{i}", i % 2, 1 - i % 2, sn.PAYLOADS[i % 3]) for i in range(k)]
    if shape == "left":
        s = msgs[0]
        for m in msgs[1:]:
            s = Append(s, m)
        return s, msgs
    s = msgs[-1]
    for i in range(k - 2, -1, -1):
        m = msgs[i]
        if shape == "right":
            s = Append(m, s)
        else:
            s = (Repseq(0, Append(m, s)), SAConj(1, m, s), SMConj(0, s, m))[i % 3]
    return s, msgs


@pytest.mark.parametrize("shape", ["right", "left", "combinators"])
def test_depth_census(shape):
    assert sys.getrecursionlimit() <= 1000
    s, msgs = _deep(shape)
    text = fmt_session(s)
    parsed = parse_session(text, 2)
    assert parsed is s
    assert fmt_session(parsed) == text
    check_session(parsed, 2)
    with pytest.raises(sn.SessionError, match=r"^roles \[1\] outside universe of 1$"):
        check_session(parsed, 1)
    labels, todo, seen = set(), [encode_lmrl(parsed, unroll=1)], set()
    while todo:
        f = todo.pop()
        if f not in seen:
            seen.add(f)
            if isinstance(f, Atom):
                labels.add(f.label)
            else:
                todo += [f.body] if isinstance(f, Bang) else [f.left, f.right]
    assert labels - {"nil"} == {sn.atom_label(m) for m in msgs}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(0, 3))
def test_random_roundtrip_is_identity(seed, n, budget):
    s = rand_session(random.Random(seed), n, budget)
    assert parse_session(fmt_session(s), n) == s


class TestEncode:
    def test_msg_atom(self):
        f = encode_lmrl(parse_session("ping(0, 1)", 2))
        assert f == Atom("ping:0:1")

    def test_append_is_tensor_at_zero(self):
        f = encode_lmrl(parse_session("a(0, 1)@b(1, 0)", 2))
        assert isinstance(f, MConj) and f.u.r == 0

    def test_option_is_with_nil(self):
        f = encode_lmrl(parse_session("option(1, a(0, 1))", 2))
        assert isinstance(f, AConj)
        assert f.right == Atom("nil")

    def test_repeat_is_bang(self):
        f = encode_lmrl(parse_session("repeat(1, a(0, 1))", 2))
        assert isinstance(f, Bang) and f.u.r == 1

    def test_repseq_unrolls(self):
        s = parse_session("repseq(1, a(0, 1))", 2)
        # zero unrollings leave only the exit branch
        assert encode_lmrl(s, unroll=0) == Atom("nil")
        f2 = encode_lmrl(s, unroll=2)
        assert isinstance(f2, AConj) and isinstance(f2.left, MConj)

    def test_negative_unroll_refused(self):
        s = parse_session("repseq(1, a(0, 1))", 2)
        with pytest.raises(sn.SessionError, match="unroll must be at least 0, got -1"):
            encode_lmrl(s, unroll=-1)


class TestCoherence:
    def test_partition_required(self):
        s = parse_session("a(0, 1)", 2)
        coherence_check([EndpointType(1, s), EndpointType(2, s)], 2)
        with pytest.raises(NotPartition):
            coherence_check([EndpointType(1, s), EndpointType(1, s)], 2)

    def test_same_session_required(self):
        s1 = parse_session("a(0, 1)", 2)
        s2 = parse_session("b(0, 1)", 2)
        with pytest.raises(SessionMismatch):
            coherence_check([EndpointType(1, s1), EndpointType(2, s2)], 2)


class TestNodes:
    """Sessions are hash-consed nodes: equal sessions are one object, so
    equality and hashing take one step at any depth."""

    def test_equal_sessions_are_one_object(self):
        for text in (EX1, EX2, EX3):
            assert parse_session(text) is parse_session(text)
            s = parse_session(text)
            assert pickle.loads(pickle.dumps(s)) is s

    def test_sender_equals_receiver_refused(self):
        with pytest.raises(sn.SessionError, match=r"^message m: sender equals receiver$"):
            Msg("m", 0, 0)

    @pytest.mark.parametrize("make, cls", [
        (lambda r: Msg("m", r, 1), "Msg"), (lambda r: Msg("m", 0, r), "Msg"),
        (lambda r: Bcast("b", r), "Bcast"), (lambda r: Gather("g", r), "Gather"),
        (lambda r: sn.SMConj(r, Nil(), Nil()), "SMConj"),
        (lambda r: sn.SAConj(r, Nil(), Nil()), "SAConj"),
        (lambda r: OptionT(r, Nil()), "OptionT"), (lambda r: Repseq(r, Nil()), "Repseq"),
        (lambda r: sn.Repeat(r, Nil()), "Repeat"),
    ])
    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None])
    def test_role_fields_refuse_a_non_int(self, make, cls, bad):
        # True == 1 in the node table: a bool role would be the int one's node
        with pytest.raises(sn.SessionError, match=rf"^{cls}: role {bad!r} is not an int$"):
            make(bad)
        make(2)  # an int is taken

    def test_bool_roles_do_not_alias_int_ones(self):
        s = Msg("m", 0, 1)
        for make in (lambda: Msg("m", False, True), lambda: sn.SAConj(True, s, s)):
            with pytest.raises(sn.SessionError, match="is not an int"):
                make()
        assert sn.fmt_session(sn.SAConj(1, s, s)) == "aconj(1, m(0, 1), m(0, 1))"

    @staticmethod
    def deep_pair() -> tuple:
        """Two 5000-message sessions, parsed apart."""
        assert sys.getrecursionlimit() <= 1000
        text = "@".join(["m(0, 1)", "n(1, 0, int)"] * 2500)
        return parse_session(text, 2), parse_session(text, 2)

    def test_deep_hash(self):
        a, b = self.deep_pair()
        assert hash(a) == hash(b)

    def test_deep_equality(self):
        a, b = self.deep_pair()
        assert a == b and a is b

    def test_deep_coherence(self):
        a, b = self.deep_pair()
        coherence_check([EndpointType(1, a), EndpointType(2, b)], 2)


class TestNextActions:
    def test_msg_classification(self):
        m = parse_session("a(0, 1)", 3)
        assert next_actions(m, 0b001).kind == "send"
        assert next_actions(m, 0b010).kind == "recv"
        assert next_actions(m, 0b100).kind == "skip"
        assert next_actions(m, 0b011).kind == "skip"  # both ends internal

    def test_bcast_gather(self):
        b = Bcast("q", 0)
        assert next_actions(b, 0b001).kind == "send"
        assert next_actions(b, 0b110).kind == "recv"
        g = Gather("g", 2)
        assert next_actions(g, 0b100).kind == "recv"
        assert next_actions(g, 0b011).kind == "send"

    def test_choice_holder(self):
        s = parse_session("option(2, a(0, 1))", 3)
        assert next_actions(s, 0b100).kind == "choose"
        assert next_actions(s, 0b011).kind == "offer"

    def test_fork(self):
        s = parse_session("mconj(0, a(1, 0), b(2, 0))", 3)
        assert next_actions(s, 0b001).kind == "fork-conj"
        assert next_actions(s, 0b110).kind == "fork-disj"

    @pytest.mark.parametrize("n", [2, 3])
    def test_table_agrees_with_match_oracle(self, n):
        """Every session node kind, at every role, against every role set;
        next_kind agrees with the kind of next_actions."""
        nodes = [Nil(), Append(Nil(), Nil())]
        for p in sn.PAYLOADS:
            nodes += [Msg("m", f, t, p) for f in range(n) for t in range(n) if f != t]
            nodes += [Bcast("b", r, p) for r in range(n)]
            nodes += [Gather("g", r, p) for r in range(n)]
        for r in range(n):
            nodes += [SMConj(r, Nil(), Nil()), SAConj(r, Nil(), Nil()),
                      OptionT(r, Nil()), Repseq(r, Nil()), sn.Repeat(r, Nil())]
        assert {type(s) for s in nodes} == set(sn.SessionType.__args__)
        for s in nodes:
            for roleset in range(1 << n):
                assert next_actions(s, roleset) == next_actions_match(s, roleset), (s, roleset)
                assert next_kind(s, roleset) == next_actions(s, roleset).kind, (s, roleset)

    def test_every_node_class_has_a_rule(self):
        assert set(sn._ACTIONS) == set(sn.SessionType.__args__)

    def test_unknown_node(self):
        for classify in (next_actions, next_kind, next_actions_match):
            with pytest.raises(sn.SessionError, match=r"^unknown session node 'x'$"):
                classify("x", 1)


class TestCheckSession:
    def test_random_sessions_check(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.choice([2, 3])
            check_session(rand_session(rng, n, 2), n)


def _cur(text: str) -> tuple:
    return norm(parse_session(text, 3))


class TestCursor:
    """What each head leaves behind when it fires: the one rule the runtime
    and the calculus's channel types step by."""

    @pytest.mark.parametrize("cursor, side, after", [
        ("a(0, 1)@b(1, 0)", None, "b(1, 0)"),
        ("a(0)@b(1, 0)", None, "b(1, 0)"),
        ("gather(2, a)@b(1, 0)", None, "b(1, 0)"),
        ("a(0, 1)", None, "nil"),
        ("aconj(0, x(0, 1)@y(1, 0), z(1, 2))@b(1, 0)", "l", "x(0, 1)@y(1, 0)@b(1, 0)"),
        ("aconj(0, x(0, 1)@y(1, 0), z(1, 2))@b(1, 0)", "r", "z(1, 2)@b(1, 0)"),
        ("option(1, x(0, 1)@y(1, 0))@b(1, 0)", "l", "x(0, 1)@y(1, 0)@b(1, 0)"),
        ("option(1, x(0, 1)@y(1, 0))@b(1, 0)", "r", "b(1, 0)"),
        ("repseq(2, x(2, 0)@y(0, 2))@b(1, 0)", "l",
         "x(2, 0)@y(0, 2)@repseq(2, x(2, 0)@y(0, 2))@b(1, 0)"),
        ("repseq(2, x(2, 0)@y(0, 2))@b(1, 0)", "r", "b(1, 0)"),
        ("repseq(2, nil)@b(1, 0)", "l", "repseq(2, nil)@b(1, 0)"),
    ])
    def test_advance_by_head(self, cursor, side, after):
        assert advance(_cur(cursor), side) == _cur(after)

    def test_final_mconj_forks_into_its_two_sessions(self):
        left, right = forks(_cur("mconj(0, x(1, 0)@y(0, 1), z(2, 0))"))
        assert (left, right) == (_cur("x(1, 0)@y(0, 1)"), _cur("z(2, 0)"))

    def test_mconj_that_does_not_end_its_session_does_not_fork(self):
        with pytest.raises(sn.SessionError, match=r"^mconj\(\.\.\.\) must end its session$"):
            forks(_cur("mconj(0, x(1, 0), z(2, 0))@b(1, 0)"))

    @pytest.mark.parametrize("cursor, side", [
        ("a(0, 1)", "l"),
        ("aconj(0, x(0, 1), z(1, 2))", None),
        ("repseq(2, x(2, 0))", None),
        ("mconj(0, x(1, 0), z(2, 0))", None),
        ("repeat(0, x(0, 1))", "l"),
    ])
    def test_advance_refuses_a_head_it_cannot_take_that_way(self, cursor, side):
        with pytest.raises(sn.SessionError, match="^cannot advance past "):
            advance(_cur(cursor), side)

    def test_only_mconj_forks(self):
        with pytest.raises(sn.SessionError, match=r"^a\(0, 1\) does not fork$"):
            forks(_cur("a(0, 1)"))
