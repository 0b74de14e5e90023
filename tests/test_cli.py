import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from multirole import cli
from multirole import kernel as kn
from multirole import logic as lg
from multirole import roles as rl
from multirole.cli import main

from helpers import deep_derivation, malformed_tables, shared_conj, work_bound

A = lg.parse_formula("a")
B = lg.parse_formula("b")


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def axiom_file(tmp_path):
    d = kn.axiom_multi(A, [1, 2], kn.LMRL(2))
    return write(tmp_path / "ax.json", kn.derivation_to_json(d))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestProve:
    def test_check_ok(self, capsys, axiom_file):
        code, out, _ = run(capsys, "prove", "check", axiom_file)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_check_bad_file(self, capsys, tmp_path):
        path = write(tmp_path / "bad.json", "{not json")
        code, out, err = run(capsys, "prove", "check", path)
        assert code == 1
        assert "error" in json.loads(err)

    def test_mpcut_emits_checked_derivation(self, capsys, tmp_path):
        # three derivations each carrying <R_i>a, complements partition {0,1,2}
        files, rsets = [], [0b110, 0b101, 0b011]
        for i, r in enumerate(rsets):
            d = kn.axiom_multi(A, [r, 0b111 & ~r], kn.LMRL(3))
            files.append(write(tmp_path / f"d{i}.json", kn.derivation_to_json(d)))
        code, out, _ = run(capsys, "prove", "mpcut", *files,
                           "--on", "a", "--at", "{1,2}", "{0,2}", "{0,1}",
                           "--roles", "3")
        assert code == 0
        d = kn.derivation_from_json(out)
        kn.check(d, kn.LMRL(3))

    def test_cutres_writes_out_file(self, capsys, tmp_path, axiom_file):
        d2 = kn.axiom_multi(A, [1, 2], kn.LMRL(2))
        f2 = write(tmp_path / "d2.json", kn.derivation_to_json(d2))
        out_path = tmp_path / "res.json"
        code, out, _ = run(capsys, "prove", "cutres", axiom_file, f2,
                           "--on", "a", "--at", "{0}", "{1}",
                           "--out", str(out_path))
        assert code == 0
        kn.check(kn.derivation_from_json(out_path.read_text()), kn.LMRL(2))

    def test_search_found(self, capsys, tmp_path):
        items = (lg.IFormula(1, A), lg.IFormula(2, A))
        path = write(tmp_path / "seq.json", lg.sequent_to_json(items))
        code, out, _ = run(capsys, "prove", "search", "--sequent", path,
                           "--depth", "4")
        assert code == 0
        kn.check(kn.derivation_from_json(out), kn.LMRL(2))

    def test_check_without_conclusion(self, capsys, tmp_path):
        obj = {"formulas": [["atom", "a"]], "nodes": [{"rule": "id"}], "root": 0}
        path = write(tmp_path / "d.json", json.dumps(obj))
        code, _, err = run(capsys, "prove", "check", path)
        assert code == 1
        assert "conclusion" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv,error", [
        (["check"], "prove check takes 1 derivation file(s), got 0"),
        (["check", "AX", "AX"], "prove check takes 1 derivation file(s), got 2"),
        (["cutres", "AX", "--on", "a", "--at", "{0}", "{1}"],
         "prove cutres takes 2 derivation file(s), got 1"),
        (["mpcut", "--on", "a"], "prove mpcut takes one or more"),
        (["search", "AX", "--sequent", "AX"], "prove search takes 0"),
        (["cut", "AX"], "prove cut needs --on"),
        (["cutres", "AX", "AX", "--at", "{0}", "{1}"], "prove cutres needs --on"),
        (["mpcut", "AX", "--at", "{0}"], "prove mpcut needs --on"),
        (["search"], "prove search needs --sequent"),
        (["cutres", "AX", "AX", "--on", "a", "--at", "{0}"],
         "needs --at with one role set per derivation (2), got 1"),
        (["mpcut", "AX", "AX", "--on", "a"],
         "needs --at with one role set per derivation (2), got 0"),
        (["check", "AX", "--roles", "0"], "universe size must be in 1..64, got 0"),
        (["check", "AX", "--roles", "99"], "universe size must be in 1..64, got 99"),
        (["check", "AX", "--calculus", "mrlj", "--j", "zz"],
         "bad ultrafilter syntax: 'zz'"),
        (["check", "AX", "--calculus", "mrlj", "--j", "@5"],
         "ultrafilter J = @5 outside universe of 2 roles"),
    ])
    def test_argument_faults(self, capsys, axiom_file, argv, error):
        argv = [axiom_file if a == "AX" else a for a in argv]
        code, out, err = run(capsys, "prove", *argv)
        assert (code, out) == (1, "")
        assert error in json.loads(err)["error"]

    @pytest.mark.parametrize("argv", [
        ["cut", "BAD", "--on", "a"],
        ["cutres", "BAD", "AX", "--on", "a", "--at", "{0}", "{1}"],
        ["mpcut", "AX", "BAD", "--on", "a", "--at", "{0}", "{1}"],
    ])
    def test_cut_checks_its_inputs(self, capsys, tmp_path, axiom_file, argv):
        # well-formed, but an id whose role sets do not partition the universe
        bad = write(tmp_path / "bad.json", kn.derivation_to_json(
            kn.Derivation("id", [lg.IFormula(1, A)] * 2)))
        argv = [{"AX": axiom_file, "BAD": bad}.get(a, a) for a in argv]
        code, out, err = run(capsys, "prove", *argv)
        assert (code, out) == (1, "")
        assert "partition" in json.loads(err)["error"]

    def test_output_failing_its_check_is_a_kernel_fault(self, capsys, monkeypatch,
                                                        tmp_path, axiom_file):
        leaf = kn.derivation_from_json(Path(axiom_file).read_text())
        monkeypatch.setattr(kn, "cut2_residual",
                            lambda *_: kn.Derivation("id", leaf.conclusion[:1]))
        code, out, err = run(capsys, "prove", "cutres", axiom_file, axiom_file,
                             "--on", "a", "--at", "{0}", "{1}")
        assert (code, out) == (3, "")
        assert json.loads(err)["error"].startswith("emitted derivation fails its check")

    def test_check_too_deep(self, capsys, tmp_path):
        # JSON nested past the stdlib decoder's limit: json.loads itself
        # recurses, and its RecursionError maps to this error
        deep = "[" * 1200 + "]" * 1200
        path = write(tmp_path / "deep.json", f'{{"formulas": {deep}, "nodes": [], "root": 0}}')
        code, out, err = run(capsys, "prove", "check", path)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "input nests too deeply"}

    def test_search_a_sequent_deeper_than_recursion_limit(self, capsys, tmp_path):
        chain = A
        for _ in range(3000):
            chain = lg.Neg(rl.Endo((1, 0)), chain)
        items = (lg.IFormula(3, lg.Atom("p")), lg.IFormula(1, chain))
        path = write(tmp_path / "seq.json", lg.sequent_to_json(items))
        code, out, _ = run(capsys, "prove", "search", "--sequent", path,
                           "--calculus", "mrl", "--roles", "2", "--depth", "3")
        assert code == 0
        d = kn.derivation_from_json(out)
        assert lg.seq_equal(d.conclusion, items)
        kn.check(d, kn.MRL(2))

    def test_check_deeper_than_recursion_limit(self, capsys, tmp_path):
        path = write(tmp_path / "deep.json", kn.derivation_to_json(deep_derivation(5000)))
        code, out, _ = run(capsys, "prove", "check", path, "--calculus", "mrl")
        assert code == 0
        assert json.loads(out) == {"ok": True, "rules": ["contract", "id", "weaken"],
                                   "height": 5000}

    @pytest.mark.parametrize("action", ["cut", "cutres", "mpcut"])
    def test_cut_of_a_shared_derivation(self, capsys, monkeypatch, tmp_path, action):
        # a file of 42 nodes whose tree has 2^40 leaves: every cut reduces
        # each shared node once
        k = 40
        d = shared_conj(k, lg.IFormula(0 if action == "cut" else 2, B))
        ax = kn.axiom_multi(B, [1, 2], kn.MRL(2))
        files = [write(tmp_path / "d.json", kn.derivation_to_json(d))]
        if action != "cut":
            files += [write(tmp_path / "ax.json", kn.derivation_to_json(ax)),
                      "--at", "{1}", "{0}"]
        commutes = work_bound(monkeypatch, kn, "_commute", 4 * k)
        code, out, _ = run(capsys, "prove", action, *files, "--on", "b", "--calculus", "mrl")
        assert code == 0
        assert commutes[0] >= k
        kn.check(kn.derivation_from_json(out), kn.MRL(2))

    @pytest.mark.parametrize("name,obj", malformed_tables())
    def test_check_malformed_table(self, capsys, tmp_path, name, obj):
        path = write(tmp_path / "bad.json", json.dumps(obj))
        code, out, err = run(capsys, "prove", "check", path)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]

    def test_search_not_found(self, capsys, tmp_path):
        items = (lg.IFormula(1, A),)  # lone <{0}>a: complement missing
        path = write(tmp_path / "seq.json", lg.sequent_to_json(items))
        code, out, _ = run(capsys, "prove", "search", "--sequent", path,
                           "--depth", "5")
        assert code == 1
        assert json.loads(out) == {"found": False}

    def test_search_refuses_a_connective_outside_the_calculus(self, capsys, tmp_path):
        # an input error, not a kernel fault: exit 1, not 3
        items = (lg.IFormula(1, A), lg.IFormula(2, A),
                 lg.IFormula(1, lg.parse_formula("(bang @0 b)")))
        path = write(tmp_path / "seq.json", lg.sequent_to_json(items))
        code, out, err = run(capsys, "prove", "search", "--sequent", path,
                             "--calculus", "mrl", "--roles", "2", "--depth", "3")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "connective Bang not in calculus mrl"}


PROTOCOL = """
roles 2
session greet = hello(0, 1)@bye(1, 0)
"""

SCRIPT = """
party {0}: send; recv
party {1}: recv; send
"""


class TestSession:
    def test_check(self, capsys, tmp_path):
        path = write(tmp_path / "p.mrl", PROTOCOL)
        code, out, _ = run(capsys, "session", "check", path)
        assert code == 0
        rep = json.loads(out)
        assert rep["roles"] == 2
        assert "greet" in rep["sessions"]
        assert rep["sessions"]["greet"]["formula"]

    def test_check_bad_protocol(self, capsys, tmp_path):
        path = write(tmp_path / "p.mrl", "session x = a(0,1)")
        code, _, err = run(capsys, "session", "check", path)
        assert code == 1

    def test_check_bad_roles_line(self, capsys, tmp_path):
        path = write(tmp_path / "p.mrl", "roles x\nsession x = hello(0, 1)\n")
        code, _, err = run(capsys, "session", "check", path)
        assert code == 1
        assert "roles N" in json.loads(err)["error"]

    def test_check_later_roles_line_shrinks_universe(self, capsys, tmp_path):
        path = write(tmp_path / "p.mrl",
                     "roles 3\nsession a = m(0, 2)\nroles 2\n")
        code, out, err = run(capsys, "session", "check", path)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == \
            "session a: roles [2] outside universe of 2"

    def test_check_negative_unroll(self, capsys, tmp_path):
        path = write(tmp_path / "p.mrl",
                     "roles 2\nsession loop = repseq(0, m(0, 1))\n")
        code, out, err = run(capsys, "session", "check", path, "--unroll", "-1")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == \
            "session loop: unroll must be at least 0, got -1"

    def test_check_deep_session(self, capsys, tmp_path):
        # 5000 messages nest 5000 deep, and every session pass is a loop
        assert sys.getrecursionlimit() <= 1000
        messages = "@".join(["m(0, 1)", "n(1, 0, int)"] * 2500)
        path = write(tmp_path / "p.mrl", f"roles 2\nsession long = {messages}\n")
        code, out, err = run(capsys, "session", "check", path)
        assert (code, err) == (0, "")
        rep = json.loads(out)["sessions"]["long"]
        assert rep["session"] == messages
        assert rep["formula"].count("(tensor @0 ") == 4999

    def test_simulate(self, capsys, tmp_path):
        p = write(tmp_path / "p.mrl", PROTOCOL)
        s = write(tmp_path / "s.mrl", SCRIPT)
        code, out, _ = run(capsys, "session", "simulate", p, s)
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["status"] == "done"
        assert summary["sync_events"] == 2
        assert summary["relaxed_throughout"] is True

    def test_simulate_runs_past_ten_thousand_steps(self, capsys, tmp_path):
        p = write(tmp_path / "p.mrl",
                  "roles 2\nsession loop = repseq(0, m(0, 1)@n(1, 0))\n")
        s = write(tmp_path / "s.mrl", "party {0}: loop 6000 (send; recv)\n"
                                      "party {1}: offer_loop (recv; send)\n")
        code, out, _ = run(capsys, "session", "simulate", p, s)
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["status"] == "done"
        assert summary["sync_events"] == 12001

    def test_simulate_missing_script(self, capsys, tmp_path):
        p = write(tmp_path / "p.mrl", PROTOCOL)
        code, _, err = run(capsys, "session", "simulate", p)
        assert code == 1

    def test_simulate_without_sessions(self, capsys, tmp_path):
        p = write(tmp_path / "p.mrl", "roles 2\n")
        s = write(tmp_path / "s.mrl", SCRIPT)
        code, _, err = run(capsys, "session", "simulate", p, s)
        assert code == 1
        assert "no session" in json.loads(err)["error"]

    @pytest.mark.parametrize("protocol,script,code", [
        # "\u00b2" is a digit to str.isdigit but not to int()
        ("roles 2\nsession x = hello(0, \u00b2)\n", SCRIPT, 1),
        (PROTOCOL, "party {0}: send \u00b2; recv\nparty {1}: recv; send\n", 3),
        (PROTOCOL, "party {0}: loop x (send); recv\n", 1),
    ], ids=["role", "send-payload", "loop-count"])
    def test_bad_numbers(self, capsys, tmp_path, protocol, script, code):
        p = write(tmp_path / "p.mrl", protocol)
        s = write(tmp_path / "s.mrl", script)
        got, out, err = run(capsys, "session", "simulate", p, s)
        assert got == code
        json.loads((err or out).strip().splitlines()[-1])

    def test_simulate_deadlock_exit_code(self, capsys, tmp_path):
        p = write(tmp_path / "p.mrl", PROTOCOL)
        s = write(tmp_path / "s.mrl",
                  "party {0}: recv; send\nparty {1}: recv; send\n")
        code, out, _ = run(capsys, "session", "simulate", p, s)
        assert code in (2, 3)


class TestDemo2:
    def test_requires_flag(self, capsys):
        code, _, err = run(capsys, "demo2")
        assert code == 1

    def test_recv_first_deadlocks(self, capsys):
        code, out, _ = run(capsys, "demo2", "--order", "recv-first",
                           "--allow-demo")
        assert code == 2
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["relaxed_throughout"] is False

    def test_send_first_completes(self, capsys):
        code, out, _ = run(capsys, "demo2", "--order", "send-first",
                           "--allow-demo")
        assert code == 0


MTLC_OK = """
(let (v c2)
     (chan_recv (chan_create (llam (c (chan {0} "ping(0,1,int)@pong(1,0)"))
        (chan_sync (chan_send c 41)))))
  (app (llam (u 1) (iadd v 1)) (chan_sync c2)))
"""


class TestMtlc:
    def test_check(self, capsys, tmp_path):
        path = write(tmp_path / "m.mrl", MTLC_OK)
        code, out, _ = run(capsys, "mtlc", "check", path)
        assert code == 0
        assert json.loads(out)["type"] == "int"

    def test_run(self, capsys, tmp_path):
        path = write(tmp_path / "m.mrl", MTLC_OK)
        code, out, _ = run(capsys, "mtlc", "run", path, "--retype-every-step")
        assert code == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[-1])["value"] == 42
        assert len(lines) > 1  # the trace precedes the summary

    @pytest.mark.parametrize("number", ["\u00b2", "--5"])
    def test_not_a_number(self, capsys, tmp_path, number):
        path = write(tmp_path / "m.mrl", f"(iadd {number} 1)")
        code, _, err = run(capsys, "mtlc", "run", path)
        assert code == 1
        assert "unbound variable" in json.loads(err)["error"]

    def test_type_error(self, capsys, tmp_path):
        path = write(tmp_path / "m.mrl",
                     '(llam (c (chan {0} "a(0,1)")) (tensor c c))')
        code, _, err = run(capsys, "mtlc", "check", path)
        assert code == 1
        assert "ty-var" in json.loads(err)["error"]

    def test_chan_role_set_outside_the_universe(self, capsys, tmp_path):
        path = write(tmp_path / "m.mrl", '(chan_sync (chan_create (llam (c (chan {5} '
                                         '"a(0,1)")) (chan_sync c))))')
        code, out, err = run(capsys, "mtlc", "run", path, "--roles", "2")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "role 5 outside universe of 2 roles"}

    @pytest.mark.parametrize("roles", ["0", "65"])
    @pytest.mark.parametrize("src", ["42", "(iadd 1 2)"])
    def test_universe_is_checked_whatever_the_program(self, capsys, tmp_path, roles, src):
        path = write(tmp_path / "m.mrl", src)
        code, out, err = run(capsys, "mtlc", "check", path, "--roles", roles)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": f"universe size must be in 1..64, got {roles}"}

    @pytest.mark.parametrize("src", [
        "(llam (c (chan {0} (a))) c)",
        '(lam (x (chan (0) "a(0,1)")) x)',
        "(lam (x (int z)) x)",
        "(lam (x (int 1.5)) x)",
        "(lam (x (int (1))) x)",
        "(lam ((x) int) x)",
    ])
    def test_malformed_trees_are_parse_errors(self, capsys, tmp_path, src):
        path = write(tmp_path / "m.mrl", src)
        code, out, err = run(capsys, "mtlc", "check", path)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"].startswith("(parse) unknown ")
        assert "Traceback" not in err


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["prove", "frob"],
        ["mtlc", "run", "p.mrl", "--seed", "z"],
        [],
        ["session", "simulate", "p.mrl"],
    ])
    def test_usage_error_exits_1_with_json(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prove", "--help"])
        assert exc.value.code == 0
        assert "--sequent" in capsys.readouterr().out

    def test_main_builds_no_parser(self, capsys, monkeypatch, axiom_file):
        def fail():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", fail)
        for _ in range(2):
            code, out, _ = run(capsys, "prove", "check", axiom_file)
            assert code == 0 and json.loads(out)["ok"] is True

    def test_calls_do_not_leak(self, capsys, axiom_file):
        code, out, _ = run(capsys, "prove", "check", axiom_file, "--pretty")
        assert code == 0 and out.startswith("{\n  ")
        code, out, _ = run(capsys, "prove", "check", axiom_file)
        assert code == 0 and out.count("\n") == 1
        assert run(capsys, "prove", "frob")[0] == 1
        assert run(capsys, "prove", "check", axiom_file)[0] == 0

    def test_module_entry_point(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)

        def mrl(*argv):
            return subprocess.run([sys.executable, "-m", "multirole.cli", *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=60)

        res = mrl("prove", "frob")
        assert (res.returncode, res.stdout) == (1, "")
        assert "invalid choice" in json.loads(res.stderr)["error"]
        res = mrl("demo2", "--order", "recv-first", "--allow-demo")
        assert res.returncode == 2
        assert json.loads(res.stdout.strip().splitlines()[-1])["status"] == "deadlock"

    def test_import_generates_no_dataclasses(self):
        """Importing the CLI loads neither dataclasses nor inspect: the
        records are built on roles.Record, whose classes cost one exec each."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, multirole.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=path), timeout=60)
        assert (res.returncode, res.stdout, res.stderr) == (0, "[]\n", "")


def mutate(rng: random.Random, text: str, donors: list[str]) -> str:
    """text with one span truncated, deleted, inserted or spliced; inserted
    and spliced spans are cut from the donors."""
    i = rng.randrange(len(text) + 1)
    j = min(len(text), i + rng.randrange(1, 16))
    op = rng.choice(["truncate", "delete", "insert", "splice"])
    if op == "truncate":
        return text[:i]
    if op == "delete":
        return text[:i] + text[j:]
    donor = rng.choice(donors)
    a = rng.randrange(len(donor) + 1)
    span = donor[a:a + rng.randrange(1, 16)]
    return text[:i] + span + text[i if op == "insert" else j:]


def test_mutation_fuzz(capsys, tmp_path):
    """Mutated inputs of eight commands: every call returns 0..3 without
    raising, and every non-zero exit prints JSON."""

    def call(case, argv):
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3), (case, argv)
        if code:
            json.loads((err.strip() or out.strip()).splitlines()[-1])

    derivations = [
        kn.derivation_to_json(kn.axiom_multi(A, [1, 2], kn.LMRL(2))),
        kn.derivation_to_json(kn.axiom_multi(lg.parse_formula(
            "(forall @0 x (tensor @1 (p x) (bang @0 q)))"), [1, 6], kn.LMRL(3))),
    ]
    sequent = lg.sequent_to_json((lg.IFormula(1, lg.parse_formula("(tensor @0 a b)")),
                                  lg.IFormula(2, A), lg.IFormula(2, B)))
    protocol = PROTOCOL + "session loop = repseq(0, m(0, 1)@n(1, 0))\n"
    donors = derivations + [sequent, protocol, SCRIPT, MTLC_OK]
    rng = random.Random(0)
    d, seq, p, s, m = (tmp_path / name for name in
                       ("d.json", "seq.json", "p.mrl", "s.mrl", "m.mrl"))
    for case in range(1500):
        match case % 5:
            case 0:
                k = rng.randrange(2)
                d.write_text(mutate(rng, derivations[k], donors), encoding="utf-8")
                argv = ["prove", "check", str(d), "--roles", str(2 + k)]
            case 1:
                seq.write_text(mutate(rng, sequent, donors), encoding="utf-8")
                argv = ["prove", "search", "--sequent", str(seq), "--depth", "3"]
            case 2:
                p.write_text(mutate(rng, protocol, donors), encoding="utf-8")
                argv = ["session", "check", str(p)]
            case 3:
                mutate_protocol = rng.random() < 0.5
                p.write_text(mutate(rng, protocol, donors) if mutate_protocol
                             else protocol, encoding="utf-8")
                s.write_text(SCRIPT if mutate_protocol
                             else mutate(rng, SCRIPT, donors), encoding="utf-8")
                argv = ["session", "simulate", str(p), str(s)]
            case 4:
                m.write_text(mutate(rng, MTLC_OK, donors), encoding="utf-8")
                argv = ["mtlc", "run", str(m)]
        call(case, argv)

    # the cut actions: one mutated derivation, and for the binary cuts an
    # intact second one carrying the cut formula at the complementary role set
    cut_on = "(tensor @0 a (bang @1 b))"
    f = lg.parse_formula(cut_on)
    erasable = kn.derivation_to_json(kn.axiom_multi(f, [0, 3], kn.LMRL(2)))
    split = kn.derivation_to_json(kn.axiom_multi(f, [1, 2], kn.LMRL(2)))
    donors += [erasable, split]
    other = write(tmp_path / "d2.json", split)
    rng = random.Random(0)
    for case in range(1500):
        action = ("cut", "cutres", "mpcut")[case % 3]
        if action == "cut":
            d.write_text(mutate(rng, erasable, donors), encoding="utf-8")
            argv = ["prove", "cut", str(d), "--on", cut_on]
        else:
            d.write_text(mutate(rng, split, donors), encoding="utf-8")
            argv = ["prove", action, str(d), other, "--on", cut_on, "--at", "{0}", "{1}"]
        call(case, argv)
