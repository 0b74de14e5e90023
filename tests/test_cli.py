import json

import pytest

from multirole import kernel as kn
from multirole import logic as lg
from multirole.cli import main

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
        path = write(tmp_path / "d.json", json.dumps({"rule": "id"}))
        code, _, err = run(capsys, "prove", "check", path)
        assert code == 1
        assert "conclusion" in json.loads(err)["error"]

    def test_search_not_found(self, capsys, tmp_path):
        items = (lg.IFormula(1, A),)  # lone <{0}>a: complement missing
        path = write(tmp_path / "seq.json", lg.sequent_to_json(items))
        code, out, _ = run(capsys, "prove", "search", "--sequent", path,
                           "--depth", "5")
        assert code == 1
        assert json.loads(out) == {"found": False}


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

    def test_type_error(self, capsys, tmp_path):
        path = write(tmp_path / "m.mrl",
                     '(llam (c (chan {0} "a(0,1)")) (tensor c c))')
        code, _, err = run(capsys, "mtlc", "check", path)
        assert code == 1
        assert "ty-var" in json.loads(err)["error"]
