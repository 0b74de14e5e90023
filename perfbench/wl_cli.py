"""cli: a fixed batch of small `mrl` commands driven through cli.main
in-process, stdout and stderr captured, over files written at set-up.

With inputs this small, argument parsing, file and JSON I/O and the re-check
of emitted derivations dominate.  Every command's exit code and JSON fields
are known in advance.  Two commands fail today because of faults in the
program and are counted as failed operations until the program maps them to
exit 1 with a JSON error (which costs no extra time):
- `session check` on a protocol whose first line is `roles x`;
- `prove check` on a derivation JSON without "conclusion".
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from multirole import cli
from multirole import kernel as kn
from multirole import logic as lg
from multirole import mtlc as mt
from multirole import roles as rl
from multirole import runtime as rt
from multirole import session as sn
from multirole.logic import IFormula

import gen
from core import Job, expect
from wl_mtlc import chain
from wl_proof import cut_free, search_input

N = 3
FULL = rl.full_set(N)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _last_json(text: str):
    return json.loads(text.strip().splitlines()[-1])


def _error_exit(res, code: int = 1):
    got, out, err = res
    expect(got == code, f"exit {got}, expected {code}")
    expect("error" in json.loads(err), "no JSON error on stderr")


class Files:
    """Input files for one workload process, written once at set-up."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = self.root / f"{self.count:03d}-{stem}"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _derivation_jobs(rng, files: Files, i: int) -> list[Job]:
    calc = kn.LMRL(N)
    a = gen.formula(rng, "lmrl", N, (1, 2, 3, 5)[i % 4])
    text = lg.fmt_formula(a)
    jobs = []

    d = kn.axiom_multi(a, gen.partition(rng, N, 2), calc)
    path = files.write("axiom.json", kn.derivation_to_json(d))
    want_rules = sorted(kn.rule_tags(d))

    def check_ok(res):
        code, out, _ = res
        expect(code == 0, f"exit {code}")
        got = json.loads(out)
        expect(got == {"ok": True, "rules": want_rules, "height": d.height},
               f"unexpected check report {got}")

    jobs.append(Job(f"prove-check:{i}", "prove-check",
                    lambda: _call(["prove", "check", path, "--roles", str(N)]), check_ok))

    r1 = rng.randrange(1 << N)
    r2 = (FULL & ~r1) | (rng.randrange(1 << N) & r1)
    d1 = kn.axiom_multi(a, [r1, FULL & ~r1], calc)
    d2 = kn.axiom_multi(a, [r2, FULL & ~r2], calc)
    p1 = files.write("d1.json", kn.derivation_to_json(d1))
    p2 = files.write("d2.json", kn.derivation_to_json(d2))
    argv = ["prove", "cutres", p1, p2, "--on", text,
            "--at", rl.fmt_roleset(r1), rl.fmt_roleset(r2), "--roles", str(N)]
    want = (IFormula(FULL & ~r1, a), IFormula(FULL & ~r2, a), IFormula(r1 & r2, a))
    jobs.append(Job(f"prove-cutres:{i}", "prove-cutres", lambda: _call(argv),
                    lambda res: _emitted(res, want, calc)))

    comps = gen.partition(rng, N, 3)
    paths = [files.write("mp.json", kn.derivation_to_json(
        kn.axiom_multi(a, [FULL & ~c, c], calc))) for c in comps]
    argv2 = ["prove", "mpcut", *paths, "--on", text,
             "--at", *[rl.fmt_roleset(FULL & ~c) for c in comps], "--roles", str(N)]
    want2 = tuple(IFormula(c, a) for c in comps)
    jobs.append(Job(f"prove-mpcut:{i}", "prove-mpcut", lambda: _call(argv2),
                    lambda res: _emitted(res, want2, calc)))
    return jobs


def _emitted(res, want, calc):
    code, out, _ = res
    expect(code == 0, f"exit {code}")
    d = kn.derivation_from_json(out, N)
    kn.check(d, calc)
    expect(cut_free(d), "emitted a cut")
    expect(lg.seq_equal(d.conclusion, want), "unexpected emitted conclusion")


def _search_job(rng, files: Files, i: int, provable: bool) -> Job:
    calc = kn.LMRL(N)
    items, depth = search_input(rng, (1, 2, 3)[i % 3], 2, provable)
    path = files.write("seq.json", lg.sequent_to_json(items))
    argv = ["prove", "search", "--sequent", path, "--depth", str(depth), "--roles", str(N)]

    def check(res):
        code, out, _ = res
        if not provable:
            expect(code == 1 and json.loads(out) == {"found": False},
                   "search reported a proof of a non-theorem")
            return
        expect(code == 0, f"exit {code}")
        d = kn.derivation_from_json(out, N)
        kn.check(d, calc)
        expect(lg.seq_equal(d.conclusion, items), "search proved another sequent")

    return Job(f"prove-search:{i}", "prove-search", lambda: _call(argv), check)


def _session_jobs(rng, files: Files, i: int) -> list[Job]:
    n = 2 + i % 2
    s = gen.session(rng, n, 1, 2 + i % 4, fork=False, gather=False)
    side, loops = "lr"[i % 2], i % 3
    proto = files.write("proto.mrl", f"roles {n}\nsession main = {sn.fmt_session(s)}\n")
    parts = gen.partition(rng, n, 1 + i % n, nonempty=True)
    # a script with explicit loop counts and choices, as a user would write it
    segs = rt.norm(s)
    scripts = "\n".join(
        f"party {rl.fmt_roleset(p)}: "
        + _script_text(rt.synthesize(segs, p, rt.Decisions([side] * 64, [loops] * 64)))
        for p in parts)
    script = files.write("parties.mrl", scripts + "\n")
    want_events = gen.sync_count(s, side, loops)

    def check_session(res):
        code, out, _ = res
        expect(code == 0, f"exit {code}")
        report = json.loads(out)
        expect(report["roles"] == n, "wrong universe")
        expect(sn.parse_session(report["sessions"]["main"]["session"], n) == s,
               "reported session differs")

    def check_sim(res):
        code, out, _ = res
        expect(code == 0, f"exit {code}")
        summary = _last_json(out)
        expect(summary == {"status": "done", "sync_events": want_events,
                           "relaxed_throughout": True}, f"unexpected summary {summary}")

    return [
        Job(f"session-check:{i}", "session-check",
            lambda: _call(["session", "check", proto]), check_session),
        Job(f"session-simulate:{i}", "session-simulate",
            lambda: _call(["session", "simulate", proto, script, "--seed", str(i)]),
            check_sim),
    ]


def _script_text(cmds) -> str:
    parts = []
    for c in cmds:
        match c:
            case rt.CSend(payload):
                parts.append("send" if payload is None else f"send {payload}")
            case rt.CRecv():
                parts.append("recv")
            case rt.CSync():
                parts.append("sync")
            case rt.CChoose(side):
                parts.append(f"choose {side}")
            case rt.COffer(left, right):
                parts.append(f"offer ({_script_text(left)} | {_script_text(right)})")
            case rt.CLoop(count, body):
                parts.append(f"loop {count} ({_script_text(body)})")
            case rt.COfferLoop(body):
                parts.append(f"offer_loop ({_script_text(body)})")
            case _:
                raise ValueError(f"no script syntax for {c!r}")
    return "; ".join(parts)


def _mtlc_jobs(rng, files: Files, i: int) -> list[Job]:
    expr, total = chain(rng, (4, 6, 8)[i % 3])
    path = files.write("chain.mrl", _program_text(expr))

    def check_type(res):
        code, out, _ = res
        expect(code == 0 and json.loads(out) == {"type": "int"}, f"unexpected {res}")

    def check_run(res):
        code, out, _ = res
        expect(code == 0, f"exit {code}")
        summary = _last_json(out)
        expect(summary == {"status": "done", "type": "int", "value": total},
               f"unexpected summary {summary}")

    return [
        Job(f"mtlc-check:{i}", "mtlc-check",
            lambda: _call(["mtlc", "check", path]), check_type),
        Job(f"mtlc-run:{i}", "mtlc-run",
            lambda: _call(["mtlc", "run", path, "--seed", str(i)]), check_run),
        Job(f"mtlc-run-retyped:{i}", "mtlc-run-retyped",
            lambda: _call(["mtlc", "run", path, "--retype-every-step"]), check_run),
    ]


def _program_text(e) -> str:
    """Source text of a chain program (the subset of the syntax it uses)."""
    match e:
        case mt.EVar(x):
            return x
        case mt.EInt(v):
            return str(v)
        case mt.EUnit():
            return "unit"
        case mt.ELLam(x, t, body):
            return f"(llam ({x} {_type_text(t)}) {_program_text(body)})"
        case mt.EApp(f, a):
            return f"(app {_program_text(f)} {_program_text(a)})"
        case mt.ELet(x1, x2, p, b):
            return f"(let ({x1} {x2}) {_program_text(p)} {_program_text(b)})"
        case mt.EConst(name, args):
            return "(" + " ".join([name] + [_program_text(a) for a in args]) + ")"
    raise ValueError(f"no source syntax for {e!r}")


def _type_text(t) -> str:
    match t:
        case mt.TUnit():
            return "1"
        case mt.TInt():
            return "int"
        case mt.TChan(roles_, cursor):
            body = "@".join(sn.fmt_session(s) for s in cursor)
            return f'(chan {rl.fmt_roleset(roles_)} "{body}")'
    raise ValueError(f"no source syntax for {t!r}")


def _fixed_jobs(files: Files) -> list[Job]:
    """Seed-independent commands with fixed answers, faults included."""
    jobs = []

    def demo(res):
        code, out, _ = res
        expect(code == 2 and _last_json(out)["status"] == "deadlock",
               "demo2 did not deadlock")

    jobs.append(Job("demo2", "demo2",
                    lambda: _call(["demo2", "--order", "recv-first", "--allow-demo"]), demo))
    bad_json = files.write("bad.json", "{not json")
    bad_proto = files.write("bad.mrl", "roles 2\nsession x = hello(0, 1)@\n")
    bad_prog = files.write("bad-prog.mrl", "(app 1 2)")
    roles_x = files.write("roles-x.mrl", "roles x\nsession x = hello(0, 1)\n")
    no_concl = files.write("no-conclusion.json", json.dumps(
        {"rule": "id", "inst": {}, "premises": []}))
    for name, argv in (
        ("bad-json", ["prove", "check", bad_json]),
        ("bad-session", ["session", "check", bad_proto]),
        ("bad-program", ["mtlc", "check", bad_prog]),
        ("missing-file", ["mtlc", "run", str(files.root / "absent.mrl")]),
        # the two faults: a traceback escapes cli.main today
        ("roles-x", ["session", "check", roles_x]),
        ("no-conclusion", ["prove", "check", no_concl]),
    ):
        jobs.append(Job(f"malformed:{name}", "malformed",
                        lambda argv=argv: _call(argv), _error_exit))
    return jobs


def build(seed: int, files: Files) -> list[Job]:
    rng = random.Random(f"cli:{seed}")
    jobs = _fixed_jobs(files)
    for i in range(12):
        jobs += _derivation_jobs(rng, files, i)
    for i in range(12):
        jobs.append(_search_job(rng, files, i, provable=i % 3 != 2))
    for i in range(14):
        jobs += _session_jobs(rng, files, i)
    for i in range(10):
        jobs += _mtlc_jobs(rng, files, i)
    return jobs
