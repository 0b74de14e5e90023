"""Batch command-line surface for the proof kernel, sessions, runtime and
the linear calculus.

Every command is deterministic given its flags (one seed drives all
randomness) and prints machine-readable JSON (JSONL for traces); --pretty
switches to indented output. Exit codes are a stable contract:

    0  success
    1  input error (usage, parse failure, type error, check failure, not found)
    2  deadlock detected
    3  runtime fault
"""

from __future__ import annotations

import argparse
import json
import sys

from . import kernel as kn
from . import logic as lg
from . import mtlc as mt
from . import roles as rl
from . import runtime as rt
from . import session as sn

EXIT_OK, EXIT_INPUT, EXIT_DEADLOCK, EXIT_FAULT = 0, 1, 2, 3


def _emit(obj, pretty: bool) -> None:
    print(json.dumps(obj, indent=2 if pretty else None))


def _fail(msg: str, code: int = EXIT_INPUT) -> int:
    print(json.dumps({"error": msg}), file=sys.stderr)
    return code


class UsageError(Exception):
    """A command line that names no valid command, or that lacks a file or
    option its action needs."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise UsageError: the stock one prints
    usage and exits 2, which is the deadlock code.  Subparsers are built
    with the class of their parent, so they raise it too."""

    def error(self, message):
        raise UsageError(message)


def _calculus(args) -> kn.Calculus:
    match args.calculus:
        case "mrl":
            return kn.MRL(args.roles)
        case "mrlj":
            return kn.MRLJ(args.roles, rl.parse_ultra(args.j or "@0"))
        case _:
            return kn.LMRL(args.roles)


def _load_derivation(path: str) -> kn.Derivation:
    with open(path, encoding="utf-8") as fh:
        return kn.derivation_from_json(fh.read())


def _locate(d: kn.Derivation, roleset: int, formula) -> int:
    item = lg.IFormula(roleset, formula)
    for i, it in enumerate(d.conclusion):
        if it == item:
            return i
    raise kn.KernelError(
        f"no i-formula <{rl.fmt_roleset(roleset)}>{lg.fmt_formula(formula)} "
        "in the conclusion")


# ---------------------------------------------------------------- prove


def _files(args, count: int | None) -> list[str]:
    """The derivation files of `mrl prove`: exactly count of them, or one or
    more when count is None."""
    got = len(args.files)
    if not (got > 0 if count is None else got == count):
        want = "one or more" if count is None else count
        raise UsageError(f"prove {args.action} takes {want} derivation "
                         f"file(s), got {got}")
    return args.files


def _option(args, name: str) -> str:
    value = getattr(args, name)
    if value is None:
        raise UsageError(f"prove {args.action} needs --{name}")
    return value


def _rolesets(args, count: int) -> list[int]:
    if len(args.at) != count:
        raise UsageError(f"prove {args.action} needs --at with one role set "
                         f"per derivation ({count}), got {len(args.at)}")
    return [rl.parse_roleset(r) for r in args.at]


def cmd_prove(args) -> int:
    try:
        calc = _calculus(args)
        match args.action:
            case "check":
                (path,) = _files(args, 1)
                d = _load_derivation(path)
                kn.check(d, calc)
                _emit({"ok": True, "rules": sorted(kn.rule_tags(d)),
                       "height": d.height}, args.pretty)
                return EXIT_OK
            case "cut":
                (path,) = _files(args, 1)
                f = lg.parse_formula(_option(args, "on"))
                d = _load_derivation(path)
                out = kn.cut1(d, _locate(d, 0, f), calc)
            case "cutres":
                paths = _files(args, 2)
                f = lg.parse_formula(_option(args, "on"))
                r1, r2 = _rolesets(args, 2)
                d1, d2 = (_load_derivation(p) for p in paths)
                out = kn.cut2_residual(d1, _locate(d1, r1, f),
                                       d2, _locate(d2, r2, f), calc)
            case "mpcut":
                paths = _files(args, None)
                f = lg.parse_formula(_option(args, "on"))
                rs = _rolesets(args, len(paths))
                ds = [_load_derivation(p) for p in paths]
                idx = [_locate(d, r, f) for d, r in zip(ds, rs)]
                out = kn.mp_cut(ds, idx, calc)
            case "search":
                _files(args, 0)
                with open(_option(args, "sequent"), encoding="utf-8") as fh:
                    items = lg.sequent_from_json(fh.read())
                found = kn.search(items, calc, args.depth)
                if found is None:
                    print(json.dumps({"found": False}))
                    return EXIT_INPUT
                out = found
    except (OSError, kn.KernelError, kn.CheckError, lg.FormulaError,
            rl.RoleError, json.JSONDecodeError, ValueError) as e:
        return _fail(str(e))
    kn.check(out, calc)  # never emit an unchecked derivation
    text = kn.derivation_to_json(out, pretty=args.pretty)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


# -------------------------------------------------------------- session


def cmd_session(args) -> int:
    if args.action == "simulate" and not args.script:
        raise UsageError("session simulate needs a script file")
    try:
        with open(args.protocol, encoding="utf-8") as fh:
            n, sessions = sn.parse_protocol(fh.read())
    except (OSError, sn.SessionError, rl.RoleError) as e:
        return _fail(str(e))

    if args.action == "check":
        report = {"roles": n, "sessions": {}}
        for name, s in sessions.items():
            try:
                sn.check_session(s, n)
            except sn.SessionError as e:
                return _fail(f"session {name}: {e}")
            enc = sn.encode_lmrl(s, unroll=args.unroll)
            report["sessions"][name] = {
                "session": sn.fmt_session(s),
                "formula": lg.fmt_formula(enc),
            }
        _emit(report, args.pretty)
        return EXIT_OK

    # simulate
    if not sessions:
        return _fail("the protocol defines no session")
    name = args.session or next(iter(sessions))
    if name not in sessions:
        return _fail(f"no session named {name!r}")
    try:
        with open(args.script, encoding="utf-8") as fh:
            parties = rt.parse_script(fh.read(), n)
        pool = rt.pool_from_scripts(n, sessions[name], parties,
                                    seed=args.seed, allow_demo=args.allow_demo)
    except (OSError, rt.RuntimeFault, rl.RoleError) as e:
        return _fail(str(e))
    # script pools always terminate: every step consumes a finite command
    return _report_run(pool.run(max_steps=None), args)


def cmd_demo2(args) -> int:
    """The two-channels-at-once counterexample: two threads, two channels,
    four endpoints — one short of relaxedness, and the recv-first schedule
    deadlocks."""
    pool = rt.Pool(2, seed=args.seed, allow_demo=args.allow_demo)
    s1 = sn.parse_session("first(0, 1)", 2)
    s2 = sn.parse_session("second(1, 0)", 2)
    try:
        mine1, mine2 = pool.chan2_create_demo(
            0b10, s1, 0b10, s2, (rt.CSync(reg="ep"), rt.CSync(reg="ep2")))
    except rt.DemoDisabled as e:
        return _fail(str(e))
    order = ("b", "a") if args.order == "recv-first" else ("a", "b")
    pool.add_script_thread(tuple(rt.CSync(reg=r) for r in order),
                           {"a": mine1, "b": mine2})
    return _report_run(pool.run(), args)


def _report_run(result: rt.RunResult, args) -> int:
    if result.trace:
        print(rt.trace_jsonl(result.trace))
    summary = {
        "status": result.status,
        "sync_events": len(rt.sync_events(result.trace)),
        "relaxed_throughout": all(ok for _, ok in result.pool.audit_log),
    }
    if result.status != "done":
        summary["detail"] = result.detail
    _emit(summary, args.pretty)
    return {"done": EXIT_OK, "deadlock": EXIT_DEADLOCK}.get(result.status,
                                                            EXIT_FAULT)


# ----------------------------------------------------------------- mtlc


def _value_json(v: mt.Expr):
    match v:
        case mt.EUnit():
            return None
        case mt.EBool(b):
            return b
        case mt.EInt(i):
            return i
        case mt.EStr(s):
            return s
        case mt.EPair(a, b) | mt.ELPair(a, b):
            return [_value_json(a), _value_json(b)]
        case _:
            return f"<{type(v).__name__}>"


def cmd_mtlc(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            expr = mt.parse_program(fh.read(), args.roles)
        ty = mt.typecheck(expr, n=args.roles)
    except (OSError, mt.MtlcTypeError, sn.SessionError, rl.RoleError) as e:
        return _fail(str(e))
    if args.action == "check":
        _emit({"type": mt.fmt_type(ty)}, args.pretty)
        return EXIT_OK
    try:
        result, value = mt.eval_pool(expr, n=args.roles, seed=args.seed,
                                     retype_every_step=args.retype_every_step)
    except (mt.StuckNonRedex, mt.MtlcTypeError, rt.RuntimeFault) as e:
        print(json.dumps({"status": "fault", "detail": str(e)}))
        return EXIT_FAULT
    if result.trace:
        print(rt.trace_jsonl(result.trace))
    summary = {"status": result.status, "type": mt.fmt_type(ty)}
    if result.status == "done":
        summary["value"] = _value_json(value)
    else:
        summary["detail"] = result.detail
    _emit(summary, args.pretty)
    return {"done": EXIT_OK, "deadlock": EXIT_DEADLOCK}.get(result.status,
                                                            EXIT_FAULT)


# --------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="mrl", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--roles", type=int, default=2, metavar="N",
                       help="universe size (default 2)")
        p.add_argument("--seed", type=int, default=0, metavar="S")
        p.add_argument("--pretty", action="store_true")

    pv = sub.add_parser("prove", help="check, cut and search derivations")
    pv.add_argument("action", choices=["check", "cut", "cutres", "mpcut", "search"])
    pv.add_argument("files", nargs="*", help="derivation JSON files")
    pv.add_argument("--calculus", choices=["mrl", "mrlj", "lmrl"], default="lmrl")
    pv.add_argument("--j", metavar="@r", help="ultrafilter for mrlj")
    pv.add_argument("--on", metavar="FORMULA", help="cut formula (s-expression)")
    pv.add_argument("--at", nargs="*", default=(), metavar="ROLESET",
                    help="role sets carrying the cut formula")
    pv.add_argument("--sequent", metavar="FILE", help="sequent JSON for search")
    pv.add_argument("--depth", type=int, default=6, metavar="K")
    pv.add_argument("--out", metavar="FILE", help="also write the result here")
    common(pv)
    pv.set_defaults(fn=cmd_prove)

    se = sub.add_parser("session", help="validate protocols and simulate runs")
    se.add_argument("action", choices=["check", "simulate"])
    se.add_argument("protocol", help="protocol file (roles N + session defs)")
    se.add_argument("script", nargs="?", help="party script file (simulate)")
    se.add_argument("--session", metavar="NAME", help="which session to run")
    se.add_argument("--unroll", type=int, default=0, metavar="K")
    se.add_argument("--allow-demo", action="store_true")
    common(se)
    se.set_defaults(fn=cmd_session)

    de = sub.add_parser("demo2", help="the unsafe two-channel creation demo")
    de.add_argument("--order", choices=["recv-first", "send-first"],
                    default="recv-first")
    de.add_argument("--allow-demo", action="store_true")
    common(de)
    de.set_defaults(fn=cmd_demo2)

    ml = sub.add_parser("mtlc", help="typecheck and run calculus programs")
    ml.add_argument("action", choices=["check", "run"])
    ml.add_argument("file", help="program source (s-expression)")
    ml.add_argument("--retype-every-step", action="store_true")
    common(ml)
    ml.set_defaults(fn=cmd_mtlc)

    return ap


PARSER = build_parser()  # parsing never changes it, and no default is mutable


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
