"""Command-line entry point.

Exit codes: 0 success, 1 domain error, 2 usage error.  Configuration
flags may be seeded from AUTOPLEX_* environment variables; explicit
flags win.  JSON output renders integers beyond the double-safe range
as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import acsearch, analysis, debruijn, dio, psc, tseq, witness
from .automata import Dfa

_JSON_SAFE = 1 << 53


@dataclass
class Config:
    zone_cap: int = psc.DEFAULT_ZONE_CAP
    state_cap: int = witness.DEFAULT_STATE_BUDGET
    prefix_cap: int = 1 << 24
    fmt: str = "text"
    seed: int = 0

    def __post_init__(self):
        if min(self.zone_cap, self.state_cap, self.prefix_cap) < 1:
            raise ValueError("caps must be positive")
        if self.fmt not in ("text", "json", "csv"):
            raise ValueError("format must be text, json or csv")


def _env(name: str, default, cast=int):
    raw = os.environ.get(f"AUTOPLEX_{name}")
    if raw is None:
        return default
    return cast(raw)


def _jsonable(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return obj if -_JSON_SAFE < obj < _JSON_SAFE else str(obj)
    if isinstance(obj, Fraction):
        return {"num": _jsonable(obj.numerator), "den": _jsonable(obj.denominator)}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(payload: dict, cfg: Config, text: str | None = None, csv: str | None = None):
    if cfg.fmt == "json":
        print(json.dumps(_jsonable(payload)))
    elif cfg.fmt == "csv" and csv is not None:
        sys.stdout.write(csv)
    else:
        print(text if text is not None else json.dumps(_jsonable(payload)))


# -- subcommand handlers -------------------------------------------------------


def _cmd_debruijn(args, cfg):
    d = debruijn.generate_with_start_bit(args.order, args.start_bit, cap=cfg.zone_cap + 4)
    if args.rotate:
        d = debruijn.rotate(d, args.rotate)
    _emit({"order": d.order, "rotation": d.rotation, "bits": str(d.bits)}, cfg, text=str(d.bits))
    return 0


def _cmd_psc(args, cfg):
    seq = psc.PscSequence(zone_cap=cfg.zone_cap)
    if args.action == "zone":
        bits = str(seq.zone(args.n))
        _emit({"n": args.n, "bits": bits}, cfg, text=bits)
    elif args.action == "prefix":
        if args.bits > cfg.prefix_cap:
            raise ValueError(f"prefix length exceeds cap {cfg.prefix_cap}")
        bits = str(seq.prefix(args.bits))
        _emit({"bits": bits}, cfg, text=bits)
    elif args.action == "verify":
        ok = seq.verify_zone(args.n)
        _emit({"n": args.n, "ok": ok}, cfg, text="ok" if ok else "FAIL")
        return 0 if ok else 1
    else:  # lemma
        report = seq.verify_loop_lemma(args.j)
        _emit(report, cfg, text=f"j={args.j} modulus={report['modulus']} "
              f"violations={report['violations']} ok={report['ok']}")
        return 0 if report["ok"] else 1
    return 0


def _cmd_tseq(args, cfg):
    params = tseq.TParams(args.mode)
    if args.action == "prefix":
        if args.bits > cfg.prefix_cap:
            raise ValueError(f"prefix length exceeds cap {cfg.prefix_cap}")
        bits = str(tseq.prefix(args.bits, params))
        _emit({"bits": bits, "mode": args.mode}, cfg, text=bits)
    else:  # len
        if args.log10:
            digits = tseq.zone_length_digits(args.zone, params)
            _emit({"zone": args.zone, "digits": digits}, cfg, text=str(digits))
        else:
            value = tseq.zone_length(args.zone, params)
            _emit({"zone": args.zone, "length": value}, cfg, text=str(value))
    return 0


def _cmd_dfa(args, cfg):
    if args.action == "count" and not 0 <= args.len <= cfg.prefix_cap:
        raise ValueError(f"--len must be in [0, {cfg.prefix_cap}] (the prefix cap)")
    m = Dfa.from_json(sys.stdin.read())
    if args.action == "count":
        c = m.count_accepted(args.len)
        _emit({"len": args.len, "count": c}, cfg, text=str(c))
    else:  # accepts
        ok = m.uniquely_accepts(args.string) if args.unique else m.accepts(args.string)
        _emit({"string": args.string, "ok": ok}, cfg, text="yes" if ok else "no")
        return 0 if ok else 1
    return 0


def _cmd_acx(args, cfg):
    if args.action == "exact":
        res = acsearch.exact_A(args.string, max_states=args.max_states)
    else:
        res = acsearch.brute_A(args.string)
        if res is None:
            _emit({"value": None}, cfg, text="none within the search bounds")
            return 1
    payload = {"value": res.value, "witness": json.loads(res.witness.to_json())}
    _emit(payload, cfg, text=f"{res.value} witness={res.witness.to_json()}")
    return 0


def _spec_payload(spec: witness.WitnessSpec) -> dict:
    cert = witness.acceptance_length_equation(spec)
    return {
        "name": spec.name,
        "state_count": spec.state_count,
        "target_len": spec.target_len,
        "equation": {
            "coefficients": list(cert.coefficients),
            "constant": cert.constant,
            "target": cert.target,
            "bounds": list(cert.bounds),
        },
        "solutions": [list(s) for s in cert.solutions],
        "unique": cert.unique,
    }


def _cmd_witness(args, cfg):
    if args.action == "case":
        spec = witness.build_case(args.case, args.n, args.plen)
    elif args.action == "mhat":
        spec = witness.build_Mhat(compact=args.compact)
    elif args.action == "m1":
        spec = witness.build_M1(args.n, tseq.TParams(args.mode))
    else:
        spec = witness.build_M2(args.n, args.wlen, tseq.TParams(args.mode))
    payload = _spec_payload(spec)
    if getattr(args, "materialize", False):
        dfa = witness.materialize(spec, max_states=cfg.state_cap)
        payload["uniquely_accepts_target"] = dfa.uniquely_accepts(spec.accepted_string())
    _emit(payload, cfg, text=json.dumps(_jsonable(payload), indent=2))
    return 0


def _parse_min_vars(pairs, k):
    bounds = [0] * k
    for item in pairs or []:
        i, v = item.split(":")
        bounds[int(i)] = int(v)
    return bounds


def _cmd_dio(args, cfg):
    coeffs = [int(c) for c in args.coeffs.split(",")]
    bounds = _parse_min_vars(args.min_var, len(coeffs))
    cert = dio.enumerate_nonneg(coeffs, args.const, args.target, bounds)
    payload = {
        "coefficients": list(cert.coefficients),
        "constant": cert.constant,
        "target": cert.target,
        "bounds": list(cert.bounds),
        "solutions": [list(s) for s in cert.solutions],
        "unique": cert.unique,
    }
    if len(coeffs) == 2:
        fam = dio.solve_two(coeffs[0], coeffs[1], args.target - args.const)
        payload["family"] = None if fam is None else {
            "base": list(fam["base"]), "step": list(fam["step"])
        }
    _emit(payload, cfg, text=json.dumps(_jsonable(payload), indent=2))
    return 0


def _cmd_rates(args, cfg):
    if args.action == "series":
        ns = [int(v) for v in args.n_list.split(",")]
        values = analysis.bound_series(args.which, ns)
        rows = ["n,bound_num,bound_den,bound_decimal"]
        rows += [f"{n},{v.numerator},{v.denominator},{float(v):.10f}" for n, v in zip(ns, values)]
        _emit(
            {"which": args.which, "n": ns, "values": values},
            cfg,
            text="\n".join(f"{n}: {float(v):.10f}" for n, v in zip(ns, values)),
            csv="\n".join(rows) + "\n",
        )
    else:
        ms = list(range(args.from_m, args.to_m + 1, args.step))
        points = analysis.rate_profile(args.seq, ms)
        csv = analysis.rate_points_csv(points)
        _emit(
            {"seq": args.seq, "points": [
                {"m": p.m, "bound": p.bound, "source": p.source} for p in points]},
            cfg,
            text="\n".join(f"{p.m}: {float(p.bound):.10f} ({p.source})" for p in points),
            csv=csv,
        )
    return 0


def _cmd_verify(args, cfg):
    checks = []
    hi = min(args.max_order, cfg.zone_cap)
    seq = psc.PscSequence(zone_cap=cfg.zone_cap)
    for n in range(1, hi + 1):
        d = debruijn.generate_lex_least(n)
        checks.append((f"debruijn n={n}", debruijn.is_debruijn(d.bits, n)))
    for n in range(1, hi + 1):
        checks.append((f"zone n={n}", seq.verify_zone(n)))
    for j in (3, 4, 5):
        checks.append((f"loop lemma j={j}", seq.verify_loop_lemma(j)["ok"]))
    ok = all(flag for _, flag in checks)
    text = "\n".join(f"{'ok  ' if flag else 'FAIL'} {name}" for name, flag in checks)
    _emit({"ok": ok, "checks": [{"name": n, "ok": f} for n, f in checks]}, cfg, text=text)
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="autoplex")
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default=_env("FORMAT", "text", str))
    parser.add_argument("--zone-cap", type=int, default=_env("ZONE_CAP", psc.DEFAULT_ZONE_CAP))
    parser.add_argument("--state-cap", type=int, default=_env("STATE_CAP", witness.DEFAULT_STATE_BUDGET))
    parser.add_argument("--prefix-cap", type=int, default=_env("PREFIX_CAP", 1 << 24))
    parser.add_argument("--seed", type=int, default=_env("SEED", 0))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("debruijn")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--start-bit", type=int, default=0, choices=(0, 1))
    p.add_argument("--rotate", type=int, default=0)

    p = sub.add_parser("psc")
    ps = p.add_subparsers(dest="action", required=True)
    ps.add_parser("zone").add_argument("--n", type=int, required=True)
    ps.add_parser("prefix").add_argument("--bits", type=int, required=True)
    ps.add_parser("verify").add_argument("--n", type=int, required=True)
    ps.add_parser("lemma").add_argument("--j", type=int, required=True)

    p = sub.add_parser("tseq")
    ts = p.add_subparsers(dest="action", required=True)
    q = ts.add_parser("prefix")
    q.add_argument("--bits", type=int, required=True)
    q.add_argument("--mode", choices=("scaled", "exact"), default="scaled")
    q = ts.add_parser("len")
    q.add_argument("--zone", type=int, required=True)
    q.add_argument("--mode", choices=("scaled", "exact"), default="scaled")
    q.add_argument("--log10", action="store_true")

    p = sub.add_parser("dfa")
    ds = p.add_subparsers(dest="action", required=True)
    ds.add_parser("count").add_argument("--len", type=int, required=True)
    q = ds.add_parser("accepts")
    q.add_argument("--string", required=True)
    q.add_argument("--unique", action="store_true")

    p = sub.add_parser("acx")
    asub = p.add_subparsers(dest="action", required=True)
    q = asub.add_parser("exact")
    q.add_argument("--string", required=True)
    q.add_argument("--max-states", type=int, default=None)
    asub.add_parser("brute").add_argument("--string", required=True)

    p = sub.add_parser("witness")
    ws = p.add_subparsers(dest="action", required=True)
    q = ws.add_parser("case")
    q.add_argument("--case", type=int, required=True, choices=(1, 2, 3, 4))
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--plen", type=int, default=0)
    q.add_argument("--materialize", action="store_true")
    q = ws.add_parser("mhat")
    q.add_argument("--compact", action="store_true")
    q = ws.add_parser("m1")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--mode", choices=("scaled", "exact"), default="scaled")
    q = ws.add_parser("m2")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--wlen", type=int, required=True)
    q.add_argument("--mode", choices=("scaled", "exact"), default="scaled")

    p = sub.add_parser("dio")
    dsub = p.add_subparsers(dest="action", required=True)
    q = dsub.add_parser("solve")
    q.add_argument("--coeffs", required=True)
    q.add_argument("--const", type=int, required=True)
    q.add_argument("--target", type=int, required=True)
    q.add_argument("--min-var", action="append")

    p = sub.add_parser("rates")
    p.add_argument("--seq", choices=("psc", "tseq"), default="psc")
    p.add_argument("--from", dest="from_m", type=int, default=1)
    p.add_argument("--to", dest="to_m", type=int, default=20)
    p.add_argument("--step", type=int, default=1)
    rs = p.add_subparsers(dest="action", required=False)
    q = rs.add_parser("series")
    q.add_argument("--which", required=True)
    q.add_argument("--n-list", required=True)

    p = sub.add_parser("verify")
    p.add_argument("--max-order", type=int, default=10)

    return parser


_HANDLERS = {
    "debruijn": _cmd_debruijn,
    "psc": _cmd_psc,
    "tseq": _cmd_tseq,
    "dfa": _cmd_dfa,
    "acx": _cmd_acx,
    "witness": _cmd_witness,
    "dio": _cmd_dio,
    "rates": _cmd_rates,
    "verify": _cmd_verify,
}


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = Config(
            zone_cap=args.zone_cap,
            state_cap=args.state_cap,
            prefix_cap=args.prefix_cap,
            fmt=args.format,
            seed=args.seed,
        )
        if getattr(args, "action", None) is None and args.command == "rates":
            args.action = "profile"
        return _HANDLERS[args.command](args, cfg)
    except (ValueError, OverflowError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())
