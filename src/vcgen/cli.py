"""Command-line interface tying the pipeline together.

Subcommands: generate, solve, classify, verify, oracle, bound.
Exit codes: 0 success / YES, 1 solve answered NO, 2 generation or
verification failure, 3 input error (usage errors included).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import ContractError, InputDomainError, VcgenError
from .graphs import Graph, Instance, parse_graph, parse_instance, vc_oracle
from .measure import (
    BranchVector,
    branching_number,
    check_feasibility,
    combine_bound,
    format_measure,
    generation_admissible,
    parse_measure_tokens,
    parse_rational,
)
from .rulegen import GenLimits, RuleTable, gensa, table_from_json, table_to_json, verify_table
from .runtime import TableEngine, TraceStep, TrialPlan
from .subspaces import SUBSPACE_IDS, assertions_for, classify, parse_subspace, root_config, subspace_name

EXIT_OK = 0
EXIT_NO = 1
EXIT_FAILED = 2
EXIT_INPUT = 3

DEFAULT_SEED = 2024


def _read(path: str | Path) -> str:
    """The text of an input file, line ends as written; a file that cannot
    be read as UTF-8 text is an input error."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputDomainError(f"cannot read {path}: {exc}") from None


def _load_table(path: str | Path) -> RuleTable:
    text = _read(path)
    try:
        return table_from_json(text)
    except InputDomainError as exc:
        raise InputDomainError(f"{path}: {exc}") from None


def _load_instance(path: str) -> Instance:
    return parse_instance(_read(path))


def _load_graph(path: str) -> Graph:
    return parse_graph(_read(path))


def cmd_generate(args) -> int:
    measure = parse_measure_tokens(args.measure)
    adm = generation_admissible(measure)
    if not adm.ok:
        raise InputDomainError("infeasible measure: " + "; ".join(adm.violations))
    sids = sorted({parse_subspace(s) for s in args.subspace}) if args.subspace else list(SUBSPACE_IDS)
    limits = GenLimits(args.depth, args.nodes, args.seconds)
    mode = {"det": "deterministic", "rand": "randomized"}[args.mode]
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputDomainError(f"cannot write tables to {out_dir}: {exc}") from None
    all_ok = True
    print(f"measure: {format_measure(measure)}  mode: {mode}")
    for sid in sids:
        t0 = time.time()
        name = subspace_name(sid)
        try:
            table = gensa(
                root_config(sid),
                measure,
                rule_mode=mode,
                assertions=assertions_for(sid),
                limits=limits,
                subspace_id=sid,
            )
        except ContractError as exc:  # a generated rule failed its leaf check
            all_ok = False
            print(f"{name}: FAILED ({time.time() - t0:.1f}s)")
            print(f"  {exc}")
            continue
        if not table.complete:
            all_ok = False
            print(f"{name}: FAILED ({time.time() - t0:.1f}s)")
            print(table.failure.describe())
            continue
        cert = verify_table(table)
        path = out_dir / f"{name}.json"
        try:
            path.write_text(table_to_json(table))
        except OSError as exc:
            raise InputDomainError(f"cannot write {path}: {exc}") from None
        rules = sum(1 for n in table.tree.nodes if n.kind == "leaf" and n.leaf.kind == "rule")
        worst = max(cert.leaf_objectives.values(), default=Fraction(0))
        status = "certified" if cert.ok else "CERTIFICATE FAILED"
        print(
            f"{name}: {status}, nodes={len(table.tree.nodes)}, rule-leaves={rules},"
            f" max-objective={float(worst):.6f}, {time.time() - t0:.1f}s -> {path}"
        )
        if not cert.ok:
            all_ok = False
            for f in cert.failures[:5]:
                print("  " + f)
    return EXIT_OK if all_ok else EXIT_FAILED


def _load_tables(paths: list[str]) -> dict:
    named: dict[str, Path] = {}  # a file named twice is read once
    for p in paths:
        path = Path(p)
        for f in sorted(path.glob("P*.json")) if path.is_dir() else [path]:
            named.setdefault(os.path.realpath(f), f)
    tables, sources = {}, {}
    for f in named.values():
        table = _load_table(f)
        sid = table.subspace_id
        if sid is None:
            raise VcgenError(f"{f}: table has no subspace id")
        if sid in tables:
            raise InputDomainError(f"{sources[sid]} and {f} are both tables for {subspace_name(sid)}")
        tables[sid], sources[sid] = table, f
    return tables


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    tables = _load_tables(args.tables)
    if not tables:
        raise InputDomainError("no tables found")
    measure = next(iter(tables.values())).measure
    engine = TableEngine(tables, measure)
    if args.mode == "det":
        cover = engine.deterministic_cover(inst)
        answer = cover is not None
        print("YES" if answer else "NO")
        if answer and args.show_cover:
            print("cover:", sorted(cover))
        return EXIT_OK if answer else EXIT_NO
    plan = TrialPlan.for_instance(measure, inst, safety=args.safety, base_seed=args.seed)
    traces: Optional[list[list[TraceStep]]] = [] if args.trace else None
    result = engine.solve_randomized(inst, plan, traces)
    for i, steps in enumerate(traces or ()):
        for step in steps:
            print(f"trial {i}: {step.format()}")
    print(f"mu = {float(result.mu):.6f}, trials = {plan.trials}, successes = {result.successes}")
    print("YES" if result.answer else "NO")
    if result.answer and args.show_cover:
        print("cover:", sorted(result.cover))
    return EXIT_OK if result.answer else EXIT_NO


def cmd_classify(args) -> int:
    g = _load_graph(args.instance)
    print(subspace_name(classify(g)))
    return EXIT_OK


def cmd_verify(args) -> int:
    ok = True
    for path in args.table:
        table = _load_table(path)
        cert = verify_table(table)
        name = subspace_name(table.subspace_id) if table.subspace_id else "?"
        print(f"{path} ({name}): {'PASS' if cert.ok else 'FAIL'}")
        for nid in sorted(cert.leaf_objectives):
            print(f"  leaf {nid}: objective {float(cert.leaf_objectives[nid]):.9f}")
        for f in cert.failures:
            print("  " + f)
        ok = ok and cert.ok
    return EXIT_OK if ok else EXIT_FAILED


def cmd_oracle(args) -> int:
    g = _load_graph(args.instance)
    print(vc_oracle(g))
    return EXIT_OK


def cmd_bound(args) -> int:
    if args.combine:
        fields = ("a", "b", "base_n")
        values = {}
        for tok in args.combine:
            key, _, val = tok.partition("=")
            if key not in fields:
                raise InputDomainError(f"unknown combine field {key!r}")
            if key in values:
                raise InputDomainError(f"combine field {key} given twice")
            try:
                values[key] = float(val)
            except ValueError:
                raise InputDomainError(f"{key} must be a number, got {val!r}") from None
            if not math.isfinite(values[key]):
                raise InputDomainError(f"{key} must be finite, got {val!r}")
        missing = set(fields) - set(values)
        if missing:
            raise InputDomainError(f"missing combine fields: {sorted(missing)}")
        if values["base_n"] <= 0:
            raise InputDomainError(f"base_n must be positive, got {values['base_n']}")
        c = math.log(values["base_n"])
        d = combine_bound(values["a"], values["b"], c)
        print(f"d = {d:.6f}")
        print(f"base = e^d = {math.exp(d):.6f}")
        return EXIT_OK
    if args.vector:
        entries = []
        for part in args.vector.split(","):
            w, sep, d = part.partition(":")
            if not sep:
                raise InputDomainError(f"expected weight:decrease, got {part!r}")
            entries.append((parse_rational(w, "weight"), parse_rational(d, "decrease")))
        x = branching_number(BranchVector(tuple(entries)))
        print(f"branching number = {x:.6f}")
        return EXIT_OK
    raise InputDomainError("bound needs --combine or --vector")


def cmd_feasibility(args) -> int:
    measure = parse_measure_tokens(args.measure)
    report = check_feasibility(measure)
    print(format_measure(measure))
    print("PASS" if report.ok else "FAIL")
    for v in report.violations:
        print("  " + v)
    return EXIT_OK if report.ok else EXIT_FAILED


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 3 with one line, not argparse's 2
    and a usage block.  Subparsers inherit this class."""

    def error(self, message):
        raise InputDomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vcgen",
        description="generate, certify and run branching algorithms for vertex cover "
        "on subcubic graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate and certify rule tables")
    g.add_argument("--measure", nargs="+", required=True,
                   metavar="SPEC", help="e.g. k-mode a=1  or  n-mode b3=0.2")
    g.add_argument("--mode", choices=["det", "rand"], default="rand")
    g.add_argument("--subspace", action="append", default=None,
                   help="P1..P19; repeatable; default all")
    g.add_argument("--depth", type=int, default=12)
    g.add_argument("--nodes", type=int, default=200_000)
    g.add_argument("--seconds", type=float, default=None)
    g.add_argument("--out", default="tables")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve an instance with certified tables")
    s.add_argument("--instance", required=True)
    s.add_argument("--tables", nargs="+", required=True,
                   help="table files or directories of P*.json")
    s.add_argument("--mode", choices=["det", "rand"], default="rand")
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--safety", type=int, default=20)
    s.add_argument("--trace", action="store_true")
    s.add_argument("--show-cover", action="store_true")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("classify", help="print the instance's subspace")
    c.add_argument("--instance", required=True)
    c.set_defaults(func=cmd_classify)

    v = sub.add_parser("verify", help="re-check rule-table certificates")
    v.add_argument("--table", nargs="+", required=True)
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("oracle", help="exact minimum vertex cover size")
    o.add_argument("--instance", required=True)
    o.set_defaults(func=cmd_oracle)

    b = sub.add_parser("bound", help="running-time bound arithmetic")
    b.add_argument("--combine", nargs="+", default=None,
                   metavar="KEY=VAL", help="a=.. b=.. base_n=..")
    b.add_argument("--vector", default=None, help="weight:decrease pairs, comma separated")
    b.set_defaults(func=cmd_bound)

    f = sub.add_parser("feasibility", help="check a measure's inequality chain")
    f.add_argument("--measure", nargs="+", required=True)
    f.set_defaults(func=cmd_feasibility)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except VcgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
