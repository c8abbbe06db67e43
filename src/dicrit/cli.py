"""Command-line front end; the only module with side effects.

Exit codes: 0 all checks pass, 1 a property is violated (the report names
it), 2 input error, 3 budget exceeded.  Rationals are always given as
``num/den`` strings.  Digraphs travel as DG-v1 text files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import census as census_mod
from . import constructions, ore, structure
from .budget import (
    DEFAULT_PACKING_NODES,
    DEFAULT_RECOGNITION_NODES,
    DEFAULT_SOLVER_NODES,
    BudgetExceeded,
    ensure_budget,
)
from .colouring import (
    ColouringError,
    dichromatic_number,
    is_k_dicritical,
)
from .digraph import DigraphError, parse, serialize
from .packing import max_packing
from .potential import (
    PotentialParams,
    audit_params,
    check_oriented_bound,
    fraction_text,
    potential,
    surface_vertex_bound,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load(path: str):
    return parse(Path(path).read_text())


def _params(args) -> PotentialParams:
    return PotentialParams(args.eps, args.delta)


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _int_list(raw: str) -> list[int]:
    return [int(part) for part in raw.split(",") if part != ""]


# -- handlers (each returns an exit code) ------------------------------------


def _cmd_chi(args) -> int:
    d = _load(args.file)
    budget = ensure_budget(args.budget, DEFAULT_SOLVER_NODES, "dichromatic number")
    value = dichromatic_number(d, budget)
    _emit(args, {"dichromatic_number": value, "stats": {"nodes": budget.used}}, str(value))
    return EXIT_OK


def _cmd_critical(args) -> int:
    d = _load(args.file)
    report = is_k_dicritical(d, args.k, args.budget)
    text = f"{args.k}-dicritical: {report.verdict}"
    if not report.verdict:
        text += f" ({report.failure_reason})"
    _emit(args, report.to_json(), text)
    return EXIT_OK if report.verdict else EXIT_VIOLATION


def _cmd_ore_gen(args) -> int:
    d, trace = ore.generate_4ore(args.n, args.seed, args.preserve_j)
    payload = {"digraph": serialize(d), "trace": ore.trace_to_json(trace)}
    _emit(args, payload, serialize(d).rstrip("\n"))
    return EXIT_OK


def _cmd_ore_check(args) -> int:
    d = _load(args.file)
    budget = ensure_budget(args.budget, DEFAULT_RECOGNITION_NODES, "4-Ore recognition")
    trace = ore.is_4ore(d, budget)
    stats = {"nodes": budget.used}
    if trace is None:
        _emit(args, {"is_4ore": False, "stats": stats}, "not 4-Ore")
        return EXIT_VIOLATION
    _emit(
        args,
        {"is_4ore": True, "trace": ore.trace_to_json(trace), "stats": stats},
        "4-Ore (decomposition trace found)",
    )
    return EXIT_OK


def _cmd_ore_compose(args) -> int:
    d1 = _load(args.file1)
    d2 = _load(args.file2)
    digon = _int_list(args.digon)
    if len(digon) != 2:
        raise DigraphError("--digon must name exactly two vertices")
    z1 = _int_list(args.z1)
    if len(set(z1)) != len(z1):
        raise DigraphError("--z1 must not repeat a vertex")
    z = args.split
    if not 0 <= z < d2.n:
        raise DigraphError(f"split vertex {z} out of range")
    nbrs = set(d2.neighbours(z))
    z2 = sorted(nbrs - set(z1))
    composed, node = ore.ore_compose(d1, tuple(digon), d2, z, z1, z2)
    payload = {"digraph": serialize(composed), "trace": ore.trace_to_json(node)}
    _emit(args, payload, serialize(composed).rstrip("\n"))
    return EXIT_OK


def _cmd_packing(args) -> int:
    d = _load(args.file)
    budget = ensure_budget(args.budget, DEFAULT_PACKING_NODES, "packing search")
    packing = max_packing(d, budget)
    text = f"T(D) = {packing.value}" + ("" if packing.optimal else " (NOT optimal)")
    _emit(args, {**packing.to_json(), "stats": {"nodes": budget.used}}, text)
    return EXIT_OK if packing.optimal else EXIT_BUDGET


def _cmd_potential(args) -> int:
    d = _load(args.file)
    budget = ensure_budget(args.budget, DEFAULT_PACKING_NODES, "packing search")
    value = potential(d, _params(args), budget)
    text = fraction_text(value)
    _emit(args, {"potential": text, "stats": {"nodes": budget.used}}, text)
    return EXIT_OK


def _cmd_audit(args) -> int:
    rows = audit_params(_params(args))
    failed = [label for label, ok in rows if not ok]
    lines = [f"{'PASS' if ok else 'FAIL'}  {label}" for label, ok in rows]
    _emit(
        args,
        {"rows": [{"inequality": l, "satisfied": ok} for l, ok in rows],
         "all_satisfied": not failed},
        "\n".join(lines),
    )
    return EXIT_OK if not failed else EXIT_VIOLATION


def _cmd_bound_oriented(args) -> int:
    d = _load(args.file)
    ok, slack = check_oriented_bound(d)
    slack_text = fraction_text(slack)
    text = f"m >= (10/3 + 1/51) n - 1: {'holds' if ok else 'VIOLATED'}, slack {slack_text}"
    _emit(args, {"holds": ok, "slack": slack_text}, text)
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_bound_surface(args) -> int:
    value = surface_vertex_bound(args.chi)
    note = " (vacuous)" if value < 0 else ""
    _emit(args, {"max_vertices": value, "vacuous": value < 0}, f"{value}{note}")
    return EXIT_OK


def _cmd_structure(args) -> int:
    d = _load(args.file)
    out_chelou, in_chelou = structure.find_chelou_arcs(d)
    comps = structure.d6_components(d)
    payload = {
        "out_chelou": [list(a) for a in out_chelou],
        "in_chelou": [list(a) for a in in_chelou],
        "d6_components": [c.to_json() for c in comps],
        "valency8": {str(v): structure.valency8(d, v) for v in d.vertices()},
    }
    text_lines = [
        f"out-chelou arcs: {out_chelou}",
        f"in-chelou arcs: {in_chelou}",
        f"D6 components: {[(list(c.vertices), c.klass) for c in comps]}",
    ]
    _emit(args, payload, "\n".join(text_lines))
    return EXIT_OK


def _cmd_discharge(args) -> int:
    d = _load(args.file)
    ledger = structure.discharge(d, _params(args))
    total_i = ledger.total_initial()
    total_f = ledger.total_final()
    text = (
        f"sum w = {fraction_text(total_i)}, sum w* = {fraction_text(total_f)}, "
        f"{len(ledger.transfers)} transfers"
    )
    _emit(args, ledger.to_json(), text)
    return EXIT_OK


def _parse_phi(args) -> tuple[list[int], dict[int, int]]:
    subset = _int_list(args.subset)
    colours = _int_list(args.colours)
    if len(subset) != len(colours):
        raise DigraphError("--subset and --colours must have the same length")
    if len(set(subset)) != len(subset):
        raise DigraphError("--subset must not repeat a vertex")
    return subset, dict(zip(subset, colours))


def _cmd_identify(args) -> int:
    d = _load(args.file)
    subset, phi = _parse_phi(args)
    result = structure.phi_identify(d, subset, phi)
    payload = {
        "digraph": serialize(result.digraph),
        "class_vertices": list(result.class_vertices),
    }
    _emit(args, payload, serialize(result.digraph).rstrip("\n"))
    return EXIT_OK


def _cmd_extend(args) -> int:
    d = _load(args.file)
    subset, phi = _parse_phi(args)
    result = structure.dicritical_extension(d, subset, phi, args.budget)
    payload = {
        "identified": serialize(result.identified),
        "extender_vertices": list(result.extender_vertices),
        "core": sorted(result.core),
        "extension_vertices": sorted(result.extension_vertices),
        "extension": serialize(result.extension),
    }
    text = (
        f"extender on {len(result.extender_vertices)} vertices, "
        f"core size {len(result.core)}, extension on "
        f"{len(result.extension_vertices)} vertices"
    )
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_construct_g3(args) -> int:
    d, _ = constructions.build_g3(args.n0, args.seed)
    _emit(args, {"digraph": serialize(d)}, serialize(d).rstrip("\n"))
    return EXIT_OK


def _construct_spec(args) -> constructions.ConstructionSpec:
    tournaments = None
    if getattr(args, "tournament", None):
        t = _load(args.tournament)
        tournaments = {args.k: tuple(t.sorted_arcs())}
    return constructions.ConstructionSpec(
        k=args.k, n0=args.n0, cycle_orientation_seed=args.seed,
        tournaments=tournaments,
    )


def _cmd_construct_gk(args) -> int:
    d, _ = constructions.build_gk(args.k, _construct_spec(args))
    _emit(args, {"digraph": serialize(d)}, serialize(d).rstrip("\n"))
    return EXIT_OK


def _cmd_construct_certify(args) -> int:
    report = constructions.certify_dicritical_composition(args.k, _construct_spec(args))
    text = (
        f"k={report.k}: lower bound {report.lower_bound_method} "
        f"({'ok' if report.lower_bound_ok else 'FAILED'}), witnesses "
        f"{report.witnesses_checked}/{report.witnesses_total}"
    )
    # nothing searches, so no option bounds a search
    _emit(args, {**report.to_json(), "stats": {"nodes": 0}}, text)
    return EXIT_OK if report.ok() else EXIT_VIOLATION


def _cmd_census(args) -> int:
    table = census_mod.census(args.k, args.n_max, args.budget)
    violations = []
    if args.k == 4:
        for n, records in table.witnesses.items():
            for rec in records:
                if 3 * rec.arc_count < 10 * rec.n - 4:
                    violations.append(f"n={n}: witness below the 10n/3 - 4/3 bound")
        for n, records in table.oriented_witnesses.items():
            for rec in records:
                if not check_oriented_bound(rec.digraph)[0]:
                    violations.append(
                        f"n={n}: oriented witness below the (10/3 + 1/51)n - 1 bound"
                    )
    if args.out:
        all_records = [r for recs in table.witnesses.values() for r in recs]
        all_records += [r for recs in table.oriented_witnesses.values() for r in recs]
        census_mod.save_records(all_records, args.out)
    lines = []
    for n in sorted(table.d_min):
        d_val = table.d_min[n]
        o_val = table.o_min[n]
        lines.append(
            f"n={n}: d_{args.k}(n) = {d_val if d_val is not None else 'none'}, "
            f"o_{args.k}(n) = {o_val if o_val is not None else 'none'}"
        )
    payload = table.to_json()
    payload["violations"] = violations
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if not violations else EXIT_VIOLATION


# -- argument parsing ---------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, budget=True, seed=False) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")
    if budget:
        p.add_argument("--budget", type=int, default=None, help="search node budget")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicrit",
        description="Exact toolkit for dicolouring, 4-Ore digraphs, packings, "
        "potentials, discharging and the sparse dicritical constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi", help="dichromatic number of a digraph")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(handler=_cmd_chi)

    p = sub.add_parser("critical", help="verify k-dicriticality with witnesses")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_critical)

    p_ore = sub.add_parser("ore", help="4-Ore generation, recognition, composition")
    ore_sub = p_ore.add_subparsers(dest="ore_command", required=True)
    p = ore_sub.add_parser("gen", help="generate a seeded random 4-Ore digraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--preserve-j", dest="preserve_j", action="store_true")
    _add_common(p, budget=False, seed=True)
    p.set_defaults(handler=_cmd_ore_gen)
    p = ore_sub.add_parser("check", help="recognise 4-Ore membership")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(handler=_cmd_ore_check)
    p = ore_sub.add_parser("compose", help="Ore-composition of two digraphs")
    p.add_argument("file1", help="digon side")
    p.add_argument("file2", help="split side")
    p.add_argument("--digon", required=True, help="x,y digon of the digon side")
    p.add_argument("--split", type=int, required=True, help="split vertex z")
    p.add_argument("--z1", required=True, help="comma-separated Z1 (Z2 is the rest)")
    _add_common(p, budget=False)
    p.set_defaults(handler=_cmd_ore_compose)

    p = sub.add_parser("packing", help="maximum digon/triangle packing value T(D)")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(handler=_cmd_packing)

    p = sub.add_parser("potential", help="exact potential rho(D)")
    p.add_argument("file")
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_potential)

    p = sub.add_parser("audit", help="audit the (eps, delta) inequality catalogue")
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", required=True)
    _add_common(p, budget=False)
    p.set_defaults(handler=_cmd_audit)

    p_bound = sub.add_parser("bound", help="arc-count and surface bounds")
    bound_sub = p_bound.add_subparsers(dest="bound_command", required=True)
    p = bound_sub.add_parser("oriented", help="m >= (10/3 + 1/51) n - 1 check")
    p.add_argument("file")
    _add_common(p, budget=False)
    p.set_defaults(handler=_cmd_bound_oriented)
    p = bound_sub.add_parser("surface", help="vertex bound from the Euler characteristic")
    p.add_argument("--chi", type=int, required=True)
    _add_common(p, budget=False)
    p.set_defaults(handler=_cmd_bound_surface)

    p = sub.add_parser("structure", help="chelou arcs, D6 classes, valencies")
    p.add_argument("file")
    _add_common(p, budget=False)
    p.set_defaults(handler=_cmd_structure)

    p = sub.add_parser("discharge", help="run the discharging rules, full ledger")
    p.add_argument("file")
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", required=True)
    _add_common(p, budget=False)
    p.set_defaults(handler=_cmd_discharge)

    p = sub.add_parser("identify", help="phi-identification of a coloured subset")
    p.add_argument("file")
    p.add_argument("--subset", required=True)
    p.add_argument("--colours", required=True)
    _add_common(p, budget=False)
    p.set_defaults(handler=_cmd_identify)

    p = sub.add_parser("extend", help="dicritical extension of a coloured subset")
    p.add_argument("file")
    p.add_argument("--subset", required=True)
    p.add_argument("--colours", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_extend)

    p_con = sub.add_parser("construct", help="the sparse dicritical constructions")
    con_sub = p_con.add_subparsers(dest="construct_command", required=True)
    p = con_sub.add_parser("g3", help="base construction")
    p.add_argument("--n0", type=int, default=1)
    _add_common(p, budget=False, seed=False)
    p.add_argument("--seed", type=int, default=None, help="cycle orientation seed")
    p.set_defaults(handler=_cmd_construct_g3)
    p = con_sub.add_parser("gk", help="recursive construction")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n0", type=int, default=1)
    p.add_argument("--tournament", default=None, help="DG-v1 file with the tournament")
    _add_common(p, budget=False)
    p.add_argument("--seed", type=int, default=None, help="cycle orientation seed")
    p.set_defaults(handler=_cmd_construct_gk)
    p = con_sub.add_parser("certify", help="dicriticality certificate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n0", type=int, default=1)
    p.add_argument("--tournament", default=None)
    _add_common(p, budget=False)
    p.add_argument("--seed", type=int, default=None, help="cycle orientation seed")
    p.set_defaults(handler=_cmd_construct_certify)

    p = sub.add_parser("census", help="exact d_k(n), o_k(n) for tiny n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--out", default=None, help="directory for witness records")
    _add_common(p)
    p.set_defaults(handler=_cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches our input-error code.
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DigraphError, ColouringError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
