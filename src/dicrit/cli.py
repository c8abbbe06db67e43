"""Command-line front end; the only module with side effects.

Exit codes: 0 all checks pass, 1 a property is violated (the report names
it), 2 input error, 3 budget exceeded.  Rationals are always given as
``num/den`` strings.  Digraphs travel as DG-v1 text files.

Every command takes ``--json``; each argument that several commands share
is declared once, in a parent parser, and ``construct g3`` runs as
``construct gk --k 3``.
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
from .colouring import dichromatic_number, is_k_dicritical
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
    print(json.dumps(payload, indent=2) if args.json else text)


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
    payload = {"is_4ore": True, "trace": ore.trace_to_json(trace), "stats": stats}
    _emit(args, payload, "4-Ore (decomposition trace found)")
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


def _construct_spec(args) -> constructions.ConstructionSpec:
    tournaments = None
    if args.tournament:
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


def _parent(*flags, **options) -> argparse.ArgumentParser:
    """A parent parser declaring an argument that several commands take."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **options)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicrit",
        description="Exact toolkit for dicolouring, 4-Ore digraphs, packings, "
        "potentials, discharging and the sparse dicritical constructions.",
    )
    json_out = _parent("--json", action="store_true", help="machine-readable output")
    budget = _parent("--budget", type=int, help="search node budget")
    file_ = _parent("file")
    k = _parent("--k", type=int, required=True)
    params = _parent("--eps", required=True)
    params.add_argument("--delta", required=True)
    phi = _parent("--subset", required=True)
    phi.add_argument("--colours", required=True)
    construction = _parent("--n0", type=int, default=1)
    construction.add_argument("--seed", type=int, help="cycle orientation seed")
    tournament = _parent("--tournament", help="DG-v1 file with the tournament")

    def command(subs, name, summary, handler, *parents) -> argparse.ArgumentParser:
        p = subs.add_parser(name, help=summary, parents=[json_out, *parents])
        p.set_defaults(handler=handler)
        return p

    sub = parser.add_subparsers(dest="command", required=True)
    command(sub, "chi", "dichromatic number of a digraph", _cmd_chi, file_, budget)
    command(sub, "critical", "verify k-dicriticality with witnesses", _cmd_critical,
            file_, k, budget)

    p = sub.add_parser("ore", help="4-Ore generation, recognition, composition")
    ore_sub = p.add_subparsers(dest="ore_command", required=True)
    p = command(ore_sub, "gen", "generate a seeded random 4-Ore digraph", _cmd_ore_gen)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--preserve-j", action="store_true")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    command(ore_sub, "check", "recognise 4-Ore membership", _cmd_ore_check, file_, budget)
    p = command(ore_sub, "compose", "Ore-composition of two digraphs", _cmd_ore_compose)
    p.add_argument("file1", help="digon side")
    p.add_argument("file2", help="split side")
    p.add_argument("--digon", required=True, help="x,y digon of the digon side")
    p.add_argument("--split", type=int, required=True, help="split vertex z")
    p.add_argument("--z1", required=True, help="comma-separated Z1 (Z2 is the rest)")

    command(sub, "packing", "maximum digon/triangle packing value T(D)", _cmd_packing,
            file_, budget)
    command(sub, "potential", "exact potential rho(D)", _cmd_potential,
            file_, params, budget)
    command(sub, "audit", "audit the (eps, delta) inequality catalogue", _cmd_audit, params)

    p = sub.add_parser("bound", help="arc-count and surface bounds")
    bound_sub = p.add_subparsers(dest="bound_command", required=True)
    command(bound_sub, "oriented", "m >= (10/3 + 1/51) n - 1 check", _cmd_bound_oriented,
            file_)
    p = command(bound_sub, "surface", "vertex bound from the Euler characteristic",
                _cmd_bound_surface)
    p.add_argument("--chi", type=int, required=True)

    command(sub, "structure", "chelou arcs, D6 classes, valencies", _cmd_structure, file_)
    command(sub, "discharge", "run the discharging rules, full ledger", _cmd_discharge,
            file_, params)
    command(sub, "identify", "phi-identification of a coloured subset", _cmd_identify,
            file_, phi)
    command(sub, "extend", "dicritical extension of a coloured subset", _cmd_extend,
            file_, phi, budget)

    p = sub.add_parser("construct", help="the sparse dicritical constructions")
    con_sub = p.add_subparsers(dest="construct_command", required=True)
    # the base construction is level 3 of the recursive one
    p = command(con_sub, "g3", "base construction", _cmd_construct_gk, construction)
    p.set_defaults(k=3, tournament=None)
    command(con_sub, "gk", "recursive construction", _cmd_construct_gk,
            k, construction, tournament)
    command(con_sub, "certify", "dicriticality certificate", _cmd_construct_certify,
            k, construction, tournament)

    p = command(sub, "census", "exact d_k(n), o_k(n) for tiny n", _cmd_census, k, budget)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", help="directory for witness records")

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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
