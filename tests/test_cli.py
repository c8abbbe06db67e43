import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from dicrit import census as census_mod
from dicrit.cli import build_parser, main
from dicrit.budget import Budget
from dicrit.colouring import dichromatic_number
from dicrit.constructions import ConstructionSpec, build_gk, certify_dicritical_composition
from dicrit.digraph import Digraph, bidirected_complete, directed_cycle, parse, serialize
from dicrit.ore import generate_4ore, is_4ore


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.dg"
    path.write_text(serialize(bidirected_complete(4)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_chi(self, capsys, k4_file):
        code, out, _ = run(capsys, "chi", k4_file)
        assert code == 0 and out.strip() == "4"

    def test_input_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.dg"
        bad.write_text("n 2 m 1\n0 7\n")
        code, _, err = run(capsys, "chi", str(bad))
        assert code == 2 and "line 2" in err

    def test_missing_file_is_2(self, capsys):
        code, _, _ = run(capsys, "chi", "/nonexistent.dg")
        assert code == 2

    def test_budget_exceeded_is_3(self, capsys, k4_file):
        code, _, err = run(capsys, "critical", k4_file, "--k", "4", "--budget", "5")
        assert code == 3 and "budget" in err

    def test_bad_usage_is_2(self, capsys):
        assert main(["no-such-command"]) == 2

    @pytest.mark.parametrize("command", ["potential", "audit", "discharge"])
    @pytest.mark.parametrize("params", [("1/0", "1/3"), ("1/51", "2/0")])
    def test_zero_denominator_is_2(self, capsys, k4_file, command, params):
        files = [] if command == "audit" else [k4_file]
        code, _, err = run(
            capsys, command, *files, "--eps", params[0], "--delta", params[1]
        )
        assert code == 2 and err.startswith("error:") and "/0" in err


class TestSubcommands:
    def test_critical_json(self, capsys, k4_file):
        code, out, _ = run(capsys, "critical", k4_file, "--k", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] and len(payload["witnesses"]) == 12
        stats = payload["stats"]
        assert stats["solved"] + stats["reused"] == 12 and stats["nodes"] > 0
        # K4 is below the size where the 2-separator reduction can run.
        assert stats["plain_nodes"] > 0 and stats["reduced"] is False
        assert stats["sides_replaced"] == stats["piece_solves"] == 0

    def test_critical_negative_is_1(self, capsys, k4_file):
        code, _, _ = run(capsys, "critical", k4_file, "--k", "3")
        assert code == 1

    def test_potential(self, capsys, k4_file):
        code, out, _ = run(
            capsys, "potential", k4_file, "--eps", "1/51", "--delta", "2/17"
        )
        assert code == 0 and out.strip() == "20/17"

    def test_audit_pass_and_fail(self, capsys):
        code, out, _ = run(capsys, "audit", "--eps", "1/51", "--delta", "2/17")
        assert code == 0 and "FAIL" not in out
        code, out, _ = run(capsys, "audit", "--eps", "1/10", "--delta", "0")
        assert code == 1 and "FAIL" in out

    def test_packing(self, capsys, k4_file):
        code, out, _ = run(capsys, "packing", k4_file)
        assert code == 0 and "T(D) = 2" in out

    def test_packing_json_stats(self, capsys, k4_file):
        code, out, _ = run(capsys, "packing", k4_file, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["value"] == 2 and payload["stats"] == {"nodes": 1}

    def test_chi_json_stats(self, capsys, k4_file):
        code, out, _ = run(capsys, "chi", k4_file, "--json")
        budget = Budget()
        assert dichromatic_number(bidirected_complete(4), budget) == 4
        assert code == 0 and json.loads(out) == {
            "dichromatic_number": 4, "stats": {"nodes": budget.used},
        }

    def test_potential_json_stats(self, capsys, k4_file):
        code, out, _ = run(
            capsys, "potential", k4_file, "--eps", "1/51", "--delta", "2/17", "--json"
        )
        payload = json.loads(out)
        assert code == 0 and payload == {"potential": "20/17", "stats": {"nodes": 1}}

    def test_packing_out_of_budget_is_3(self, capsys, tmp_path):
        # K40 has 10,660 packing items and needs 9,877 nodes; the search
        # must run out of budget, not out of stack
        path = tmp_path / "k40.dg"
        path.write_text(serialize(bidirected_complete(40)))
        code, out, _ = run(capsys, "packing", str(path), "--budget", "5000")
        assert code == 3 and "T(D) = 6 (NOT optimal)" in out

    def test_ore_gen_check_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "ore", "gen", "--n", "10", "--seed", "5")
        assert code == 0
        gen_path = tmp_path / "gen.dg"
        gen_path.write_text(out)
        code, out, _ = run(capsys, "ore", "check", str(gen_path))
        assert code == 0 and "4-Ore" in out

    def test_ore_check_json_stats(self, capsys, k4_file, tmp_path):
        code, out, _ = run(capsys, "ore", "check", k4_file, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["is_4ore"] and payload["stats"] == {"nodes": 1}
        # K4 minus a digon fails the arc identity before any search node.
        path = tmp_path / "bad.dg"
        path.write_text(serialize(bidirected_complete(4).without_arcs([(0, 1), (1, 0)])))
        code, out, _ = run(capsys, "ore", "check", str(path), "--json")
        payload = json.loads(out)
        assert code == 1 and payload == {"is_4ore": False, "stats": {"nodes": 0}}

    def test_ore_check_negative_is_1(self, capsys, tmp_path):
        bad = bidirected_complete(4).without_arcs([(0, 1), (1, 0)])
        path = tmp_path / "bad.dg"
        path.write_text(serialize(bad))
        code, out, _ = run(capsys, "ore", "check", str(path))
        assert code == 1 and "not 4-Ore" in out

    def test_ore_check_directed_triangle_is_1(self, capsys, tmp_path):
        # not bidirected is an answer, not an input error
        path = tmp_path / "c3.dg"
        path.write_text(serialize(directed_cycle(3)))
        code, out, _ = run(capsys, "ore", "check", str(path))
        assert code == 1 and "not 4-Ore" in out

    def test_ore_compose(self, capsys, k4_file):
        code, out, _ = run(
            capsys, "ore", "compose", k4_file, k4_file,
            "--digon", "0,1", "--split", "3", "--z1", "0", "--json",
        )
        assert code == 0
        composed = parse(json.loads(out)["digraph"])
        assert composed.n == 7 and composed.m == 22
        assert is_4ore(composed) is not None

    @pytest.mark.parametrize("split", ["9", "-1"])
    def test_ore_compose_split_out_of_range_is_2(self, capsys, k4_file, split):
        code, out, err = run(
            capsys, "ore", "compose", k4_file, k4_file,
            "--digon", "0,1", "--split", split, "--z1", "0",
        )
        assert code == 2 and out == ""
        assert err.strip() == f"error: split vertex {split} out of range"

    @pytest.mark.parametrize(
        "digon, z1, message",
        [
            ("0", "0", "--digon must name exactly two vertices"),
            ("0,1,2", "0", "--digon must name exactly two vertices"),
            ("0,1", "0,0", "--z1 must not repeat a vertex"),
        ],
    )
    def test_ore_compose_bad_input_is_2(self, capsys, k4_file, digon, z1, message):
        code, out, err = run(
            capsys, "ore", "compose", k4_file, k4_file,
            "--digon", digon, "--split", "3", "--z1", z1,
        )
        assert code == 2 and out == ""
        assert err.strip() == f"error: {message}"

    def test_bound_oriented(self, capsys, tmp_path):
        from dicrit.constructions import ConstructionSpec, build_g3, build_gk
        g4, _ = build_gk(4, ConstructionSpec(k=4))
        path = tmp_path / "g4.dg"
        path.write_text(serialize(g4))
        code, out, _ = run(capsys, "bound", "oriented", str(path))
        assert code == 0 and "holds" in out and "1295/17" in out
        # a 3-dicritical oriented graph sits below the line: exit 1
        g3, _ = build_g3(1)
        path3 = tmp_path / "g3.dg"
        path3.write_text(serialize(g3))
        code, out, _ = run(capsys, "bound", "oriented", str(path3))
        assert code == 1 and "VIOLATED" in out

    def test_bound_surface(self, capsys):
        code, out, _ = run(capsys, "bound", "surface", "--chi", "0")
        assert code == 0 and out.strip() == "2"
        code, out, _ = run(capsys, "bound", "surface", "--chi", "2")
        assert code == 0 and "vacuous" in out

    def test_structure_json(self, capsys, k4_file):
        code, out, _ = run(capsys, "structure", k4_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["out_chelou"] == [] and len(payload["d6_components"]) == 1

    def test_discharge_json(self, capsys, k4_file):
        code, out, _ = run(
            capsys, "discharge", k4_file, "--eps", "1/51", "--delta", "2/17", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma"]["0"] == "1/34"
        assert payload["initial"]["0"] == "11/34"

    def test_discharge_json_transfers_are_exact(self, capsys, tmp_path):
        # In this 4-Ore digraph vertex 1 has degree 10 and no neighbour of
        # degree >= 8, and five degree-6 vertices send it R2 over a digon:
        # 2 (-10/3 + 10/2 - 1/51) / (10 - 0) = 28/85 each.
        d, _ = generate_4ore(10, seed=0)
        assert d.degree(1) == 10
        path = tmp_path / "ore10.dg"
        path.write_text(serialize(d))
        code, out, _ = run(
            capsys, "discharge", str(path), "--eps", "1/51", "--delta", "2/17", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        amount = 2 * (Fraction(-10, 3) + Fraction(10, 2) - Fraction(1, 51)) / 10
        assert f"{amount.numerator}/{amount.denominator}" == "28/85"
        assert payload["transfers"] == [
            {"rule": "R2", "source": v, "target": 1, "amount": "28/85", "note": None}
            for v in (2, 3, 6, 7, 8)
        ]
        initial = {int(v): Fraction(q) for v, q in payload["initial"].items()}
        final = {int(v): Fraction(q) for v, q in payload["final"].items()}
        assert sum(final.values()) == sum(initial.values())
        for t in payload["transfers"]:
            initial[t["source"]] -= Fraction(t["amount"])
            initial[t["target"]] += Fraction(t["amount"])
        assert initial == final

    def test_identify_and_extend(self, capsys, tmp_path):
        from dicrit.ore import ore_compose
        k4 = bidirected_complete(4)
        d7, _ = ore_compose(k4, (0, 1), k4, 3, [0], [1, 2])
        path = tmp_path / "d7.dg"
        path.write_text(serialize(d7))
        code, out, _ = run(
            capsys, "identify", str(path),
            "--subset", "0,1,2,3", "--colours", "1,1,2,3", "--json",
        )
        assert code == 0
        assert parse(json.loads(out)["digraph"]).n == 6
        code, out, _ = run(
            capsys, "extend", str(path),
            "--subset", "0,1,2,3", "--colours", "1,1,2,3", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert 1 <= len(payload["core"]) <= 3

    @pytest.mark.parametrize("command", ["identify", "extend"])
    def test_repeated_subset_vertex_is_2(self, capsys, k4_file, command):
        code, out, err = run(
            capsys, command, k4_file, "--subset", "0,0,1,2,3", "--colours", "1,2,2,3,1",
        )
        assert code == 2 and out == "" and "repeat" in err

    def test_construct_and_certify(self, capsys):
        code, out, _ = run(capsys, "construct", "g3", "--n0", "1")
        assert code == 0 and parse(out).n == 12
        code, out, _ = run(capsys, "construct", "gk", "--k", "4", "--n0", "1")
        assert code == 0 and parse(out).n == 76
        code, out, _ = run(
            capsys, "construct", "certify", "--k", "4", "--sample", "12", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["sampled"]

    def test_certify_json_stats(self, capsys):
        code, out, _ = run(
            capsys, "construct", "certify", "--k", "4", "--sample", "12", "--json"
        )
        budget = Budget()
        assert certify_dicritical_composition(4, budget=budget, witness_sample=12).ok()
        assert code == 0 and budget.used > 0
        assert json.loads(out)["stats"] == {"nodes": budget.used}

    def test_construct_with_a_tournament_file(self, capsys, tmp_path):
        # A 3-cycle 0 -> 1 -> 2 -> 0 dominated by 3: not the default
        # transitive tournament, so the file is what changes G_4.
        arcs = [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)]
        path = tmp_path / "t4.dg"
        path.write_text(serialize(Digraph(4, arcs)))
        code, out, _ = run(capsys, "construct", "gk", "--k", "4", "--tournament", str(path))
        assert code == 0
        expected, _ = build_gk(4, ConstructionSpec(k=4, tournaments={4: tuple(arcs)}))
        assert parse(out) == expected
        assert expected != build_gk(4, ConstructionSpec(k=4))[0]
        code, out, _ = run(
            capsys, "construct", "certify", "--k", "4", "--tournament", str(path),
            "--sample", "12", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["n"] == expected.n and payload["m"] == expected.m

    def test_census(self, capsys, tmp_path):
        out_dir = tmp_path / "corpus"
        code, out, _ = run(
            capsys, "census", "--k", "2", "--n-max", "3", "--out", str(out_dir)
        )
        assert code == 0
        assert "d_2(n) = 2" in out and "d_2(n) = 3" in out
        assert list(out_dir.glob("*.dg"))

    @pytest.mark.parametrize("sample", ["0", "-3"])
    def test_certify_sample_must_be_positive(self, capsys, sample):
        code, out, err = run(capsys, "construct", "certify", "--k", "4", "--sample", sample)
        assert code == 2 and out == "" and f"got {sample}" in err

    def test_census_json(self, capsys):
        code, out, _ = run(capsys, "census", "--k", "2", "--n-max", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == {"2": 2, "3": 3}
        stats = payload["stats"]
        assert set(stats) == {"candidates", "dicritical", "nodes"}
        # the digon, and the directed triangle 0 -> 1 -> 2 -> 0 plain and
        # oriented: its other labelling breaks the census's labelling rule
        assert stats["candidates"] >= stats["dicritical"] == 3
        assert stats["nodes"] > 0

    def test_census_checks_the_oriented_bound(self, capsys, monkeypatch):
        # A directed triangle has 3 < (10/3 + 1/51) 3 - 1 arcs.
        triangle = directed_cycle(3)
        table = census_mod.CensusTable(
            4, {3: None}, {3: 3}, {3: []},
            {3: [census_mod.CensusRecord(3, 4, triangle, 3, True, True)]},
        )
        monkeypatch.setattr(census_mod, "census", lambda *args: table)
        code, out, _ = run(capsys, "census", "--k", "4", "--n-max", "3", "--json")
        assert code == 1
        assert json.loads(out)["violations"] == [
            "n=3: oriented witness below the (10/3 + 1/51)n - 1 bound"
        ]


def readme_commands() -> list[str]:
    """Every ``dicrit ...`` line of the README's shell blocks."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines, in_sh = [], False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("dicrit "):
            lines.append(line)
    return lines


@pytest.mark.parametrize("line", readme_commands())
def test_readme_example_parses(line):
    build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_readme_commands_are_found():
    assert len(readme_commands()) >= 18
