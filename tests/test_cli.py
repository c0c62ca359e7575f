"""CLI tests: every subcommand through cli.main with real files, checking
output shapes and the 0/1/2 exit-code contract."""

import json
import os
import subprocess
import sys

import pytest

import edgeideals
from edgeideals import betti, graphs, verify
from edgeideals.cli import main
from edgeideals.generators import complete_bipartite_graph, cycle_graph, path_graph
from edgeideals.graphs import automorphism_generators, to_edge_list


@pytest.fixture
def graph_file(tmp_path):
    def write(G, name="g.txt"):
        path = tmp_path / name
        path.write_text(to_edge_list(G))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def usage_error(argv):
    """The exit code of an argv that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestFormats:
    # Each command accepts only the formats it renders.
    @pytest.mark.parametrize(
        "command, fmt",
        [
            ("analyze", "csv"),
            ("analyze", "dot"),
            ("regularity", "dot"),
            ("regularity", "csv"),
            ("verify", "csv"),
            ("verify", "dot"),
            ("colon", "csv"),
        ],
    )
    def test_graph_commands_reject_unrendered_format(
        self, capsys, graph_file, command, fmt
    ):
        argv = [command, "--graph", graph_file(cycle_graph(5)), "--format", fmt]
        if command == "colon":
            argv += ["--edges", "0-1"]
        assert usage_error(argv) == 2

    @pytest.mark.parametrize("fmt", ["dot", "csv"])
    def test_generate_rejects_unrendered_format(self, capsys, fmt):
        argv = ["generate", "--kind", "named", "--names", "P4", "--format", fmt]
        assert usage_error(argv) == 2

    def test_sweep_rejects_dot(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"family": {"kind": "named", "names": ["P4"]}}))
        assert usage_error(["sweep", "--config", str(cfg), "--format", "dot"]) == 2


class TestAnalyze:
    def test_json(self, capsys, graph_file):
        code, out = run(
            capsys,
            ["analyze", "--graph", graph_file(cycle_graph(5)), "--format", "json"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 5 and obj["odd_girth"] == 5
        assert obj["very_well_covered"] is False

    def test_text_with_certificate(self, capsys, graph_file):
        code, out = run(
            capsys,
            ["analyze", "--graph", graph_file(path_graph(4)), "--format", "text"],
        )
        assert code == 0
        assert "very well-covered = True" in out
        assert "matching certificate:" in out

    def test_bipartite_odd_girth_inf(self, capsys, graph_file):
        code, out = run(
            capsys,
            ["analyze", "--graph", graph_file(cycle_graph(4)), "--format", "json"],
        )
        assert json.loads(out)["odd_girth"] == "inf"

    def test_missing_file(self, capsys):
        assert main(["analyze", "--graph", "/nonexistent/g.txt"]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 x\n")
        assert main(["analyze", "--graph", str(bad)]) == 2

    def test_edgeless_graph(self, tmp_path, capsys):
        f = tmp_path / "e.txt"
        f.write_text("n 3\n")
        assert main(["analyze", "--graph", str(f)]) == 2

    def test_many_isolated_vertices(self, tmp_path, capsys):
        # Maximal independent sets used to recurse once per isolated
        # vertex and overflowed the stack from about n = 1000.
        f = tmp_path / "sparse.txt"
        f.write_text("n 2000\n0 1\n")
        code, out = run(capsys, ["analyze", "--graph", str(f), "--format", "json"])
        assert code == 0
        obj = json.loads(out)
        assert obj["unmixed"] is True and obj["very_well_covered"] is False


class TestRegularity:
    def test_c5_square(self, capsys, graph_file):
        code, out = run(
            capsys,
            [
                "regularity",
                "--graph",
                graph_file(cycle_graph(5)),
                "--power",
                "2",
                "--format",
                "json",
            ],
        )
        assert code == 0
        assert json.loads(out)["regularity"] == 4

    def test_text_triangle(self, capsys, graph_file):
        code, out = run(
            capsys,
            [
                "regularity",
                "--graph",
                graph_file(path_graph(4)),
                "--format",
                "text",
            ],
        )
        assert code == 0 and "reg(I(G)^1) = 2" in out

    def test_engines_agree(self, capsys, graph_file):
        f = graph_file(cycle_graph(5))
        vals = set()
        answered = {"lcm": ["lcm"], "hochster": ["hochster"],
                    "both": ["lcm", "hochster"]}
        for engine, engines in answered.items():
            code, out = run(
                capsys,
                ["regularity", "--graph", f, "--engine", engine,
                 "--format", "json"],
            )
            assert code == 0
            obj = json.loads(out)
            assert obj["engines"] == engines
            vals.add(obj["regularity"])
        assert vals == {3}

    def test_both_answers_when_lcm_is_over_cap(self, capsys, graph_file):
        # I(K3,6) has 18 generators, over the lcm cap of 16.
        f = graph_file(complete_bipartite_graph(3, 6))
        code, out = run(capsys, ["regularity", "--graph", f])
        assert code == 0
        assert "[answered by hochster, 18 generators]" in out
        assert main(["regularity", "--graph", f, "--engine", "lcm"]) == 2

    def test_builds_table_once(self, capsys, graph_file, monkeypatch):
        calls = []
        lcm = betti.betti_table_lcm

        def counted(I):
            calls.append(I)
            return lcm(I)

        monkeypatch.setattr(betti, "betti_table_lcm", counted)
        betti.regularity.cache_clear()
        code, _ = run(capsys, ["regularity", "--graph", graph_file(path_graph(4))])
        assert code == 0 and len(calls) == 1

    def test_lcm_power_of_c5_sums_over_automorphism_orbits(
        self, capsys, graph_file, monkeypatch
    ):
        # I(C5)^2 has 15 generators, so the lcm engine answers it alone,
        # with the generators of Aut(C5), of order 10, which it finds from
        # the ideal; the output holds the bytes the sweep over every
        # lattice element printed.
        G = cycle_graph(5)
        seen = []
        find = betti._ideal_symmetries

        def recorded(I):
            seen.append(find(I))
            return seen[-1]

        monkeypatch.setattr(betti, "_ideal_symmetries", recorded)
        betti.regularity.cache_clear()
        argv = ["regularity", "--graph", graph_file(G), "--engine", "lcm",
                "--power", "2"]
        assert run(capsys, argv) == (0, (
            "reg(I(G)^2) = 4  [answered by lcm, 15 generators]\n"
            "    0  1  2\n"
            " 4 15 24 10\n"
        ))
        assert seen == [tuple(
            [2 * p[v] + c for v in range(5) for c in range(2)]
            for p in automorphism_generators(G)
        )]
        code, out = run(capsys, argv + ["--format", "json"])
        assert code == 0 and out == (
            '{\n  "betti": [\n'
            '    {\n      "i": 0,\n      "j": 4,\n      "rank": 15\n    },\n'
            '    {\n      "i": 1,\n      "j": 5,\n      "rank": 24\n    },\n'
            '    {\n      "i": 2,\n      "j": 6,\n      "rank": 10\n    }\n'
            '  ],\n  "engines": [\n    "lcm"\n  ],\n  "generators": 15,\n'
            '  "power": 2,\n  "regularity": 4\n}\n'
        )

    def test_no_automorphism_search_over_the_lcm_cap(
        self, capsys, graph_file, monkeypatch
    ):
        # I(P30) is over both engines' caps; the graph is never searched
        # for symmetries the lcm engine would not read.
        def refuse(n, edges):
            raise AssertionError("searched the graph")

        graphs._canonical_memo.cache_clear()
        monkeypatch.setattr(graphs, "_canonical_search", refuse)
        assert main(["regularity", "--graph", graph_file(path_graph(30))]) == 2
        assert "capacity exceeded" in capsys.readouterr().err

    def test_vertex_limit_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("n 100000000\n0 1\n")
        assert main(["regularity", "--graph", str(path)]) == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_bad_power(self, capsys, graph_file):
        assert (
            main(
                [
                    "regularity",
                    "--graph",
                    graph_file(path_graph(3)),
                    "--power",
                    "0",
                ]
            )
            == 2
        )


class TestColon:
    def test_p4_json(self, capsys, graph_file):
        code, out = run(
            capsys,
            [
                "colon",
                "--graph",
                graph_file(path_graph(4)),
                "--edges",
                "1-2",
                "--format",
                "json",
            ],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["new_edges"] == [[0, 3]]
        assert obj["squarefree"] is True and obj["oracle_agrees"] is True

    def test_triangle_dot(self, capsys, graph_file):
        code, out = run(
            capsys,
            [
                "colon",
                "--graph",
                graph_file(cycle_graph(3)),
                "--edges",
                "1-2",
                "--format",
                "dot",
            ],
        )
        assert code == 0
        assert out.startswith("graph colon {")
        assert "peripheries=2" in out

    def test_bad_edge_syntax(self, capsys, graph_file):
        assert (
            main(
                [
                    "colon",
                    "--graph",
                    graph_file(path_graph(4)),
                    "--edges",
                    "12",
                ]
            )
            == 2
        )

    @pytest.mark.parametrize(
        "edges, message",
        [
            ("", "bad edge ''; expected 'u-v'"),
            ("1-2,", "bad edge ''; expected 'u-v'"),
            ("1-x", "bad edge '1-x': invalid literal for int() with base 10: 'x'"),
        ],
    )
    def test_bad_edge_list(self, capsys, graph_file, edges, message):
        argv = ["colon", "--graph", graph_file(path_graph(4)), "--edges", edges]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_edge(self, capsys, graph_file):
        assert (
            main(
                [
                    "colon",
                    "--graph",
                    graph_file(path_graph(4)),
                    "--edges",
                    "0-3",
                ]
            )
            == 2
        )


class TestVerify:
    def test_single_graph(self, capsys, graph_file):
        code, out = run(
            capsys,
            [
                "verify",
                "--graph",
                graph_file(cycle_graph(5)),
                "--checks",
                "katzman",
                "bht",
                "--s-values",
                "1",
                "--format",
                "json",
            ],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["summary"]["katzman"]["pass"] == 1
        assert obj["spec"] == {
            "kind": "inline",
            "n": 5,
            "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]],
        }
        assert obj["version"] == edgeideals.__version__

    def test_jobs_is_not_an_option(self, capsys, graph_file):
        # One graph never starts a worker pool, so verify has no --jobs.
        argv = ["verify", "--graph", graph_file(cycle_graph(5)), "--jobs", "2"]
        assert usage_error(argv) == 2

    def test_nonpositive_power_is_an_input_error(self, capsys, graph_file):
        argv = ["verify", "--graph", graph_file(cycle_graph(5)),
                "--checks", "bht", "--s-values", "0"]
        assert main(argv) == 2
        assert "s must be positive" in capsys.readouterr().err

    def test_repeated_power_is_an_input_error(self, capsys, graph_file):
        # One instance checked at s = 1, not two passes for it.
        argv = ["verify", "--graph", graph_file(cycle_graph(5)),
                "--checks", "bht", "--s-values", "1", "1"]
        assert main(argv) == 2
        assert "must not repeat a power" in capsys.readouterr().err

    def test_unknown_check(self, capsys, graph_file):
        assert (
            main(
                [
                    "verify",
                    "--graph",
                    graph_file(cycle_graph(5)),
                    "--checks",
                    "bogus",
                ]
            )
            == 2
        )

    def test_edgeless_graph_past_s_2(self, capsys, tmp_path):
        # No edges means no edge multisets at any s, not an IndexError
        # from sampling an empty edge list.
        f = tmp_path / "e.txt"
        f.write_text("n 3\n")
        argv = ["verify", "--graph", str(f), "--checks",
                "lemma_colon_iteration", "--s-values", "3"]
        assert main(argv) == 0

    def test_large_star_is_a_capacity_skip(self, capsys, graph_file):
        # Naming K1,1200 raised RecursionError: the canonical search took a
        # frame per leaf.  Its leaves are twins, individualized in one step.
        star = graph_file(complete_bipartite_graph(1, 1200))
        argv = ["verify", "--graph", star, "--checks", "katzman",
                "--format", "json"]
        code, out = run(capsys, argv)
        assert code == 0
        (result,) = json.loads(out)["results"]
        assert result["verdict"] == "skipped"
        assert "over capacity" in result["values"]["reason"]

    def test_empty_check_list(self, capsys, graph_file):
        # A bare --checks names no check; it does not mean all of them.
        argv = ["verify", "--graph", graph_file(path_graph(4)), "--checks"]
        assert main(argv) == 2
        assert "checks must name at least one check" in capsys.readouterr().err


class TestEngineErrors:
    # The Hochster engine made wrong on ideals in 5 variables: C5's
    # checks become errors, the sweep finishes, and every command that
    # meets the disagreement exits 1.
    @pytest.fixture(autouse=True)
    def wrong_on_c5(self, monkeypatch):
        hochster = betti.betti_table_hochster

        def wrong(I):
            if I.nvars == 5:
                return betti.BettiTable({(0, 2): 9})
            return hochster(I)

        monkeypatch.setattr(betti, "betti_table_hochster", wrong)
        betti.regularity.cache_clear()

    def test_verify_exits_1(self, capsys, graph_file):
        argv = ["verify", "--graph", graph_file(cycle_graph(5)),
                "--checks", "katzman", "--format", "json"]
        code, out = run(capsys, argv)
        assert code == 1
        assert json.loads(out)["summary"]["katzman"]["error"] == 1

    def test_regularity_exits_1(self, capsys, graph_file):
        code = main(["regularity", "--graph", graph_file(cycle_graph(5))])
        assert code == 1
        assert "Betti engines disagree" in capsys.readouterr().err

    def test_sweep_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "family": {"kind": "named", "names": ["P4", "C5"]},
            "checks": ["katzman"],
            "s_values": [1],
        }))
        code, out = run(capsys, ["sweep", "--config", str(cfg)])
        assert code == 1
        assert "katzman: pass=1 fail=0" in out
        assert out.count("ERROR katzman g=5:") == 1


class TestSweep:
    def _config(self, tmp_path, obj):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_sweep_writes_reports(self, capsys, tmp_path):
        cfg = self._config(
            tmp_path,
            {
                "family": {"kind": "named", "names": ["P4", "C5"]},
                "checks": ["katzman"],
                "s_values": [1],
            },
        )
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", cfg, "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["summary"]["katzman"]["pass"] == 2
        csv_text = (out_dir / "report.csv").read_text()
        assert csv_text.splitlines()[0] == "check,instance,verdict,values"

    def test_sweep_json_stdout(self, capsys, tmp_path):
        cfg = self._config(
            tmp_path,
            {
                "family": {"kind": "exhaustive-vwc", "m": 2},
                "checks": ["katzman"],
                "s_values": [1],
            },
        )
        code, out = run(capsys, ["sweep", "--config", cfg, "--format", "json"])
        assert code == 0
        assert json.loads(out)["summary"]["katzman"]["pass"] == 3

    def test_missing_family(self, capsys, tmp_path):
        cfg = self._config(tmp_path, {"checks": ["katzman"]})
        assert main(["sweep", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "family, message",
        [
            ({"kind": "exhaustive-vwc", "m": 2, "density": 0.5},
             "does not read density"),
            ({"kind": "named", "names": ["P4"], "colour": "red"},
             "unknown family key"),
        ],
    )
    def test_family_key_not_read(self, capsys, tmp_path, family, message):
        cfg = self._config(tmp_path, {"family": family, "checks": ["katzman"]})
        assert main(["sweep", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["sweep", "--config", str(path)]) == 2

    def test_generation_error_exits_2(self, capsys, tmp_path):
        # Density 1 proposes every cross edge, so no seed gives a graph.
        family = {"kind": "random-vwc", "m": 2, "density": 1.0, "cap": 1}
        cfg = self._config(tmp_path, {"family": family})
        assert main(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: no very well-covered")

    def test_unknown_check_in_config(self, capsys, tmp_path):
        cfg = self._config(
            tmp_path,
            {"family": {"kind": "named", "names": ["P4"]}, "checks": ["x"]},
        )
        assert main(["sweep", "--config", cfg]) == 2

    def _bht_on_p4(self, tmp_path):
        return self._config(
            tmp_path,
            {
                "family": {"kind": "named", "names": ["P4"]},
                "checks": ["bht"],
                "s_values": [1],
            },
        )

    def test_s_values_flag_wins_over_config(self, capsys, tmp_path):
        argv = ["sweep", "--config", self._bht_on_p4(tmp_path),
                "--s-values", "2", "3", "--format", "json"]
        code, out = run(capsys, argv)
        assert code == 0
        report = json.loads(out)
        assert report["s_values"] == [2, 3]
        assert report["summary"]["bht"]["pass"] == 2

    def test_bare_s_values_exits_2(self, capsys, tmp_path):
        argv = ["sweep", "--config", self._bht_on_p4(tmp_path), "--s-values"]
        assert usage_error(argv) == 2

    @pytest.mark.parametrize("flag, jobs", [([], 2), (["--jobs", "0"], 0),
                                            (["--jobs", "1"], 1)])
    def test_jobs_flag_wins_over_config(self, tmp_path, monkeypatch, flag,
                                        jobs):
        # An explicit --jobs 0 is a value, not "not given".
        seen = []
        sweep_graphs = verify.sweep_graphs

        def spy(spec, graphs, checks, params=None):
            seen.append(params.jobs)
            return sweep_graphs(spec, graphs, checks, params)

        monkeypatch.setattr(verify, "sweep_graphs", spy)
        cfg = self._config(
            tmp_path,
            {
                "family": {"kind": "named", "names": ["P4"]},
                "checks": ["bht"],
                "s_values": [1],
                "jobs": 2,
            },
        )
        assert main(["sweep", "--config", cfg, *flag]) == 0
        assert seen == [jobs]

    @pytest.mark.parametrize("jobs", ["-3", "-1", "two"])
    def test_bad_jobs_exits_2(self, capsys, tmp_path, jobs):
        argv = ["sweep", "--config", self._bht_on_p4(tmp_path), "--jobs", jobs]
        assert usage_error(argv) == 2

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("jobs", -3, "jobs must be"),
            ("jobs", 1.5, "jobs must be"),
            ("jobs", "2", "jobs must be"),
            ("s_values", [], "s_values must be"),
            ("s_values", 2, "s_values must be"),
            ("s_values", [1, "2"], "s_values must be"),
            ("s_values", [1, 0], "s must be positive"),
            ("s_values", [-1], "s must be positive"),
            ("multiset_sample", 0, "multiset_sample must be"),
            ("multiset_sample", 2.5, "multiset_sample must be"),
            ("seed", "7", "seed must be"),
            ("seed", 1.5, "seed must be"),
            ("seed", True, "seed must be"),
            ("svalues", [3], "unknown sweep config key(s): svalues"),
            ("timings", "no", "timings must be true or false"),
            ("timings", 1, "timings must be true or false"),
            ("checks", "bht", "checks must be a list of check names"),
            ("checks", ["bht", 1], "checks must be a list of check names"),
            ("checks", [], "checks must name at least one check"),
            ("s_values", [1, 2, 1], "s_values must not repeat a power"),
        ],
    )
    def test_bad_config_value_exits_2(self, capsys, tmp_path, key, value,
                                      message):
        cfg = self._config(
            tmp_path,
            {
                "family": {"kind": "named", "names": ["P4"]},
                "checks": ["bht"],
                key: value,
            },
        )
        assert main(["sweep", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_config_jobs_zero_runs_serially(self, capsys, tmp_path):
        cfg = self._config(
            tmp_path,
            {
                "family": {"kind": "named", "names": ["P4"]},
                "checks": ["bht"],
                "s_values": [1],
                "jobs": 0,
            },
        )
        assert main(["sweep", "--config", cfg]) == 0


class TestGenerate:
    def test_named_kind(self, capsys):
        code, out = run(
            capsys,
            ["generate", "--kind", "named", "--names", "P4", "C5"],
        )
        assert code == 0
        docs = [d for d in out.split("\n\n") if d.strip()]
        assert len(docs) == 2 and docs[0].startswith("n 4")

    def test_exhaustive_vwc_json(self, capsys):
        code, out = run(
            capsys,
            ["generate", "--kind", "exhaustive-vwc", "--m", "2", "--format", "json"],
        )
        assert code == 0 and len(json.loads(out)) == 3

    def test_generate_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "fam.json"
        cfg.write_text(json.dumps({"kind": "exhaustive-all", "n": 4}))
        code, out = run(capsys, ["generate", "--config", str(cfg)])
        assert code == 0 and out.count("n 4") == 7

    def test_missing_required_field(self, capsys):
        assert main(["generate", "--kind", "exhaustive-all"]) == 2

    def test_no_kind_or_config(self, capsys):
        assert main(["generate"]) == 2

    def test_config_with_family_flags(self, capsys, tmp_path):
        cfg = tmp_path / "fam.json"
        cfg.write_text(json.dumps({"kind": "named", "names": ["P4"]}))
        argv = ["generate", "--config", str(cfg), "--m", "4", "--kind", "named"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "drop --kind, --m" in err

    @pytest.mark.parametrize(
        "flags, unread",
        [
            (["--kind", "named", "--names", "P4", "--m", "4"], "m"),
            (["--kind", "exhaustive-vwc", "--m", "2", "--n", "4"], "n"),
            (["--kind", "exhaustive-all", "--n", "4", "--names", "P4"],
             "names"),
            (["--kind", "exhaustive-all", "--n", "4", "--names"], "names"),
            (["--kind", "exhaustive-vwc", "--m", "2", "--density", "0.5"],
             "density"),
            (["--kind", "named", "--names", "P4", "--seed", "1"], "seed"),
            (["--kind", "exhaustive-all", "--n", "4", "--density", "0.3"],
             "density"),
        ],
    )
    def test_flag_the_kind_does_not_read(self, capsys, flags, unread):
        assert main(["generate"] + flags) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"does not read {unread}" in err

    def test_random_vwc_reads_density_and_seed(self, capsys):
        argv = ["generate", "--kind", "random-vwc", "--m", "2", "--cap", "2",
                "--format", "json"]
        code, default = run(capsys, argv)
        assert code == 0 and len(json.loads(default)) == 2
        assert run(capsys, argv + ["--density", "0.3", "--seed", "0"]) == (
            0, default,
        )

    def test_config_key_the_kind_does_not_read(self, capsys, tmp_path):
        cfg = tmp_path / "fam.json"
        cfg.write_text(json.dumps({"kind": "named", "names": ["P4"], "m": 4}))
        assert main(["generate", "--config", str(cfg)]) == 2
        assert "does not read m" in capsys.readouterr().err

    def test_closed_pipe(self):
        # The reader closes the pipe before the first write, as `| head`
        # does once it has its lines: no traceback, exit 0.
        src = os.path.dirname(os.path.dirname(edgeideals.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "edgeideals.cli", "generate",
             "--kind", "named", "--names", "P4", "C5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == ""
