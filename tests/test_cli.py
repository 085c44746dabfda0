"""Scenario parsing, subcommand behavior, exit codes, determinism."""

import importlib.util
import json
import re
import shlex
import sys
from importlib.resources import files
from pathlib import Path

import pytest

from prism_forge import cli
from prism_forge.cli import (
    EXIT_CHECK,
    EXIT_OK,
    EXIT_PARSE,
    Scenario,
    load_scenario,
    main,
    parse_scenario_dict,
    run_scenario,
)
from prism_forge.exprparse import ParseError, parse_expression
from prism_forge.transforms import RelativeFrobenius


def scenario_path(name: str) -> str:
    return str(files("prism_forge") / "scenarios" / name)


BUNDLED = sorted(
    entry.name[: -len(".json")]
    for entry in (files("prism_forge") / "scenarios").iterdir()
    if entry.name.endswith(".json")
)
GOLDEN = Path(__file__).parent / "golden"


def minimal(**overrides) -> dict:
    raw = {
        "schema": 1,
        "prime": 3,
        "precision": 2,
        "checks": [{"name": "cohomology"}],
    }
    raw.update(overrides)
    return raw


class TestScenarioParsing:
    def test_defaults(self):
        sc = parse_scenario_dict(minimal())
        assert sc.prime == 3 and sc.precision == 2
        assert sc.poly_degree == 10 and sc.pd_degree == 8 and sc.stages == 2
        assert sc.ring_text == "W[x]" and sc.seed == 0

    def test_frobenius_clauses_sorted(self):
        sc = parse_scenario_dict(
            minimal(ring="W[x,y]", frobenius={"y": "y^3", "x": "x^3 + p*y"})
        )
        assert sc.frobenius == ("x->x^3 + p*y", "y->y^3")

    @pytest.mark.parametrize(
        "raw",
        [
            {"prime": 3, "precision": 2, "checks": [{"name": "axioms"}]},
            minimal(schema=2),
            minimal(extra_field=1),
            minimal(checks=[]),
            minimal(checks=[{"name": "nosuch"}]),
            minimal(checks=[{"params": {}}]),
            minimal(caps={"bad_cap": 3}),
            minimal(prime="3"),
            minimal(precision=0),
            minimal(cut="x"),
            minimal(frobenius=["x->x^3"]),
        ],
    )
    def test_rejects(self, raw):
        with pytest.raises(ParseError):
            parse_scenario_dict(raw)

    def test_missing_file(self):
        with pytest.raises(ParseError, match="cannot read"):
            load_scenario("/nonexistent/scenario.json")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ParseError):
            load_scenario(str(path))


class TestBundledScenarios:
    def test_poincare_line(self):
        sc = load_scenario(scenario_path("poincare_line.json"))
        passed, report, lines = run_scenario(sc)
        assert passed
        check = report["checks"][0]
        assert check["H0"] == "Z/3^3"
        assert check["higher_trivial"] and check["homotopy_identity"]

    def test_prismenv_xy(self):
        sc = load_scenario(scenario_path("prismenv_xy.json"))
        passed, report, lines = run_scenario(sc)
        assert passed
        rels = report["checks"][0]["presentation"]["relations"]
        assert "p*s = x" in rels
        assert "p*t^[1] = y - s^2" in rels

    def test_pcurvature_line(self):
        sc = load_scenario(scenario_path("pcurvature_line.json"))
        passed, report, lines = run_scenario(sc)
        assert passed
        psi = [check["psi"]["x"] for check in report["checks"]]
        assert psi == ["0", "x^6 - 1", "x^15 - x^3"]

    @pytest.mark.parametrize("stem", BUNDLED)
    def test_report_matches_golden(self, stem, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["run", scenario_path(stem + ".json"), "--out", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert out.read_bytes() == (GOLDEN / f"{stem}.report.json").read_bytes()

    def test_transforms_tour_matches_golden(self, tmp_path, capsys):
        # isogeny, both ftransform ranks, pcurvature and cotangent on W[x,y]
        tour = Path(__file__).parent / "data" / "transforms_tour.json"
        out = tmp_path / "report.json"
        code = main(["run", str(tour), "--out", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert out.read_bytes() == (
            GOLDEN / "transforms_tour.report.json"
        ).read_bytes()

    def test_default_report_lands_in_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        scenarios = files("prism_forge") / "scenarios"
        before = sorted(p.name for p in scenarios.iterdir())
        monkeypatch.chdir(tmp_path)
        assert main(["run", scenario_path("poincare_line.json")]) == EXIT_OK
        capsys.readouterr()
        assert sorted(p.name for p in scenarios.iterdir()) == before
        report = json.loads((tmp_path / "poincare_line.report.json").read_text())
        assert report["passed"] is True

    def test_exit_codes_through_main(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(
            ["run", scenario_path("poincare_line.json"), "--out", str(out)]
        )
        assert code == EXIT_OK
        assert out.exists()
        assert "PASS poincare" in capsys.readouterr().out


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert (
                main(["run", scenario_path("prismenv_xy.json"), "--out", str(out)])
                == EXIT_OK
            )
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "rep.json"
        monkeypatch.setenv("PRISM_FORGE_SEED", "31")
        code = main(["axioms", "--samples", "10", "--out", str(out)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert json.loads(out.read_text())["seed"] == 31

    def test_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("PRISM_FORGE_SEED", "many")
        assert main(["axioms", "--samples", "5"]) == EXIT_PARSE
        capsys.readouterr()

    def test_calls_in_one_process_behave_as_fresh_calls(self, capsys):
        # main builds its parser once per process; options of one call must
        # not reach the next: poincare keeps the default prime, and a
        # repeated --phi is not appended to the last call's
        axioms = ["axioms", "--prime", "3", "--precision", "2", "--samples", "20",
                  "--ring", "W[x]", "--phi", "x->x^3 + 3*x"]
        poincare = ["poincare", "--pd-degree", "6"]

        def call(argv):
            return main(argv), capsys.readouterr()

        fresh = []
        for argv in (axioms, poincare):
            cli._parser.cache_clear()
            fresh.append(call(argv))
        assert fresh[0][0] == EXIT_OK and "Z/2^3" in fresh[1][1].out
        assert [call(argv) for argv in (axioms, poincare, axioms)] == [
            fresh[0], fresh[1], fresh[0]
        ]


def readme_one_shots() -> dict:
    """Subcommand -> argv of each `prism-forge` line in README's sh blocks,
    but `run`, whose reports the bundled-scenario goldens already hold."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line)[1:] for line in lines if line.startswith("prism-forge ")]
    return {argv[0]: argv for argv in argvs if argv[0] != "run"}


class TestReadmeOneShots:
    """README's one-shot commands print and write what they did when the
    goldens under tests/golden/oneshot_* were made."""

    def test_all_six_are_read(self):
        assert sorted(readme_one_shots()) == [
            "axioms", "cohomology", "envelope", "ftransform", "pcurvature", "poincare",
        ]

    @pytest.mark.parametrize("command", sorted(readme_one_shots()))
    def test_matches_golden(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("PRISM_FORGE_SEED", raising=False)
        out = tmp_path / "report.json"
        code = main(readme_one_shots()[command] + ["--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == EXIT_OK
        assert stdout == (GOLDEN / f"oneshot_{command}.stdout").read_text()
        assert out.read_bytes() == (GOLDEN / f"oneshot_{command}.report.json").read_bytes()


class TestSubcommands:
    def test_envelope_golden_relation(self, capsys):
        code = main(
            [
                "envelope", "--prime", "3", "--precision", "4",
                "--ring", "W[x]", "--phi", "x->x^3", "--cut", "x",
                "--stages", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "p*t2 = -t1^3" in out
        assert "p*t1 = x" in out

    def test_axioms_golden(self, capsys):
        code = main(
            ["axioms", "--prime", "2", "--precision", "3", "--samples", "50"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS axioms" in out

    def test_axioms_check_every_pair(self, capsys):
        code = main(
            ["axioms", "--prime", "5", "--precision", "4", "--samples", "300"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "300 pairs checked, 0 skipped" in out

    def test_axioms_fail_when_a_pair_is_skipped(self, capsys):
        # x^3 + 3x^5 raises the degree of phi(ab) beyond the 4p cap
        code = main(
            [
                "axioms", "--prime", "3", "--precision", "3", "--samples", "60",
                "--ring", "W[x]", "--phi", "x->x^3 + 3*x^5",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_CHECK
        assert "28 skipped" in out
        assert "FAIL axioms" in out

    def test_cohomology_divisor_table(self, capsys):
        code = main(
            [
                "cohomology", "--complex", "pderham", "--ring", "W[x]",
                "--poly-degree", "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "H^1 elementary divisors:" in out
        # p=2, N=3, D=10: five odd n, three with v=1, two with v>=2
        assert "2 x 5" in out and "4 x 3" in out and "8 x 2" in out

    def test_ftransform(self, capsys):
        code = main(["ftransform", "--prime", "2", "--window", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "quasi-isomorphism: yes" in out

    def test_pcurvature(self, capsys):
        code = main(["pcurvature", "--prime", "2", "--theta", "xp"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "psi[x] = x^6 + x^2" in out

    def test_poincare(self, capsys):
        code = main(
            ["poincare", "--prime", "2", "--precision", "2", "--vars", "2",
             "--pd-degree", "6"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "H^0 = Z/2^2" in out

    def test_unknown_complex_is_a_parse_error(self, capsys):
        code = main(["cohomology", "--complex", "crystal"])
        capsys.readouterr()
        assert code == EXIT_PARSE

    def test_bad_ring_text(self, capsys):
        code = main(["cohomology", "--ring", "V[x]"])
        capsys.readouterr()
        assert code == EXIT_PARSE

    def test_envelope_without_cut(self, capsys):
        code = main(["envelope", "--ring", "W[x]"])
        capsys.readouterr()
        assert code == EXIT_PARSE

    def test_axioms_at_precision_one_is_a_parse_error(self, capsys):
        code = main(
            ["axioms", "--prime", "2", "--precision", "1", "--samples", "5"]
        )
        assert code == EXIT_PARSE
        assert "axioms needs precision >= 2" in capsys.readouterr().err

    def test_stage_dimensions_without_cut_is_a_parse_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(minimal(checks=[{"name": "dimensions"}])))
        code = main(["run", str(path), "--out", str(tmp_path / "out.json")])
        assert code == EXIT_PARSE
        assert "dimensions of kind stages needs a cut" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()


class TestScenarioChecks:
    def run(self, raw):
        return run_scenario(parse_scenario_dict(raw))

    @pytest.mark.parametrize("p", [2, 3])
    def test_mixed_dimensions_read_no_frobenius_lift(self, p):
        # at N = 2 the lift of the mixed envelope cannot be formed, but
        # the dimensions never read it; the envelope check still fails
        _, report, _ = self.run(minimal(prime=p, checks=[
            {"name": "dimensions", "kind": "mixed"}, {"name": "envelope", "kind": "mixed"},
        ]))
        dims, env = report["checks"]
        assert dims["passed"] and dims["dimensions"] == dims["predicted"]
        assert env == {"name": "envelope", "passed": False, "error": "PrecisionExhausted",
                       "message": "cannot drop 1 levels below precision 1"}

    def test_failing_expectation_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "expect.json"
        path.write_text(
            json.dumps(
                minimal(checks=[{"name": "cohomology", "expect": {"0": [99]}}])
            )
        )
        assert main(["run", str(path)]) == EXIT_CHECK
        capsys.readouterr()

    def test_expectation_met(self):
        # p=3, N=2, D<=4: H^1 classes n=1..4 have orders 3,3,9,3
        passed, report, _ = self.run(
            minimal(
                caps={"poly_degree": 4},
                checks=[{"name": "cohomology", "expect": {"1": [1, 1, 1, 2]}}],
            )
        )
        assert passed

    def test_isogeny_check(self):
        passed, report, _ = self.run(
            minimal(
                prime=2,
                precision=2,
                checks=[{"name": "isogeny", "window": 2}],
            )
        )
        assert passed
        assert report["checks"][0]["top_power"] == 1

    def test_cotangent_check(self):
        passed, report, _ = self.run(
            minimal(
                ring="W[x,y]",
                precision=3,
                cut=["x"],
                checks=[{"name": "cotangent", "cap": 3}],
            )
        )
        assert passed

    @pytest.mark.parametrize("prime,precision,ring,frobenius", [
        (2, 3, "W[x]", {"x": "x^2 + 2*x^3"}),
        (3, 2, "W[x,y]", {"x": "x^3 + 3*y"}),
    ], ids=["phi-degree-3", "two-coordinates"])
    def test_pcurvature_caps_follow_phi(self, prime, precision, ring, frobenius):
        passed, report, _ = self.run(minimal(
            prime=prime, precision=precision, ring=ring, frobenius=frobenius,
            checks=[{"name": "pcurvature", "theta": "xp"}],
        ))
        assert passed
        assert report["checks"][0]["failures"] == []

    def test_checks_share_one_relative_frobenius_per_cap(self, monkeypatch):
        thetas = ["xp^2 + 1", "2*xp^2 + xp", "xp^2"]
        alone = [
            self.run(minimal(checks=[{"name": "pcurvature", "theta": t}]))[1]
            for t in thetas
        ]
        built, parsed = [], []
        init = RelativeFrobenius.__init__
        monkeypatch.setattr(RelativeFrobenius, "__init__", (
            lambda self, lift: built.append(lift.ring.poly_degree_cap) or init(self, lift)
        ))
        monkeypatch.setattr(cli, "parse_expression", lambda text, ring: (
            parsed.append(text) or parse_expression(text, ring)
        ))
        passed, report, _ = self.run(minimal(
            checks=[{"name": "pcurvature", "theta": t} for t in thetas],
        ))
        # one working ring, as all three thetas have degree 2; the degrees
        # are read without a relative Frobenius, and each theta is parsed once
        assert passed and len(built) == 1 and parsed == thetas
        assert report["checks"] == [r["checks"][0] for r in alone]

    def test_quasi_iso_checks_write_a_report(self, tmp_path, capsys):
        path, out = tmp_path / "transforms.json", tmp_path / "rep.json"
        path.write_text(json.dumps(minimal(
            prime=2,
            ring="W[x,y]",
            precision=3,
            cut=["x"],
            checks=[
                {"name": "ftransform", "window": 2, "rank": 1},
                {"name": "cotangent", "cap": 3},
            ],
        )))
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.count("quasi-isomorphism: yes") == 2
        checks = json.loads(out.read_text())["checks"]
        assert [c["quasi_iso"] for c in checks] == [True, True]

    def test_dimensions_stagewise(self):
        passed, report, _ = self.run(
            minimal(
                prime=3,
                precision=4,
                cut=["x"],
                caps={"poly_degree": 12, "stages": 2},
                checks=[{"name": "dimensions", "weight_cap": 6}],
            )
        )
        assert passed
        assert report["checks"][0]["dimensions"] == [1] * 7

    def test_report_shape(self):
        passed, report, lines = self.run(minimal())
        assert report["schema"] == 1
        assert report["scenario"]["prime"] == 3
        assert report["passed"] == passed is True
        assert any(line.startswith("PASS cohomology") for line in lines)

    def test_a_raising_check_fails_alone(self, tmp_path, monkeypatch, capsys):
        def explode(sc, params):
            raise RuntimeError("no such luck")

        monkeypatch.setitem(cli.CHECKS, "explode", explode)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "isolated.json"
        path.write_text(json.dumps(minimal(checks=[
            {"name": "cohomology"}, {"name": "explode"},
            {"name": "dimensions", "kind": "mixed"},
        ])))
        assert main(["run", str(path)]) == EXIT_CHECK
        out = capsys.readouterr().out
        report = json.loads((tmp_path / "isolated.report.json").read_text())
        first, failed, last = report["checks"]
        assert first["passed"] and last["passed"] and not report["passed"]
        assert failed == {
            "name": "explode", "passed": False,
            "error": "RuntimeError", "message": "no such luck",
        }
        assert "RuntimeError: no such luck\nFAIL explode\n" in out
        assert out.index("FAIL explode") < out.index("PASS dimensions")

    def test_a_parse_error_inside_a_check_still_exits_two(self, tmp_path, monkeypatch, capsys):
        def refuse(sc, params):
            raise ParseError("bad parameter")

        monkeypatch.setitem(cli.CHECKS, "refuse", refuse)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(minimal(checks=[{"name": "refuse"}])))
        assert main(["run", str(path)]) == EXIT_PARSE
        assert "bad parameter" in capsys.readouterr().err
        assert not (tmp_path / "refused.report.json").exists()


class TestCheckParameters:
    """PARAMS: a scenario gives only the parameters a check kind has,
    with values from its list, and each subcommand is a one-check run."""

    @pytest.mark.parametrize("ring,check,named", [
        ("W[x,y]", {"name": "dimensions", "kind": "dilatation"}, "kind"),
        ("W[x,y]", {"name": "dimensions", "kind": "mixd"}, "kind"),
        ("W[x]", {"name": "isogeny", "windw": 40}, "windw"),
        ("W<t>", {"name": "poincare", "vars": 2}, "vars"),
        # poincare read the cell of its vars and passed, whatever the ring
        ("W[x,y]", {"name": "poincare"}, "ordinary generators"),
        ("W[x]<t>", {"name": "poincare"}, "ordinary generators"),
        ("W[x]", {"name": "ftransform", "rank": "2"}, "rank"),
        ("W[x]", {"name": "pcurvature", "theta": 1}, "theta"),
        ("W[x]", {"name": "cohomology", "expect": {"1": [1], "2": [1]}}, "expect"),
        # each builds its ring with no divided powers: cohomology passed on
        # a window without t, the others failed their check
        ("W[x]<t>", {"name": "cohomology"}, "polynomial ring"),
        ("W[x]<t>", {"name": "ftransform"}, "polynomial ring"),
        ("W[x]<t>", {"name": "isogeny"}, "polynomial ring"),
        ("W[x]<t>", {"name": "pcurvature"}, "polynomial ring"),
    ], ids=["dimensions-dilatation", "dimensions-mixd", "isogeny-windw",
            "poincare-vars", "poincare-polynomial-ring", "poincare-mixed-ring", "ftransform-rank-text", "pcurvature-theta-number",
            "cohomology-expect-degree", "cohomology-divided-powers",
            "ftransform-divided-powers", "isogeny-divided-powers",
            "pcurvature-divided-powers"])
    def test_refused_parameter_exits_two(self, ring, check, named, tmp_path, capsys):
        path, out = tmp_path / "refused.json", tmp_path / "refused.report.json"
        path.write_text(json.dumps(minimal(ring=ring, cut=["x"], checks=[check])))
        assert main(["run", str(path), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert check["name"] in err and named in err
        assert not out.exists()

    CUT_READERS = {
        "envelope-stages": {"name": "envelope", "kind": "stages"},
        "envelope-dilatation": {"name": "envelope", "kind": "dilatation"},
        "dimensions-stages": {"name": "dimensions", "kind": "stages"},
        "cotangent": {"name": "cotangent"},
    }

    @pytest.mark.parametrize("reader", sorted(CUT_READERS))
    @pytest.mark.parametrize("ring,cut,named", [
        ("W[x]", ["y"], "'y'"),
        ("W[x]", ["x", "x"], "repeats"),
        ("W[x]<t>", ["t"], "polynomial ring"),
    ], ids=["unknown-generator", "duplicate", "divided-power-ring"])
    def test_a_cut_the_check_cannot_read_exits_two(self, reader, ring, cut, named,
                                                    tmp_path, capsys):
        # each failed its check with exit 1 and wrote a report
        check = self.CUT_READERS[reader]
        path, out = tmp_path / "refused.json", tmp_path / "refused.report.json"
        path.write_text(json.dumps(minimal(ring=ring, cut=cut, checks=[check])))
        assert main(["run", str(path), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert check["name"] in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["envelope-stages", "dimensions-stages"])
    @pytest.mark.parametrize("precision,stages", [(2, 2), (2, 3), (3, 3)])
    def test_stages_at_or_above_the_precision_exit_two(self, reader, precision, stages,
                                                       tmp_path, capsys):
        check = self.CUT_READERS[reader]
        path, out = tmp_path / "refused.json", tmp_path / "refused.report.json"
        path.write_text(json.dumps(minimal(
            precision=precision, caps={"stages": stages}, cut=["x"], checks=[check])))
        assert main(["run", str(path), "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert check["name"] in err and f"{stages} stages" in err
        assert not out.exists()

    def test_checks_that_read_no_cut_or_no_stages_are_not_refused(self):
        parse_scenario_dict(minimal(ring="W<t>", cut=["y", "y"], checks=[
            {"name": "poincare"}, {"name": "envelope", "kind": "mixed"},
            {"name": "dimensions", "kind": "mixed"},
        ]))
        parse_scenario_dict(minimal(caps={"stages": 2}, cut=["x"], checks=[
            {"name": "envelope", "kind": "dilatation"}, {"name": "cotangent"},
        ]))

    def test_defaults_fill_in_but_the_report_keeps_the_file_checks(self):
        sc = parse_scenario_dict(minimal(checks=[
            {"name": "isogeny"}, {"name": "dimensions", "kind": "mixed"},
        ]))
        assert sc.params == ({"window": 2}, {"kind": "mixed", "weight_cap": 6})
        assert sc.to_json_dict()["checks"] == [
            {"name": "isogeny"}, {"name": "dimensions", "kind": "mixed"},
        ]

    def test_vars_matching_the_divided_powers_is_accepted(self):
        sc = parse_scenario_dict(minimal(ring="W<t,u>", checks=[
            {"name": "poincare", "vars": 2},
        ]))
        assert sc.params == ({"vars": 2},)

    @pytest.mark.parametrize("argv,scenario", [
        (["envelope", "--cut", "x"],
         {"cut": ["x"], "checks": [{"name": "envelope", "kind": "stages"}]}),
        (["cohomology"], {"checks": [{"name": "cohomology", "complex": "pderham"}]}),
        (["poincare"], {"ring": "W", "checks": [{"name": "poincare", "vars": 1}]}),
        (["ftransform"], {"checks": [{"name": "ftransform", "window": 8, "rank": 1}]}),
        (["pcurvature"], {"checks": [{"name": "pcurvature", "theta": "1"}]}),
        (["axioms"], {"ring": "W[x,y]", "checks": [{"name": "axioms", "samples": 200}]}),
    ], ids=["envelope", "cohomology", "poincare", "ftransform", "pcurvature", "axioms"])
    def test_subcommand_is_the_one_check_scenario(self, argv, scenario, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(
            {"schema": 1, "prime": 2, "precision": 3, "ring": "W[x]", **scenario}
        ))
        one, ran = tmp_path / "one.report.json", tmp_path / "run.report.json"
        assert main(argv + ["--out", str(one)]) == EXIT_OK
        assert main(["run", str(path), "--out", str(ran)]) == EXIT_OK
        capsys.readouterr()
        assert one.read_bytes() == ran.read_bytes()

    @pytest.mark.parametrize("flag", [
        "--prime", "--precision", "--pd-degree", "--poly-degree", "--stages", "--seed",
    ])
    def test_run_takes_only_the_scenario_and_out(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", scenario_path("poincare_line.json"), flag, "3"])
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--prime", "1"), ("--precision", "0"), ("--poly-degree", "0"),
    ])
    def test_subcommand_flags_are_refused_as_scenario_fields(self, flag, value, capsys):
        assert main(["cohomology", flag, value]) == EXIT_PARSE
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_poincare_takes_no_ring(self, capsys):
        # the cell comes from --vars; a ring would be a second way to set it
        with pytest.raises(SystemExit) as exc:
            main(["poincare", "--ring", "W<t,u>"])
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,text", [
        ("pcurvature", "--theta", "twist coefficient over the primed ring"),
        ("ftransform", "--rank", "rank of the nilpotent p-connection"),
        ("poincare", "--vars", "divided-power variables"),
        ("envelope", "--kind", "one of stages, dilatation, mixed"),
    ])
    def test_parameter_flags_have_help(self, command, flag, text, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == EXIT_OK
        out = " ".join(capsys.readouterr().out.split())
        assert flag in out and text in out

    def test_rank_flag_takes_what_a_scenario_takes(self, capsys):
        code = main(["ftransform", "--window", "2", "--rank", "3"])
        assert code == EXIT_OK
        assert "rank 3" in capsys.readouterr().out


class TestBenchmarkScenarios:
    """Every scenario file the transforms-scenarios workload of perfbench
    writes must parse: a refusal would count there as a failed operation."""

    @pytest.mark.parametrize("seed", [0, 401, 912])
    def test_workload_files_parse(self, seed, tmp_path, monkeypatch):
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.syspath_prepend(str(bench))
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", bench / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        written = workloads.TransformsScenarios(seed, str(tmp_path)).files
        loaded = {stem: load_scenario(path) for stem, path, _ in written}
        assert len(loaded) == 7
        checks = [chk for sc in loaded.values() for chk in sc.checks]
        assert {"name": "ftransform", "window": 4, "rank": 3} in checks
        assert {"name": "cotangent", "cap": 5} in checks
