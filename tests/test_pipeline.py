import copy
import json
import os
import pathlib
import subprocess
import sys

import pytest

import liepde
from liepde import cli, linalg, parser, pipeline, reference, structure
from liepde.cli import main as cli_main
from liepde.errors import LiepdeError, PipelineError
from baseline import EXPECTED_CLOSURE_FAILURES
import corpus

DATA = pathlib.Path(liepde.__file__).parent / "data"
ALGEBRA = str(DATA / "boundary_layer_algebra.json")
TABLE = str(DATA / "boundary_layer_optimal.json")


def note_anchors(report):
    return {n["anchor"] for n in report["notes"]}


class TestGoldenPipeline:
    def test_reference_detected_and_generators_confirmed(self, golden_report):
        check = golden_report["reference_check"]
        assert check is not None
        for label, info in check["contains"].items():
            assert info["in_span"], label
            assert info["residual_zero"], label

    def test_every_generator_confirmed(self, golden_report):
        assert golden_report["generators"]
        for g in golden_report["generators"]:
            assert g["residual_zero"], g["label"]

    def test_commutator_and_killing_match_reference(self, golden_report):
        assert golden_report["structure"]["matches_reference_commutators"]
        assert golden_report["structure"]["matches_reference_killing"]

    def test_predicates(self, golden_report):
        s = golden_report["structure"]
        assert s["solvable"] and not s["semisimple"] and not s["nilpotent"]
        assert s["killing_determinant"] == "0"
        assert s["derived_dimensions"] == [5, 3, 0]

    def test_each_series_computed_once(self, monkeypatch):
        # the predicates, the radical and the optimal table read the series
        # that the structure section computed, kept with the algebra
        series = []
        inner = structure._series

        def counted(L, step):
            series.append(step.__qualname__.partition(".")[0])
            return inner(L, step)

        monkeypatch.setattr(structure, "_series", counted)
        pipeline.run_pipeline(reference.fixture_document())
        assert series == ["derived_series", "lower_central_series"]

    def test_expected_notes_present(self, golden_report):
        anchors = note_anchors(golden_report)
        for expected in (
            "reference:boundary-layer/advection-term",
            "reference:boundary-layer/symmetry-dimension",
            "reference:boundary-layer/derived-series",
            "reference:boundary-layer/adjoint-matrix-4",
            "reference:boundary-layer/composite-transform",
            "reference:boundary-layer/invariant-table-v4",
            "reference:boundary-layer/invariant-table-v5",
            "reference:boundary-layer/optimal-2d-closure",
            "reference:boundary-layer/optimal-1d-coverage",
        ):
            assert expected in anchors, expected

    def test_adjoint_delta_only_in_matrix_4(self, golden_report):
        deltas = golden_report["adjoint"]["baseline_deltas"]
        assert list(deltas) == ["4"]
        assert deltas["4"] == [[3, 4]]

    def test_flow_section(self, golden_report):
        maps = {f["label"]: f for f in golden_report["flows"]}
        assert maps["v1"]["map"]["x"] == "x + eps"
        assert maps["v4"]["map"]["p"] == "p*exp(2*eps)"
        assert maps["v4"]["transformed"]["u"] == "f(x*exp(eps), y)*exp(-eps)"
        diff = golden_report["composite"]["difference"]
        assert diff["u"] == "0"
        assert diff["v"] != "0" and diff["p"] != "0"

    def test_optimal_section(self, golden_report):
        opt = golden_report["optimal"]
        assert opt["invariant_components"] == ["v4", "v5"]
        assert opt["one_dimensional_coverage_gaps"] == ["v4", "v5"]
        closures = {e["label"]: e["closed"] for e in opt["entries"]}
        for label in EXPECTED_CLOSURE_FAILURES:
            assert closures[label] is False
        passing = [l for l, ok in closures.items() if ok]
        assert len(passing) == len(closures) - 2

    def test_invariant_section(self, golden_report):
        inv = golden_report["invariants"]
        assert inv["masked"] == ["p", "x", "y"]
        assert len(inv["lattice"]) == 6
        assert all(entry["verified"] and entry["in_lattice"]
                   for entry in inv["baseline_first_order"])


def added_keys(before, after, path=()):
    """Key paths of the dict `after` that `before` lacks.

    Asserts that `before`'s keys come first in `after`, in their order, and
    that every value of `before` is unchanged, except that the top-level
    `notes` list may grow.
    """
    assert list(after)[:len(before)] == list(before), path
    added = set()
    for key, value in after.items():
        if key not in before:
            added.add(path + (key,))
        elif path == () and key == "notes":
            assert value[:len(before[key])] == before[key]
        elif isinstance(value, dict):
            added |= added_keys(before[key], value, path + (key,))
        else:
            assert value == before[key], path + (key,)
    return added


class TestBaselineComparison:
    def test_comparison_only_adds(self, monkeypatch, golden_report):
        # the comparison runs on a deep copy of the sections' report, which
        # run_pipeline then returns as it is
        inner = pipeline._compare_baseline
        compared = []

        def on_copy(report, *args):
            compared.append(copy.deepcopy(report))
            inner(compared[0], *args)

        monkeypatch.setattr(pipeline, "_compare_baseline", on_copy)
        before = pipeline.run_pipeline(reference.fixture_document())
        assert len(compared) == 1
        after = compared[0]
        assert before["notes"] == [] and after["notes"]
        assert added_keys(before, after) == {
            ("structure", "matches_reference_commutators"),
            ("structure", "matches_reference_killing"),
            ("structure", "derived_dimensions"),
            ("adjoint", "baseline_deltas"),
            ("invariants", "baseline_first_order"),
            ("invariants", "baseline_table_v4"),
            ("invariants", "baseline_table_v5"),
            ("reference_check",),
            ("composite",),
            ("optimal",),
        }
        assert pipeline.emit(after, "json") == pipeline.emit(golden_report, "json")


class TestEmission:
    def test_json_is_valid_and_versioned(self, golden_report):
        raw = pipeline.emit(golden_report, "json")
        doc = json.loads(raw)
        assert doc["schema"] == 1
        assert doc["determining"]["unknowns"] == 30

    def test_rationals_as_strings(self, golden_report):
        doc = json.loads(pipeline.emit(golden_report, "json"))
        killing = doc["structure"]["killing"]
        assert killing[3][3] == "5"
        assert killing[3][4] == "-8"

    def test_deterministic_bytes(self):
        a = pipeline.emit(pipeline.run_pipeline(reference.fixture_document()), "json")
        b = pipeline.emit(pipeline.run_pipeline(reference.fixture_document()), "json")
        assert a == b
        ta = pipeline.emit(pipeline.run_pipeline(reference.fixture_document()), "text")
        tb = pipeline.emit(pipeline.run_pipeline(reference.fixture_document()), "text")
        assert ta == tb

    def test_bytes_match_committed_reports(self, fixture_report):
        # Reports of the shipped fixture at ansatz degrees 1-3, committed
        # when they were last known good; a refactor must reproduce them
        # exactly.  Degrees 2 and 3 pin the parameter-field solve, whose
        # entries depend on the elimination path.
        data = pathlib.Path(__file__).parent / "data"
        for degree in (1, 2, 3):
            for fmt, ext in (("json", "json"), ("text", "txt")):
                expected = (data / f"fixture_degree{degree}.{ext}").read_bytes()
                assert pipeline.emit(fixture_report(degree), fmt) == expected, (degree, fmt)

    def test_text_contains_tables(self, golden_report):
        text = pipeline.emit(golden_report, "text").decode()
        assert "commutator table" in text
        assert "Killing form" in text
        assert "== notes ==" in text


@pytest.fixture(scope="module")
def variant_report():
    """The `--reference on` report of the printed fixture ("printed") or of
    the fixture with + x*y in the x-momentum equation ("x*y"), run once each."""
    reports = {}

    def report(variant):
        if variant not in reports:
            if variant == "printed":
                text = reference.fixture_text("boundary_layer_printed.pde")
            else:
                text = reference.fixture_text().replace(
                    "nu*d(u,y,y)\n", "nu*d(u,y,y) + x*y\n")
            reports[variant] = pipeline.run_pipeline(parser.parse_system(text),
                                                     use_reference=True)
        return reports[variant]

    return report


class TestOptions:
    def test_degree_zero_translations_only(self):
        report = pipeline.run_pipeline(
            reference.fixture_document(), ansatz_degree=0
        )
        assert report["determining"]["dimension"] == 3
        assert all(g["residual_zero"] for g in report["generators"])

    def test_reference_off(self):
        report = pipeline.run_pipeline(
            reference.fixture_document(), use_reference=False
        )
        assert report.get("reference_check") is None
        assert report.get("optimal") is None
        # six computed generators drive the structure section
        assert len(report["structure"]["labels"]) == 6

    def test_symmetry_dimension_note_states_what_holds(self, golden_report):
        # with + x*y in the x-momentum equation only v3 and v4 survive: the
        # note names no extra generator and does not claim 2 exceeds 5
        text = reference.fixture_text().replace(
            "nu*d(u,y,y)\n", "nu*d(u,y,y) + x*y\n")
        report = pipeline.run_pipeline(parser.parse_system(text), use_reference=True)
        contains = report["reference_check"]["contains"]
        assert [label for label, c in contains.items() if c["in_span"]] == ["v3", "v4"]
        assert report["reference_check"]["computed_dimension"] == 2
        details = [n["detail"] for n in report["notes"]
                   if n["anchor"] == "reference:boundary-layer/symmetry-dimension"]
        assert details == ["computed nullspace dimension 2 is below the baseline count 5"]
        # on the fixture, 6 > 5 and x*d/dy + u*d/dv is in the span
        details = [n["detail"] for n in golden_report["notes"]
                   if n["anchor"] == "reference:boundary-layer/symmetry-dimension"]
        assert details == [
            "computed nullspace dimension 6 exceeds the baseline count 5; the span "
            "also contains x*d/dy + u*d/dv (zero residual, excluded by the baseline "
            "determining equations)"]

    @pytest.mark.parametrize("variant, rejected", [
        ("printed", "v4, v5"),
        ("x*y", "v1, v2, v5"),
    ])
    def test_not_admitted_note_names_the_rejected(self, golden_report, variant_report,
                                                  variant, rejected):
        # the analysis still runs on v1..v5; the note says which of them
        # the system does not admit
        report = variant_report(variant)
        assert [n["detail"] for n in report["notes"]
                if n["anchor"] == "reference:boundary-layer/not-admitted"] == [
            f"the baseline generators {rejected} have a nonzero symmetry residual, "
            "so this system does not admit them; the analysis sections still "
            "describe v1..v5 as given"]
        assert report["structure"]["labels"] == ["v1", "v2", "v3", "v4", "v5"]
        assert "reference:boundary-layer/not-admitted" not in note_anchors(golden_report)

    @pytest.mark.parametrize("variant", ["printed", "x*y"])
    def test_advection_note_only_on_the_fixture(self, golden_report, variant_report,
                                                variant):
        # the note describes the shipped fixture's advection term
        anchor = "reference:boundary-layer/advection-term"
        assert anchor not in note_anchors(variant_report(variant))
        assert anchor in note_anchors(golden_report)

    def test_printed_variant_not_detected_as_reference(self):
        doc = parser.parse_system(
            reference.fixture_text("boundary_layer_printed.pde")
        )
        assert not pipeline.reference_on(doc, parser.build_system(doc)[0])
        report = pipeline.run_pipeline(doc)
        assert report.get("reference_check") is None
        for g in report["generators"]:
            assert g["residual_zero"]


class TestCli:
    def test_symmetries_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli_main(["--report", "json", "--out", str(out), "symmetries"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1

    def test_check_generator(self, capsys):
        rc = cli_main(["check-generator", "--field", "0; x; 0; u; 0"])
        assert rc == 0
        assert "symmetry: True" in capsys.readouterr().out

    def test_check_generator_rejects_wrong_arity(self, capsys):
        rc = cli_main(["check-generator", "--field", "0; x"])
        assert rc == 1

    def test_normal_form_with_constants(self, capsys):
        rc = cli_main(
            ["normal-form", "--vector", "1,0,0,1,0", "--constants", ALGEBRA]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "output: v4" in out

    @pytest.mark.parametrize("vector, constants", [
        ("-1,0,0,1,0", None),
        ("-1,0,0,1,0", "fixture"),
        ("-1,5/2", "two-dimensional"),
    ])
    def test_negative_vector_as_written(self, tmp_path, capsys, vector, constants):
        # a value may start with "-": both spellings must give the same run
        tail = []
        if constants == "fixture":
            tail = ["--constants", ALGEBRA]
        elif constants:
            path = tmp_path / "algebra.json"
            path.write_text(json.dumps(corpus.spectrum(1)))
            tail = ["--constants", str(path)]
        runs = []
        for spelled in (["--vector", vector], [f"--vector={vector}"]):
            rc = cli_main(["normal-form", *spelled, *tail])
            runs.append((rc, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0
        assert runs[0][1].startswith("input:")

    def test_normal_form_scaling_and_negation(self, capsys):
        # -8 v1: v4 scales it to -v1, then the sign is fixed
        assert cli_main(["normal-form", "--vector", "-8,0,0,0,0"]) == 0
        assert capsys.readouterr().out == (
            "input:  -8*v1\n"
            "output: v1  (negated)\n"
            "fingerprint (v4, v5): (0, 0)\n"
            "  step: Ad(exp(t v4)) with e^t = 1/8 -> -v1\n"
        )
        assert cli_main(["--report", "json", "normal-form", "--vector=-8,0,0,0,0"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "schema": 1,
            "input": ["-8", "0", "0", "0", "0"],
            "output": ["1", "0", "0", "0", "0"],
            "output_pretty": "v1",
            "negated": True,
            "fingerprint_components": ["v4", "v5"],
            "fingerprint": ["0", "0"],
            "steps": [{"kind": "scale", "direction": "v4", "parameter": "1/8",
                       "after": ["-1", "0", "0", "0", "0"]}],
        }

    def test_verify_optimal(self, capsys):
        rc = cli_main(
            ["verify-optimal", "--file", TABLE, "--constants", ALGEBRA]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "NOT CLOSED" in out  # the known non-closing baseline entry

    def test_verify_optimal_rejects_short_vectors(self, capsys):
        # the bundled table holds v1..v5 coordinates; the computed algebra
        # of the fixture has six dimensions
        rc = cli_main(["--reference", "off", "verify-optimal", "--file", TABLE])
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert err == "error: entry dim1 <v3>: vector needs 6 coordinates, got 5\n"

    @pytest.mark.parametrize("argv, document, error", [
        # index 0 once read as the last element, so [v1, v2] was -v1
        (["structure", "--constants"], corpus.MALFORMED["index0.json"],
         "bracket 1: index i = 0 is not in 1..2"),
        (["structure", "--constants"], corpus.MALFORMED["index3.json"],
         "bracket 1: index i = 3 is not in 1..2"),
        (["structure", "--constants"], corpus.STRING_DIM,
         "dim must be a non-negative integer, got '2'"),
        (["structure", "--constants"], {"dim": 2, "labels": ["a"], "brackets": []},
         "labels must be a list of 2 strings, got ['a']"),
        (["structure", "--constants"],
         {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": [True, 0]}]},
         "bracket 1: rationals must be integers or 'num/den' strings, got True"),
        (["structure", "--constants"],
         {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": ["1/0", 0]}]},
         "bracket 1: zero denominator in '1/0'"),
        (["verify-optimal", "--file"],
         {"schema": 1, "entries": [{"label": "<v1>", "vectors": [["1/0", 0, 0, 0, 0]]}]},
         "entry <v1>: zero denominator in '1/0'"),
        (["verify-optimal", "--file"],
         {"schema": 1, "entries": [{"label": "<v1>", "vectors": [[0.1, 0, 0, 0, 0]]}]},
         "entry <v1>: rationals must be integers or 'num/den' strings, got 0.1"),
        (["normal-form", "--vector", "1/0,0,0,0,0"], None,
         "--vector coordinate 1: zero denominator in '1/0'"),
        # JSON that is not an object where one is needed
        (["structure", "--constants"], [1],
         "the document must be a JSON object, got [1]"),
        (["verify-optimal", "--file"], [1],
         "the document must be a JSON object, got [1]"),
        (["structure", "--constants"], {"dim": 2, "brackets": [[1, 2]]},
         "bracket 1 must be a JSON object, got [1, 2]"),
        (["verify-optimal", "--file"], {"entries": [1]},
         "entry 1 must be a JSON object, got 1"),
        (["verify-optimal", "--file"],
         {"schema": 7, "entries": [{"label": "<v1>", "vectors": [[1, 0, 0, 0, 0]]}]},
         "unsupported table schema 7; only schema 1 is read"),
        (["verify-optimal", "--file"], {"schema": "1", "entries": []},
         "unsupported table schema '1'; only schema 1 is read"),
        # a missing key names the document, bracket or entry at fault
        (["structure", "--constants"], corpus.MALFORMED["no_dim.json"],
         "the document: missing key 'dim'"),
        (["structure", "--constants"], corpus.MALFORMED["no_coeffs.json"],
         "bracket 1: missing key 'coeffs'"),
        (["verify-optimal", "--file"], corpus.MALFORMED["no_entries.json"],
         "the document: missing key 'entries'"),
        (["verify-optimal", "--file"], {"entries": [{"label": "<v1>"}]},
         "entry 1: missing key 'vectors'"),
        # a nonzero self-bracket, equal labels and a numeric entry label
        (["structure", "--constants"], corpus.MALFORMED["self_bracket.json"],
         "bracket 1: the bracket of element 1 with itself must be 0"),
        (["structure", "--constants"], corpus.MALFORMED["duplicate_labels.json"],
         "labels must be distinct, got ['a', 'a']"),
        (["verify-optimal", "--file"], corpus.MALFORMED["numeric_label.json"],
         "entry 1: label must be a string, got 5"),
        # a coordinate is an integer or num/den in ASCII digits, and nothing else
        (["verify-optimal", "--file"],
         {"schema": 1, "entries": [{"label": "<v1>", "vectors": [["0.1", 0, 0, 0, 0]]}]},
         "entry <v1>: rationals must be integers or 'num/den' strings, got '0.1'"),
        (["normal-form", "--vector=0.5,0,0,0,0"], None,
         "--vector coordinate 1: rationals must be integers or 'num/den' strings, got '0.5'"),
        (["normal-form", "--vector", "1,1e3,0,0,0"], None,
         "--vector coordinate 2: rationals must be integers or 'num/den' strings, got '1e3'"),
        (["normal-form", "--vector", "1,0,1_0,0,0"], None,
         "--vector coordinate 3: rationals must be integers or 'num/den' strings, got '1_0'"),
        (["normal-form", "--vector="], None,
         "--vector coordinate 1: rationals must be integers or 'num/den' strings, got ''"),
        (["normal-form", "--vector", "-1,0,0,,0"], None,
         "--vector coordinate 4: rationals must be integers or 'num/den' strings, got ''"),
    ], ids=["index-0", "index-3", "string-dim", "short-labels", "boolean",
            "zero-denominator", "table-zero-denominator", "table-float",
            "vector-zero-denominator", "list-document", "list-table",
            "list-bracket", "number-entry", "table-schema-7", "table-schema-string",
            "missing-dim", "missing-coeffs", "missing-entries", "missing-vectors",
            "self-bracket", "duplicate-labels", "numeric-label", "table-decimal-string",
            "vector-decimal", "vector-exponent", "vector-underscore", "vector-empty",
            "vector-empty-coordinate"])
    def test_malformed_input_is_an_error(self, tmp_path, capsys, argv, document, error):
        if document is not None:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(document))
            argv = [*argv, str(path)]
        rc = cli_main(argv)
        assert (rc, *capsys.readouterr()) == (1, "", f"error: {error}\n")

    def test_any_negative_vector_reaches_the_vector_reader(self, capsys):
        runs = []
        for spelled in (["--vector", "-.5,2"], ["--vector=-.5,2"]):
            runs.append((cli_main(["normal-form", *spelled]), *capsys.readouterr()))
        assert runs[0] == runs[1] == (1, "", "error: --vector coordinate 1: rationals "
                                      "must be integers or 'num/den' strings, got '-.5'\n")

    HANDLERS = {"symmetries": "_cmd_full_report", "structure": "_cmd_structure",
                "adjoint": "_cmd_full_report", "flows": "_cmd_full_report",
                "invariants": "_cmd_full_report", "check-generator": "_cmd_check_generator",
                "normal-form": "_cmd_normal_form", "verify-optimal": "_cmd_verify_optimal"}
    DEFAULTS = {"ansatz_degree": 1, "report": "text", "out": None, "reference": "auto",
                "system": None}

    @pytest.mark.parametrize("argv, command, values", [
        (["symmetries"], "symmetries", {}),
        (["adjoint", "s.pde"], "adjoint", {"system": "s.pde"}),
        (["flows"], "flows", {}),
        (["--ansatz-degree", "2", "--report", "json", "--out", "r.json",
          "--reference", "off", "symmetries", "s.pde"], "symmetries",
         {"ansatz_degree": 2, "report": "json", "out": "r.json", "reference": "off",
          "system": "s.pde"}),
        (["--ansatz-degree=2", "--report=json", "--out=r.json", "--reference=off",
          "symmetries", "s.pde"], "symmetries",
         {"ansatz_degree": 2, "report": "json", "out": "r.json", "reference": "off",
          "system": "s.pde"}),
        (["structure"], "structure", {"constants": None}),
        (["structure", "--constants", "a.json"], "structure", {"constants": "a.json"}),
        (["structure", "--constants=a.json"], "structure", {"constants": "a.json"}),
        (["invariants"], "invariants", {"order": 1}),
        (["invariants", "--order", "2"], "invariants", {"order": 2}),
        (["invariants", "--order=2"], "invariants", {"order": 2}),
        (["check-generator", "--field", "0; x"], "check-generator", {"field": "0; x"}),
        (["check-generator", "--field=0; x"], "check-generator", {"field": "0; x"}),
        (["normal-form", "--vector", "-1,0"], "normal-form",
         {"vector": "-1,0", "constants": None}),
        (["normal-form", "--vector", "-1,0", "--constants", "a.json"], "normal-form",
         {"vector": "-1,0", "constants": "a.json"}),
        (["normal-form", "--vector=-1,0", "--constants=a.json"], "normal-form",
         {"vector": "-1,0", "constants": "a.json"}),
        (["verify-optimal", "--file", "t.json"], "verify-optimal",
         {"file": "t.json", "constants": None}),
        (["verify-optimal", "--file", "t.json", "--constants", "a.json"], "verify-optimal",
         {"file": "t.json", "constants": "a.json"}),
        (["verify-optimal", "--file=t.json", "--constants=a.json"], "verify-optimal",
         {"file": "t.json", "constants": "a.json"}),
        # the system before, between or after options; a repeated option's
        # last value; an "=" inside a value; values that start with "-"
        (["--report", "json", "--report=text", "invariants", "--order", "3", "s.pde",
          "--order=4"], "invariants", {"order": 4, "system": "s.pde"}),
        (["check-generator", "--field=a=b", "-"], "check-generator",
         {"field": "a=b", "system": "-"}),
        (["--ansatz-degree", "-1", "--out", "-o", "invariants", "--order", "-2"],
         "invariants", {"ansatz_degree": -1, "out": "-o", "order": -2}),
        (["check-generator", "--field", "-h1"], "check-generator", {"field": "-h1"}),
        (["normal-form", "--vector", "-.5,2"], "normal-form",
         {"vector": "-.5,2", "constants": None}),
        # after "--" every token is positional, a system file starting with "-" too
        (["symmetries", "--", "-x.pde"], "symmetries", {"system": "-x.pde"}),
        (["--", "symmetries", "--help"], "symmetries", {"system": "--help"}),
        (["check-generator", "--field", "--", "--", "--"], "check-generator",
         {"field": "--", "system": "--"}),
    ])
    def test_argv_table(self, argv, command, values):
        args = vars(cli._read_argv(argv))
        assert args.pop("run").__name__ == self.HANDLERS[command]
        assert args == {**self.DEFAULTS, **values}

    @pytest.mark.parametrize("argv, error, lines", [
        ([], "a command is required", 10),
        (["--report", "json"], "a command is required", 10),
        (["foo"], "unknown command 'foo'", 10),
        (["--bogus", "symmetries"], "unrecognized option '--bogus'", 10),
        (["--bogus=1", "symmetries"], "unrecognized option '--bogus'", 10),
        (["-x", "symmetries"], "unrecognized option '-x'", 10),
        (["symmetries", "--bogus"], "unrecognized option '--bogus'", 3),
        # no abbreviations, global options before the command only, and a
        # command's options after it only
        (["--ans", "2", "symmetries"], "unrecognized option '--ans'", 10),
        (["symmetries", "--report", "json"], "unrecognized option '--report'", 3),
        (["--order", "2", "invariants"], "unrecognized option '--order'", 10),
        (["symmetries", "--order", "2"], "unrecognized option '--order'", 3),
        (["--ansatz-degree"], "option --ansatz-degree expects a value", 10),
        (["check-generator", "--field"], "option --field expects a value", 3),
        # a forgotten value: the next option is not taken as one
        (["--out", "--report=json", "symmetries"], "option --out expects a value", 10),
        (["--out", "--reference", "on", "symmetries"], "option --out expects a value", 10),
        (["normal-form", "--vector", "--constants", "a.json"],
         "option --vector expects a value", 3),
        (["check-generator", "--field", "--help"], "option --field expects a value", 3),
        (["verify-optimal", "--file", "-h"], "option --file expects a value", 3),
        (["symmetries", "--", "a.pde", "b.pde"], "unrecognized argument 'b.pde'", 3),
        (["--", "--report", "json"], "unknown command '--report'", 10),
        (["--ansatz-degree", "x", "symmetries"], "option --ansatz-degree: invalid int value 'x'", 10),
        (["invariants", "--order=1.5"], "option --order: invalid int value '1.5'", 3),
        (["--report", "xml", "symmetries"],
         "option --report: invalid choice 'xml' (choose from text, json)", 10),
        (["--reference=maybe", "symmetries"],
         "option --reference: invalid choice 'maybe' (choose from auto, on, off)", 10),
        (["check-generator"], "option --field is required", 3),
        (["normal-form", "--constants", "a.json"], "option --vector is required", 3),
        (["verify-optimal", "s.pde"], "option --file is required", 3),
        (["symmetries", "a.pde", "b.pde"], "unrecognized argument 'b.pde'", 3),
        (["structure", "a.pde", "--constants", "c.json", "b.pde"],
         "unrecognized argument 'b.pde'", 3),
    ])
    def test_usage_error(self, monkeypatch, capsys, argv, error, lines):
        def unreachable(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(parser, "parse_system", unreachable)
        rc = cli_main(argv)
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith("usage: liepde [-h] [--ansatz-degree N] ")
        assert err.endswith(f"\nliepde: error: {error}\n")
        # the usage of the command read, else of every command
        assert len(err.splitlines()) == lines

    USAGE = ("usage: liepde [-h] [--ansatz-degree N] [--report {text,json}] [--out OUT] "
             "[--reference {auto,on,off}] COMMAND [options] [system]\n")

    EVERY_COMMAND = [
        "symmetries [system]",
        "structure [--constants CONSTANTS] [system]",
        "adjoint [system]",
        "flows [system]",
        "invariants [--order N] [system]",
        "check-generator --field FIELD [system]",
        "normal-form --vector VECTOR [--constants CONSTANTS] [system]",
        "verify-optimal --file FILE [--constants CONSTANTS] [system]",
    ]

    @pytest.mark.parametrize("argv, commands", [
        (["--help"], EVERY_COMMAND),
        (["--report", "json", "-h", "--bogus"], EVERY_COMMAND),
        (["symmetries", "--help"], ["symmetries [system]"]),
        (["normal-form", "-h"], ["normal-form --vector VECTOR [--constants CONSTANTS] [system]"]),
    ])
    def test_help(self, capsys, argv, commands):
        assert cli_main(argv) == 0
        out, err = capsys.readouterr()
        assert (out, err) == (self.USAGE + "".join(f"  liepde {c}\n" for c in commands), "")

    def test_importing_the_cli_loads_neither_argparse_nor_gettext(self):
        env = dict(os.environ)
        src = str(pathlib.Path(liepde.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, liepde.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")

    def test_power_over_the_term_budget_exits_1(self, tmp_path, capsys):
        system = tmp_path / "power.pde"
        system.write_text(corpus.POWER)
        rc = cli_main(["symmetries", str(system)])
        assert (rc, *capsys.readouterr()) == (1, "", (
            "error: 3:29: a 2-term sum to the power 4000 has up to 4001 terms, "
            "over the budget of 1000\n"))

    def test_power_that_a_stage_forms_over_its_budget_exits_1(self, tmp_path, capsys):
        # the reduction by u_t = u_xx + u forms (u_xx + u)^4000 from d(u,t)^4000
        system = tmp_path / "stage_power.pde"
        system.write_text(corpus.STAGE_POWER)
        rc = cli_main(["symmetries", str(system)])
        assert (rc, *capsys.readouterr()) == (1, "", (
            "error: stage 'system': a 2-term sum to the power 4000 has up to 4001 terms, "
            "times the power 16004000, over the budget of 1000000\n"))

    def test_long_sum_that_a_stage_squares_still_solves(self, tmp_path, capsys):
        # the determining stage squares this 51-term right-hand side (a bound
        # of 1326 terms, times the power 2652): within a stage's power budget
        system = tmp_path / "long.pde"
        system.write_text(corpus.LONG_SUM)
        assert cli_main(["--report", "json", "symmetries", str(system)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(g["xi"], g["phi"]) for g in doc["generators"]] == [(["1", "0"], ["0"])]
        assert doc["determining"] == {"unknowns": 12, "equations_raw": 404,
                                      "equations_deduped": 108, "dimension": 1}

    @pytest.mark.parametrize("argv, error", [
        (["invariants", "--order", "-1"], "--order must be a non-negative integer, got -1"),
        (["--ansatz-degree", "-1", "symmetries"],
         "--ansatz-degree must be a non-negative integer, got -1"),
        (["--ansatz-degree=-2", "structure", "--constants", ALGEBRA],
         "--ansatz-degree must be a non-negative integer, got -2"),
    ], ids=["order", "ansatz-degree", "ansatz-degree-constants"])
    def test_negative_option_is_rejected_before_any_stage(self, monkeypatch, capsys,
                                                          argv, error):
        # the check comes first: no system is read and no stage runs
        def unreachable(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(parser, "parse_system", unreachable)
        monkeypatch.setattr(structure, "algebra_from_json", unreachable)
        rc = cli_main(argv)
        assert (rc, *capsys.readouterr()) == (1, "", f"error: {error}\n")

    def test_table_without_schema_reads_as_schema_1(self, tmp_path, capsys):
        entries = [{"label": "<v1>", "vectors": [[1, 0, 0, 0, 0]]},
                   {"label": "<v2, v3>", "vectors": [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]}]
        outputs = []
        for name, document in (("with.json", {"schema": 1, "entries": entries}),
                               ("without.json", {"entries": entries})):
            path = tmp_path / name
            path.write_text(json.dumps(document))
            assert cli_main(["verify-optimal", "--file", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out and not outputs[0].err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.pde"
        bad.write_text("independent x\n")
        rc = cli_main(["symmetries", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_invariants_order_two(self, capsys):
        rc = cli_main(["invariants", "--order", "2"])
        assert rc == 0
        assert "lattice generators" in capsys.readouterr().out

    def test_long_equation(self, tmp_path, capsys):
        # 1000 terms in one equation: each '+' nests one level deeper in the
        # parse, which must not cost one level of Python recursion.
        terms = " + ".join(["u*d(u,x)/1000"] * 998)
        system = tmp_path / "long.pde"
        system.write_text(corpus.EVOLUTION + f"eq d(u,t) = d(u,x,x) + {terms}\nlead d(u,t)\n")
        rc = cli_main(["symmetries", str(system)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "equation:    -499/500*u*u_x + u_t - u_xx = 0" in out
        assert "nullspace dimension 4" in out

    def test_python_dash_m(self, capsys):
        env = dict(os.environ)
        src = str(pathlib.Path(liepde.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["check-generator", "--field", "0; x; 0; u; 0"]
        run = subprocess.run(
            [sys.executable, "-m", "liepde", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert cli_main(argv) == 0
        assert run.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--ansatz-degree", "2", "--report", "json", "symmetries"],
        ["--reference", "off", "--ansatz-degree", "2", "--report", "json", "symmetries"],
    ])
    def test_report_bytes_do_not_depend_on_hash_order(self, argv):
        # atoms hash by identity, so no output may follow set order
        env = dict(os.environ)
        src = str(pathlib.Path(liepde.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = set()
        for seed in ("0", "1", "2"):
            env["PYTHONHASHSEED"] = seed
            run = subprocess.run(
                [sys.executable, "-m", "liepde", *argv],
                env=env, capture_output=True, timeout=120,
            )
            assert run.returncode == 0, run.stderr
            outputs.add((run.stdout, run.stderr))
        assert len(outputs) == 1


    @pytest.mark.parametrize("fmt", [[], ["--report", "json"]])
    def test_full_report_commands_print_the_same_bytes(self, capsys, fmt):
        runs = {}
        for command in ("symmetries", "adjoint", "flows", "structure", "invariants"):
            rc = cli_main([*fmt, command])
            runs[command] = (rc, *capsys.readouterr())
        assert runs["symmetries"][0] == 0
        for command, run in runs.items():
            assert run == runs["symmetries"], command

    @pytest.mark.parametrize("name, text", [
        ("fixture", "algebra on v1, v2, v3, v4, v5\n"
                    "  v1: 0  0  0  v1  0\n"
                    "  v2: 0  0  0  0  v2\n"
                    "  v3: 0  0  0  2*v3  -4*v3\n"
                    "  v4: -v1  0  -2*v3  0  0\n"
                    "  v5: 0  -v2  4*v3  0  0\n"
                    "solvable: True  semisimple: False\n"
                    "derived dims: 5 > 3 > 0\n"),
        ("sl2", "algebra on e, h, f\n"
                "  e: 0  -2*e  h\n"
                "  h: 2*e  0  -2*f\n"
                "  f: -h  2*f  0\n"
                "solvable: False  semisimple: True\n"
                "derived dims: 3\n"),
    ])
    def test_structure_constants_text(self, tmp_path, capsys, name, text):
        rc = cli_main(["structure", "--constants", self.constants(tmp_path, name)])
        assert (rc, *capsys.readouterr()) == (0, text, "")

    @pytest.mark.parametrize("name, killing, solvable, semisimple, dims", [
        ("fixture", [["0"] * 5] * 3 + [["0", "0", "0", "5", "-8"],
                                       ["0", "0", "0", "-8", "17"]],
         True, False, [5, 3, 0]),
        ("sl2", [["0", "0", "4"], ["0", "8", "0"], ["4", "0", "0"]], False, True, [3]),
    ])
    def test_structure_constants_json(self, tmp_path, capsys, name, killing,
                                      solvable, semisimple, dims):
        rc = cli_main(["--report", "json", "structure", "--constants",
                       self.constants(tmp_path, name)])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        assert list(doc) == ["schema", "labels", "commutators_pretty", "killing",
                             "solvable", "semisimple", "derived_dimensions"]
        assert doc["schema"] == pipeline.SCHEMA_VERSION
        assert doc["killing"] == killing
        assert (doc["solvable"], doc["semisimple"]) == (solvable, semisimple)
        assert doc["derived_dimensions"] == dims

    def constants(self, tmp_path, name):
        if name == "fixture":
            return ALGEBRA
        path = tmp_path / "sl2.json"
        path.write_text(json.dumps(corpus.SL2))
        return str(path)


def test_skipped_flow_entry():
    # g5 = x^2 d/dy + 2xu d/dv of the computed algebra at degree 2 has a
    # quadratic coefficient, which the exact flow does not integrate
    report = pipeline.run_pipeline(reference.fixture_document(), ansatz_degree=2,
                                   use_reference=False)
    g5 = report["generators"][4]
    assert (g5["label"], g5["xi"], g5["phi"]) == ("g5", ["0", "x^2"], ["0", "2*x*u", "0"])
    reason = "flow requires affine coefficients with rational slopes; got x^2"
    skipped = [f for f in report["flows"] if "skipped" in f]
    assert skipped == [{"label": "g5", "skipped": reason}]
    lines = pipeline.emit(report, "text").decode().splitlines()
    assert f"  g5: skipped ({reason})" in lines


class TestTransportFlows:
    """u_t = (1 + x) u_x at degree 1: g3 = (1 + x) d/dx is the one shipped
    flow with both an exponential and a translation, and g2 = u d/dt moves
    t by a multiple of u."""

    @pytest.fixture(scope="class")
    def report(self):
        return pipeline.run_pipeline(parser.parse_system(corpus.TRANSPORT))

    def test_flows(self, report):
        flows = {f["label"]: f for f in report["flows"]}
        assert report["generators"][2]["xi"] == ["0", "1 + x"]
        assert flows["g3"]["map"] == {"t": "t", "x": "-1 + exp(eps) + x*exp(eps)",
                                      "u": "u"}
        assert flows["g3"]["transformed"] == {"u": "f(t, -1 + exp(eps) + x*exp(eps))"}
        assert flows["g2"]["map"] == {"t": "t + u*eps", "x": "x", "u": "u"}
        assert flows["g2"]["transform_skipped"] == (
            "independent coordinates must transform among themselves")
        assert report["notes"] == []

    def test_text(self, report):
        # an adjoint entry renders as the flows do: exp(-eps), and a negative
        # term after the first as a subtraction
        lines = pipeline.emit(report, "text").decode().splitlines()
        assert "  g3: t -> t, x -> -1 + exp(eps) + x*exp(eps), u -> u" in lines
        assert "      transforms: u -> f(t, -1 + exp(eps) + x*exp(eps))" in lines
        assert "  [0, exp(-eps), 0, 0, 0]" in lines
        for text, label, row in (
            (corpus.DRIFT, "g3", "  [exp(2*eps), exp(eps) - exp(2*eps), 0, 0, 0, 0]"),
            (corpus.LINEAR_SOURCE, "g5",
             "  [1 - exp(eps), exp(eps), -2 + exp(-eps) + exp(eps), 1 - exp(eps), -1 + exp(eps)]"),
        ):
            report = pipeline.run_pipeline(parser.parse_system(text))
            lines = pipeline.emit(report, "text").decode().splitlines()
            start = lines.index(f"Ad(exp(eps {label})) rows:") + 1
            assert row in lines[start:start + len(report["generators"])]


class TestRotation:
    """A rotation has no exact adjoint matrix: the report omits only the
    adjoint section, one note names the direction and its stuck factor, and
    the run exits 0."""

    NOTE = ("Ad(exp(eps v)) has no exact entries c*eps^m*exp(k*eps) for g4 "
            "(characteristic polynomial does not split over the rationals; stuck "
            "factor has coefficients ['1', '0', '2', '0', '1']); the adjoint "
            "section is omitted")

    def run(self, tmp_path, capsys, *argv):
        system = tmp_path / "laplace.pde"
        system.write_text(corpus.LAPLACE)
        assert cli_main([*argv, "symmetries", str(system)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return out

    def test_json(self, tmp_path, capsys):
        report = json.loads(self.run(tmp_path, capsys, "--report", "json"))
        assert list(report) == [
            "schema", "system", "options", "generators", "determining", "structure",
            "flows", "invariants", "similarity", "notes"]
        assert report["determining"]["dimension"] == 8
        assert report["generators"][3]["xi"] == ["y", "-x"]
        assert report["notes"] == [
            {"anchor": "algebra/adjoint-spectrum-not-rational", "detail": self.NOTE}]
        # the flows skip only the rotation
        assert ["skipped" in f for f in report["flows"]] == [
            False, False, False, True, False, False, False, False]

    def test_text(self, tmp_path, capsys):
        lines = self.run(tmp_path, capsys).splitlines()
        headings = [line for line in lines if line.startswith("== ")]
        assert headings == [
            "== system ==", "== symmetries ==", "== structure ==", "== flows ==",
            "== invariants ==", "== similarity forms ==", "== notes =="]
        assert lines[-1] == f"  [algebra/adjoint-spectrum-not-rational] {self.NOTE}"


class TestReferenceShape:
    # the baseline's v1..v5 exist only on two independent and three
    # dependent variables; every command that needs them says so
    SHAPE = ("reference comparison needs the boundary-layer shape "
             "(2 independent, 3 dependent variables)")

    def run(self, tmp_path, capsys, *argv):
        system = tmp_path / "burgers.pde"
        system.write_text(corpus.BURGERS)
        argv = [TABLE if a == "TABLE" else a for a in argv]
        rc = cli_main(["--reference", "on", *argv, str(system)])
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        return err

    def test_symmetries_names_the_system_stage(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, "symmetries")
        assert err == f"error: stage 'system': {self.SHAPE}\n"

    @pytest.mark.parametrize("argv", [
        ("normal-form", "--vector", "1,0,0"),
        ("verify-optimal", "--file", "TABLE"),
    ])
    def test_algebra_commands(self, tmp_path, capsys, argv):
        assert self.run(tmp_path, capsys, *argv) == f"error: {self.SHAPE}\n"


class TestSpanNotClosed:
    """A truncated span that is not a subalgebra: the heat equation's
    algebra is infinite-dimensional, so its polynomial truncations at
    degrees 2 and 3 do not close under the bracket."""

    SECTIONS = ["structure", "adjoint", "flows", "invariants", "similarity"]

    @pytest.mark.parametrize("degree, dimension, pair", [(2, 8, "g7, g8"), (3, 10, "g7, g10")])
    def test_basis_reported_and_analysis_omitted(self, degree, dimension, pair):
        report = pipeline.run_pipeline(parser.parse_system(corpus.HEAT), ansatz_degree=degree)
        assert list(report) == [
            "schema", "system", "options", "generators", "determining", "notes"]
        assert report["determining"]["dimension"] == dimension
        assert len(report["generators"]) == dimension
        assert all(g["residual_zero"] for g in report["generators"])
        assert report["notes"] == [{
            "anchor": "algebra/span-not-closed",
            "detail": f"the span found at ansatz degree {degree} is not closed under "
                      f"the bracket: [{pair}] lies outside it, also over the parameter "
                      "field; the structure, adjoint, flow, invariant and similarity "
                      "sections are omitted",
        }]

    def test_degree_one_closes(self):
        report = pipeline.run_pipeline(parser.parse_system(corpus.HEAT), ansatz_degree=1)
        assert all(key in report for key in self.SECTIONS)
        assert report["notes"] == []

    def test_text_has_only_present_sections(self, tmp_path, capsys):
        system = tmp_path / "heat.pde"
        system.write_text(corpus.HEAT)
        assert cli_main(["--ansatz-degree", "2", "symmetries", str(system)]) == 0
        out = capsys.readouterr().out
        headings = [line for line in out.splitlines() if line.startswith("== ")]
        assert headings == ["== system ==", "== symmetries ==", "== notes =="]
        assert "  [algebra/span-not-closed] the span found at ansatz degree 2" in out

    def test_algebra_commands_still_fail(self, tmp_path, capsys):
        system = tmp_path / "heat.pde"
        system.write_text(corpus.HEAT)
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"entries": [{"label": "g1", "vectors": [[1] + [0] * 7]}]}))
        for argv in (["normal-form", "--vector", ",".join(["1"] + ["0"] * 7)],
                     ["verify-optimal", "--file", str(table)]):
            assert cli_main(["--ansatz-degree", "2", *argv, str(system)]) == 1
            assert capsys.readouterr().err == (
                "error: bracket of elements 7 and 8 is outside the span\n")

    def test_closing_over_the_parameter_field_still_fails(self):
        # [g1, g3] = (a + z) g2 lies in the span over the parameter field but
        # not over the rationals, which the structure constants need
        with pytest.raises(PipelineError) as err:
            pipeline.run_pipeline(parser.parse_system(corpus.TWO_PARAMETER))
        assert str(err.value) == (
            "stage 'structure': bracket of elements 1 and 3 is outside the span")


class TestStageErrors:
    def test_failed_self_check_names_its_stage(self, monkeypatch, capsys):
        monkeypatch.setattr(
            linalg, "nullspace_param",
            lambda rows, ncols: [{k: 1 for k in range(ncols)}],
        )
        assert cli_main(["symmetries"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'determining': internal error:"), err

    def test_pipeline_error_carries_stage(self):
        with pytest.raises(PipelineError) as err:
            pipeline.run_pipeline(parser.parse_system(corpus.ABSENT_LEAD))
        assert err.value.stage == "system"

    @pytest.mark.parametrize("section, stage", [
        ("_structure_section", "structure"),
        ("_adjoint_section", "adjoint"),
        ("_flow_section", "flows"),
        ("_similarity_section", "similarity"),
    ])
    def test_analysis_section_failure_names_its_stage(self, monkeypatch, section, stage):
        def fail(*args):
            raise LiepdeError("section failed")

        monkeypatch.setattr(pipeline, section, fail)
        with pytest.raises(PipelineError) as err:
            pipeline.run_pipeline(reference.fixture_document())
        assert err.value.stage == stage
        assert str(err.value) == f"stage '{stage}': section failed"

    def test_negative_power_in_equation_names_its_stage(self, tmp_path):
        # Splitting the residuals must keep the collect error, byte for byte.
        system = tmp_path / "negative.pde"
        system.write_text(corpus.NEGATIVE_POWER)
        env = dict(os.environ)
        src = str(pathlib.Path(liepde.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "liepde", "symmetries", str(system)],
            env=env, capture_output=True, timeout=120,
        )
        assert run.returncode == 1
        assert run.stdout == b""
        assert run.stderr == (
            b"error: stage 'determining': negative power of x is not polynomial\n"
        )
