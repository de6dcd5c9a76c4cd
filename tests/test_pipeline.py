import copy
import json
import os
import pathlib
import subprocess
import sys

import pytest

import liepde
from liepde import linalg, parser, pipeline, reference, structure
from liepde.cli import main as cli_main
from liepde.errors import LiepdeError, PipelineError
from test_determining import HEAT_SYSTEM, TWO_PARAMETER_SYSTEM


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
        # solvable, nilpotent and the derived dimensions read the series the
        # structure section already has
        calls = {"derived_series": 0, "lower_central_series": 0}
        for name in calls:
            inner = getattr(structure, name)

            def counted(L, name=name, inner=inner):
                calls[name] += 1
                return inner(L)

            monkeypatch.setattr(structure, name, counted)
        pipeline.run_pipeline(reference.fixture_document())
        assert calls == {"derived_series": 1, "lower_central_series": 1}

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
        for label in reference.EXPECTED_CLOSURE_FAILURES:
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

    def test_normal_form_with_constants(self, tmp_path, capsys):
        constants = tmp_path / "algebra.json"
        constants.write_text(json.dumps(reference.structure_constants_json()))
        rc = cli_main(
            ["normal-form", "--vector", "1,0,0,1,0",
             "--constants", str(constants)]
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
        # argparse reads "-1,..." as an option name unless it is attached
        # with "="; both spellings must give the same run
        tail = []
        if constants:
            doc = reference.structure_constants_json() if constants == "fixture" else {
                "dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": [0, 1]}]}
            path = tmp_path / "algebra.json"
            path.write_text(json.dumps(doc))
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

    def test_verify_optimal(self, tmp_path, capsys):
        constants = tmp_path / "algebra.json"
        constants.write_text(json.dumps(reference.structure_constants_json()))
        table = tmp_path / "table.json"
        table.write_text(json.dumps(reference.optimal_table_json()))
        rc = cli_main(
            ["verify-optimal", "--file", str(table),
             "--constants", str(constants)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "NOT CLOSED" in out  # the known non-closing baseline entry

    def test_verify_optimal_rejects_short_vectors(self, tmp_path, capsys):
        # the bundled table holds v1..v5 coordinates; the computed algebra
        # of the fixture has six dimensions
        table = tmp_path / "table.json"
        table.write_text(json.dumps(reference.optimal_table_json()))
        rc = cli_main(["--reference", "off", "verify-optimal", "--file", str(table)])
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert err == "error: entry dim1 <v3>: vector needs 6 coordinates, got 5\n"

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
        system.write_text(
            "independent t x\ndependent u(t, x)\n"
            f"eq d(u,t) = d(u,x,x) + {terms}\nlead d(u,t)\n"
        )
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


    @pytest.mark.parametrize("fmt", [[], ["--report", "json"]])
    def test_full_report_commands_print_the_same_bytes(self, capsys, fmt):
        runs = {}
        for command in ("symmetries", "adjoint", "flows", "structure", "invariants"):
            rc = cli_main([*fmt, command])
            runs[command] = (rc, *capsys.readouterr())
        assert runs["symmetries"][0] == 0
        for command, run in runs.items():
            assert run == runs["symmetries"], command

    SL2 = {"dim": 3, "labels": ["e", "h", "f"],
           "brackets": [{"i": 1, "j": 2, "coeffs": [-2, 0, 0]},
                        {"i": 1, "j": 3, "coeffs": [0, 1, 0]},
                        {"i": 2, "j": 3, "coeffs": [0, 0, -2]}]}

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
            return str(pathlib.Path(liepde.__file__).parent / "data"
                       / "boundary_layer_algebra.json")
        path = tmp_path / "sl2.json"
        path.write_text(json.dumps(self.SL2))
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


TRANSPORT = """\
independent t x
dependent u(t, x)
eq d(u,t) = d(u,x) + x*d(u,x)
lead d(u,t)
"""


class TestTransportFlows:
    """u_t = (1 + x) u_x at degree 1: g3 = (1 + x) d/dx is the one shipped
    flow with both an exponential and a translation, and g2 = u d/dt moves
    t by a multiple of u."""

    @pytest.fixture(scope="class")
    def report(self):
        return pipeline.run_pipeline(parser.parse_system(TRANSPORT))

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
            (DRIFT, "g3", "  [exp(2*eps), exp(eps) - exp(2*eps), 0, 0, 0, 0]"),
            (LINEAR_SOURCE, "g5",
             "  [1 - exp(eps), exp(eps), -2 + exp(-eps) + exp(eps), 1 - exp(eps), -1 + exp(eps)]"),
        ):
            report = pipeline.run_pipeline(parser.parse_system(text))
            lines = pipeline.emit(report, "text").decode().splitlines()
            start = lines.index(f"Ad(exp(eps {label})) rows:") + 1
            assert row in lines[start:start + len(report["generators"])]


# u_t = u_xx + u_x: g3 = 2t d/dt + (x - t) d/dx gives exp(eps) - exp(2*eps)
DRIFT = """\
independent t x
dependent u(t, x)
eq d(u,t) = d(u,x,x) + d(u,x)
lead d(u,t)
"""

# u_t = u_x + u + x: g5 gives -2 + exp(-eps) + exp(eps)
LINEAR_SOURCE = """\
independent t x
dependent u(t, x)
eq d(u,t) = d(u,x) + u + x
lead d(u,t)
"""

# the 2-D Laplace equation: g4 = y d/dx - x d/dy is a rotation, whose ad
# has the eigenvalues 0, 0, 0, 0, +-i, +-i
LAPLACE = """\
independent x y
dependent u(x, y)
eq d(u,x,x) + d(u,y,y) = 0
lead d(u,x,x)
"""


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
        system.write_text(LAPLACE)
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


BURGERS = """\
param nu > 0
independent t x
dependent u(t, x)
eq d(u,t) + (3/2)*u*d(u,x) = nu*d(u,x,x)
lead d(u,t)
"""


class TestReferenceShape:
    # the baseline's v1..v5 exist only on two independent and three
    # dependent variables; every command that needs them says so
    SHAPE = ("reference comparison needs the boundary-layer shape "
             "(2 independent, 3 dependent variables)")

    def run(self, tmp_path, capsys, *argv):
        system = tmp_path / "burgers.pde"
        system.write_text(BURGERS)
        table = tmp_path / "table.json"
        table.write_text(json.dumps(reference.optimal_table_json()))
        argv = [str(table) if a == "TABLE" else a for a in argv]
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
        report = pipeline.run_pipeline(parser.parse_system(HEAT_SYSTEM), ansatz_degree=degree)
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
        report = pipeline.run_pipeline(parser.parse_system(HEAT_SYSTEM), ansatz_degree=1)
        assert all(key in report for key in self.SECTIONS)
        assert report["notes"] == []

    def test_text_has_only_present_sections(self, tmp_path, capsys):
        system = tmp_path / "heat.pde"
        system.write_text(HEAT_SYSTEM)
        assert cli_main(["--ansatz-degree", "2", "symmetries", str(system)]) == 0
        out = capsys.readouterr().out
        headings = [line for line in out.splitlines() if line.startswith("== ")]
        assert headings == ["== system ==", "== symmetries ==", "== notes =="]
        assert "  [algebra/span-not-closed] the span found at ansatz degree 2" in out

    def test_algebra_commands_still_fail(self, tmp_path, capsys):
        system = tmp_path / "heat.pde"
        system.write_text(HEAT_SYSTEM)
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
            pipeline.run_pipeline(parser.parse_system(TWO_PARAMETER_SYSTEM))
        assert str(err.value) == (
            "stage 'structure': bracket of elements 1 and 3 is outside the span")


class TestStageErrors:
    def test_failed_self_check_names_its_stage(self, monkeypatch, capsys):
        monkeypatch.setattr(
            linalg, "nullspace_param",
            lambda rows, ncols: [[linalg.ParamFrac.constant(1)] * ncols],
        )
        assert cli_main(["symmetries"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'determining': internal error:"), err

    def test_pipeline_error_carries_stage(self):
        text = "independent x y\ndependent u(x, y)\neq d(u,x) = 0\nlead d(u,y)\n"
        with pytest.raises(PipelineError) as err:
            pipeline.run_pipeline(parser.parse_system(text))
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
        system.write_text(
            "independent t x\ndependent u(t, x)\neq d(u,t) = d(u,x,x)/x\nlead d(u,t)\n"
        )
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
