import json
import math
import shutil

import pytest

from latfit import cli

from cli_harness import DATA, field_csv_mismatches, loop_json_mismatches, run_cli


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run generate -> field -> loop once; several tests inspect the outputs."""
    work = tmp_path_factory.mktemp("cli")
    for name in ("dislocation_spec.json", "params.json", "loop.csv"):
        shutil.copy(DATA / name, work / name)
    steps = [
        ("generate", "--spec", "dislocation_spec.json", "--out", "atoms.csv",
         "--truth", "truth.json"),
        ("field", "--atoms", "atoms.csv", "--params", "params.json",
         "--grid", "2,2,2,6,6", "--out", "field.csv", "--svg", "field.svg"),
        ("loop", "--atoms", "atoms.csv", "--params", "params.json",
         "--loop", "loop.csv", "--out", "loop.json"),
    ]
    for step in steps:
        proc = run_cli(*step, cwd=work)
        assert proc.returncode == 0, proc.stderr
    return work


class TestPipeline:
    def test_outputs_match_goldens_byte_exactly(self, pipeline):
        for produced, golden in (("atoms.csv", "golden_atoms.csv"),
                                 ("truth.json", "golden_truth.json"),
                                 ("field.svg", "golden_field.svg")):
            assert (pipeline / produced).read_bytes() == (DATA / golden).read_bytes(), produced
        # Fitted floats drift <= 8.9e-16 across BLAS kernels, so field.csv and loop.json
        # floats allow 1e-13 + 1e-12|y|; their integers and strings stay exact.
        assert field_csv_mismatches((pipeline / "field.csv").read_text(),
                                    (DATA / "golden_field.csv").read_text()) == []
        assert loop_json_mismatches((pipeline / "loop.json").read_text(),
                                    (DATA / "golden_loop.json").read_text()) == []

    def test_check_exits_zero(self, pipeline):
        proc = run_cli("check", "--atoms", "atoms.csv", "--params", "params.json",
                       cwd=pipeline)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all invariants hold" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_second_run_is_bit_identical(self, pipeline, tmp_path):
        for name in ("dislocation_spec.json", "params.json", "loop.csv"):
            shutil.copy(DATA / name, tmp_path / name)
        proc = run_cli("generate", "--spec", "dislocation_spec.json", "--out", "atoms.csv",
                       cwd=tmp_path)
        assert proc.returncode == 0
        proc = run_cli("field", "--atoms", "atoms.csv", "--params", "params.json",
                       "--grid", "2,2,2,6,6", "--out", "field.csv", "--svg", "field.svg",
                       cwd=tmp_path)
        assert proc.returncode == 0
        proc = run_cli("loop", "--atoms", "atoms.csv", "--params", "params.json",
                       "--loop", "loop.csv", "--out", "loop.json", cwd=tmp_path)
        assert proc.returncode == 0
        for name in ("atoms.csv", "field.csv", "field.svg", "loop.json"):
            assert (tmp_path / name).read_bytes() == (pipeline / name).read_bytes(), name

    def test_report_renders_field_scalars(self, pipeline):
        proc = run_cli("report", "--field", "field.csv", "--svg", "report.svg",
                       cwd=pipeline)
        assert proc.returncode == 0, proc.stderr
        text = (pipeline / "report.svg").read_text()
        assert text.startswith('<?xml version="1.0"')
        for band in ("h_hat", "det_A_tilde", "slack"):
            assert band in text
        proc2 = run_cli("report", "--field", "field.csv", "--svg", "report2.svg",
                        "--scalars", "j,rho", cwd=pipeline)
        assert proc2.returncode == 0
        assert "j" in (pipeline / "report2.svg").read_text()

    def test_fit_command(self, pipeline):
        proc = run_cli("fit", "--atoms", "atoms.csv", "--params", "params.json",
                       "--at", "6.0,6.0", "--out", "fit.json", cwd=pipeline)
        assert proc.returncode == 0, proc.stderr
        import json
        doc = json.loads((pipeline / "fit.json").read_text())
        assert doc["regular"] is True
        assert doc["breakdown"]["total"] >= 0.0

    def test_field_without_stencil_says_nothing_checked(self, tmp_path):
        # a 2x2 grid has no node with the full 3x3 stencil the lower bound needs
        for name in ("golden_atoms.csv", "params.json"):
            shutil.copy(DATA / name, tmp_path / name)
        proc = run_cli("field", "--atoms", "golden_atoms.csv", "--params", "params.json",
                       "--grid", "2,2,2,2,2", "--out", "field.csv", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "no lower-bound node checked" in proc.stdout
        assert "inf" not in proc.stdout


def _edit_cell(column, edit):
    """field.csv perturbation: apply `edit` to the first `column` cell it accepts."""
    def apply(text):
        lines = text.splitlines()
        col = lines[0].split(",").index(column)
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            new = edit(cells[col])
            if new is not None:
                cells[col] = new
                lines[i] = ",".join(cells)
                return "\n".join(lines) + "\n"
        raise AssertionError(f"no {column} cell to edit")
    return apply


def _edit_doc(edit):
    """loop.json perturbation: apply `edit` to the parsed document, re-serialise it."""
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, indent=2) + "\n"
    return apply


def _bound_a_relative(doc):
    doc["steps"][0]["bound_A"] *= 1.0 + 1e-11


def _product_t_integer(doc):
    doc["product"]["t"][1] += 1


def _classification(doc):
    doc["classification"] = "trivial"


class TestFieldGoldenComparison:
    """The field.csv and loop.json tolerances must still catch a real change in any kind of cell."""

    @pytest.mark.parametrize("golden_name, perturb, where", [
        ("golden_field.csv",
         _edit_cell("A11", lambda v: repr(float(v) + 1e-11)),   # +1 in the 11th decimal place
         "A11"),
        ("golden_field.csv", _edit_cell("align_B12", lambda v: str(int(v) + 1)), "align_B12"),
        ("golden_field.csv", _edit_cell("slack", lambda v: "0.5" if v == "" else None), "slack"),
        ("golden_loop.json", _edit_doc(_bound_a_relative), "$.steps[0].bound_A"),
        ("golden_loop.json", _edit_doc(_product_t_integer), "$.product.t[1]"),
        ("golden_loop.json", _edit_doc(_classification), "$.classification"),
    ], ids=["A11_11th_digit", "align_B12_integer", "blank_slack_filled",
            "loop_bound_A_1e-11_relative", "loop_product_t_integer", "loop_classification"])
    def test_perturbed_golden_is_rejected(self, golden_name, perturb, where):
        golden = (DATA / golden_name).read_text()
        perturbed = perturb(golden)
        assert perturbed != golden
        mismatches = field_csv_mismatches if golden_name.endswith(".csv") else loop_json_mismatches
        problems = mismatches(perturbed, golden)
        assert len(problems) == 1 and where in problems[0], problems


class TestErrorPaths:
    def test_usage_error_exit_2(self, tmp_path):
        proc = run_cli("fit", "--atoms", "missing.csv", cwd=tmp_path)
        assert proc.returncode == 2  # argparse: missing required args

    def test_missing_file_exit_2(self, tmp_path):
        shutil.copy(DATA / "params.json", tmp_path / "params.json")
        proc = run_cli("fit", "--atoms", "missing.csv", "--params", "params.json",
                       "--at", "1,1", "--out", "out.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_malformed_csv_reports_line(self, tmp_path):
        shutil.copy(DATA / "params.json", tmp_path / "params.json")
        (tmp_path / "atoms.csv").write_text("x,y,kind\n1.0,2.0,I\nbroken,2,I\n")
        proc = run_cli("fit", "--atoms", "atoms.csv", "--params", "params.json",
                       "--at", "1,1", "--out", "out.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert "atoms.csv:3" in proc.stderr

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_reports_line(self, tmp_path, bad):
        # no domain in params: the domain would be inferred from the coordinates
        (tmp_path / "params.json").write_text('{"lambda": 8.0}\n')
        (tmp_path / "atoms.csv").write_text(f"x,y,kind\n1.0,2.0,I\n{bad},2.0,I\n3.0,1.0,I\n")
        proc = run_cli("fit", "--atoms", "atoms.csv", "--params", "params.json",
                       "--at", "1,1", "--out", "out.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert "atoms.csv:3:" in proc.stderr and "finite" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_unknown_param_key_exit_2(self, tmp_path):
        (tmp_path / "params.json").write_text('{"lambda": 8.0, "bogus": 1}\n')
        (tmp_path / "atoms.csv").write_text("x,y,kind\n1.0,2.0,I\n")
        proc = run_cli("check", "--atoms", "atoms.csv", "--params", "params.json",
                       cwd=tmp_path)
        assert proc.returncode == 2
        assert "unknown parameter keys" in proc.stderr

    def test_open_loop_exit_2(self, pipeline):
        (pipeline / "open_loop.csv").write_text("x,y\n-8,-8\n8,-8\n8,8\n")
        proc = run_cli("loop", "--atoms", "atoms.csv", "--params", "params.json",
                       "--loop", "open_loop.csv", "--out", "nope.json", cwd=pipeline)
        assert proc.returncode == 2
        assert "closed" in proc.stderr

    def test_non_finite_at_is_named(self, tmp_path):
        for name in ("golden_atoms.csv", "params.json"):
            shutil.copy(DATA / name, tmp_path / name)
        proc = run_cli("fit", "--atoms", "golden_atoms.csv", "--params", "params.json",
                       "--at", "nan,1", "--out", "out.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert "--at" in proc.stderr and "finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_loop_row_reports_line(self, tmp_path):
        for name in ("golden_atoms.csv", "params.json"):
            shutil.copy(DATA / name, tmp_path / name)
        (tmp_path / "loop.csv").write_text("x,y\n-8,-8\nnan,1\n8,8\n-8,-8\n")
        proc = run_cli("loop", "--atoms", "golden_atoms.csv", "--params", "params.json",
                       "--loop", "loop.csv", "--out", "loop.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert "loop.csv:3:" in proc.stderr and "finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, where, point", [
        (("fit", "--at", "20,20", "--out", "fit.json"), "--at", "(20, 20)"),
        (("loop", "--loop", "square.csv", "--out", "loop.json"), "square.csv:2", "(20, 20)"),
        (("field", "--grid", "12,12,2,3,3", "--out", "field.csv"), "--grid node (2, 0)",
         "(16, 12)"),
    ], ids=["fit", "loop", "field"])
    def test_point_outside_domain_exit_2(self, tmp_path, command, where, point):
        # golden_atoms.csv's domain is [-14, 14]^2
        for name in ("golden_atoms.csv", "params.json"):
            shutil.copy(DATA / name, tmp_path / name)
        (tmp_path / "square.csv").write_text("x,y\n20,20\n30,20\n30,30\n20,30\n20,20\n")
        proc = run_cli(command[0], "--atoms", "golden_atoms.csv", "--params", "params.json",
                       *command[1:], cwd=tmp_path)
        assert proc.returncode == 2
        assert f"{where}: point {point} lies outside the domain box [-14, -14] .. [14, 14]" \
            in proc.stderr
        assert not (tmp_path / command[-1]).exists()


def _with_row_cells(line, **cells):
    """field.csv perturbation: set the named cells of data line `line` (2 = first row)."""
    def apply(lines):
        columns = lines[0].split(",")
        row = lines[line - 1].split(",")
        for column, value in cells.items():
            row[columns.index(column)] = value
        lines[line - 1] = ",".join(row)
        return lines
    return apply


@pytest.mark.parametrize("edit, line, reason", [
    (lambda lines: lines[:1], 2, "no data rows"),
    (_with_row_cells(2, ix="-1"), 2, "ix must be a non-negative integer, got '-1'"),
    (_with_row_cells(2, ix="0.5"), 2, "ix must be a non-negative integer, got '0.5'"),
    (_with_row_cells(2, ix=""), 2, "ix must be a non-negative integer, got ''"),
    (_with_row_cells(3, iy="x"), 3, "iy must be a non-negative integer, got 'x'"),
    (_with_row_cells(3, ix="0"), 3, "node (ix, iy) = (0, 0) repeats"),
    (_with_row_cells(4, h_hat="abc"), 4, "bad number: could not convert string to float: 'abc'"),
    (lambda lines: lines[:7] + lines[8:], 36,
     "the rows cover 35 of the 6 x 6 grid's nodes; node (ix, iy) = (0, 1) has no row"),
], ids=["header_only", "ix_negative", "ix_fraction", "ix_blank", "iy_text", "node_repeated",
        "h_hat_text", "node_missing"])
def test_report_rejects_broken_field_csv(tmp_path, edit, line, reason):
    """`latfit report` on a field CSV that is not one full grid: exit 2, file:line named, no SVG."""
    lines = (DATA / "golden_field.csv").read_text().splitlines()
    (tmp_path / "field.csv").write_text("\n".join(edit(lines)) + "\n")
    proc = run_cli("report", "--field", "field.csv", "--svg", "report.svg", cwd=tmp_path)
    assert proc.returncode == 2
    assert f"field.csv:{line}: {reason}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "report.svg").exists()


def test_report_renders_the_golden_field_csv(tmp_path):
    proc = run_cli("report", "--field", str(DATA / "golden_field.csv"), "--svg", "report.svg",
                   cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.svg").read_text().startswith('<?xml version="1.0"')


def _set(*keys, value):
    """params.json perturbation: set the entry at the path `keys` to `value`."""
    def apply(doc):
        for key in keys[:-1]:
            doc = doc.setdefault(key, {})
        doc[keys[-1]] = value
    return apply


_THRESHOLDS = {"eps_rho": 0.125, "eps_J": 0.1, "C_A": 3.0}


@pytest.mark.parametrize("edit, message", [
    (_set("d", value=2.7), "d must be an integer, got 2.7"),
    (_set("lambda", value=math.nan), "lambda must be positive and finite, got nan"),
    (_set("lambda", value=math.inf), "lambda must be positive and finite, got inf"),
    (_set("s0", value=math.nan), "s0 must be positive and finite, got nan"),
    (_set("vartheta", value=math.nan), "vartheta must be positive and finite, got nan"),
    (_set("E", value=[[math.nan, 0.0], [0.0, 1.0]]), "E must be finite"),
    (_set("C1_el", value=math.nan), "C1_el must be positive and finite, got nan"),
    (_set("C2_el", value=math.inf), "C2_el must be positive and finite, got inf"),
    (_set("thresholds", value={**_THRESHOLDS, "eps_rho": math.nan}),
     "eps_rho must be positive and finite, got nan"),
    (_set("thresholds", value={**_THRESHOLDS, "eps_J": math.inf}),
     "eps_J must be positive and finite, got inf"),
    (_set("thresholds", value={**_THRESHOLDS, "C_A": math.nan}),
     "C_A must be positive and finite, got nan"),
    (_set("domain", "lo", value=[math.nan, -14.0]), "domain: box corners must be finite"),
    (_set("s0", value=None), "s0 must be a number, got None"),
    (_set("lambda", value="8"), "lambda must be a number, got '8'"),
    (_set("thresholds", value={**_THRESHOLDS, "eps_J": None}), "eps_J must be a number, got None"),
], ids=["d_fraction", "lambda_nan", "lambda_inf", "s0_nan", "vartheta_nan", "E_nan",
        "C1_el_nan", "C2_el_inf", "eps_rho_nan", "eps_J_inf", "C_A_nan", "domain_nan",
        "s0_null", "lambda_string", "eps_J_null"])
def test_non_finite_parameter_is_named(tmp_path, edit, message):
    """A params.json value that is not a finite positive number (or d not an integer): exit 2."""
    doc = json.loads((DATA / "params.json").read_text())
    edit(doc)
    (tmp_path / "params.json").write_text(json.dumps(doc))       # NaN, Infinity as JSON allows
    shutil.copy(DATA / "golden_atoms.csv", tmp_path / "golden_atoms.csv")
    proc = run_cli("fit", "--atoms", "golden_atoms.csv", "--params", "params.json",
                   "--at", "5,5", "--out", "fit.json", cwd=tmp_path)
    assert proc.returncode == 2
    assert "params.json: " in proc.stderr and message in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "fit.json").exists()


def run_in_process(capsys, *argv):
    """`latfit *argv` through `cli.main` in this process: (exit code, stderr)."""
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (_set("thresholds", value=5), "thresholds must be an object with keys"),
    (_set("domain", value=5), "domain needs exactly keys lo, hi, got 5"),
], ids=["thresholds_number", "domain_number"])
def test_malformed_params_document_is_named(tmp_path, capsys, edit, message):
    """A params.json entry of the wrong JSON type: exit 2, file and key named, no output."""
    doc = json.loads((DATA / "params.json").read_text())
    edit(doc)
    (tmp_path / "params.json").write_text(json.dumps(doc))
    code, err = run_in_process(capsys, "fit", "--atoms", DATA / "golden_atoms.csv",
                               "--params", tmp_path / "params.json", "--at", "5,5",
                               "--out", tmp_path / "fit.json")
    assert code == 2
    assert f"params.json: {message}" in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "fit.json").exists()


_PLANAR_3D = {"domain_lo": [-10, -10, -10], "domain_hi": [10, 10, 10], "lam": 2.0}


@pytest.mark.parametrize("keys, message", [
    ({"domain_lo": 5}, "spec.json: domain_lo must be a list of numbers, got 5"),
    ({"a_matrix": [1, 2]}, "spec.json: a_matrix must be a 2 x 2 matrix"),
    ({"lam": "x"}, "spec.json: lam must be a number, got 'x'"),
    ({"seed": 1.5}, "spec.json: seed must be a non-negative integer, got 1.5"),
    ({"sigma": "x"}, "spec.json: sigma must be a number, got 'x'"),
    ({"core_radius": None}, "spec.json: core_radius must be a number, got None"),
    ({"fraction": [0.1]}, "spec.json: fraction must be a number, got [0.1]"),
    ({"gamma": {}}, "spec.json: gamma must be a number, got {}"),
    ({"tau": [0.1]}, "spec.json: tau must be a list of 2 numbers, got [0.1]"),
    ({"burgers": [1]}, "spec.json: burgers must be a list of 2 numbers, got [1]"),
    ({"core_radius": math.nan}, "spec.json: core_radius must be finite, got nan"),
    ({"poisson": math.nan}, "spec.json: poisson must be finite, got nan"),
    ({"kind": "noise", "sigma": math.nan}, "spec.json: sigma must be finite, got nan"),
    ({"lam": math.inf}, "spec.json: lam must be finite, got inf"),
    ({"core": [0.5, math.nan]}, "spec.json: core must be finite, got [0.5, nan]"),
    ({"a_matrix": [[1.0, 0.0], [0.0, math.inf]]}, "spec.json: a_matrix must be finite"),
    ({"poisson": 1.0}, "spec.json: poisson must satisfy -1 < poisson <= 1/2, got 1.0"),
    ({"poisson": -1.0}, "spec.json: poisson must satisfy -1 < poisson <= 1/2, got -1.0"),
    ({"kind": "bend", "kappa": 0.01, **_PLANAR_3D}, "generator kind 'bend' needs a 2-D domain"),
    ({"kind": "edge_dislocation", **_PLANAR_3D},
     "generator kind 'edge_dislocation' needs a 2-D domain"),
    ({"kind": "grain_boundary", "angle": 0.1, **_PLANAR_3D},
     "generator kind 'grain_boundary' needs a 2-D domain"),
], ids=["domain_lo_number", "a_matrix_vector", "lam_string", "seed_fraction", "sigma_string",
        "core_radius_null", "fraction_list", "gamma_object", "tau_short", "burgers_short",
        "core_radius_nan", "poisson_nan", "noise_sigma_nan", "lam_inf", "core_nan",
        "a_matrix_inf", "poisson_one", "poisson_minus_one",
        "bend_3d", "edge_dislocation_3d", "grain_boundary_3d"])
def test_malformed_spec_is_named(tmp_path, capsys, keys, message):
    """A generator spec entry of the wrong type or length, a non-finite number or vector entry,
    a Poisson ratio outside (-1, 1/2], or a 2-D-only kind in 3-D: exit 2."""
    doc = {**json.loads((DATA / "dislocation_spec.json").read_text()), **keys}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    code, err = run_in_process(capsys, "generate", "--spec", tmp_path / "spec.json",
                               "--out", tmp_path / "atoms.csv", "--truth", tmp_path / "truth.json")
    assert code == 2
    assert message in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "atoms.csv").exists() and not (tmp_path / "truth.json").exists()


@pytest.mark.parametrize("rows, message", [
    ("1,1\n1,1\n1,1\n", "a loop needs at least 3 distinct points, got 1"),
    ("0,0\n5,0\n0,0\n", "a loop needs at least 3 distinct points, got 2"),
    ("0,0\n5,0\n10,0\n0,0\n", "loop points all lie on one line"),
], ids=["coincident", "back_and_forth", "collinear"])
def test_loop_enclosing_nothing_is_refused(tmp_path, capsys, rows, message):
    """A closed loop that encloses nothing exits 2 with the reason, not `trivial` with exit 0."""
    (tmp_path / "loop.csv").write_text("x,y\n" + rows)
    code, err = run_in_process(capsys, "loop", "--atoms", DATA / "golden_atoms.csv",
                               "--params", DATA / "params.json", "--loop", tmp_path / "loop.csv",
                               "--out", tmp_path / "loop.json")
    assert code == 2
    assert message in err and "it encloses nothing" in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "loop.json").exists()


def test_negative_check_seed_is_named(capsys):
    code, err = run_in_process(capsys, "check", "--atoms", DATA / "golden_atoms.csv",
                               "--params", DATA / "params.json", "--seed", -1)
    assert code == 2
    assert "latfit: error: --seed must be a non-negative integer, got -1" in err, err
    assert "Traceback" not in err


def test_every_named_error_exits_2(capsys, monkeypatch):
    """`main` reports each named error class with exit 2; any other exception propagates.

    The handler finds the classes of the modules a command loaded; here every
    module is loaded, and each class, a subclass and the builtins are caught.
    """
    from latfit.fileio import FileFormatError
    from latfit.fitting import BasinEscapeError, FitError
    from latfit.generators import GenerationError
    from latfit.topology import AmbiguousReparamError, IrregularSampleError, ReparamError

    for cls in (FileFormatError, FitError, BasinEscapeError, GenerationError, ReparamError,
                AmbiguousReparamError, IrregularSampleError, OSError, ValueError):
        def raising(args, cls=cls):
            raise cls(f"raised {cls.__name__}")

        monkeypatch.setattr(cli, "cmd_report", raising)
        code, err = run_in_process(capsys, "report", "--field", "f.csv", "--svg", "f.svg")
        assert code == 2 and err == f"latfit: error: raised {cls.__name__}\n", cls
    monkeypatch.setattr(cli, "cmd_report", lambda args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        cli.main(["report", "--field", "f.csv", "--svg", "f.svg"])
