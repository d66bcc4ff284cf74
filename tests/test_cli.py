import json
import shutil

import pytest

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
