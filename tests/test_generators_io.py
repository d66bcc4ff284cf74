import json
import math

import numpy as np
import pytest

from latfit.core_model import Box
from latfit.fileio import (
    FileFormatError,
    atoms_to_csv,
    configuration_from_arrays,
    dump_json,
    params_from_dict,
    read_atoms_csv,
    spec_from_dict,
    write_atoms_csv,
)
from latfit.generators import (
    SEAM_GAP,
    GenerationError,
    GeneratorSpec,
    generate,
    prune_close,
)
from latfit.svg import heatmap_svg

from kernel_oracles import half_plane_count_oracle


class TestGenerators:
    def test_perfect_lattice_counts(self):
        chi, truth = generate(GeneratorSpec(kind="perfect", domain_lo=(0, 0),
                                            domain_hi=(40, 40), lam=12.0))
        # unit lattice on a 40x40 box includes both closed edges: 41^2 sites,
        # of which the interior count is deterministic
        assert int(np.sum(chi.interior)) == 41 * 41
        inner = chi.positions[chi.interior]
        assert np.allclose(inner, np.round(inner))
        assert np.allclose(truth.a_at([20.0, 20.0]), np.eye(2))

    def test_vacancy_count_exact_and_reproducible(self):
        spec = GeneratorSpec(kind="vacancies", fraction=0.1, seed=5,
                             domain_lo=(0, 0), domain_hi=(40, 40), lam=12.0)
        chi1, _ = generate(spec)
        chi2, _ = generate(spec)
        assert np.array_equal(chi1.positions, chi2.positions)
        full, _ = generate(GeneratorSpec(kind="perfect", domain_lo=(0, 0),
                                         domain_hi=(40, 40), lam=12.0))
        n_full = int(np.sum(full.interior))
        n_left = int(np.sum(chi1.interior))
        assert n_full - n_left == math.floor(0.1 * n_full)

    def test_noise_reproducible(self):
        spec = GeneratorSpec(kind="noise", sigma=0.02, seed=9, domain_lo=(0, 0),
                             domain_hi=(30, 30), lam=8.0)
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert np.array_equal(a.positions, b.positions)

    def test_edge_dislocation_truth_and_oracle(self, dislocation8):
        chi, truth = dislocation8
        assert truth.burgers.tolist() == [1, 0]
        count = half_plane_count_oracle(chi, truth.core, np.array([1.0, 0.0]), 8.0)
        assert count == 1

    def test_shear_ground_truth(self):
        chi, truth = generate(GeneratorSpec(kind="shear", gamma=0.05, domain_lo=(0, 0),
                                            domain_hi=(30, 30), lam=8.0))
        f_def = np.array([[1.0, 0.05], [0.0, 1.0]])
        assert np.allclose(truth.a_at([15.0, 15.0]), np.linalg.inv(f_def))

    def test_bend_ground_truth_matches_map_derivative(self):
        kappa = 0.002
        chi, truth = generate(GeneratorSpec(kind="bend", kappa=kappa, domain_lo=(0, 0),
                                            domain_hi=(30, 30), lam=8.0))
        # at the domain center the bend map has unit gradient
        assert np.allclose(truth.a_at([15.0, 15.0]), np.eye(2), atol=1e-9)
        a_off = truth.a_at([15.0, 20.0])
        assert np.linalg.det(a_off) == pytest.approx(1.0 / (1.0 - kappa * 5.0), rel=1e-6)

    def test_grain_boundary_seam_pruned(self):
        chi, truth = generate(GeneratorSpec(kind="grain_boundary", angle=0.15,
                                            domain_lo=(0, 0), domain_hi=(30, 30), lam=8.0))
        assert len(chi.hardcore_pairs(0.5)) == 0
        rot = truth.a_at([5.0, 15.0])
        assert np.linalg.det(rot) == pytest.approx(1.0, rel=1e-12)
        assert not np.allclose(rot, truth.a_at([25.0, 15.0]))

    def test_seam_pruning_matches_quadratic_oracle(self):
        # a 0.75-spaced row puts pairs at exactly the seam gap; jitter adds near misses
        rng = np.random.default_rng(2)
        row = np.stack([np.arange(0.0, 9.0, 0.75), np.full(12, 4.0)], axis=1)
        pts = np.concatenate([row, rng.uniform(0.0, 9.0, size=(300, 2))])
        i, j = np.triu_indices(len(pts), k=1)
        diff = pts[i] - pts[j]
        near = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1] <= SEAM_GAP * SEAM_GAP
        assert np.sum(np.linalg.norm(diff[near], axis=1) == SEAM_GAP) >= 11
        drop = np.zeros(len(pts), dtype=bool)
        for a, b in zip(i[near], j[near]):      # triu order is lexicographic
            if not drop[a] and not drop[b]:
                drop[b] = True
        assert np.array_equal(prune_close(pts, SEAM_GAP), pts[~drop])

    def test_hardcore_gate_raises(self):
        with pytest.raises(GenerationError, match="hardcore"):
            generate(GeneratorSpec(kind="noise", sigma=0.8, seed=1, domain_lo=(0, 0),
                                   domain_hi=(20, 20), lam=8.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(GenerationError, match="unknown generator kind"):
            GeneratorSpec(kind="quasicrystal")


class TestAtomsCsv:
    def test_round_trip_bit_exact(self, tmp_path, dislocation8):
        chi, _ = dislocation8
        path = tmp_path / "atoms.csv"
        write_atoms_csv(str(path), chi)
        positions, interior = read_atoms_csv(str(path))
        assert np.array_equal(positions, chi.positions)
        assert np.array_equal(interior, chi.interior)
        # writing the parsed arrays again reproduces identical bytes
        again = configuration_from_arrays(positions, interior,
                                          params=None if False else _params8(),
                                          domain=chi.domain)
        assert atoms_to_csv(again) == path.read_text()

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y,kind\n1.0,2.0,I\noops,3.0,I\n")
        with pytest.raises(FileFormatError, match="bad.csv:3"):
            read_atoms_csv(str(bad))
        bad.write_text("x,y,kind\n1.0,2.0,Q\n")
        with pytest.raises(FileFormatError, match="bad.csv:2"):
            read_atoms_csv(str(bad))
        bad.write_text("a,b\n")
        with pytest.raises(FileFormatError, match="bad.csv:1"):
            read_atoms_csv(str(bad))

    def test_inferred_domain_contains_interior(self, chi_noise):
        text_positions = chi_noise.positions
        chi = configuration_from_arrays(text_positions, chi_noise.interior, _params())
        assert np.all(chi.domain.contains(text_positions[chi.interior]))


def _params():
    from latfit.core_model import ModelParams
    return ModelParams(d=2, lam=12.0, s0=0.5)


def _params8():
    from latfit.core_model import ModelParams
    return ModelParams(d=2, lam=8.0, s0=0.5)


class TestRunConfig:
    def test_defaults(self):
        params, domain = params_from_dict({})
        assert params.d == 2 and params.lam == 12.0
        assert domain is None

    def test_unknown_keys_rejected(self):
        with pytest.raises(FileFormatError, match="unknown parameter keys"):
            params_from_dict({"lambda": 8.0, "mystery": 1})
        with pytest.raises(FileFormatError, match="unknown threshold keys"):
            params_from_dict({"thresholds": {"eps_rho": 0.1, "eps_J": 1.0, "C_A": 3.0,
                                             "extra": 2}})
        with pytest.raises(FileFormatError, match="unknown spec keys"):
            spec_from_dict({"kind": "perfect", "oops": 1})

    def test_full_document(self):
        doc = {"d": 2, "lambda": 8.0, "s0": 0.4, "vartheta": 2.0,
               "E": [[1.0, 0.0], [0.0, 1.0]], "C1_el": 1.5, "C2_el": 0.5,
               "thresholds": {"eps_rho": 0.125, "eps_J": 0.5, "C_A": 3.0},
               "domain": {"lo": [0, 0], "hi": [10, 10]}}
        params, domain = params_from_dict(doc)
        assert params.vartheta == 2.0
        assert params.thresholds.eps_J == 0.5
        assert isinstance(domain, Box)

    def test_invalid_scale_separation(self):
        with pytest.raises(FileFormatError, match="lam >= 10"):
            params_from_dict({"lambda": 2.0, "s0": 0.5})

    def test_spec_round_trip(self):
        spec = spec_from_dict(json.loads(dump_json(
            {"kind": "edge_dislocation", "burgers": [1, 0], "lam": 8.0,
             "domain_lo": [-20, -20], "domain_hi": [20, 20]})))
        assert spec.kind == "edge_dislocation"
        assert spec.burgers == (1, 0)


class TestSvg:
    def test_deterministic_bytes(self):
        arr = np.array([[0.0, 1.0, np.nan], [2.0, 3.0, 4.0]])
        a = heatmap_svg([("demo", arr)])
        b = heatmap_svg([("demo", arr.copy())])
        assert a == b
        assert a.startswith('<?xml version="1.0"')
        assert "#c8c8c8" in a  # the NaN cell

    def test_band_shapes_checked(self):
        with pytest.raises(ValueError, match="shape"):
            heatmap_svg([("a", np.zeros((2, 2))), ("b", np.zeros((3, 2)))])
