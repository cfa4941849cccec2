"""Tests for the biased data generator, partitioning, and persistence."""

import numpy as np
import pytest

from dpswgrad.data import (GenerationConfig, centered_targets,
                           generate_biased, load_dataset, partition,
                           save_dataset)
from dpswgrad.jsonio import _WRITE_ROWS
from oracles import bit_equal, matches_csv_rows, write_csv_rows


class TestGenerator:
    def test_deterministic_given_seed(self):
        cfg = GenerationConfig(n=500, bias=0.7, seed=42)
        a = generate_biased(cfg)
        b = generate_biased(cfg)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.a, b.a)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.yc, b.yc)

    def test_label_consistency(self):
        ds = generate_biased(GenerationConfig(n=2000, bias=0.5, seed=1))
        np.testing.assert_array_equal(
            ds.y, (ds.yc[:, 1] > 1.0 - ds.yc[:, 0]).astype(np.int64))

    def test_full_bias_makes_a_equal_y(self):
        ds = generate_biased(GenerationConfig(n=300, bias=1.0, seed=2))
        np.testing.assert_array_equal(ds.a, ds.y)

    def test_noiseless_features_tile_exactly(self):
        cfg = GenerationConfig(n=50, bias=0.6, core_dim=4, sp_dim=3,
                               core_var=0.0, sp_var=0.0, seed=3)
        ds = generate_biased(cfg)
        np.testing.assert_array_equal(ds.x[:, :2], ds.yc)
        np.testing.assert_array_equal(ds.x[:, 2:4], ds.yc)
        for j in range(3):
            np.testing.assert_array_equal(ds.x[:, 4 + j], ds.a)

    def test_statistics_at_reference_configuration(self):
        cfg = GenerationConfig(n=30000, bias=0.7, core_dim=8, sp_dim=8,
                               core_var=0.2, sp_var=0.4, seed=4)
        ds = generate_biased(cfg)
        assert abs(np.mean(ds.a == ds.y) - 0.7) < 0.01
        assert abs(ds.y.mean() - 0.5) < 0.01
        sizes = _sizes(partition(ds, False))
        # each class has expected size n/2; allow 3 standard errors
        se = 3 * np.sqrt(0.25 * 30000)
        assert abs(sizes[0] - 15000) < se and abs(sizes[1] - 15000) < se

    def test_centered_targets(self):
        ds = generate_biased(GenerationConfig(n=100, bias=0.7, seed=5))
        c = centered_targets(ds)
        assert np.all((c >= -0.5) & (c <= 0.5))
        np.testing.assert_allclose(c + 0.5, ds.yc)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            GenerationConfig(n=0, bias=0.5)
        with pytest.raises(ValueError):
            GenerationConfig(n=10, bias=1.5)
        with pytest.raises(ValueError):
            GenerationConfig(n=10, bias=0.5, core_dim=7)
        with pytest.raises(ValueError):
            GenerationConfig(n=10, bias=0.5, core_var=-1.0)
        for bad in (np.nan, np.inf, -np.inf):
            for name in ("core_var", "sp_var"):
                with pytest.raises(ValueError, match="finite"):
                    GenerationConfig(n=10, bias=0.5, **{name: bad})


def _sizes(part: dict) -> dict:
    return {key: idx.size for key, idx in part.items()}


class TestPartition:
    def test_partition_is_disjoint_and_complete(self):
        ds = generate_biased(GenerationConfig(n=1000, bias=0.7, seed=6))
        for by_label in (False, True):
            part = partition(ds, by_label)
            all_idx = np.concatenate(list(part.values()))
            assert sorted(all_idx.tolist()) == list(range(1000))
            assert sum(_sizes(part).values()) == 1000

    def test_key_order(self):
        # the order in which training stacks the class batches
        ds = generate_biased(GenerationConfig(n=50, bias=0.5, seed=6))
        assert list(partition(ds, False)) == [0, 1]
        assert list(partition(ds, True)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_by_a_and_y_refines_by_a(self):
        ds = generate_biased(GenerationConfig(n=800, bias=0.6, seed=7))
        coarse = _sizes(partition(ds, False))
        fine = _sizes(partition(ds, True))
        for j in (0, 1):
            assert coarse[j] == fine[(j, 0)] + fine[(j, 1)]

    def test_class_size_expectations_at_reference_config(self):
        # expected sizes: n_j = n/2, n_{j,j} = bias*n/2, n_{j,1-j} =
        # (1-bias)*n/2, so the minimum cell is an off-diagonal one
        n, bias = 30000, 0.7
        ds = generate_biased(GenerationConfig(n=n, bias=bias, seed=21))
        fine = _sizes(partition(ds, True))
        for j in (0, 1):
            q_same = bias / 2
            se = 3 * np.sqrt(n * q_same * (1 - q_same))
            assert abs(fine[(j, j)] - bias * n / 2) < se
            q_diff = (1 - bias) / 2
            se = 3 * np.sqrt(n * q_diff * (1 - q_diff))
            assert abs(fine[(j, 1 - j)] - (1 - bias) * n / 2) < se
        smallest = min(fine, key=fine.get)
        assert smallest in ((0, 1), (1, 0))

    def test_degenerate_classes_flagged(self):
        ds = generate_biased(GenerationConfig(n=400, bias=1.0, seed=8))
        part = partition(ds, True)
        assert {k for k, idx in part.items() if idx.size == 0} == \
            {(0, 1), (1, 0)}

    def test_single_record(self):
        ds = generate_biased(GenerationConfig(n=1, bias=0.5, seed=9))
        part = partition(ds, False)
        assert sum(_sizes(part).values()) == 1


class TestPersistence:
    def test_round_trip_lossless(self, tmp_path):
        ds = generate_biased(GenerationConfig(n=200, bias=0.7, seed=11))
        csv_path = tmp_path / "data.csv"
        sidecar = tmp_path / "data.json"
        save_dataset(ds, csv_path, sidecar)
        back = load_dataset(csv_path, sidecar)
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.a, ds.a)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.yc, ds.yc)
        assert back.config == ds.config

    def test_sidecar_records_class_sizes(self, tmp_path):
        ds = generate_biased(GenerationConfig(n=150, bias=0.7, seed=12))
        save_dataset(ds, tmp_path / "d.csv", tmp_path / "d.json")
        import json
        doc = json.loads((tmp_path / "d.json").read_text())
        assert doc["n"] == 150
        sizes = doc["class_sizes"]["by_a"]
        assert sizes["0"] + sizes["1"] == 150
        fine = doc["class_sizes"]["by_a_and_y"]
        assert sum(fine.values()) == 150

    def test_loader_validates_label_consistency(self, tmp_path):
        ds = generate_biased(GenerationConfig(n=20, bias=0.7, seed=13))
        ds.y = 1 - ds.y  # corrupt
        with pytest.raises(ValueError):
            save_and_load = save_dataset(ds, tmp_path / "d.csv",
                                         tmp_path / "d.json") \
                or load_dataset(tmp_path / "d.csv", tmp_path / "d.json")

    def test_csv_bytes_match_the_row_writer(self, tmp_path):
        # more rows than two write blocks, with signed zeros, tiny and huge
        # values: the bytes csv.writer writes one row at a time
        n = 2 * _WRITE_ROWS + 5
        ds = generate_biased(GenerationConfig(n=n, bias=0.7, seed=15))
        ds.x[:7, 0] = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324]
        ds.x[-2:, -1] = [-0.0, 1e300]
        save_dataset(ds, tmp_path / "d.csv", tmp_path / "d.json")
        d = ds.dim
        write_csv_rows(
            tmp_path / "want.csv",
            [f"x_{i + 1}" for i in range(d)] + ["a", "y", "yc_1", "yc_2"],
            ([*x, str(a), str(y), *yc] for x, a, y, yc in zip(
                ds.x.tolist(), ds.a, ds.y, ds.yc.tolist())))
        got = (tmp_path / "d.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\r\n") == n + 1
        for text in (b"\r\n-0,", b"\r\n1e-300,", b"\r\n-1e-300,",
                     b"\r\n1.0000000000000001e+300,", b",-0,"):
            assert text in got

    def test_saved_bytes_are_deterministic(self, tmp_path):
        ds = generate_biased(GenerationConfig(n=100, bias=0.7, seed=14))
        save_dataset(ds, tmp_path / "a.csv", tmp_path / "a.json")
        save_dataset(ds, tmp_path / "b.csv", tmp_path / "b.json")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()


class TestLoader:
    """``load_dataset`` parses the CSV body straight into one float64 array;
    it must give the bits of the row-by-row reference parse and reject every
    file that parse rejects, plus headers whose names are not the writer's."""

    @pytest.fixture
    def saved(self, tmp_path):
        ds = generate_biased(GenerationConfig(n=40, bias=0.7, seed=15))
        ds.x[0, :6] = [-0.0, 5e-324, 1.7976931348623157e308,
                       -1.7976931348623157e308, 0.1 + 0.2,
                       -1.2345678901234567e-150]
        csv_path, sidecar = tmp_path / "d.csv", tmp_path / "d.json"
        save_dataset(ds, csv_path, sidecar)
        return ds, csv_path, sidecar

    @staticmethod
    def _edit(csv_path, edit):
        """Rewrite the file's lines (header first, CRLF-ended) by ``edit``."""
        lines = csv_path.read_bytes().decode().split("\r\n")[:-1]
        csv_path.write_bytes(("".join(f"{line}\r\n"
                                      for line in edit(lines))).encode())

    def test_bit_equal_to_reference_parse(self, saved):
        ds, csv_path, sidecar = saved
        back = load_dataset(csv_path, sidecar)
        assert matches_csv_rows(back, csv_path)
        assert bit_equal(back.x, ds.x) and bit_equal(back.yc, ds.yc)
        assert np.signbit(back.x[0, 0]) and back.x[0, 1] == 5e-324

    def test_crlf_and_lf_files_load_alike(self, saved):
        _, csv_path, sidecar = saved
        crlf = csv_path.read_bytes()
        assert crlf.count(b"\r\n") == 41
        crlf_ds = load_dataset(csv_path, sidecar)
        csv_path.write_bytes(crlf.replace(b"\r\n", b"\n"))
        lf_ds = load_dataset(csv_path, sidecar)
        for name in ("x", "a", "y", "yc"):
            assert bit_equal(getattr(crlf_ds, name), getattr(lf_ds, name))

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
         "number of columns changed"),
        (lambda lines: lines[:3] + ["abc," + lines[3].split(",", 1)[1]]
         + lines[4:], "could not convert string 'abc'"),
        (lambda lines: lines[:3] + ["#" + lines[3]] + lines[4:],
         "could not convert string '#"),
        (lambda lines: lines[:1], "CSV has 0 rows, the sidecar says 40"),
        (lambda lines: [], "empty file"),
        (lambda lines: [lines[0] + ",z"] + lines[1:],
         "CSV has 21 columns, expected 20"),
        (lambda lines: [lines[0]] + [line + ",0" for line in lines[1:]],
         "CSV rows have 21 columns, expected 20"),
    ], ids=["ragged_row", "non_numeric", "comment_line", "header_only",
            "empty", "long_header", "long_rows"])
    def test_malformed_body_rejected(self, saved, edit, message):
        _, csv_path, sidecar = saved
        self._edit(csv_path, edit)
        with pytest.raises(ValueError, match=message) as info:
            load_dataset(csv_path, sidecar)
        assert str(info.value).startswith(f"{csv_path}: ")

    @staticmethod
    def _swap_columns(lines, i, j):
        out = []
        for line in lines:
            fields = line.split(",")
            fields[i], fields[j] = fields[j], fields[i]
            out.append(",".join(fields))
        return out

    @pytest.mark.parametrize("i, j, message", [
        (0, 1, "column 1 is 'x_2', expected 'x_1'"),
        (18, 19, "column 19 is 'yc_2', expected 'yc_1'"),
    ], ids=["reordered_x", "swapped_yc"])
    def test_header_names_checked(self, saved, i, j, message):
        # the whole columns move with their names, so only the names tell
        _, csv_path, sidecar = saved
        self._edit(csv_path, lambda lines: self._swap_columns(lines, i, j))
        with pytest.raises(ValueError, match=message):
            load_dataset(csv_path, sidecar)
