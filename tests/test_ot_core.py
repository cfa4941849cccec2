"""Tests for the exact 1D transport core: couplings, distance, gradients."""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from dpswgrad import ot_core
from dpswgrad.ot_core import (quantile_coupling, w2_grad_columns,
                              w2_squared_columns)

from dpswgrad.dp_gradient import clip_rows
from dpswgrad.sliced import sample_directions
from oracles import bit_equal, central_diff, distinct_values, rel_err, \
    w2_grad_columns_stable, w2_grad_exact, w2_squared_quantile_oracle


def _ulp_spaced(rng, start: float, size: int) -> np.ndarray:
    """``size`` distinct floats from ``start`` away from zero, 1 to 3 ulps
    apart, in random order."""
    bits = np.float64(start).view(np.int64) \
        + np.cumsum(rng.integers(1, 4, size))
    return rng.permutation(bits.view(np.float64))


@pytest.fixture
def repaired_rows(monkeypatch):
    """The number of rows of every block the kernel sorts a second time:
    the stable argsorts that ``ot_core`` takes, counted through its one
    name for NumPy."""
    rows = []

    class Spy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def argsort(s, *args, **kwargs):
            rows.append(s.shape[0])
            return np.argsort(s, *args, **kwargs)

    monkeypatch.setattr(ot_core, "np", Spy())
    return rows


class TestQuantileCoupling:
    def test_identical_partitions(self):
        c = quantile_coupling(2, 2)
        assert list(zip(c.rows.tolist(), c.cols.tolist())) == [(0, 0), (1, 1)]
        np.testing.assert_allclose(c.weights, [0.5, 0.5])

    def test_two_three(self):
        c = quantile_coupling(2, 3)
        entries = list(zip(c.rows.tolist(), c.cols.tolist(),
                           c.weights.tolist()))
        assert entries == [(0, 0, pytest.approx(1 / 3)),
                           (0, 1, pytest.approx(1 / 6)),
                           (1, 1, pytest.approx(1 / 6)),
                           (1, 2, pytest.approx(1 / 3))]

    def test_single_row_absorbs_all_mass(self):
        c = quantile_coupling(1, 7)
        assert c.rows.tolist() == [0] * 7
        assert c.cols.tolist() == list(range(7))
        np.testing.assert_allclose(c.weights, np.full(7, 1 / 7))

    def test_entry_count_bound(self):
        for n, m in [(3, 5), (7, 7), (13, 9), (200, 199)]:
            assert quantile_coupling(n, m).weights.size <= n + m - 1

    @pytest.mark.parametrize("n, m", [(3000, 2986), (2986, 3014), (1, 7),
                                      (7, 1), (5, 1000), (2094, 921),
                                      (921, 2094), (40, 40)])
    def test_plans_are_read_only_cached_and_no_larger_than_csr(self, n, m):
        # the cache holds one coupling per (n, m), whose entry arrays, the
        # only plan the gradient reads, every call reads and none writes
        c = quantile_coupling(n, m)
        assert all(not a.flags.writeable for a in (c.rows, c.cols, c.weights))
        rng = np.random.default_rng(n + m)
        w2_grad_columns(rng.normal(size=(n, 3)), rng.normal(size=(m, 3)))
        assert quantile_coupling(n, m) is c

    def test_zero_sizes_rejected(self):
        with pytest.raises(ValueError):
            quantile_coupling(0, 3)
        with pytest.raises(ValueError):
            quantile_coupling(3, 0)

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 9), (9, 1), (7, 7),
                                      (200, 200), (3, 5), (101, 64),
                                      (3000, 2986), (4, 12), (36, 9),
                                      (100, 300)],
                             ids=["1x1", "1x9", "9x1", "7x7", "200x200",
                                  "3x5", "101x64", "3000x2986", "4x12",
                                  "36x9", "100x300"])
    def test_entries_match_a_union1d_reference(self, n, m):
        # equal, coprime, multiple and unit sizes: the merged breakpoints
        # are the union of the two integer grids, bit for bit
        edges = np.union1d(np.arange(1, n + 1, dtype=np.int64) * m,
                           np.arange(1, m + 1, dtype=np.int64) * n)
        starts = np.concatenate(([0], edges[:-1]))
        c = quantile_coupling(n, m)
        assert bit_equal(c.rows, (edges + m - 1) // m - 1)
        assert bit_equal(c.cols, (edges + n - 1) // n - 1)
        assert bit_equal(c.weights, (edges - starts) / float(n * m))

    def test_mass_conservation_all_sizes_up_to_200(self):
        for n in range(1, 201):
            for m in (1, 2, 3, n, 197, 200):
                c = quantile_coupling(n, m)
                row_sums = np.bincount(c.rows, weights=c.weights, minlength=n)
                col_sums = np.bincount(c.cols, weights=c.weights, minlength=m)
                assert np.max(np.abs(row_sums - 1.0 / n)) < 1e-12
                assert np.max(np.abs(col_sums - 1.0 / m)) < 1e-12
                assert np.all(c.weights > 0)
                assert abs(c.weights.sum() - 1.0) < 1e-12


class TestW2Squared:
    """The distance of 1-D samples, each one column."""

    def test_tie_break_w2_matches_any_other_tie_break(self):
        # with repeated values, the distance must agree with the oracle,
        # which never looks at the permutation choice
        u = [1.0, 1.0, 0.5]
        v = [0.25, 1.0]
        assert w2_squared_columns(u, v)[0] == pytest.approx(
            w2_squared_quantile_oracle(u, v), rel=1e-12)

    def test_same_measure_different_order(self):
        assert w2_squared_columns([0.0, 1.0], [1.0, 0.0])[0] == 0.0

    def test_point_masses(self):
        assert w2_squared_columns([0.0], [1.0])[0] == 1.0

    def test_unequal_sizes_against_hand_value(self):
        assert w2_squared_columns([0.0, 1.0], [0.5])[0] == pytest.approx(
            0.25, abs=1e-15)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n, m = rng.integers(1, 51, size=2)
            u = rng.uniform(-10, 10, size=n)
            v = rng.uniform(-10, 10, size=m)
            got = w2_squared_columns(u, v)[0]
            want = w2_squared_quantile_oracle(u, v)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)

    def test_equal_size_reduces_to_sorted_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            u = rng.uniform(-3, 3, size=n)
            v = rng.uniform(-3, 3, size=n)
            direct = np.mean((np.sort(u) - np.sort(v)) ** 2)
            assert w2_squared_columns(u, v)[0] == pytest.approx(
                direct, rel=1e-12, abs=1e-15)

    def test_symmetry_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n, m = rng.integers(1, 40, size=2)
            u = rng.uniform(-5, 5, size=n)
            v = rng.uniform(-5, 5, size=m)
            assert w2_squared_columns(u, v)[0] == w2_squared_columns(v, u)[0]

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = rng.normal(size=rng.integers(1, 20))
            v = rng.normal(size=rng.integers(1, 20))
            assert w2_squared_columns(u, v)[0] >= 0.0

    def test_columns_variant_matches_scalar(self):
        rng = np.random.default_rng(9)
        u = rng.normal(size=(6, 4))
        v = rng.normal(size=(9, 4))
        cols = w2_squared_columns(u, v)
        for k in range(4):
            assert cols[k] == pytest.approx(
                w2_squared_columns(u[:, k], v[:, k])[0], rel=1e-14)


class TestW2Grad:
    """The gradients of 1-D samples, each one column."""

    def test_one_dimensional_samples_are_one_column(self):
        gu, gv, values = w2_grad_columns([0.0, 1.0], [0.5])
        assert (gu.shape, gv.shape, values.shape) == ((2, 1), (1, 1), (1,))
        assert gu[:, 0].tolist() == [-0.5, 0.5]
        assert gv[0, 0] == 0.0 and np.signbit(gv[0, 0])
        assert values[0] == 0.25

    def test_zero_at_identical_sorted_samples(self):
        u = np.array([0.1, 0.4, 0.9])
        gu, gv, _ = w2_grad_columns(u, u.copy())
        np.testing.assert_allclose(gu, 0.0, atol=1e-15)
        np.testing.assert_allclose(gv, 0.0, atol=1e-15)

    def test_hand_example(self):
        gu, gv, _ = w2_grad_columns([0.0, 1.0], [0.5])
        np.testing.assert_allclose(gu[:, 0], [-0.5, 0.5])
        np.testing.assert_allclose(gv[:, 0], [0.0])

    def test_translation_invariance_sums(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            u = rng.uniform(-4, 4, size=rng.integers(1, 30))
            v = rng.uniform(-4, 4, size=rng.integers(1, 30))
            gu, gv, _ = w2_grad_columns(u, v)
            assert abs(gu.sum() + gv.sum()) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            n, m = rng.integers(2, 15, size=2)
            u = distinct_values(rng, int(n), -4, 4)
            v = distinct_values(rng, int(m), -4, 4)
            gu, gv, _ = w2_grad_columns(u, v)
            fd_u = central_diff(lambda uu: w2_squared_columns(uu, v)[0], u)
            fd_v = central_diff(lambda vv: w2_squared_columns(u, vv)[0], v)
            assert rel_err(gu[:, 0], fd_u) < 1e-5
            assert rel_err(gv[:, 0], fd_v) < 1e-5

    def test_columns_variant_matches_scalar(self):
        rng = np.random.default_rng(17)
        u = rng.normal(size=(5, 3))
        v = rng.normal(size=(8, 3))
        gu, gv, _ = w2_grad_columns(u, v)
        for k in range(3):
            gu1, gv1, _ = w2_grad_columns(u[:, k], v[:, k])
            np.testing.assert_allclose(gu[:, k], gu1[:, 0], atol=1e-15)
            np.testing.assert_allclose(gv[:, k], gv1[:, 0], atol=1e-15)

    def test_gradient_with_ties_uses_documented_permutation(self):
        # value identical regardless of which tied element gets which rank,
        # and the gradient still sums to zero
        gu, gv, _ = w2_grad_columns([1.0, 1.0, 0.0], [0.5, 1.5])
        assert abs(gu.sum() + gv.sum()) < 1e-12

    @pytest.mark.parametrize("tied", [False, True])
    def test_columns_value_is_the_distance(self, tied):
        # the value read from the gradient's sorted arrays is bit-identical
        # to the distance, on distinct and on all-tied columns
        rng = np.random.default_rng(41)
        u = rng.normal(size=(40, 5))
        v = rng.normal(size=(27, 5)) + 0.3
        if tied:
            u = np.clip(np.round(u), -1.0, 1.0)
            v = np.where(v > 0.0, 1.0, -1.0)
        values = w2_grad_columns(u, v)[2]
        assert values.shape == (5,)
        assert np.array_equal(values, w2_squared_columns(u, v))


class TestOrderAgainstStableOracle:
    """``w2_grad_columns`` against the two-stable-argsort reference."""

    @staticmethod
    def _check(u, v):
        got = w2_grad_columns(u, v)
        want = w2_grad_columns_stable(u, v)
        for g, w in zip(got, want):
            assert bit_equal(g, w)

    @pytest.mark.parametrize("n, m, k", [(1, 1, 3), (1, 9, 4), (9, 1, 4),
                                         (40, 27, 5), (300, 300, 6),
                                         (311, 197, 3)])
    def test_tie_free_blocks(self, n, m, k):
        rng = np.random.default_rng(n * 1000 + m)
        u = rng.normal(size=(n, k))
        v = rng.normal(size=(m, k)) + 0.3
        assert all(np.unique(u[:, j]).size == n for j in range(k))
        self._check(u, v)

    @pytest.mark.parametrize("n, m, k", [
        (300, 300, 4), (2000, 2000, 3), (300, 311, 4), (2986, 3014, 5),
        (1427, 1573, 2), (1, 7, 3), (7, 1, 3), (5, 1000, 2), (1000, 5, 2),
        (2094, 921, 1), (921, 2094, 1), (6, 3, 2), (3, 6, 2), (40, 27, 1),
        (1, 20000, 1), (20000, 1, 1), (3, 10007, 2)],
        ids=["identity", "identity_2000", "near_square", "reg_sp",
             "class_split", "1x7", "7x1", "5x1000", "1000x5", "2094x921",
             "921x2094", "6x3", "3x6", "k1", "1x20000", "20000x1",
             "3x10007"])
    def test_segment_length_regimes(self, n, m, k):
        # segments of one entry (identity), of 1-3 (near-square), of tens
        # to tens of thousands (far ratios) and one side of single entries
        # against pairs (6x3), with k = 1 to 5 columns
        rng = np.random.default_rng(n * 7 + m)
        u = rng.normal(size=(n, k))
        v = rng.normal(size=(m, k)) + 0.3
        self._check(u, v)
        gu, gv, values = w2_grad_columns(u, v, grad_v=False)
        want = w2_grad_columns_stable(u, v)
        assert gv is None
        assert bit_equal(gu, want[0]) and bit_equal(values, want[2])

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (7, 1), (40, 40),
                                      (300, 311), (5, 1000)])
    @pytest.mark.parametrize("value", [-3.0, 0.0, -0.0])
    def test_all_equal_samples(self, n, m, value):
        # every displacement is +-0: the sums keep the CSR product's signs
        # of zero (its sums start from 0.0, so grad_u is +0 and grad_v -0);
        # then against the negated sample (zeros of the other sign)
        u, v = np.full((n, 2), value), np.full((m, 2), value)
        gu, gv, values = w2_grad_columns(u, v)
        assert not np.signbit(gu).any() and np.signbit(gv).all()
        assert not values.any()
        self._check(u, v)
        self._check(u, -v)

    def test_block_mixing_tied_and_untied_columns(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(60, 6))
        v = rng.normal(size=(45, 6))
        u[:, 1] = np.round(u[:, 1])
        u[:, 4] = rng.choice([-1.0, 2.0], 60)
        v[:, 4] = np.round(v[:, 4] * 2.0)
        v[:, 5] = 0.25
        self._check(u, v)

    def test_all_tied_clipped_one_dimensional_columns(self):
        # scalar outputs beyond the bound clip to exactly +-0.5 (the scales
        # are powers of two), so every value is one of two
        rng = np.random.default_rng(10)
        u = clip_rows(rng.choice([-4.0, -2.0, 2.0, 8.0], (40, 1)), 0.5)
        v = clip_rows(rng.choice([-2.0, 4.0], (33, 1)), 0.5)
        assert set(np.abs(np.concatenate([u, v])).ravel()) == {0.5}
        self._check(u, v)
        self._check(u[:, 0], v[:, 0])

    def test_signed_zero_ties(self):
        # -0.0 == 0.0 is a tie: columns whose only repeat is one 0.0 and one
        # -0.0 keep the stable order of the two, and so do columns of +-1
        # and +-0 in which both zeros occur
        rng = np.random.default_rng(3)
        u = rng.normal(size=(40, 8))
        for j in range(8):
            first, second = np.sort(rng.choice(40, 2, replace=False))
            u[first, j], u[second, j] = (0.0, -0.0) if j % 2 else (-0.0, 0.0)
        self._check(u, rng.normal(size=(29, 8)))

        u = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(40, 4))
        v = rng.choice([-0.0, 0.0, 1.0], size=(31, 4))
        for col in np.concatenate([u, v]).T:
            zero_signs = np.signbit(col[col == 0.0])
            assert zero_signs.any() and not zero_signs.all()
        self._check(u, v)

    @pytest.mark.parametrize("far", [False, True], ids=["narrow", "wide"])
    def test_ulp_spaced_distinct_values(self, far, repaired_rows):
        # shuffled distinct values a few ulps apart, of either sign and
        # across zero.  Alone they span so few integers that the first sort
        # keeps every bit; one far value per column drops the low bits, and
        # then every row takes the repair sort
        rng = np.random.default_rng(30)
        u, v = (np.column_stack(
            [_ulp_spaced(rng, start, size)
             for start in (1.0, -3.5, 0.0, 1e-300, -2.0 ** -1000)]
            + [rng.permutation(np.arange(-(size // 2), size - size // 2)
                               * 5e-324)]) for size in (700, 650))
        if far:
            u[rng.integers(700, size=6), range(6)] = -2.0
            v[rng.integers(650, size=6), range(6)] = 2.0
        for block in (u, v):
            assert all(np.unique(col).size == col.size for col in block.T)
        got = w2_grad_columns(u, v)
        assert repaired_rows == ([6, 6] if far else [])
        for g, w in zip(got, w2_grad_columns_stable(u, v)):
            assert bit_equal(g, w)

    @pytest.mark.parametrize("far", [False, True], ids=["narrow", "wide"])
    def test_projected_saturated_sigmoid_outputs(self, far, repaired_rows):
        # sigmoid_recentered outputs at z in [25, 40] lie within 1.4e-11 of
        # 1/2, and at exactly 1/2 from z = 36.8: projected, they hold exact
        # ties and near-ties; one unsaturated output per side widens the
        # block, so that its near-ties take the repair sort
        rng = np.random.default_rng(31)
        dirs = sample_directions(2, 12, seed=31)
        z_u, z_v = (rng.uniform(25.0, 40.0, (size, 2)) for size in (400, 333))
        if far:
            z_u[7] = z_v[3] = -3.0
        u, v = ((dirs @ (1.0 / (1.0 + np.exp(-z)) - 0.5).T).T
                for z in (z_u, z_v))
        for block in (u, v):
            assert all(np.unique(col).size < col.size for col in block.T)
        got = w2_grad_columns(u, v)
        assert repaired_rows == ([12, 12] if far else [])
        for g, w in zip(got, w2_grad_columns_stable(u, v)):
            assert bit_equal(g, w)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 2048, 2049])
    def test_sizes_around_index_widths(self, n):
        # the key keeps b = (n - 1).bit_length() index bits, which steps up
        # after n = 2, 4, 8 and 2048: exact ties, both signed zeros and
        # values one ulp apart (so low bits are dropped, and a row holding
        # 1.0 and its neighbours out of order is repaired), next to
        # distinct values
        rng = np.random.default_rng(n)
        one_up = np.nextafter(1.0, 2.0)
        pool = [-1.0, -0.0, 0.0, 1.0, one_up, np.nextafter(one_up, 2.0)]
        u, v = (np.column_stack([rng.choice(pool, (size, 5)),
                                 rng.normal(size=size)])
                for size in (n, max(n - 1, 1)))
        self._check(u, v)

    def test_long_row_takes_stable_argsort(self):
        # at n = 2**21 + 1 a row of normal draws drops 23 low bits beside
        # 22 index bits, so its ulp-neighbour pairs come back out of order
        # and the row, exact ties included, is stably argsorted
        rng = np.random.default_rng(32)
        n = 2 ** 21 + 1
        row = rng.normal(size=n)
        pairs = rng.permutation(n)[:2 * (n // 4)].reshape(2, -1)
        row[pairs[1]] = np.nextafter(row[pairs[0]], np.inf)
        row[rng.choice(n, 64, replace=False)] = row[0]
        flat, s = ot_core._stable_sort_rows(row[None, :])
        want = np.argsort(row, kind="stable")
        assert np.array_equal(flat[0], want)
        assert bit_equal(s[0], row[want])


class TestOneSidedGradient:
    """``grad_v=False``: ``v`` is a reference sample whose gradient is not
    asked for.  It takes a value sort only, whose sorted values are the
    same bits whatever the order of ties, so ``grad_u`` and the values are
    those of the two-sided call and of the stable-sort reference."""

    @staticmethod
    def _check(u, v, got):
        gu, gv, values = got
        assert gv is None
        both, want = w2_grad_columns(u, v), w2_grad_columns_stable(u, v)
        for g, i in ((gu, 0), (values, 2)):
            assert bit_equal(g, both[i]) and bit_equal(g, want[i])

    @pytest.fixture
    def sorted_rows(self, monkeypatch):
        """The shape of every block the kernel sorts for its permutation."""
        shapes = []
        stable_sort_rows = ot_core._stable_sort_rows

        def spy(a):
            shapes.append(a.shape)
            return stable_sort_rows(a)

        monkeypatch.setattr(ot_core, "_stable_sort_rows", spy)
        return shapes

    @pytest.mark.parametrize("n, m, k", [(1, 1, 3), (1, 9, 4), (9, 1, 4),
                                         (40, 27, 5), (311, 197, 3)])
    def test_tie_free_blocks(self, n, m, k, sorted_rows):
        rng = np.random.default_rng(n * 1000 + m + 7)
        u = rng.normal(size=(n, k))
        v = rng.normal(size=(m, k)) + 0.3
        got = w2_grad_columns(u, v, grad_v=False)
        # only u is sorted for its permutation
        assert sorted_rows == [(k, n)]
        self._check(u, v, got)

    def test_exact_ties(self):
        # tied columns on both sides, a constant reference column, and
        # scalar outputs clipped to exactly +-0.5
        rng = np.random.default_rng(11)
        u = np.round(rng.normal(size=(50, 4)))
        v = np.round(2.0 * rng.normal(size=(37, 4)))
        v[:, 2] = 0.25
        self._check(u, v, w2_grad_columns(u, v, grad_v=False))
        u = clip_rows(rng.choice([-4.0, -2.0, 2.0, 8.0], (40, 1)), 0.5)
        v = clip_rows(rng.choice([-2.0, 4.0], (33, 1)), 0.5)
        self._check(u, v, w2_grad_columns(u, v, grad_v=False))

    @pytest.mark.parametrize("m", [1, 2, 31, 2000])
    def test_signed_zeros(self, m):
        # -0.0 == 0.0 is a tie that a value sort may order either way: the
        # displacements then differ in the sign of some zeros, which
        # neither their squares nor the sums of the gradient keep
        rng = np.random.default_rng(m)
        u = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(40, 4))
        v = rng.choice([-0.0, 0.0, 0.5], size=(m, 4))
        if m > 1:
            v[:2] = [[0.0] * 4, [-0.0] * 4]
            v[:2, ::2] = v[1::-1, ::2]
        self._check(u, v, w2_grad_columns(u, v, grad_v=False))
        self._check(v, u, w2_grad_columns(v, u, grad_v=False))

    @pytest.mark.parametrize("far", [False, True], ids=["narrow", "wide"])
    def test_ulp_spaced_near_ties(self, far, repaired_rows):
        # as in the two-sided test, one far value per column drops low
        # bits; then only u's rows take the repair sort
        rng = np.random.default_rng(34)
        u, v = (np.column_stack(
            [_ulp_spaced(rng, start, size)
             for start in (1.0, -3.5, 0.0, 1e-300, -2.0 ** -1000)]
            + [rng.permutation(np.arange(-(size // 2), size - size // 2)
                               * 5e-324)]) for size in (700, 650))
        if far:
            u[rng.integers(700, size=6), range(6)] = -2.0
            v[rng.integers(650, size=6), range(6)] = 2.0
        got = w2_grad_columns(u, v, grad_v=False)
        assert repaired_rows == ([6] if far else [])
        self._check(u, v, got)

    @pytest.mark.parametrize("far", [False, True], ids=["narrow", "wide"])
    def test_saturated_reference(self, far, repaired_rows):
        # projected sigmoid_recentered outputs at z in [25, 40], exact ties
        # and near-ties, on the reference side, against normal draws
        rng = np.random.default_rng(35)
        dirs = sample_directions(2, 12, seed=35)
        z = rng.uniform(25.0, 40.0, (333, 2))
        if far:
            z[3] = -3.0
        v = (dirs @ (1.0 / (1.0 + np.exp(-z)) - 0.5).T).T
        u = 1e-11 * rng.normal(size=(400, 12))
        assert all(np.unique(col).size < col.size for col in v.T)
        got = w2_grad_columns(u, v, grad_v=False)
        assert repaired_rows == []
        self._check(u, v, got)


def _ot_cases():
    """(u, v) blocks of every tie regime, n == m and n != m."""
    rng = np.random.default_rng(40)
    u, v = (np.round(scale * rng.normal(size=(size, 4)))
            for scale, size in ((1.0, 50), (2.0, 37)))
    v[:, 2] = 0.25
    yield "exact_ties", u, v
    yield "signed_zeros", rng.choice([-1.0, -0.0, 0.0, 1.0], size=(40, 4)), \
        rng.choice([-0.0, 0.0, 0.5], size=(31, 4))
    u, v = (np.column_stack([_ulp_spaced(rng, start, size)
                             for start in (1.0, -3.5, 0.0, 1e-300)])
            for size in (700, 650))
    u[rng.integers(700, size=4), range(4)] = -2.0
    v[rng.integers(650, size=4), range(4)] = 2.0
    yield "near_ties_repaired", u, v
    yield "identity", rng.normal(size=(300, 6)), rng.normal(size=(300, 6))
    yield "n_ne_m", rng.normal(size=(311, 3)), rng.normal(size=(197, 3))
    yield "reg_sp_sides", rng.normal(size=(2986, 5)), \
        rng.normal(size=(3014, 5)) + 0.3


_OT_CASES = list(_ot_cases())


class TestConcurrentSorts:
    """With every block taken as large enough and two CPUs as present, each
    call sorts its second side on the module's worker thread: the outputs
    are the serial path's bits and the stable-sort reference's, a failed
    sort reaches the caller, and a forked child starts its own worker."""

    @pytest.fixture
    def handed(self, monkeypatch):
        """Force the concurrent path; one entry per sort handed to the
        worker."""
        handed = []
        jobs = ot_core._jobs

        def spy():
            handed.append(threading.current_thread().name)
            return jobs()

        monkeypatch.setattr(ot_core, "_jobs", spy)
        monkeypatch.setattr(ot_core, "_two_cpus", lambda: True)
        monkeypatch.setattr(ot_core, "_CONCURRENT_VALUES", 1)
        return handed

    @staticmethod
    def _serial(monkeypatch, fn, *args):
        with monkeypatch.context() as m:
            m.setattr(ot_core, "_CONCURRENT_VALUES", 2 ** 62)
            return fn(*args)

    @pytest.mark.parametrize("grad_v", [True, False])
    @pytest.mark.parametrize("case", _OT_CASES, ids=[c[0] for c in _OT_CASES])
    def test_outputs_equal_serial_and_reference(self, case, grad_v, handed,
                                                monkeypatch,
                                                repaired_rows):
        name, u, v = case
        serial = self._serial(monkeypatch, w2_grad_columns, u, v, grad_v)
        # the near-ties repair every side sorted for its permutation
        assert repaired_rows == ([4] * (1 + grad_v)
                                 if name == "near_ties_repaired" else [])
        assert not handed
        got = w2_grad_columns(u, v, grad_v)
        assert len(handed) == 1
        want = list(w2_grad_columns_stable(u, v))
        if not grad_v:
            want[1] = None
        for g, s, w in zip(got, serial, want):
            assert g is s is w is None or bit_equal(g, s) and bit_equal(g, w)
        values = w2_squared_columns(u, v)
        assert len(handed) == 2
        assert bit_equal(values, self._serial(monkeypatch, w2_squared_columns,
                                              u, v))
        assert bit_equal(values, want[2])

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_failed_sort_is_raised_and_leaves_nothing_behind(
            self, failing, handed, monkeypatch):
        # u's rows are 40 long and v's 30: the failing side's sort raises
        # (on the worker thread: v's), then the next call, unpatched, gets
        # its own sorts' results, not the abandoned call's
        rng = np.random.default_rng(41)
        u, v = rng.normal(size=(40, 3)), rng.normal(size=(30, 3))
        u2, v2 = rng.normal(size=(40, 3)), rng.normal(size=(30, 3))
        stable_sort_rows = ot_core._stable_sort_rows
        failed_on = []

        def sort(a):
            if a.shape[1] == (30 if failing == "worker" else 40):
                failed_on.append(threading.current_thread())
                raise ArithmeticError(f"{failing} sort failed")
            return stable_sort_rows(a)

        with monkeypatch.context() as m:
            m.setattr(ot_core, "_stable_sort_rows", sort)
            with pytest.raises(ArithmeticError,
                               match=f"{failing} sort failed"):
                w2_grad_columns(u, v)
        assert (failed_on[0] is threading.current_thread()) \
            == (failing == "caller")
        for a, b in ((u2, v2), (u, v)):
            got = w2_grad_columns(a, b)
            for g, w in zip(got, w2_grad_columns_stable(a, b)):
                assert bit_equal(g, w)
        assert len(handed) == 3

    def test_callers_on_many_threads_get_their_own_results(self, handed):
        # four callers share the one worker, each with blocks of its own
        # shapes and values, and threads switch as often as they can
        rng = np.random.default_rng(43)
        blocks = [(rng.normal(size=(30 + i, 3)),
                   np.round(rng.normal(size=(20 + 2 * i, 3))))
                  for i in range(4)]
        wants = [w2_grad_columns_stable(u, v) for u, v in blocks]
        wrong = []

        def call(i):
            u, v = blocks[i]
            for _ in range(50):
                got = w2_grad_columns(u, v)
                if not all(bit_equal(g, w) for g, w in zip(got, wants[i])):
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,))
                       for i in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert not wrong and len(handed) == 200

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")
    def test_forked_child_runs_its_own_worker(self, handed):
        rng = np.random.default_rng(42)
        u, v = rng.normal(size=(200, 4)), rng.normal(size=(150, 4))
        want = w2_grad_columns(u, v)    # the parent's worker is running
        assert handed
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                got = w2_grad_columns(u, v)
                code = 0 if all(bit_equal(g, w) for g, w in zip(got, want)) \
                    and len(handed) == 2 else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's concurrent call did not "
                            "finish within 30 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0


class TestInputValidation:
    @pytest.mark.parametrize("fn", [w2_grad_columns, w2_squared_columns])
    def test_column_counts_must_agree(self, fn):
        rng = np.random.default_rng(33)
        with pytest.raises(ValueError, match="equal column counts"):
            fn(rng.normal(size=(5, 3)), rng.normal(size=(4, 2)))

    @pytest.mark.parametrize("fn", [w2_grad_columns, w2_squared_columns])
    @pytest.mark.parametrize("shapes", [((5, 0), (4, 0)), ((5, 0), (4, 2)),
                                        ((5, 2), (4, 0))])
    def test_no_columns_rejected(self, fn, shapes):
        u, v = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ValueError, match="k >= 1"):
            fn(u, v)


class TestMemoryLayout:
    """The kernel sorts the (k, n) transpose of each block, so C-ordered
    blocks and (n, k) views of (k, n) ones must give the same bits."""

    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    def test_c_and_f_ordered_inputs_agree(self, tied):
        rng = np.random.default_rng(21)
        u = rng.normal(size=(57, 7))
        v = rng.normal(size=(38, 7)) + 0.3
        if tied:
            u[:, 2] = np.round(u[:, 2])
            u[:, 5] = rng.choice([-0.0, 0.0, 1.0], 57)
            v[:, 5] = 0.5
            v[:, 6] = np.round(v[:, 6] * 2.0)
        uf, vf = np.asfortranarray(u), np.asfortranarray(v)
        assert u.flags.c_contiguous and uf.flags.f_contiguous
        got_c = w2_grad_columns(u, v)
        got_f = w2_grad_columns(uf, vf)
        got_mixed = w2_grad_columns(u, vf)
        for a, b, c in zip(got_c, got_f, got_mixed):
            assert bit_equal(a, b) and bit_equal(a, c)
        for g, w in zip(got_f, w2_grad_columns_stable(u, v)):
            assert bit_equal(g, w)
        assert bit_equal(got_f[2], w2_squared_columns(uf, vf))
        assert bit_equal(got_f[2], w2_squared_columns(u, v))

    @pytest.mark.parametrize("grad_v", [True, False])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gradients_are_views_of_row_blocks(self, order, grad_v):
        # penalized_objective's products read these gradients, and their
        # bits follow the layout: a C-ordered (n, k) gradient would change
        # every replayed artifact
        rng = np.random.default_rng(23)
        u = np.asarray(rng.normal(size=(31, 6)), order=order)
        v = np.asarray(rng.normal(size=(44, 6)), order=order)
        gu, gv, _ = w2_grad_columns(u, v, grad_v)
        for g, n in ((gu, 31), (gv, 44))[:2 if grad_v else 1]:
            assert g.shape == (n, 6) and g.strides == (8, 8 * n)
            assert g.T.flags.c_contiguous and not g.flags.owndata
        assert grad_v or gv is None

    def test_inputs_are_not_written(self):
        rng = np.random.default_rng(22)
        u = np.asfortranarray(np.round(rng.normal(size=(30, 4))))
        v = rng.normal(size=(20, 4))
        before = u.copy(), v.copy()
        w2_grad_columns(u, v)
        assert bit_equal(u, before[0]) and bit_equal(v, before[1])


class TestExactReference:
    """``w2_grad_columns`` against the closed form in exact rationals."""

    @pytest.mark.parametrize("n, m", [(1, 9), (9, 1), (7, 11), (40, 27)])
    def test_normwise_error_on_offset_samples(self, n, m):
        # samples near 5 spread by 1e-3: the displacements are small next
        # to the values, so a kernel that forms them from weighted sums of
        # the values (e.g. u R1 - R v) loses digits to cancellation
        rng = np.random.default_rng(n * 100 + m)
        u = 5.0 + 1e-3 * rng.normal(size=(n, 4))
        v = 5.0 + 1e-3 * rng.normal(size=(m, 4))
        assert all(np.unique(col).size == col.size
                   for col in np.concatenate([u, v]).T)
        gu, gv, values = w2_grad_columns(u, v)
        exact = [w2_grad_exact(u[:, j], v[:, j]) for j in range(4)]
        for got, want in ((gu, np.column_stack([e[0] for e in exact])),
                          (gv, np.column_stack([e[1] for e in exact]))):
            assert np.linalg.norm(got - want) <= 4e-16 * np.linalg.norm(want)
        np.testing.assert_allclose(values, [e[2] for e in exact],
                                   rtol=1e-15, atol=0.0)
