"""Unit tests for the figure histogram machinery."""

import numpy as np
import pytest

from repro.core import DeltaHistogram, SymlogBins, pct_within


class TestPctWithin:
    def test_basic(self):
        d = np.array([-5.0, 0.0, 9.9, 10.0, 10.1, 100.0])
        assert pct_within(d, 10.0) == pytest.approx(4 / 6 * 100)

    def test_empty(self):
        assert pct_within(np.array([])) == 0.0

    def test_all_within(self):
        assert pct_within(np.zeros(5)) == 100.0


class TestSymlogBins:
    def test_edges_monotone(self):
        e = SymlogBins().edges()
        assert np.all(np.diff(e) > 0)

    def test_edges_symmetric(self):
        e = SymlogBins().edges()
        finite = e[1:-1]
        np.testing.assert_allclose(finite, -finite[::-1])

    def test_overflow_edges_infinite(self):
        e = SymlogBins().edges()
        assert e[0] == -np.inf and e[-1] == np.inf

    def test_centers_shape_and_zero_bin(self):
        b = SymlogBins()
        centers = b.centers()
        assert centers.shape[0] == b.edges().shape[0] - 1
        assert 0.0 in centers  # the central linear bin

    @pytest.mark.parametrize(
        "linthresh, max_decade, bins_per_decade",
        [
            (10.0, 9, 4),
            (1.0, 9, 4),
            (3.0, 7, 1),
            (0.5, 3, 5),
            (25.0, 6, 3),
            (1e-3, 2, 7),
            (99.0, 2, 2),
            (7.5, 12, 10),
        ],
    )
    def test_n_bins_matches_edges(self, linthresh, max_decade, bins_per_decade):
        b = SymlogBins(linthresh, max_decade, bins_per_decade)
        assert b.n_bins == b.edges().size - 1

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SymlogBins(linthresh=0.0)
        with pytest.raises(ValueError):
            SymlogBins(linthresh=100.0, max_decade=1)
        with pytest.raises(ValueError):
            SymlogBins(bins_per_decade=0)


class TestDeltaHistogram:
    def test_counts_cover_everything(self, rng):
        deltas = rng.normal(0, 1e4, 1000)
        h = DeltaHistogram.from_deltas(deltas)
        assert h.counts.sum() == 1000
        assert h.n_total == 1000

    def test_percent_sums_to_100(self, rng):
        h = DeltaHistogram.from_deltas(rng.normal(0, 100, 500))
        assert h.percent.sum() == pytest.approx(100.0)

    def test_zero_deltas_land_in_central_bin(self):
        h = DeltaHistogram.from_deltas(np.zeros(10))
        centers, pct = h.series()
        central = np.flatnonzero(centers == 0.0)[0]
        assert pct[central] == 100.0

    def test_extreme_values_in_overflow(self):
        h = DeltaHistogram.from_deltas(np.array([1e15, -1e15]))
        assert h.counts[0] == 1 and h.counts[-1] == 1

    def test_empty(self):
        h = DeltaHistogram.from_deltas(np.array([]))
        assert h.n_total == 0
        assert np.all(h.percent == 0.0)

    def test_shared_bins_are_comparable(self, rng):
        """Two runs histogrammed with the same config share bin edges."""
        bins = SymlogBins()
        h1 = DeltaHistogram.from_deltas(rng.normal(0, 10, 100), bins)
        h2 = DeltaHistogram.from_deltas(rng.normal(0, 1e5, 100), bins)
        np.testing.assert_array_equal(h1.bins.edges(), h2.bins.edges())

    def test_nonzero_rows(self):
        h = DeltaHistogram.from_deltas(np.array([0.0, 0.0, 5e3]))
        rows = h.nonzero_rows()
        assert len(rows) == 2
        assert sum(p for _, p in rows) == pytest.approx(100.0)
