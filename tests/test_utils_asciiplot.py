"""Tests for the ASCII plotting helpers."""

import numpy as np
import pytest

from repro.utils.asciiplot import line_plot


class TestLinePlot:
    def test_extrema_labels_ordered(self):
        out = line_plot(np.linspace(0, 10, 100), width=20, height=5)
        rows = [l for l in out.splitlines() if "|" in l]
        top = float(rows[0].split("|")[0])
        bottom = float(rows[-1].split("|")[0])
        assert top > bottom
        assert 8.0 < top <= 10.0  # bucket means of a 0..10 ramp
        assert 0.0 <= bottom < 2.0

    def test_one_star_per_column(self):
        out = line_plot(np.sin(np.linspace(0, 6, 200)), width=30, height=8)
        plot_rows = [l.split("|", 1)[1] for l in out.splitlines() if "|" in l]
        for col in range(30):
            stars = sum(1 for row in plot_rows if row[col] == "*")
            assert stars == 1

    def test_label_included(self):
        assert line_plot([1, 2], label="hello").startswith("hello")

    def test_size_validation(self):
        with pytest.raises(ValueError):
            line_plot([1, 2], width=1)

    def test_no_data(self):
        assert "no finite data" in line_plot([float("nan")])

