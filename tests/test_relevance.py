import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdiv import relevance
from interdiv.errors import InputError, ValidationError

from conftest import hermite_scalar


class TestFromBoxplot:
    def test_median_has_zero_relevance(self, rng):
        t = rng.normal(size=501)
        phi = relevance.from_boxplot(t)
        assert phi(float(np.median(t))) == pytest.approx(0.0, abs=1e-12)

    def test_extremes_have_full_relevance(self, rng):
        # heavy tails ensure min/max lie beyond the whiskers, which clamp
        t = np.concatenate([rng.normal(size=200), [25.0, -25.0]])
        phi = relevance.from_boxplot(t)
        assert phi(float(t.min())) == 1.0
        assert phi(float(t.max())) == 1.0

    def test_midway_value_matches_scalar_hermite(self, rng):
        t = rng.normal(size=300)
        phi = relevance.from_boxplot(t)
        med = phi.y[1]
        hi = phi.y[2]
        x = 0.5 * (med + hi)
        expected = hermite_scalar(x, med, hi, 0.0, 1.0, 0.0, 0.0)
        assert 0.0 < phi(x) < 1.0
        assert phi(x) == pytest.approx(expected, abs=1e-12)

    def test_all_equal_targets_rejected(self):
        with pytest.raises(ValidationError):
            relevance.from_boxplot(np.full(20, 3.0))

    def test_too_few_distinct_rejected(self):
        with pytest.raises(ValidationError):
            relevance.from_boxplot(np.array([1.0, 2.0, 1.0, 2.0, 1.0]))


class TestFromPoints:
    def test_monotone_segment(self):
        phi = relevance.from_points([(0.0, 0.0), (1.0, 1.0)])
        assert 0.0 < phi(0.5) < 1.0
        xs = np.linspace(0.0, 1.0, 200)
        assert np.all(np.diff(phi(xs)) >= -1e-15)

    def test_v_shape_control_points(self):
        phi = relevance.from_points([(0.0, 1.0), (5.0, 0.0), (10.0, 1.0)])
        assert phi(5.0) == 0.0
        assert phi(0.0) == 1.0
        assert phi(10.0) == 1.0

    def test_interior_value_matches_scalar_hermite(self):
        phi = relevance.from_points([(0.0, 1.0), (5.0, 0.0), (10.0, 1.0)])
        expected = hermite_scalar(2.5, 0.0, 5.0, 1.0, 0.0, 0.0, 0.0)
        assert phi(2.5) == pytest.approx(expected, abs=1e-14)
        assert phi(2.5) == pytest.approx(0.5, abs=1e-12)

    def test_duplicate_y_rejected(self):
        with pytest.raises(ValidationError):
            relevance.from_points([(1.0, 0.0), (1.0, 1.0)])

    def test_out_of_range_relevance_rejected(self):
        with pytest.raises(ValidationError):
            relevance.from_points([(0.0, 0.0), (1.0, 1.2)])

    def test_single_point_rejected(self):
        with pytest.raises(ValidationError):
            relevance.from_points([(0.0, 0.5)])

    def test_slope_override_is_limited(self):
        # a wild slope cannot push the interpolant outside the band
        phi = relevance.from_points([(0.0, 0.0), (1.0, 1.0)], slopes=[50.0, 50.0])
        xs = np.linspace(0.0, 1.0, 500)
        vals = phi(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) >= -1e-12)


class TestEvaluate:
    def test_constant_extrapolation(self):
        phi = relevance.from_points([(0.0, 0.3), (1.0, 0.8)])
        assert phi(-100.0) == 0.3
        assert phi(100.0) == 0.8

    def test_non_finite_input_rejected(self):
        phi = relevance.from_points([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(InputError):
            phi(float("nan"))
        with pytest.raises(InputError):
            phi(np.array([0.5, np.inf]))

    def test_vectorized_matches_dense_scalar_sweep(self, rng):
        # refactoring oracle: per-point scalar evaluation on the right segment
        pts = [(-2.0, 1.0), (0.0, 0.1), (1.5, 0.4), (4.0, 1.0)]
        phi = relevance.from_points(pts)
        xs = np.sort(rng.uniform(-4.0, 6.0, 300))
        vec = phi(xs)
        y = phi.y
        for x, got in zip(xs, vec):
            if x <= y[0]:
                want = phi.rel[0]
            elif x >= y[-1]:
                want = phi.rel[-1]
            else:
                k = int(np.searchsorted(y, x, side="right") - 1)
                want = hermite_scalar(
                    x, y[k], y[k + 1], phi.rel[k], phi.rel[k + 1],
                    phi.slope[k], phi.slope[k + 1],
                )
                want = min(1.0, max(0.0, want))
            assert got == pytest.approx(want, abs=1e-12)

    def test_passes_through_every_control_point(self):
        pts = [(-1.0, 0.9), (0.5, 0.2), (2.0, 0.0), (3.0, 1.0)]
        phi = relevance.from_points(pts)
        for yv, rv in pts:
            assert phi(yv) == pytest.approx(rv, abs=1e-15)

    def test_flat_between_equal_relevances(self):
        phi = relevance.from_points([(0.0, 0.6), (1.0, 0.6), (2.0, 0.0)])
        xs = np.linspace(0.0, 1.0, 50)
        assert np.allclose(phi(xs), 0.6, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    ys=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=2, max_size=8, unique=True,
    ),
    data=st.data(),
)
def test_range_invariant_on_random_control_points(ys, data):
    ys = sorted(ys)
    if min(b - a for a, b in zip(ys[:-1], ys[1:])) < 1e-6:
        return
    rels = [data.draw(st.floats(min_value=0, max_value=1)) for _ in ys]
    phi = relevance.from_points(list(zip(ys, rels)))
    span = ys[-1] - ys[0]
    xs = np.linspace(ys[0] - 2 * span, ys[-1] + 2 * span, 400)
    vals = phi(xs)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    # segment-wise: no overshoot beyond either endpoint relevance
    for k in range(len(ys) - 1):
        seg = np.linspace(ys[k], ys[k + 1], 60)
        v = phi(seg)
        lo, hi = min(rels[k], rels[k + 1]), max(rels[k], rels[k + 1])
        assert np.all(v >= lo - 1e-12) and np.all(v <= hi + 1e-12)


def test_save_and_load_round_trip(tmp_path, rng):
    phi = relevance.from_points([(0.0, 1.0), (2.0, 0.0), (7.0, 0.9)])
    path = tmp_path / "rel.csv"
    path.write_text("y,relevance\n0.0,1.0\n2.0,0.0\n7.0,0.9\n", encoding="utf-8")
    phi2 = relevance.load_points(path)
    xs = rng.uniform(-1, 8, 100)
    assert np.array_equal(phi(xs), phi2(xs))


def test_blank_rows_skipped(tmp_path, rng):
    phi = relevance.from_points([(0.0, 1.0), (2.0, 0.0), (7.0, 0.9)])
    path = tmp_path / "rel.csv"
    path.write_text("y,relevance\n\n0.0,1.0\n2.0,0.0\n\n7.0,0.9\n\n", encoding="utf-8")
    xs = rng.uniform(-1, 8, 100)
    assert np.array_equal(phi(xs), relevance.load_points(path)(xs))


@pytest.mark.parametrize("row", ["2.0,0.0,9", "2.0,0.0,", "2.0"],
                         ids=["three-cells", "trailing-comma", "one-cell"])
def test_row_of_other_than_two_cells_rejected(tmp_path, row):
    path = tmp_path / "rel.csv"
    path.write_text(f"y,relevance\n0.0,1.0\n{row}\n7.0,0.9\n", encoding="utf-8")
    message = f"bad relevance row {row.split(',')!r} in {path}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        relevance.load_points(path)
