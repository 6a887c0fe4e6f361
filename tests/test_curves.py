from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdiv import curves, dataset, losses, relevance
from interdiv.approx import ApproxParams
from interdiv.errors import InputError, InternalError, UndefinedMetricError

from conftest import (
    ParentIdLossObjective,
    brute_ser,
    layout_cases,
    make_instance,
    parent_build,
    parent_idloss_from_curves,
)


class TestHelpers:
    def test_normalize_divides_and_is_zero_where_empty(self, rng):
        ser = rng.random(50) * 10.0
        count = rng.integers(0, 4, size=50)
        out = curves.normalize(ser, count)
        assert np.array_equal(out, np.divide(ser, count, out=np.zeros(50), where=count > 0))
        assert np.all(out[count == 0] == 0.0)

    def test_require_two_groups_names_its_subject(self):
        ds = dataset.from_arrays(np.zeros((3, 1)), [1.0, 2.0, 3.0], [[1], [1], [0]])
        curves.require_two_groups(ds, "a measure")
        with pytest.raises(UndefinedMetricError,
                           match="^a measure needs at least 2 populated groups$"):
            curves.require_two_groups(ds.subset([0, 1]), "a measure")


class TestBuild:
    def test_perfect_predictions_give_zero_curves(self, rng):
        ds, phi, _ = make_instance(rng, n=30)
        cs = curves.build(ds, ds.targets.copy(), phi)
        assert np.all(cs.ser == 0.0)
        for g in range(ds.n_groups):
            ser_v, _ = cs.values_at(np.linspace(0, 1, 11), g)
            assert np.all(ser_v == 0.0)

    def test_single_sample_step(self):
        ds = dataset.from_arrays(np.zeros((1, 1)), [2.0], [[1]])
        phi = relevance.from_points([(0.0, 0.0), (5.0, 1.0)])
        r = float(phi(2.0))
        e2 = 1.44
        cs = curves.build(ds, np.array([2.0 + 1.2]), phi)
        below = np.linspace(0.0, r, 7)
        ser_v, cnt_v = cs.values_at(below, 0)
        assert np.allclose(ser_v, e2, atol=1e-12)
        assert np.all(cnt_v == 1)
        above = np.linspace(np.nextafter(r, 1.0), 1.0, 7)
        ser_v, cnt_v = cs.values_at(above, 0)
        assert np.all(ser_v == 0.0)
        assert np.all(cnt_v == 0)

    def test_grid_values_match_brute_force(self, rng):
        ds, phi, preds = make_instance(rng, n=50)
        cs = curves.build(ds, preds, phi)
        grid = np.linspace(0.0, 1.0, 1001)
        for g in range(ds.n_groups):
            ser_v, cnt_v = cs.values_at(grid, g)
            for t, s, c in zip(grid, ser_v, cnt_v):
                bs, bc = brute_ser(ds, preds, phi, t, g)
                assert s == pytest.approx(bs, rel=1e-12, abs=1e-12)
                assert c == bc

    def test_non_finite_prediction_names_index(self, rng):
        ds, phi, preds = make_instance(rng, n=12)
        preds[7] = np.nan
        with pytest.raises(InputError, match="7"):
            curves.build(ds, preds, phi)

    def test_length_mismatch_rejected(self, rng):
        ds, phi, preds = make_instance(rng, n=12)
        with pytest.raises(InputError):
            curves.build(ds, preds[:-1], phi)

    def test_monotone_step_property(self, rng):
        ds, phi, preds = make_instance(rng, n=60)
        cs = curves.build(ds, preds, phi)
        assert np.all(np.diff(cs.ser, axis=1) <= 1e-12)
        assert np.all(np.diff(cs.count, axis=1) <= 0)

    def test_decomposition_group_sum_equals_pooled(self, rng):
        ds, phi, preds = make_instance(rng, n=45)
        cs = curves.build(ds, preds, phi)
        pooled = dataset.from_arrays(
            ds.features, ds.targets, np.ones((ds.n, 1), dtype=np.uint8)
        )
        cs_pooled = curves.build(pooled, preds, phi)
        assert np.array_equal(cs.breakpoints, cs_pooled.breakpoints)
        assert np.allclose(cs.ser.sum(axis=0), cs_pooled.ser[0], rtol=1e-12, atol=1e-12)
        assert np.array_equal(cs.count.sum(axis=0), cs_pooled.count[0])


class TestAgainstPerCallBuild:
    """The layout and the objectives on it against the per-call build they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(case=layout_cases())
    def test_bit_identical(self, case):
        ds, phi, preds_seq = case
        pairs = [
            (losses.IdLossObjective(ds, phi), ParentIdLossObjective(ds, phi)),
            (losses.IdLossObjective(ds, phi, approx_params=ApproxParams()),
             ParentIdLossObjective(ds, phi, approx_params=ApproxParams())),
        ]
        populated = np.count_nonzero(ds.group_counts()) >= 2
        for preds in preds_seq:
            cs = curves.build(ds, preds, phi)
            ref = parent_build(ds, preds, phi)
            assert np.array_equal(cs.breakpoints, ref.breakpoints)
            assert np.array_equal(cs.ser, ref.ser)
            assert np.array_equal(cs.count, ref.count)
            for g in range(ds.n_groups):
                for got, want in zip(cs.values_at(ref.breakpoints, g),
                                     ref.values_at(ref.breakpoints, g)):
                    assert np.array_equal(got, want)
            assert curves.sera(ds, preds, phi) == float(
                np.sum(ref.sample_relevance * ref.sample_sq_error))
            for obj, oracle in pairs:
                if not populated:
                    with pytest.raises(UndefinedMetricError):
                        obj.grad_hess(preds)
                    with pytest.raises(UndefinedMetricError):
                        oracle.grad_hess(preds)
                    continue
                gh = obj.grad_hess(preds)
                grad, hess = oracle.grad_hess(preds)
                assert np.array_equal(gh.grad, grad)
                assert np.array_equal(gh.hess, hess)
                assert gh.value == losses.idloss_value(ds, preds, phi)
                assert gh.value == parent_idloss_from_curves(ref)
        for obj, oracle in pairs:
            assert obj.eval_points == oracle.eval_points
            assert obj.region_switches == oracle.region_switches


class TestIntegrateStep:
    def test_constant(self):
        assert curves.integrate_step([3.5, 3.5], [0.0, 0.4, 1.0]) == pytest.approx(3.5)

    def test_two_piece(self):
        assert curves.integrate_step([2.0, 0.0], [0.0, 0.5, 1.0]) == pytest.approx(1.0)

    def test_trailing_value_at_last_breakpoint_ignored(self):
        assert curves.integrate_step([2.0, 0.0, 99.0], [0.0, 0.5, 1.0]) == pytest.approx(1.0)

    def test_unsorted_breakpoints_rejected(self):
        with pytest.raises(InternalError):
            curves.integrate_step([1.0, 1.0], [0.0, 0.7, 0.3])

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(InternalError):
            curves.integrate_step([1.0], [0.0, 0.5, 1.0])

    @settings(max_examples=50, deadline=None)
    @given(
        vals=st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_within_midpoint_rule_error_bound(self, vals, data):
        # a midpoint grid can misattribute at most half a cell per jump
        cuts = sorted(
            data.draw(
                st.lists(
                    st.floats(min_value=1e-3, max_value=1 - 1e-3),
                    min_size=len(vals) - 1,
                    max_size=len(vals) - 1,
                    unique=True,
                )
            )
        )
        bp = np.array([0.0, *cuts, 1.0])
        v = np.array(vals)
        exact = curves.integrate_step(v, bp)
        step = 1e-4
        mids = np.arange(step / 2, 1.0, step)
        idx = np.clip(np.searchsorted(bp, mids, side="right") - 1, 0, len(v) - 1)
        approx = float(v[idx].sum() * step)
        bound = float(np.abs(np.diff(v)).sum()) * step / 2
        assert abs(approx - exact) <= bound + 1e-9

    def test_matches_dense_grid_on_random_step(self, rng):
        for _ in range(20):
            k = int(rng.integers(3, 15))
            bp = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, k)), [1.0]])
            v = rng.uniform(1, 5, k + 1)
            exact = curves.integrate_step(v, bp)
            step = 1e-4
            mids = np.arange(step / 2, 1.0, step)
            idx = np.clip(np.searchsorted(bp, mids, side="right") - 1, 0, len(v) - 1)
            approx = float(v[idx].sum() * step)
            assert approx == pytest.approx(exact, rel=2e-4, abs=2e-4)


class TestSera:
    def test_flat_relevance_reduces_to_sse(self, rng):
        ds, _, preds = make_instance(rng, n=40)
        phi1 = relevance.from_points([(-100.0, 1.0), (100.0, 1.0)])
        sse = float(np.sum((preds - ds.targets) ** 2))
        assert curves.sera(ds, preds, phi1) == pytest.approx(sse, rel=1e-12)

    def test_perfect_predictions(self, rng):
        ds, phi, _ = make_instance(rng, n=40)
        assert curves.sera(ds, ds.targets.copy(), phi) == 0.0

    def test_closed_form_matches_event_sweep(self, rng):
        for _ in range(50):
            ds, phi, preds = make_instance(rng, n=100)
            a = curves.sera(ds, preds, phi)
            b = curves.sera_from_curves(curves.build(ds, preds, phi))
            assert b == pytest.approx(a, rel=1e-10)

    def test_adding_sample_adds_relevance_weighted_error(self, rng):
        ds, phi, preds = make_instance(rng, n=30)
        base = curves.sera(ds, preds, phi)
        new_y = float(rng.normal(0, 2))
        new_pred = new_y + 0.7
        ds2 = dataset.from_arrays(
            np.vstack([ds.features, np.zeros((1, ds.features.shape[1]))]),
            np.concatenate([ds.targets, [new_y]]),
            np.vstack([ds.protected, ds.protected[:1]]),
        )
        grown = curves.sera(ds2, np.concatenate([preds, [new_pred]]), phi)
        assert grown - base == pytest.approx(float(phi(new_y)) * 0.7**2, abs=1e-10)


def test_export_curves_format(tmp_path, rng):
    ds, phi, preds = make_instance(rng, n=20)
    cs = curves.build(ds, preds, phi)
    path = tmp_path / "curves.csv"
    curves.export_curves(cs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,group,ser,count,normalized_ser"
    assert len(lines) == 1 + ds.n_groups * len(cs.breakpoints)
    t, g, s, c, nrm = lines[1].split(",")
    assert float(t) == 0.0 and int(g) == 0
    assert float(s) >= 0 and int(c) >= 0 and float(nrm) >= 0


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_export_curves_in_small_blocks(tmp_path, rng, block_rows):
    ds, phi, preds = make_instance(rng, n=20)
    cs = curves.build(ds, preds, phi)
    curves.export_curves(cs, tmp_path / "one.csv")
    with mock.patch.object(dataset, "BLOCK_ROWS", block_rows):
        curves.export_curves(cs, tmp_path / "blocks.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
