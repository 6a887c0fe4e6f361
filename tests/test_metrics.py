import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdiv import curves, dataset, metrics, relevance
from interdiv.errors import InputError, UndefinedMetricError

from conftest import grid_id, make_instance, make_instance_combos


class TestIntersectionalDivergence:
    def test_identical_group_profiles_give_zero(self):
        # two groups with the same (target, error) multisets
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0] * 2)
        prot = np.array([[1]] * 5 + [[0]] * 5)
        ds = dataset.from_arrays(np.zeros((10, 1)), y, prot)
        phi = relevance.from_points([(0.0, 1.0), (2.0, 0.0), (4.0, 1.0)])
        errs = np.array([0.5, -0.2, 0.9, 0.1, -0.4] * 2)
        cs = curves.build(ds, y + errs, phi)
        assert metrics.intersectional_divergence(cs) == 0.0

    def test_scenario_blind_spot(self):
        ds, preds = dataset.synth_imbalanced_scenario(300, divergence=1.5, seed=4)
        phi = relevance.from_boxplot(ds.targets)
        cs = curves.build(ds, preds, phi)
        assert metrics.delta_bgl(ds, preds, 0) <= 1e-9
        assert metrics.intersectional_divergence(cs) > 0.01

    def test_three_group_value_matches_grid_oracle(self):
        rng = np.random.default_rng(808)
        combos = [[0, 0], [0, 1], [1, 0]]
        ds, phi, preds = make_instance_combos(rng, 30, combos)
        exact = metrics.intersectional_divergence(curves.build(ds, preds, phi))
        approx = grid_id(ds, preds, phi, step=1e-4)
        assert approx == pytest.approx(exact, rel=2e-4)

    def test_single_group_rejected(self, rng):
        ds, phi, preds = make_instance(rng, n=20)
        pooled = dataset.from_arrays(
            ds.features, ds.targets, np.ones((ds.n, 1), dtype=np.uint8)
        )
        with pytest.raises(UndefinedMetricError):
            metrics.intersectional_divergence(curves.build(pooled, preds, phi))

    def test_nonnegative_and_relabel_invariant(self, rng):
        for _ in range(10):
            ds, phi, preds = make_instance(rng, n=35)
            cs = curves.build(ds, preds, phi)
            v = metrics.intersectional_divergence(cs)
            assert v >= 0.0
            flipped = dataset.from_arrays(
                ds.features, ds.targets, 1 - ds.protected
            )
            cs2 = curves.build(flipped, preds, phi)
            assert metrics.intersectional_divergence(cs2) == pytest.approx(v, rel=1e-12)

    def test_quadratic_homogeneity(self, rng):
        ds, phi, preds = make_instance(rng, n=40)
        cs = curves.build(ds, preds, phi)
        base_id = metrics.intersectional_divergence(cs)
        base_sera = curves.sera(ds, preds, phi)
        c = 3.7
        scaled = ds.targets + c * (preds - ds.targets)
        cs2 = curves.build(ds, scaled, phi)
        assert metrics.intersectional_divergence(cs2) == pytest.approx(
            c**2 * base_id, rel=1e-10
        )
        assert curves.sera(ds, scaled, phi) == pytest.approx(
            c**2 * base_sera, rel=1e-10
        )


class TestDeltaBgl:
    def test_equal_group_mae_gives_zero(self):
        ds = dataset.from_arrays(np.zeros((4, 1)), [0.0] * 4, [[1], [1], [0], [0]])
        preds = np.array([1.0, -1.0, 1.0, -1.0])
        assert metrics.delta_bgl(ds, preds, 0) == 0.0

    def test_hand_computed_four_samples(self):
        ds = dataset.from_arrays(np.zeros((4, 1)), [0.0] * 4, [[1], [1], [0], [0]])
        preds = np.array([1.0, 3.0, 2.0, 8.0])
        # priv MAE (1+3)/2 = 2, unpriv (2+8)/2 = 5
        assert metrics.delta_bgl(ds, preds, 0) == pytest.approx(3.0)

    def test_scenario_equal_totals(self):
        ds, preds = dataset.synth_imbalanced_scenario(200, divergence=3.0, seed=0)
        assert metrics.delta_bgl(ds, preds, 0) <= 1e-9

    def test_one_sided_attribute_rejected(self):
        ds = dataset.from_arrays(np.zeros((3, 1)), [0.0] * 3, [[1], [1], [1]])
        with pytest.raises(UndefinedMetricError):
            metrics.delta_bgl(ds, np.zeros(3), 0)


class TestStatisticalParity:
    def test_identical_multisets_give_zero(self):
        ds = dataset.from_arrays(np.zeros((6, 1)), [0.0] * 6, [[1]] * 3 + [[0]] * 3)
        preds = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        assert metrics.statistical_parity(ds, preds, 0) == 0.0

    def test_separated_supports_give_one(self):
        ds = dataset.from_arrays(np.zeros((6, 1)), [0.0] * 6, [[1]] * 3 + [[0]] * 3)
        preds = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
        assert metrics.statistical_parity(ds, preds, 0) == 1.0

    def test_hand_example_one_third(self):
        # priv [1,2,3] vs unpriv [2,3,4]; brute-force sup over all step points
        a, b = np.array([1.0, 2.0, 3.0]), np.array([2.0, 3.0, 4.0])
        brute = max(
            abs(np.mean(a <= x) - np.mean(b <= x)) for x in np.concatenate([a, b])
        )
        assert brute == pytest.approx(1 / 3)
        assert metrics.ks_statistic(a, b) == pytest.approx(1 / 3)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        b=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
    )
    def test_bounds_and_symmetry(self, a, b):
        v = metrics.ks_statistic(a, b)
        assert 0.0 <= v <= 1.0
        assert metrics.ks_statistic(b, a) == pytest.approx(v, abs=1e-15)


class TestGroupMaeDeltaPct:
    @staticmethod
    def _fixture(cells):
        # cells: {(race, sex): (count, abs_err)}
        prot, preds = [], []
        for (r, s), (cnt, err) in cells.items():
            prot += [[r, s]] * cnt
            preds += [err] * cnt
        n = len(preds)
        ds = dataset.from_arrays(
            np.zeros((n, 1)), np.zeros(n), prot, protected_names=("race", "sex")
        )
        return ds, np.array(preds)

    def test_weighted_all_row_and_conditioned_deltas(self):
        # cell sizes chosen so the size-weighted All-row MAEs land exactly
        # on 0.275 / 0.320: (0.287*17 + 0.258*12)/29 and
        # (0.343*24 + 0.296*23)/47
        ds, preds = self._fixture({
            (1, 1): (17, 0.287), (1, 0): (12, 0.258),
            (0, 1): (24, 0.343), (0, 0): (23, 0.296),
        })
        table = metrics.group_mae_delta_pct(ds, preds, 0, 1)
        deltas = [round(r["delta_pct"], 1) for r in table["rows"]]
        assert deltas == [-14.1, -16.3, -12.8]
        assert table["rows"][1]["flag"] == "increase"
        assert table["rows"][2]["flag"] == "decrease"

    def test_positive_delta_means_unprivileged_favored(self):
        # privileged error higher -> positive percentage
        ds, preds = self._fixture({
            (1, 1): (1, 22203.0), (1, 0): (1, 22203.0),
            (0, 1): (1, 17505.0), (0, 0): (1, 17505.0),
        })
        table = metrics.group_mae_delta_pct(ds, preds, 0, 1)
        assert round(table["rows"][0]["delta_pct"], 1) == 26.8

    def test_equal_maes_give_zero(self):
        ds, preds = self._fixture({
            (1, 1): (2, 0.5), (1, 0): (2, 0.5), (0, 1): (2, 0.5), (0, 0): (2, 0.5),
        })
        table = metrics.group_mae_delta_pct(ds, preds, 0, 1)
        assert all(r["delta_pct"] == 0.0 for r in table["rows"])

    def test_empty_subgroup_flagged_not_raised(self):
        ds, preds = self._fixture({
            (1, 1): (2, 0.5), (0, 1): (2, 0.4), (1, 0): (2, 0.3),
        })
        # sex=0 side has no race-unprivileged samples
        table = metrics.group_mae_delta_pct(ds, preds, 0, 1)
        assert table["rows"][2]["flag"] == "empty-subgroup"
        assert table["rows"][2]["delta_pct"] is None


    def test_percentage_past_the_float_range_is_flagged(self):
        # an unprivileged MAE of 1e-300 against a privileged one of 5e9 or
        # 1e10: the ratio is 1e310, which printed as Infinity
        ds, preds = self._fixture({
            (1, 1): (2, 1e10), (1, 0): (2, 1e-300), (0, 1): (2, 1e-300), (0, 0): (2, 1e-300),
        })
        rows = metrics.group_mae_delta_pct(ds, preds, 0, 1)["rows"]
        assert [(r["delta_pct"], r["flag"]) for r in rows] == [
            (None, "overflow"), (None, "overflow"), (0.0, "")]

    def test_overflow_in_every_row_of_a_full_report(self):
        # 16 rows: unprivileged (a0 = 0) targets 0 predicted 1e-300 off,
        # privileged ones 1e10 off
        a0, a1 = np.repeat([1, 0], 8), np.tile([1, 0], 8)
        y = np.where(a0 == 1, np.arange(16.0), 0.0)
        preds = y + np.where(a0 == 1, 1e10, 1e-300)
        ds = dataset.from_arrays(np.zeros((16, 1)), y, np.column_stack([a0, a1]))
        phi = relevance.from_points([(0.0, 0.0), (20.0, 1.0)])
        report = metrics.full_report(ds, preds, phi)
        table = next(t for t in report.mae_delta_tables if t["measure_attribute"] == "a0")
        assert [(r["delta_pct"], r["flag"]) for r in table["rows"]] == [(None, "overflow")] * 3
        assert "Infinity" not in report.to_json() and "NaN" not in report.to_json()


class TestFullReport:
    def test_perfect_predictions(self, rng):
        ds, phi, _ = make_instance(rng, n=30)
        rep = metrics.full_report(ds, ds.targets.copy(), phi)
        assert rep.mse == 0.0 and rep.mae == 0.0
        assert rep.sera == 0.0 and rep.id == 0.0
        assert rep.delta_bgl == 0.0 and rep.sp is not None

    def test_scenario_report(self):
        ds, preds = dataset.synth_imbalanced_scenario(150, divergence=2.0, seed=6)
        phi = relevance.from_boxplot(ds.targets)
        rep = metrics.full_report(ds, preds, phi)
        assert rep.delta_bgl <= 1e-9
        assert rep.id > 0.0

    def test_aggregates_are_attribute_means(self, rng):
        ds, phi, preds = make_instance(rng, n=50, n_attrs=2)
        rep = metrics.full_report(ds, preds, phi)
        dbgl = [e["delta_bgl"] for e in rep.per_attribute]
        sp = [e["sp"] for e in rep.per_attribute]
        assert rep.delta_bgl == pytest.approx(np.mean(dbgl))
        assert rep.sp == pytest.approx(np.mean(sp))

    def test_json_round_trips_bit_identically(self, rng):
        ds, phi, preds = make_instance(rng, n=25)
        rep = metrics.full_report(ds, preds, phi)
        payload = rep.to_json()
        rehydrated = json.dumps(json.loads(payload), sort_keys=True)
        assert payload == rehydrated

    def test_group_mae_covers_catalog_with_empty_flagged(self, rng):
        ds, phi, preds = make_instance(rng, n=30)
        train, test = dataset.split(ds, 0.9, seed=2)
        rep = metrics.full_report(test, preds[: test.n], phi)
        assert len(rep.group_mae) == ds.n_groups
        for row in rep.group_mae:
            assert (row["mae"] is None) == (row["count"] == 0)

    def test_length_mismatch_rejected(self, rng):
        ds, phi, preds = make_instance(rng, n=30)
        with pytest.raises(InputError):
            metrics.full_report(ds, preds[:-2], phi)

