import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdiv import approx, curves, dataset, gbt, idboost, losses, metrics, relevance
from interdiv import curves as curves_mod
from interdiv.approx import _grid_intervals
from interdiv.errors import ParameterError, UndefinedMetricError

from conftest import (
    ParentIdLossObjective,
    dense_count,
    envelope,
    layout_cases,
    make_instance,
    parent_build,
    parent_simplify,
)


# The step-curve resampling and the divergence integral over simplified
# curves that the tests below check simplification against. Training uses
# neither, so they live here.
def resample_step(curves: curves_mod.SerCurveSet, grid: np.ndarray) -> np.ndarray:
    """Normalized curve values (all groups) on the interval each grid point falls in."""
    idx = _grid_intervals(curves.breakpoints, grid)
    return curves_mod.normalize(curves.ser[:, idx], dense_count(curves.layout)[:, idx])


def id_from_simplified(
    simplified: approx.SimplifiedCurveSet, curves: curves_mod.SerCurveSet
) -> float:
    """Divergence integral over the union of retained points.

    ``curves`` supplies only the (prediction-independent) count step
    functions that decide which groups are populated at a cutoff. Within
    each union segment, candidate curves are linear, so the max-min gap is
    integrated with the trapezoid rule on the segment endpoints.
    """
    grid = np.unique(np.concatenate([c.t for c in simplified.curves]))
    mid = 0.5 * (grid[:-1] + grid[1:])
    seg_len = np.diff(grid)
    # a count of 1 where populated makes each value its own normalized curve
    count = dense_count(curves.layout)[:, _grid_intervals(curves.breakpoints, mid)]
    count = (count > 0).astype(np.int64)

    def gap(ts):
        values = np.stack([np.interp(ts, c.t, c.value) for c in simplified.curves])
        env = envelope(values, count)
        return np.where(env.populated >= 2, env.high - env.low, 0.0)

    return float(np.sum(0.5 * (gap(grid[:-1]) + gap(grid[1:])) * seg_len))


def flat_relevance_instance(rng, n=40):
    """All relevances 1: every normalized curve is constant on [0, 1]."""
    y = rng.normal(0, 2, n)
    prot = rng.integers(0, 2, size=(n, 1))
    prot[:2] = [[0], [1]]
    ds = dataset.from_arrays(rng.normal(size=(n, 2)), y, prot)
    phi = relevance.from_points([(-100.0, 1.0), (100.0, 1.0)])
    preds = y + rng.normal(0, 1, n)
    return ds, phi, preds


def concave_instance(n=150):
    """One group whose normalized curve tracks 1 - t^2 on the cutoff axis."""
    phi = relevance.from_points([(0.0, 0.0), (1.0, 1.0)])
    y = np.linspace(0.0, 1.0, n)
    r = np.asarray(phi(y))
    suffix_counts = n - np.arange(n)
    suffix_sums = suffix_counts * (1.0 - r**2)
    e2 = suffix_sums - np.concatenate([suffix_sums[1:], [0.0]])
    preds = y + np.sqrt(np.maximum(e2, 0.0))
    ds = dataset.from_arrays(np.zeros((n, 1)), y, np.ones((n, 1), dtype=int))
    return ds, phi, preds, r


class TestParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            approx.ApproxParams(sigma=0.0)
        with pytest.raises(ParameterError):
            approx.ApproxParams(sigma=float("nan"))
        with pytest.raises(ParameterError):
            approx.ApproxParams(sigma=float("inf"))
        with pytest.raises(ParameterError):
            approx.ApproxParams(grid_step=1.5)

    def test_grid_step_floor(self):
        # a step of 1e-9 would ask for a 1e9-point grid when the grid is built
        with pytest.raises(ParameterError, match=r"grid_step must be in \[1e-4, 1\), got 1e-09"):
            approx.ApproxParams(grid_step=1e-9)
        with pytest.raises(ParameterError, match="got 9.9e-05"):
            approx.ApproxParams(grid_step=9.9e-5)
        assert approx.ApproxParams(grid_step=1e-4).grid_step == 1e-4

    @pytest.mark.parametrize("sigma", [1e-300, 5e-324])
    def test_tiny_sigma_blurs_nothing(self, rng, sigma):
        # the kernel's square overflows below about 1e-154 grid cells; the
        # kernel is then [0, 1, 0], and no RuntimeWarning is raised
        ds, phi, preds = make_instance(rng, n=40)
        params = approx.ApproxParams(sigma=sigma)
        sgrid = approx.SimplifyGrid(curves.CurveLayout(ds, phi), params)
        assert sgrid.kernel.tolist() == [0.0, 1.0, 0.0]
        assert np.array_equal(sgrid.edge, np.ones(len(sgrid.grid)))
        losses.IdLossObjective(ds, phi, approx_params=params).grad_hess(preds)

    def test_grid_coarser_than_support_rejected(self, rng):
        ds, phi, preds = flat_relevance_instance(rng)
        cs = curves.build(ds, preds, phi)
        with pytest.raises(ParameterError):
            approx.simplify(cs, approx.ApproxParams(grid_step=0.9))

    @pytest.mark.parametrize("params", [
        approx.ApproxParams(grid_step=0.9),
        approx.ApproxParams(sigma=0.25, grid_step=1e-2),
    ], ids=["grid_coarser_than_support", "kernel_wider_than_grid"])
    def test_bad_params_fail_at_objective_construction(self, rng, params):
        ds, phi, _ = make_instance(rng, n=40)
        with pytest.raises(ParameterError):
            losses.IdLossObjective(ds, phi, approx_params=params)


class TestSimplify:
    def test_constant_curve_keeps_only_endpoints(self, rng):
        ds, phi, preds = flat_relevance_instance(rng)
        cs = curves.build(ds, preds, phi)
        simp = approx.simplify(cs, approx.ApproxParams())
        grid = np.linspace(0, 1, 101)
        resampled = resample_step(cs, grid)
        for g, sc in enumerate(simp.curves):
            assert len(sc.t) == 2
            assert np.allclose(np.interp(grid, sc.t, sc.value), resampled[g], atol=1e-12)

    def test_concave_curve_keeps_at_most_three_points(self):
        ds, phi, preds, _ = concave_instance()
        cs = curves.build(ds, preds, phi)
        params = approx.ApproxParams(sigma=2e-2, grid_step=1e-3)
        simp = approx.simplify(cs, params)
        sc = simp.curves[0]
        assert len(sc.t) <= 3
        # reconstruction bounded by the analytic chord deviation of 1 - t^2
        # plus twice the step-curve discretization gap
        grid = np.linspace(0, 1, 1001)
        resampled = resample_step(cs, grid)[0]
        chord = 0.0
        for a, b in zip(sc.t[:-1], sc.t[1:]):
            slope = ((1 - b**2) - (1 - a**2)) / (b - a)
            tstar = -slope / 2
            if a <= tstar <= b:
                line = (1 - a**2) + slope * (tstar - a)
                chord = max(chord, (1 - tstar**2) - line)
        disc = np.abs(resampled - (1 - grid**2)).max()
        linf = np.abs(np.interp(grid, sc.t, sc.value) - resampled).max()
        assert linf <= chord + 2 * disc

    def test_retained_share_small_on_random_curves(self, rng):
        ds, phi, preds = make_instance(rng, n=200, n_attrs=1)
        cs = curves.build(ds, preds, phi)
        simp = approx.simplify(cs, approx.ApproxParams())
        for kept in (len(c.t) for c in simp.curves):
            assert 2 <= kept <= 0.15 * simp.grid_size

    def test_endpoints_preserved_exactly(self, rng):
        ds, phi, preds = make_instance(rng, n=80)
        cs = curves.build(ds, preds, phi)
        simp = approx.simplify(cs, approx.ApproxParams())
        resampled = resample_step(cs, np.array([0.0, 1.0]))
        for g, sc in enumerate(simp.curves):
            assert sc.t[0] == 0.0 and sc.t[-1] == 1.0
            assert sc.value[0] == resampled[g, 0]
            assert sc.value[-1] == resampled[g, 1]

    def test_curve_at_the_floor_is_not_padded(self):
        # the concave curve keeps 3 points on its own: both ends and one more
        ds, phi, preds, _ = concave_instance()
        cs = curves.build(ds, preds, phi)
        kept = approx.simplify(cs, approx.ApproxParams(sigma=2e-2)).curves[0].t
        assert len(kept) == 3


class TestIdFromSimplified:
    def test_constant_curves_reduce_to_exact_id(self, rng):
        # nothing is dropped on a constant curve, so the piecewise-linear
        # stand-in is the curve and the integral is exact
        ds, phi, preds = flat_relevance_instance(rng)
        cs = curves.build(ds, preds, phi)
        simp = approx.simplify(cs, approx.ApproxParams())
        exact = metrics.intersectional_divergence(cs)
        assert id_from_simplified(simp, cs) == pytest.approx(exact, abs=1e-10)

    def test_scenario_deviation_under_five_percent(self):
        ds, preds = dataset.synth_imbalanced_scenario(500, divergence=2.0, seed=0)
        phi = relevance.from_boxplot(ds.targets)
        cs = curves.build(ds, preds, phi)
        simp = approx.simplify(cs, approx.ApproxParams())
        exact = metrics.intersectional_divergence(cs)
        simplified = id_from_simplified(simp, cs)
        assert abs(simplified - exact) / exact < 0.05

    def test_refinement_deviation_nonincreasing(self):
        ds, preds = dataset.synth_imbalanced_scenario(400, divergence=2.0, seed=9)
        phi = relevance.from_boxplot(ds.targets)
        cs = curves.build(ds, preds, phi)
        exact = metrics.intersectional_divergence(cs)
        devs = []
        for step, sigma in [(4e-3, 4e-2), (1e-3, 1e-2), (2.5e-4, 2.5e-3)]:
            simp = approx.simplify(cs, approx.ApproxParams(sigma=sigma, grid_step=step))
            devs.append(abs(id_from_simplified(simp, cs) - exact))
        assert devs[0] >= devs[1] >= devs[2]


class TestBench:
    def test_zero_rounds_report(self):
        ds = dataset.synth_biased(200, seed=0, n_protected=1)
        phi = relevance.from_boxplot(ds.targets)
        rep = approx.bench_approx(ds, phi, approx.ApproxParams(), rounds=0, seed=0)
        assert rep.rounds == 0
        assert rep.eval_points_exact == 0 and rep.eval_points_fast == 0
        assert rep.time_exact < 5.0 and rep.time_fast < 5.0

    def test_deltas_match_recomputation_from_saved_predictions(self):
        ds = dataset.synth_biased(400, seed=1, n_protected=1)
        phi = relevance.from_boxplot(ds.targets)
        params = approx.ApproxParams()
        rep = approx.bench_approx(ds, phi, params, rounds=5, seed=1)
        # the report keeps no predictions: refit both arms on the same split
        # with the same parameters, which gives the same ensembles
        train, test = dataset.split(ds, 0.8, seed=1)
        boost = gbt.BoostParams(n_rounds=5, max_depth=3, l2_lambda=1e-6, seed=1)
        preds_exact = idboost.fit(train, phi, boost, 0.5).predict(test.features)
        preds_fast = idboost.fit(train, phi, boost, 0.5, approx_params=params).predict(
            test.features
        )
        assert curves.sera(test, preds_exact, phi) == rep.sera_exact
        assert curves.sera(test, preds_fast, phi) == rep.sera_fast
        assert curves.sera(test, preds_exact, phi) == pytest.approx(rep.sera_exact)
        assert curves.sera(test, preds_fast, phi) == pytest.approx(rep.sera_fast)
        cs_e = curves.build(test, preds_exact, phi)
        cs_f = curves.build(test, preds_fast, phi)
        assert metrics.intersectional_divergence(cs_e) == pytest.approx(rep.id_exact)
        assert metrics.intersectional_divergence(cs_f) == pytest.approx(rep.id_fast)
        want_pct = (rep.sera_fast - rep.sera_exact) / rep.sera_exact * 100
        assert rep.sera_delta_pct == pytest.approx(want_pct)

    def test_fast_mode_sweeps_fewer_points(self):
        ds = dataset.synth_biased(600, seed=2, n_protected=1)
        phi = relevance.from_boxplot(ds.targets)
        rep = approx.bench_approx(ds, phi, approx.ApproxParams(), rounds=5, seed=2)
        assert rep.eval_points_fast < rep.eval_points_exact


@st.composite
def simplify_cases(draw):
    """A ``layout_cases`` case, sometimes with flat relevance, and parameters."""
    ds, phi, preds = draw(layout_cases())
    if draw(st.integers(0, 3)) == 0:
        level = draw(st.sampled_from([0.0, 0.5, 1.0]))
        phi = relevance.from_points([(-100.0, level), (100.0, level)])
    params = approx.ApproxParams(
        sigma=draw(st.sampled_from([1e-3, 1e-2, 0.25])),
        grid_step=draw(st.sampled_from([1e-3, 1e-2, 0.25])),
    )
    return ds, phi, preds, params


class TestAgainstParentSimplify:
    """The per-layout grid against the per-group loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(case=simplify_cases())
    def test_bit_identical(self, case):
        ds, phi, preds_seq, params = case
        radius = max(1, int(round(4.0 * params.sigma / params.grid_step)))
        if 2 * radius + 1 > int(round(1.0 / params.grid_step)) + 1:
            # the old loop broke on the shape of the smoothed curve at the
            # first round; the grid refuses such a kernel when it is built
            with pytest.raises(ValueError):
                parent_simplify(parent_build(ds, preds_seq[0], phi), params)
            with pytest.raises(ParameterError):
                losses.IdLossObjective(ds, phi, approx_params=params)
            return
        obj = losses.IdLossObjective(ds, phi, approx_params=params)
        oracle = ParentIdLossObjective(ds, phi, approx_params=params)
        populated = np.count_nonzero(ds.group_counts()) >= 2
        for preds in preds_seq:
            got = approx.simplify(curves.build(ds, preds, phi), params)
            want = parent_simplify(parent_build(ds, preds, phi), params)
            assert got.grid_size == want.grid_size
            assert len(got.curves) == len(want.curves) == ds.n_groups
            for g, w in zip(got.curves, want.curves):
                assert np.array_equal(g.t, w.t)
                assert np.array_equal(g.value, w.value)
            if not populated:
                with pytest.raises(UndefinedMetricError):
                    obj.grad_hess(preds)
                continue
            gh = obj.grad_hess(preds)
            grad, hess = oracle.grad_hess(preds)
            assert np.array_equal(gh.grad, grad)
            # the oracle floors the Hessian itself; the objective leaves that to gbt.fit
            assert np.array_equal(np.maximum(gh.hess, gbt.DEFAULT_HESS_FLOOR), hess)
            assert gh.value == oracle.value(preds)
        assert obj.eval_points == oracle.eval_points
        assert obj.region_switches == oracle.region_switches
