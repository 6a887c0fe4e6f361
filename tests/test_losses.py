import time

import numpy as np
import pytest

from interdiv import curves, dataset, losses, relevance
from interdiv.curves import argmin_pattern
from interdiv.errors import InputError, UndefinedMetricError, ValidationError

from conftest import appendix_instance, grid_idloss, make_instance


def pattern_of(ds, preds, phi):
    return argmin_pattern(curves.build(ds, preds, phi))


def fd_grad(value_fn, preds, j, h=1e-6):
    up = preds.copy()
    up[j] += h
    dn = preds.copy()
    dn[j] -= h
    return (value_fn(up) - value_fn(dn)) / (2 * h)


class TestIdLossValue:
    def test_flat_relevance_two_groups(self):
        ds, phi = appendix_instance()
        v = losses.idloss_value(ds, np.array([1.2, 2.2, 3.3, 3.9]), phi)
        # normalized errors 0.04 and 0.05; only the non-minimal group counts
        assert v == pytest.approx(0.05, abs=1e-12)

    def test_perfect_predictions_give_zero(self):
        ds, phi = appendix_instance()
        assert losses.idloss_value(ds, np.array([1.0, 2.0, 3.0, 4.0]), phi) == 0.0

    def test_three_group_value_matches_grid_oracle(self, rng):
        for _ in range(5):
            ds, phi, preds = make_instance(rng, n=36, n_attrs=2, uniform_noise=True)
            exact = losses.idloss_value(ds, preds, phi)
            approx = grid_idloss(ds, preds, phi, step=1e-4)
            assert approx == pytest.approx(exact, rel=2e-4, abs=1e-7)

    def test_single_group_rejected(self, rng):
        ds, phi, preds = make_instance(rng, n=20)
        pooled = dataset.from_arrays(
            ds.features, ds.targets, np.ones((ds.n, 1), dtype=np.uint8)
        )
        with pytest.raises(UndefinedMetricError):
            losses.idloss_value(pooled, preds, phi)

    def test_nonconvexity_witness(self):
        ds, phi = appendix_instance()
        a = np.array([1.2, 2.2, 3.3, 3.9])
        b = np.array([0.8, 1.8, 2.7, 4.1])
        la = losses.idloss_value(ds, a, phi)
        lb = losses.idloss_value(ds, b, phi)
        lmid = losses.idloss_value(ds, 0.5 * a + 0.5 * b, phi)
        assert la == pytest.approx(0.05, abs=1e-12)
        assert lb == pytest.approx(0.05, abs=1e-12)
        assert lmid == pytest.approx(0.0, abs=1e-12)
        assert lmid < 0.5 * la + 0.5 * lb  # convexity violated


class TestIdLossGradHess:
    def test_minimal_group_sample_has_zero_grad_and_floored_hess(self):
        ds, phi = appendix_instance()
        gh = losses.idloss_gradhess(ds, np.array([1.2, 2.2, 3.3, 3.9]), phi)
        # samples 0,1 sit in the group that is best at every cutoff
        assert gh.grad[0] == 0.0 and gh.grad[1] == 0.0
        assert gh.hess[0] == losses.DEFAULT_HESS_FLOOR
        assert gh.hess[1] == losses.DEFAULT_HESS_FLOOR

    def test_closed_form_flat_relevance(self):
        # with flat relevance the weight is 1/group size for the worse group
        ds, phi = appendix_instance()
        preds = np.array([1.2, 2.2, 3.3, 3.9])
        gh = losses.idloss_gradhess(ds, preds, phi)
        assert gh.grad[2] == pytest.approx(2 * 0.3 / 2, abs=1e-14)
        assert gh.grad[3] == pytest.approx(2 * (-0.1) / 2, abs=1e-14)
        assert gh.hess[2] == pytest.approx(1.0, abs=1e-14)

    def test_finite_difference_within_region(self, rng):
        checked = 0
        for _ in range(8):
            ds, phi, preds = make_instance(rng, n=50, n_attrs=2, uniform_noise=True)
            gh = losses.idloss_gradhess(ds, preds, phi)
            base = pattern_of(ds, preds, phi)
            h = 1e-6
            for j in rng.choice(ds.n, 8, replace=False):
                up = preds.copy()
                up[j] += h
                dn = preds.copy()
                dn[j] -= h
                if not (
                    np.array_equal(pattern_of(ds, up, phi), base)
                    and np.array_equal(pattern_of(ds, dn, phi), base)
                ):
                    continue  # perturbation crosses a region boundary
                fd = fd_grad(lambda p: losses.idloss_value(ds, p, phi), preds, j, h)
                assert fd == pytest.approx(gh.grad[j], abs=1e-5)
                checked += 1
        assert checked >= 30

    def test_weight_bounds(self, rng):
        ds, phi, preds = make_instance(rng, n=60)
        cs = curves.build(ds, preds, phi)
        w = losses.idloss_sample_weights(cs)
        assert np.all(w >= 0.0)
        rel = cs.sample_relevance
        for j in range(ds.n):
            g = cs.sample_group[j]
            reach = cs.breakpoints[1:] <= rel[j] + 1e-15
            populated = cs.count[g] > 0
            live = reach & populated
            if live.any():
                bound = rel[j] / cs.count[g][live].min()
                assert w[j] <= bound + 1e-12
            else:
                assert w[j] == 0.0

    def test_within_region_lipschitz_bound(self, rng):
        # inside one region the gradient map is linear with diagonal 2 W_j,
        # so the empirical ratio is bounded by sqrt(sum (2 W_j)^2)
        ds, phi, preds = make_instance(rng, n=40, uniform_noise=True)
        cs = curves.build(ds, preds, phi)
        w = losses.idloss_sample_weights(cs)
        L = float(np.sqrt(np.sum((2.0 * w) ** 2)))
        base = pattern_of(ds, preds, phi)
        gh0 = losses.idloss_gradhess(ds, preds, phi)
        pairs = 0
        for _ in range(40):
            other = preds + rng.uniform(-1e-4, 1e-4, ds.n)
            if not np.array_equal(pattern_of(ds, other, phi), base):
                continue
            gh1 = losses.idloss_gradhess(ds, other, phi)
            num = np.linalg.norm(gh1.grad - gh0.grad)
            den = np.linalg.norm(other - preds)
            assert num <= L * den + 1e-12
            pairs += 1
        assert pairs >= 10

    def test_gradient_cost_linear_in_n(self, rng):
        # slope of log time vs log n stays near 1 (sorting adds a log factor)
        ns = (10**3, 10**4, 10**5)
        times = []
        for n in ns:
            y = rng.normal(0, 2, n)
            prot = rng.integers(0, 2, (n, 2))
            prot[:4] = [[0, 0], [0, 1], [1, 0], [1, 1]]
            ds = dataset.from_arrays(rng.normal(size=(n, 2)), y, prot)
            phi = relevance.from_boxplot(y)
            preds = y + rng.normal(0, 1, n)
            losses.idloss_gradhess(ds, preds, phi)  # warm-up
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                losses.idloss_gradhess(ds, preds, phi)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        slope = np.polyfit(np.log(ns), np.log(times), 1)[0]
        assert slope < 1.35, f"gradient cost grows superlinearly: slope={slope:.2f}"


    def test_best_group_pattern_found_once_per_round(self, rng, monkeypatch):
        ds, phi, preds = make_instance(rng, n=50)
        obj = losses.IdLossObjective(ds, phi)
        calls = []

        def counted(cs):
            calls.append(cs)
            return argmin_pattern(cs)

        monkeypatch.setattr(losses, "argmin_pattern", counted)
        obj.grad_hess(preds)
        assert len(calls) == 1


class TestFastPath:
    @staticmethod
    def _dominated_instance(rng, n_half=60):
        # mirrored targets so both groups share every breakpoint, and one
        # group's error dominates at every cutoff: the best-group pattern
        # is constant, so the coarse sweep must reproduce W exactly
        y = np.linspace(-3.0, 3.0, n_half)
        targets = np.tile(y, 2)
        prot = np.array([[1]] * n_half + [[0]] * n_half)
        ds = dataset.from_arrays(np.zeros((2 * n_half, 1)), targets, prot)
        phi = relevance.from_boxplot(targets)
        preds = targets + np.concatenate([np.full(n_half, 0.01), np.full(n_half, 1.0)])
        return ds, phi, preds

    def test_matches_exact_weights_when_pattern_constant(self, rng):
        from interdiv.approx import ApproxParams

        ds, phi, preds = self._dominated_instance(rng)
        exact = losses.IdLossObjective(ds, phi)
        fast = losses.IdLossObjective(ds, phi, approx_params=ApproxParams())
        gh_e = exact.grad_hess(preds)
        gh_f = fast.grad_hess(preds)
        assert np.allclose(gh_f.grad, gh_e.grad, atol=1e-12)
        assert np.allclose(gh_f.hess, gh_e.hess, atol=1e-12)

    def test_sweeps_fewer_points_than_exact(self, rng):
        from interdiv.approx import ApproxParams

        ds, phi, preds = make_instance(rng, n=400, n_attrs=1)
        exact = losses.IdLossObjective(ds, phi)
        fast = losses.IdLossObjective(ds, phi, approx_params=ApproxParams())
        exact.grad_hess(preds)
        fast.grad_hess(preds)
        assert fast.eval_points < exact.eval_points

    def test_region_switch_counter(self):
        ds, phi = appendix_instance()
        obj = losses.IdLossObjective(ds, phi)
        a = np.array([1.2, 2.2, 3.3, 3.9])  # group of samples 3,4 is worse
        b = np.array([1.3, 2.3, 3.01, 3.99])  # group of samples 1,2 is worse
        obj.grad_hess(a)
        assert obj.region_switches == 0
        obj.grad_hess(a)
        assert obj.region_switches == 0
        obj.grad_hess(b)
        assert obj.region_switches == 1

    def test_objective_matches_module_function(self, rng):
        ds, phi, preds = make_instance(rng, n=50)
        obj = losses.IdLossObjective(ds, phi)
        gh_obj = obj.grad_hess(preds)
        gh_fn = losses.idloss_gradhess(ds, preds, phi)
        assert np.array_equal(gh_obj.grad, gh_fn.grad)
        assert np.array_equal(gh_obj.hess, gh_fn.hess)


class TestSera:
    def test_zero_relevance_sample_exerts_no_pull(self, rng):
        ds, _, preds = make_instance(rng, n=30)
        phi = relevance.from_boxplot(ds.targets)
        gh = losses.sera_gradhess(ds, preds, phi)
        rel = phi(ds.targets)
        dead = rel == 0.0
        assert np.all(gh.grad[dead] == 0.0)
        assert np.all(gh.hess[dead] == 0.0)

    def test_flat_relevance_is_twice_mse(self, rng):
        ds, _, preds = make_instance(rng, n=30)
        phi1 = relevance.from_points([(-100.0, 1.0), (100.0, 1.0)])
        gh_sera = losses.sera_gradhess(ds, preds, phi1)
        gh_mse = losses.MseObjective(ds).grad_hess(preds)
        assert np.allclose(gh_sera.grad, 2.0 * gh_mse.grad, atol=1e-14)
        assert np.allclose(gh_sera.hess, 2.0 * gh_mse.hess, atol=1e-14)

    def test_finite_difference(self, rng):
        ds, phi, preds = make_instance(rng, n=50)
        gh = losses.sera_gradhess(ds, preds, phi)
        for j in rng.choice(ds.n, 10, replace=False):
            fd = fd_grad(lambda p: losses.sera_value(ds, p, phi), preds, j, 1e-5)
            assert fd == pytest.approx(gh.grad[j], abs=1e-5)


class TestMseHuber:
    def test_zero_residual_zero_grad(self, rng):
        ds, _, _ = make_instance(rng, n=20)
        gh = losses.MseObjective(ds).grad_hess(ds.targets.copy())
        assert np.all(gh.grad == 0.0)
        gh = losses.HuberObjective(ds, delta=1.0).grad_hess(ds.targets.copy())
        assert np.all(gh.grad == 0.0)

    def test_huber_clips_gradient_in_linear_zone(self, rng):
        ds, _, _ = make_instance(rng, n=10)
        preds = ds.targets + 50.0
        gh = losses.HuberObjective(ds, delta=0.5).grad_hess(preds)
        assert np.allclose(np.abs(gh.grad), 0.5)
        assert np.all(gh.hess == losses.DEFAULT_HESS_FLOOR)

    def test_finite_difference(self, rng):
        ds, _, preds = make_instance(rng, n=40)
        mse = losses.MseObjective(ds)
        gh = mse.grad_hess(preds)
        for j in rng.choice(ds.n, 8, replace=False):
            fd = fd_grad(mse.value, preds, j, 1e-6)
            assert fd == pytest.approx(gh.grad[j], abs=1e-6, rel=1e-6)
        delta = 0.8
        huber = losses.HuberObjective(ds, delta=delta)
        gh = huber.grad_hess(preds)
        resid = np.abs(preds - ds.targets)
        for j in rng.choice(ds.n, 8, replace=False):
            if abs(resid[j] - delta) < 1e-4:
                continue  # kink of the loss; one-sided derivatives differ
            fd = fd_grad(huber.value, preds, j, 1e-6)
            assert fd == pytest.approx(gh.grad[j], abs=1e-6, rel=1e-6)

    def test_huber_loss_matches_both_branch_formula(self, rng):
        ds, _, preds = make_instance(rng, n=40)
        for delta in (0.3, 1.0, 5.0):
            r = preds - ds.targets
            a = np.abs(r)
            both = np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))
            assert losses.HuberObjective(ds, delta=delta).value(preds) == float(np.sum(both))

    def test_huge_delta_evaluates_without_overflow(self, rng):
        ds, _, preds = make_instance(rng, n=20)
        with np.errstate(all="raise"):
            value = losses.HuberObjective(ds, delta=1e308).value(preds)
        assert value == losses.MseObjective(ds).value(preds)

    def test_nonpositive_delta_rejected(self, rng):
        ds, _, _ = make_instance(rng, n=10)
        with pytest.raises(ValidationError):
            losses.HuberObjective(ds, delta=0.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_delta_rejected(self, rng, delta):
        ds, _, _ = make_instance(rng, n=10)
        with pytest.raises(ValidationError, match="finite"):
            losses.HuberObjective(ds, delta=delta)


class TestGradHessContainer:
    def test_rejects_negative_hessian(self):
        with pytest.raises(InputError):
            losses.GradHess(grad=np.zeros(3), hess=np.array([1.0, -0.1, 0.0]), value=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            losses.GradHess(grad=np.array([np.inf]), hess=np.ones(1), value=0.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError):
            losses.GradHess(grad=np.zeros(3), hess=np.zeros(2), value=0.0)


class TestObjectiveFactory:
    def test_known_names(self, rng):
        ds, phi, preds = make_instance(rng, n=20)
        for name in losses.OBJECTIVE_NAMES:
            obj = losses.make_objective(name, ds, phi=phi)
            assert obj.name == name
            gh = obj.grad_hess(preds)
            assert gh.grad.shape == (ds.n,)
            assert np.isfinite(obj.value(preds))
            assert gh.value == obj.value(preds)

    def test_unknown_name_rejected(self, rng):
        ds, phi, _ = make_instance(rng, n=10)
        with pytest.raises(ValidationError):
            losses.make_objective("logcosh", ds, phi)

    def test_sera_requires_relevance(self, rng):
        ds, _, _ = make_instance(rng, n=10)
        with pytest.raises(TypeError, match="'phi'"):
            losses.make_objective("sera", ds)
