import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdiv import dataset, gbt, losses, relevance
from interdiv.errors import DegenerateObjectiveError, InputError, ValidationError

from conftest import make_instance, parent_grow_tree


def two_cluster_dataset():
    X = np.array([[0.0], [0.0], [0.0], [10.0], [10.0], [10.0]])
    y = np.array([1.0, 2.0, 3.0, 11.0, 12.0, 13.0])
    prot = np.array([[1], [1], [1], [0], [0], [0]])
    return dataset.from_arrays(X, y, prot)


class TestFit:
    def test_hand_newton_step_on_six_points(self):
        # depth 1, one round, eta 1, lambda 0: the tree must split at the
        # cluster boundary and each leaf carry the cluster residual mean
        ds = two_cluster_dataset()
        params = gbt.BoostParams(
            n_rounds=1, learning_rate=1.0, max_depth=1, l2_lambda=0.0
        )
        ens = gbt.fit(ds, losses.MseObjective(ds), params)
        tree = ens.trees[0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(5.0)
        leaf_vals = sorted(tree.value[tree.feature == -1])
        assert leaf_vals == pytest.approx([-5.0, 5.0])
        preds = ens.predict(ds.features)
        assert preds == pytest.approx([2.0, 2.0, 2.0, 12.0, 12.0, 12.0])

    def test_zero_rounds_is_constant_mean(self, rng):
        ds, _, _ = make_instance(rng, n=30)
        ens = gbt.fit(ds, losses.MseObjective(ds), gbt.BoostParams(n_rounds=0))
        preds = ens.predict(ds.features)
        assert np.allclose(preds, ds.targets.mean())

    def test_training_mse_nonincreasing(self, rng):
        ds, _, _ = make_instance(rng, n=80)
        params = gbt.BoostParams(n_rounds=25, learning_rate=0.3, max_depth=3,
                                 l2_lambda=0.0)
        ens = gbt.fit(ds, losses.MseObjective(ds), params)
        assert np.all(np.diff(ens.train_trace) <= 1e-9)

    def test_trace_holds_value_before_and_after_every_round(self, rng):
        ds, phi, _ = make_instance(rng, n=60)
        params = gbt.BoostParams(n_rounds=4, max_depth=2)
        for obj in (losses.MseObjective(ds), losses.SeraObjective(ds, phi),
                    losses.IdLossObjective(ds, phi)):
            ens = gbt.fit(ds, obj, params)
            preds = np.full(ds.n, ens.base_score)
            expected = [obj.value(preds)]
            for tree in ens.trees:
                preds = preds + params.learning_rate * tree.predict(ds.features)
                expected.append(obj.value(preds))
            assert ens.train_trace == expected

    def test_determinism(self, rng):
        ds, _, _ = make_instance(rng, n=60)
        params = gbt.BoostParams(n_rounds=10, max_depth=3, seed=5)
        e1 = gbt.fit(ds, losses.MseObjective(ds), params)
        e2 = gbt.fit(ds, losses.MseObjective(ds), params)
        assert np.array_equal(e1.predict(ds.features), e2.predict(ds.features))
        assert e1.to_dict() == e2.to_dict()

    def test_min_child_hessian_respected(self, rng):
        ds, _, _ = make_instance(rng, n=50)
        params = gbt.BoostParams(n_rounds=5, max_depth=4, min_child_hessian=6.0)
        ens = gbt.fit(ds, losses.MseObjective(ds), params)  # mse hess = 1/sample
        for tree in ens.trees:
            # replay routing and check each internal node's children
            stack = [(0, np.arange(ds.n))]
            while stack:
                nid, idx = stack.pop()
                if tree.feature[nid] < 0:
                    continue
                go_left = ds.features[idx, tree.feature[nid]] <= tree.threshold[nid]
                left_idx, right_idx = idx[go_left], idx[~go_left]
                assert len(left_idx) >= 6 and len(right_idx) >= 6
                stack.append((tree.left[nid], left_idx))
                stack.append((tree.right[nid], right_idx))

    def test_depth_limit(self, rng):
        ds, _, _ = make_instance(rng, n=120)
        params = gbt.BoostParams(n_rounds=3, max_depth=2, l2_lambda=0.0)
        ens = gbt.fit(ds, losses.MseObjective(ds), params)
        for tree in ens.trees:
            depth = {0: 0}
            for nid in range(len(tree.feature)):
                if tree.feature[nid] >= 0:
                    depth[tree.left[nid]] = depth[nid] + 1
                    depth[tree.right[nid]] = depth[nid] + 1
                    assert depth[nid] < 2
            assert max(depth.values()) <= 2

    def test_degenerate_objective_rejected(self, rng):
        ds, _, _ = make_instance(rng, n=20)
        dead_phi = relevance.from_points([(-100.0, 0.0), (100.0, 0.0)])
        params = gbt.BoostParams(n_rounds=1, hess_floor=0.0)
        with pytest.raises(DegenerateObjectiveError):
            gbt.fit(ds, losses.SeraObjective(ds, dead_phi), params)

    def test_too_few_samples_rejected(self):
        ds = dataset.from_arrays(np.zeros((1, 1)), [1.0], [[1]])
        with pytest.raises(InputError):
            gbt.fit(ds, losses.MseObjective(ds), gbt.BoostParams(n_rounds=1))


class FixedGradHess:
    """Hands ``fit`` the same grad/hess each round; keeps the final predictions."""

    name = "fixed"

    def __init__(self, g, h):
        self.g, self.h = g, h
        self.final_preds = None

    def grad_hess(self, preds):
        return losses.GradHess(self.g, self.h, 0.0)

    def value(self, preds):
        self.final_preds = preds.copy()
        return 0.0


@st.composite
def growth_cases(draw):
    """Features with ties, constant and duplicated columns, gradients of mixed
    magnitude, and the split constraints that make nodes stop early."""
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * draw(st.sampled_from([1.0, 4.0]))
    if draw(st.booleans()):
        X = np.round(X)
    constant = draw(st.integers(-1, d - 1))
    if constant >= 0:
        X[:, constant] = 0.5
    copy = draw(st.sampled_from(["none", "exact", "mirrored"])) if d >= 2 else "none"
    if copy == "exact":
        # equal gains on two features: the tie must still go to feature 0
        X[:, d - 1] = X[:, 0]
    elif copy == "mirrored":
        # the same partitions reached from the other end: which of the two
        # features wins turns on the last bits of the cumulative sums, and so
        # on the order of tied rows inside them
        X[:, d - 1] = -X[:, 0]
    g = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    h = rng.uniform(0.0, 2.0, size=n) * (rng.random(n) > 0.1)
    params = gbt.BoostParams(
        n_rounds=1,
        learning_rate=draw(st.sampled_from([0.1, 1.0])),
        max_depth=draw(st.integers(1, 6)),
        min_child_hessian=draw(st.sampled_from([0.0, 0.5, 3.0])),
        l2_lambda=draw(st.sampled_from([0.0, 1e-6, 1.0])),
    )
    return X, g, h, params


class TestAgainstPerNodeSort:
    """Presorted growth inside ``fit`` against the per-node sorting it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(case=growth_cases())
    def test_bit_identical(self, case):
        X, g, h, params = case
        ds = dataset.from_arrays(X, np.zeros(len(g)), np.zeros((len(g), 1)))
        obj = FixedGradHess(g, h)
        ens = gbt.fit(ds, obj, params)
        ref = parent_grow_tree(X, g, np.maximum(h, params.hess_floor), params)
        tree = ens.trees[0]
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(tree, name), getattr(ref, name)), name
        base = np.full(len(g), ens.base_score)
        assert np.array_equal(obj.final_preds, base + params.learning_rate * ref.predict(X))


class TestPredict:
    def test_additivity_per_round(self, rng):
        ds, _, _ = make_instance(rng, n=60)
        params = gbt.BoostParams(n_rounds=6, max_depth=3)
        ens = gbt.fit(ds, losses.MseObjective(ds), params)
        partial = gbt.TreeEnsemble(
            base_score=ens.base_score,
            trees=ens.trees[:-1],
            params=params,
            objective_name="mse",
            n_features=ens.n_features,
        )
        X = ds.features
        full = ens.predict(X)
        stacked = partial.predict(X) + params.learning_rate * ens.trees[-1].predict(X)
        assert np.allclose(full, stacked, atol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        ds, _, _ = make_instance(rng, n=30)
        ens = gbt.fit(ds, losses.MseObjective(ds), gbt.BoostParams(n_rounds=2))
        with pytest.raises(InputError):
            ens.predict(np.zeros((5, ds.features.shape[1] + 1)))

    def test_serialization_round_trips_bit_identically(self, tmp_path, rng):
        ds, phi, _ = make_instance(rng, n=60)
        params = gbt.BoostParams(n_rounds=8, max_depth=4, l2_lambda=1e-6)
        ens = gbt.fit(ds, losses.SeraObjective(ds, phi), params)
        path = tmp_path / "model.json"
        ens.to_json(path)
        loaded = gbt.TreeEnsemble.from_json(path)
        assert np.array_equal(ens.predict(ds.features), loaded.predict(ds.features))
        assert loaded.objective_name == "sera"

    def test_non_finite_feature_names_row(self, rng):
        ds, _, _ = make_instance(rng, n=30)
        ens = gbt.fit(ds, losses.MseObjective(ds), gbt.BoostParams(n_rounds=2))
        X = ds.features.copy()
        X[4, 1] = np.nan
        X[9, 0] = np.inf
        with pytest.raises(InputError, match="row 4"):
            ens.predict(X)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(InputError):
            gbt.TreeEnsemble.from_json(path)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            gbt.BoostParams(n_rounds=-1)
        with pytest.raises(ValidationError):
            gbt.BoostParams(learning_rate=0.0)
        with pytest.raises(ValidationError):
            gbt.BoostParams(learning_rate=1.5)
        with pytest.raises(ValidationError):
            gbt.BoostParams(max_depth=0)
        with pytest.raises(ValidationError):
            gbt.BoostParams(l2_lambda=-1.0)
        for name in ("min_child_hessian", "l2_lambda", "hess_floor"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValidationError, match=name):
                    gbt.BoostParams(**{name: value})


def one_split_doc(**tree_changes):
    """A one-split ensemble document on one feature, with tree fields replaced."""
    tree = {"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
            "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, 1.0, 2.0]}
    tree.update(tree_changes)
    return {"format": gbt.FORMAT_NAME, "version": gbt.FORMAT_VERSION,
            "objective": "mse", "base_score": 0.0, "n_features": 1,
            "params": {"learning_rate": 1.0}, "trees": [tree]}


class TestLoadValidation:
    def test_valid_tree_loads_and_predicts(self):
        ens = gbt.TreeEnsemble.from_dict(one_split_doc())
        assert ens.predict(np.array([[0.0], [1.0]])).tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("changes", [
        {"value": [0.0, 1.0]},                    # unequal lengths
        {"feature": [], "threshold": [], "left": [], "right": [], "value": []},
        {"left": [0, -1, -1]},                    # child is its own parent
        {"right": [3, -1, -1]},                   # child out of range
        {"left": [-1, -1, -1]},                   # split without a child
        {"feature": [1, -1, -1]},                 # only one feature exists
        {"feature": [-2, -1, -1]},
        {"threshold": [float("nan"), 0.0, 0.0]},
        {"value": [0.0, float("inf"), 2.0]},
    ])
    def test_malformed_tree_rejected(self, changes):
        with pytest.raises(InputError):
            gbt.TreeEnsemble.from_dict(one_split_doc(**changes))

    def test_child_before_parent_rejected(self):
        doc = one_split_doc(feature=[-1, 0, -1], left=[-1, 0, -1], right=[-1, 2, -1])
        with pytest.raises(InputError):
            gbt.TreeEnsemble.from_dict(doc)

    def test_non_finite_base_score_rejected(self):
        doc = one_split_doc()
        doc["base_score"] = float("nan")
        with pytest.raises(InputError):
            gbt.TreeEnsemble.from_dict(doc)
