import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from interdiv import dataset, gbt, idboost, losses, relevance
from interdiv.errors import DegenerateObjectiveError, InputError, ValidationError

from conftest import make_instance, parent_grow_tree, parent_tree_predict


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

    def test_hessians_that_overflow_are_rejected(self):
        ds = two_cluster_dataset()
        params = gbt.BoostParams(n_rounds=1, hess_floor=1e308)
        with np.errstate(all="raise"):
            with pytest.raises(DegenerateObjectiveError, match="hess_floor=1e"):
                gbt.fit(ds, losses.MseObjective(ds), params)


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
        # with no floor, zero Hessians can put a zero denominator in the gain
        hess_floor=draw(st.sampled_from([0.0, 1e-6])),
    )
    assume(np.any(np.maximum(h, params.hess_floor) > 0))  # else fit refuses
    return X, g, h, params


def assert_grows_like_parent(X, g, h, params):
    """One round of ``fit`` gives the tree and the predictions that per-node
    sorting and the parent traversal give."""
    ds = dataset.from_arrays(X, np.zeros(len(g)), np.zeros((len(g), 1)))
    obj = FixedGradHess(g, h)
    ens = gbt.fit(ds, obj, params)
    ref = parent_grow_tree(X, g, np.maximum(h, params.hess_floor), params)
    tree = ens.trees[0]
    for name in ("feature", "threshold", "left", "right", "value"):
        assert np.array_equal(getattr(tree, name), getattr(ref, name)), name
    base = np.full(len(g), ens.base_score)
    assert np.array_equal(
        obj.final_preds, base + params.learning_rate * parent_tree_predict(ref, X)
    )
    return tree


def spy_guarded_score(monkeypatch):
    """Record the per-position calls of ``gbt._safe_score`` (not the parent's)."""
    calls = []
    safe_score = gbt._safe_score

    def spy(G, H, lam):
        if np.ndim(G):
            calls.append(len(G))
        return safe_score(G, H, lam)

    monkeypatch.setattr(gbt, "_safe_score", spy)
    return calls


class TestAgainstPerNodeSort:
    """Presorted growth inside ``fit`` against the per-node sorting it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(case=growth_cases())
    def test_bit_identical(self, case):
        assert_grows_like_parent(*case)

    # The hand-built cases below each take one branch of the split search at
    # the root: no Hessian masks, per-position masks, or the guarded score.
    X = np.arange(8.0).reshape(-1, 1)
    g = np.array([9.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0])

    def test_no_masks_and_plain_score(self, monkeypatch):
        guarded = spy_guarded_score(monkeypatch)
        params = gbt.BoostParams(n_rounds=1, max_depth=1, l2_lambda=1.0)
        tree = assert_grows_like_parent(self.X, self.g, np.ones(8), params)
        assert tree.threshold[0] == 0.5  # the lone large gradient is cut off
        assert guarded == []

    def test_min_child_hessian_masks_positions(self, monkeypatch):
        guarded = spy_guarded_score(monkeypatch)
        params = gbt.BoostParams(n_rounds=1, max_depth=1, min_child_hessian=3.0)
        tree = assert_grows_like_parent(self.X, self.g, np.ones(8), params)
        assert tree.threshold[0] == 2.5  # hl[0] = 1 < 3: the cut above is masked
        assert guarded == []

    def test_right_sum_rounding_below_zero_is_masked(self):
        # rows 1-3 sum to 0.6 in row order but to 0.6000000000000001 in
        # sorted order, so with no floor the last right sum rounds below 0
        X = np.array([[3.0], [2.0], [1.0], [0.0]])
        g = np.array([5.0, -1.0, 2.0, -1.0])
        h = np.array([0.0, 0.3, 0.2, 0.1])
        hl_last = np.cumsum(h[::-1])[-2]
        assert h.sum() - hl_last < 0
        params = gbt.BoostParams(n_rounds=1, max_depth=1, l2_lambda=1.0, hess_floor=0.0)
        assert_grows_like_parent(X, g, h, params)

    def test_zero_denominator_takes_guarded_score(self, monkeypatch):
        guarded = spy_guarded_score(monkeypatch)
        h = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        params = gbt.BoostParams(n_rounds=1, max_depth=2, l2_lambda=0.0, hess_floor=0.0)
        assert_grows_like_parent(self.X, self.g, h, params)
        assert guarded  # hl[0] + lambda = 0


@st.composite
def loaded_trees(draw):
    """A tree document grown by splitting random leaves: unbalanced, or a
    single leaf, laid out with every child after its parent."""
    d = draw(st.integers(1, 3))
    feature, threshold, left, right = [-1], [0.0], [-1], [-1]
    for _ in range(draw(st.integers(0, 12))):
        leaves = [i for i, f in enumerate(feature) if f < 0]
        nid = draw(st.sampled_from(leaves))
        feature[nid] = draw(st.integers(0, d - 1))
        threshold[nid] = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0]))
        left[nid], right[nid] = len(feature), len(feature) + 1
        feature += [-1, -1]
        threshold += [0.0, 0.0]
        left += [-1, -1]
        right += [-1, -1]
    value = [float(i) for i in range(len(feature))]
    doc = {"feature": feature, "threshold": threshold, "left": left,
           "right": right, "value": value}
    return gbt.Tree.from_dict(doc, d), d


class TestPredictAgainstParent:
    """The fixed-depth walk against the traversal it replaced."""

    @staticmethod
    def queries(rng, tree, n_rows, d):
        """Rows drawn around 0, half their entries set to a split threshold."""
        X = rng.normal(size=(n_rows, d))
        splits = tree.threshold[tree.feature >= 0]
        if splits.size:
            at_split = rng.random((n_rows, d)) < 0.5
            X[at_split] = rng.choice(splits, size=int(at_split.sum()))
        return X

    @settings(max_examples=100, deadline=None)
    @given(depth=st.integers(1, 8), n=st.integers(2, 200), d=st.integers(1, 3),
           n_rows=st.integers(0, 50), seed=st.integers(0, 2**32 - 1))
    def test_grown_trees(self, depth, n, d, n_rows, seed):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, d)), 1)
        ds = dataset.from_arrays(X, rng.normal(size=n), np.zeros((n, 1)))
        params = gbt.BoostParams(n_rounds=3, learning_rate=0.5, max_depth=depth,
                                 l2_lambda=0.0)
        ens = gbt.fit(ds, losses.MseObjective(ds), params)
        Xq = np.concatenate([X, self.queries(rng, ens.trees[0], n_rows, d)])
        expected = np.full(len(Xq), ens.base_score)
        for tree in ens.trees:
            want = parent_tree_predict(tree, Xq)
            assert np.array_equal(tree.predict(Xq), want)
            expected += params.learning_rate * want
        assert np.array_equal(ens.predict(Xq), expected)

    @settings(max_examples=100, deadline=None)
    @given(case=loaded_trees(), n_rows=st.integers(0, 50),
           seed=st.integers(0, 2**32 - 1))
    def test_loaded_trees(self, case, n_rows, seed):
        tree, d = case
        X = self.queries(np.random.default_rng(seed), tree, n_rows, d)
        assert np.array_equal(tree.predict(X), parent_tree_predict(tree, X))
        ens = gbt.TreeEnsemble(base_score=0.5, trees=[tree, tree],
                               params=gbt.BoostParams(learning_rate=0.3),
                               objective_name="mse", n_features=d)
        want = parent_tree_predict(tree, X)
        expected = np.full(n_rows, 0.5)
        expected += 0.3 * want
        expected += 0.3 * want
        assert np.array_equal(ens.predict(X), expected)


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
        loaded = idboost.load(path)
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
            idboost.load(path)


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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
            gbt.BoostParams(seed=-1)


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

    @pytest.mark.parametrize("doc, message", [
        ([one_split_doc()], "an ensemble must be a JSON object, not list"),
        ({**one_split_doc(), "format": idboost.FORMAT_NAME},
         f"not an ensemble file (format='{idboost.FORMAT_NAME}')"),
        ({**one_split_doc(), "version": gbt.FORMAT_VERSION + 1},
         f"unsupported ensemble version {gbt.FORMAT_VERSION + 1}"),
        ({**one_split_doc(), "version": True}, "unsupported ensemble version True"),
    ], ids=["not-an-object", "idboost-format", "next-version", "version-bool"])
    def test_document_that_is_not_an_ensemble(self, doc, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            gbt.TreeEnsemble.from_dict(doc)

    def test_child_before_parent_rejected(self):
        doc = one_split_doc(feature=[-1, 0, -1], left=[-1, 0, -1], right=[-1, 2, -1])
        with pytest.raises(InputError):
            gbt.TreeEnsemble.from_dict(doc)

    def test_non_finite_base_score_rejected(self):
        doc = one_split_doc()
        doc["base_score"] = float("nan")
        with pytest.raises(InputError):
            gbt.TreeEnsemble.from_dict(doc)

    @pytest.mark.parametrize("doc, message", [
        ({**one_split_doc(), "base_score": 10 ** 400},
         "ensemble base_score does not fit a float: int too large to convert to float"),
        (one_split_doc(left=[2 ** 70, -1, -1]),
         "malformed ensemble file: Python int too large to convert to C long"),
    ], ids=["base-score", "child-index"])
    def test_integer_too_large_to_convert(self, doc, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            gbt.TreeEnsemble.from_dict(doc)
