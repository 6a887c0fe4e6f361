"""Newton-boosted regression trees over pluggable second-order objectives.

Each round fits one binary tree to the objective's per-sample gradients and
Hessians: splits maximize the exact second-order gain

    G_L^2 / (H_L + lambda) + G_R^2 / (H_R + lambda) - G^2 / (H + lambda)

over all (feature, threshold) pairs, and leaves carry the regularized Newton
weight -G / (H + lambda). Objectives are recomputed on the full training
predictions every round; there is no subsampling, so objectives that depend
on global group structure see the whole picture. Objectives return their
own Hessians, zero where the loss is flat or linear; ``fit`` floors them at
``BoostParams.hess_floor``, and no other module floors a Hessian.

Splits are enumerated from presorted rows, the exact greedy layout of
XGBoost: ``fit`` stably argsorts each feature column once, and each split
partitions every one of the node's sorted row lists into its children's,
which keeps them sorted. Each node also keeps its rows in row order, and
G and H for gains and leaves are summed in that order: ``np.sum`` sums
pairwise, so another order would change the last bits of the model.

Everything is deterministic: gain ties break toward the lowest feature index
and then the lowest threshold.

Two shortcuts skip work without changing a bit of the result:

- Hessians are floored at ``hess_floor >= 0``, so the left sums
  ``hl = cumsum(h)`` never decrease in floating point (adding a non-negative
  number and rounding cannot go down) and ``hr = H - hl`` never increases.
  ``hl >= m`` and ``hr >= m`` therefore hold at every split position exactly
  when they hold at the first and the last, and so do ``hl + lambda > 0`` and
  ``hr + lambda > 0``. The split search tests those two scalars and builds
  the per-position masks, or the guarded score, only when a test fails.
- ``Tree.predict`` walks every row the same number of levels, the tree's
  depth: a leaf points both children at itself and carries the threshold
  ``+inf``, so a row that reaches a leaf stays there, and no level has to
  find which rows are still moving.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from .dataset import GroupedDataset
from .errors import DegenerateObjectiveError, InputError, ValidationError

FORMAT_NAME = "interdiv-ensemble"
FORMAT_VERSION = 1
DEFAULT_HESS_FLOOR = 1e-6


@dataclass(frozen=True)
class BoostParams:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 6
    min_child_hessian: float = 0.0
    l2_lambda: float = 1.0
    hess_floor: float = DEFAULT_HESS_FLOOR
    seed: int = 0

    def __post_init__(self):
        if self.n_rounds < 0:
            raise ValidationError("n_rounds must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValidationError("learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ValidationError("max_depth must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed!r}")
        for name in ("min_child_hessian", "l2_lambda", "hess_floor"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:  # NaN fails this comparison too
                raise ValidationError(f"{name} must be >= 0 and finite, got {value!r}")


# the BoostParams fields a model file must hold as JSON integers, and those
# it must hold as JSON numbers
_INT_PARAMS = tuple(f.name for f in fields(BoostParams) if f.type == "int")
_FLOAT_PARAMS = tuple(f.name for f in fields(BoostParams) if f.type == "float")


@dataclass
class Tree:
    """Flat-array binary tree; feature -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @cached_property
    def _walk(self):
        """(feature, threshold, children, depth) for the fixed-depth walk.

        ``children[2 * i + 1]`` is node ``i``'s left child and
        ``children[2 * i]`` its right one, so a row's next node is
        ``children[2 * node + go_left]``. A leaf tests feature 0 against
        ``+inf`` and is both its own children; ``depth`` is the longest path
        from the root.
        """
        leaf = self.feature < 0
        own = np.arange(self.feature.size)
        level, depth = np.zeros(1, dtype=np.int64), 0
        while True:
            level = level[~leaf[level]]
            if not level.size:
                break
            # unique: a loaded tree may reach one node along two paths
            level = np.unique(np.concatenate((self.left[level], self.right[level])))
            depth += 1
        children = np.stack(
            (np.where(leaf, own, self.right), np.where(leaf, own, self.left)), axis=1
        )
        return (
            np.where(leaf, 0, self.feature),
            np.where(leaf, np.inf, self.threshold),
            children.ravel(),
            depth,
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        feature, threshold, children, depth = self._walk
        flat = X.ravel()
        row_start = np.arange(X.shape[0]) * X.shape[1]
        node = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(depth):
            go_left = flat[row_start + feature[node]] <= threshold[node]
            node = children[2 * node + go_left]
        return self.value[node]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @staticmethod
    def from_dict(d: dict, n_features: int) -> "Tree":
        """Load one tree, checking the structure ``predict`` relies on.

        Every split node's children must lie after it, as tree growth lays
        them out; that also rules out cycles, so ``predict`` terminates.
        """
        if not isinstance(d, dict):
            raise InputError(f"a tree must be a JSON object, not {type(d).__name__}")
        for name in ("feature", "left", "right"):
            if not isinstance(d[name], list) or not all(type(v) is int for v in d[name]):
                raise InputError(f"tree {name} must be a list of JSON integers")
        for name in ("threshold", "value"):
            if not isinstance(d[name], list) or not all(type(v) in _NUMBER for v in d[name]):
                raise InputError(f"tree {name} must be a list of JSON numbers")
        tree = Tree(
            feature=np.asarray(d["feature"], dtype=np.int64),
            threshold=np.asarray(d["threshold"], dtype=float),
            left=np.asarray(d["left"], dtype=np.int64),
            right=np.asarray(d["right"], dtype=np.int64),
            value=np.asarray(d["value"], dtype=float),
        )
        arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
        n_nodes = tree.feature.size
        if n_nodes == 0 or any(a.shape != (n_nodes,) for a in arrays):
            raise InputError("tree arrays must be non-empty and of equal length")
        if not (np.all(np.isfinite(tree.threshold)) and np.all(np.isfinite(tree.value))):
            raise InputError("tree thresholds and values must be finite")
        if np.any(tree.feature < -1) or np.any(tree.feature >= n_features):
            raise InputError(f"tree feature index out of range for {n_features} features")
        split = np.nonzero(tree.feature >= 0)[0]
        for child in (tree.left[split], tree.right[split]):
            if np.any(child <= split) or np.any(child >= n_nodes):
                raise InputError("tree child index out of range or not after its parent")
        return tree


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer: an ``int`` and not a ``bool``."""
    if type(value) is not int:
        raise InputError(f"{what} must be a JSON integer, got {value!r}")
    return value


# the Python types of a JSON number; bool, a subclass of int, is not one
_NUMBER = (int, float)


def json_float(value, what: str) -> float:
    """``value`` as a float if it is a JSON number: an ``int`` or a
    ``float``, and not a ``bool`` or a string."""
    if type(value) not in _NUMBER:
        raise InputError(f"{what} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an int beyond the float range
        raise InputError(f"{what} does not fit a float: {exc}") from None


def _safe_score(G, H, lam):
    denom = H + lam
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0, (G * G) / np.where(denom > 0, denom, 1.0), 0.0)
    return s


def _best_split(XT, g, h, idx, sorted_rows, params: BoostParams):
    """Highest-gain (feature, threshold) for one node; None if no valid split.

    ``XT`` is the transposed feature matrix, ``idx`` holds the node's rows in
    row order, and ``sorted_rows[f]`` the same rows stably sorted by feature
    ``f``.
    """
    lam = params.l2_lambda
    mch = params.min_child_hessian
    Gp = float(g[idx].sum())
    Hp = float(h[idx].sum())
    parent = float(_safe_score(np.array(Gp), np.array(Hp), lam))
    best_gain = 0.0
    best = None
    for f, rows in enumerate(sorted_rows):
        xs = XT[f][rows]
        if xs[0] == xs[-1]:
            continue
        gl = np.cumsum(g[rows])[:-1]
        hl = np.cumsum(h[rows])[:-1]
        gr = Gp - gl
        hr = Hp - hl
        ok = xs[1:] > xs[:-1]
        # hl never decreases and hr never increases (module docstring)
        if not (hl[0] >= mch and hr[-1] >= mch):
            ok &= (hl >= mch) & (hr >= mch)
        if not ok.any():
            continue
        if hl[0] + lam > 0 and hr[-1] + lam > 0:
            # gl*gl/(hl+lam) + gr*gr/(hr+lam) - parent, in place
            hr += lam
            gr *= gr
            gr /= hr
            gain = hl + lam
            np.divide(gl * gl, gain, out=gain)
            gain += gr
            gain -= parent
        else:
            gain = _safe_score(gl, hl, lam) + _safe_score(gr, hr, lam) - parent
        gain[~ok] = -np.inf
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            best_gain = float(gain[i])
            best = (f, 0.5 * (xs[i] + xs[i + 1]))
    return best


def _grow_tree(XT, g, h, presorted, params: BoostParams) -> tuple[Tree, np.ndarray]:
    """Grow one tree; also return each training row's leaf value.

    ``XT`` is the transposed feature matrix, one contiguous row per feature,
    and ``presorted[f]`` the stable argsort of ``XT[f]``. A split partitions
    each node's sorted row lists into its children's, which keeps them
    sorted, so no node sorts again.
    """
    n = XT.shape[1]
    feature, threshold, left, right, value = [], [], [], [], []
    update = np.empty(n)
    go_left_of = np.zeros(n, dtype=bool)

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(n), presorted, 0)]
    while stack:
        nid, idx, sorted_rows, depth = stack.pop()
        split = None
        if depth < params.max_depth and len(idx) >= 2:
            split = _best_split(XT, g, h, idx, sorted_rows, params)
        if split is None:
            G = float(g[idx].sum())
            H = float(h[idx].sum())
            denom = H + params.l2_lambda
            value[nid] = -G / denom if denom > 0 else 0.0
            update[idx] = value[nid]
            continue
        f, thr = split
        go_left = XT[f][idx] <= thr
        feature[nid] = f
        threshold[nid] = thr
        lid = new_node()
        rid = new_node()
        left[nid] = lid
        right[nid] = rid
        left_rows, right_rows = [], []
        if depth + 1 < params.max_depth:  # children at max_depth are leaves
            go_left_of[idx] = go_left
            for rows in sorted_rows:
                m = go_left_of[rows]
                left_rows.append(rows[m])
                right_rows.append(rows[~m])
        stack.append((rid, idx[~go_left], right_rows, depth + 1))
        stack.append((lid, idx[go_left], left_rows, depth + 1))
    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=float),
    ), update


@dataclass
class TreeEnsemble:
    base_score: float
    trees: list
    params: BoostParams
    objective_name: str
    n_features: int
    train_trace: list = field(default_factory=list)
    region_switches: int | None = None
    eval_points: int | None = None

    def check(self, X) -> np.ndarray:
        """``X`` as a float matrix, once it has this ensemble's width and
        finite entries; an ``InputError`` names the first row that does not."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.shape[1] != self.n_features:
            raise InputError(
                f"feature dimension {X.shape[1]} does not match training ({self.n_features})"
            )
        bad = np.nonzero(~np.isfinite(X).all(axis=1))[0]
        if bad.size:
            raise InputError(f"non-finite feature in row {int(bad[0])}")
        return X

    def predict(self, X) -> np.ndarray:
        X = self.check(X)
        out = np.full(X.shape[0], self.base_score)
        for tree in self.trees:
            out += self.params.learning_rate * tree.predict(X)
        return out

    def to_dict(self) -> dict:
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "objective": self.objective_name,
            "base_score": self.base_score,
            "n_features": self.n_features,
            "params": asdict(self.params),
            "train_trace": list(self.train_trace),
            "region_switches": self.region_switches,
            "eval_points": self.eval_points,
            "trees": [t.to_dict() for t in self.trees],
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "TreeEnsemble":
        """Load an ensemble; a malformed document raises ``InputError``."""
        if not isinstance(d, dict):
            raise InputError(f"an ensemble must be a JSON object, not {type(d).__name__}")
        if d.get("format") != FORMAT_NAME:
            raise InputError(f"not an ensemble file (format={d.get('format')!r})")
        version = d.get("version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise InputError(f"unsupported ensemble version {version!r}")
        try:
            n_features = _json_int(d["n_features"], "ensemble n_features")
            base_score = json_float(d["base_score"], "ensemble base_score")
            if not np.isfinite(base_score):
                raise InputError("ensemble base_score must be finite")
            params = d["params"]
            for name in _INT_PARAMS:
                if name in params:
                    _json_int(params[name], f"ensemble params {name}")
            for name in _FLOAT_PARAMS:
                if name in params:
                    json_float(params[name], f"ensemble params {name}")
            counts = {key: d.get(key) for key in ("region_switches", "eval_points")}
            for key, count in counts.items():
                if count is not None:
                    _json_int(count, f"ensemble {key}")
            return TreeEnsemble(
                base_score=base_score,
                trees=[Tree.from_dict(t, n_features) for t in d["trees"]],
                params=BoostParams(**params),
                objective_name=d["objective"],
                n_features=n_features,
                train_trace=list(d.get("train_trace", [])),
                **counts,
            )
        except KeyError as exc:
            raise InputError(f"ensemble file lacks the key {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed ensemble file: {exc}") from None


def fit(ds: GroupedDataset, objective, params: BoostParams) -> TreeEnsemble:
    """Boost ``params.n_rounds`` trees against the objective's grad/hess.

    The base score is the target mean; the training trace stores the
    objective value at the base prediction and after every round. Each
    round's ``grad_hess`` returns the value at the predictions it starts
    from, so ``objective.value`` runs once, after the last round.
    """
    if ds.n < 2:
        raise InputError("need at least 2 samples to fit")
    XT = np.ascontiguousarray(ds.features.T)
    base = float(np.mean(ds.targets))
    preds = np.full(ds.n, base)
    presorted = np.argsort(XT, axis=1, kind="stable")
    trace = []
    trees = []
    for _ in range(params.n_rounds):
        gh = objective.grad_hess(preds)
        trace.append(gh.value)
        g = np.asarray(gh.grad, dtype=float)
        h = np.maximum(np.asarray(gh.hess, dtype=float), params.hess_floor)
        if not np.any(h > 0):
            raise DegenerateObjectiveError(
                "all Hessians are zero after flooring; objective carries no curvature"
            )
        with np.errstate(over="ignore"):
            h_total = h.sum()
        if not np.isfinite(h_total):  # else the split search takes inf - inf
            raise DegenerateObjectiveError(
                f"the Hessians floored at hess_floor={params.hess_floor!r} "
                "do not sum to a finite number"
            )
        tree, update = _grow_tree(XT, g, h, presorted, params)
        preds = preds + params.learning_rate * update
        trees.append(tree)
    trace.append(objective.value(preds))
    return TreeEnsemble(
        base_score=base,
        trees=trees,
        params=params,
        objective_name=getattr(objective, "name", objective.__class__.__name__),
        n_features=XT.shape[0],
        train_trace=trace,
        region_switches=getattr(objective, "region_switches", None),
        eval_points=getattr(objective, "eval_points", None),
    )
