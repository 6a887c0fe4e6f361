"""Newton-boosted regression trees over pluggable second-order objectives.

Each round fits one binary tree to the objective's per-sample gradients and
Hessians: splits maximize the exact second-order gain

    G_L^2 / (H_L + lambda) + G_R^2 / (H_R + lambda) - G^2 / (H + lambda)

over all (feature, threshold) pairs, and leaves carry the regularized Newton
weight -G / (H + lambda). Objectives are recomputed on the full training
predictions every round; there is no subsampling, so objectives that depend
on global group structure see the whole picture.

Splits are enumerated from presorted rows, the exact greedy layout of
XGBoost: ``fit`` stably argsorts each feature column once, and each split
partitions every one of the node's sorted row lists into its children's,
which keeps them sorted. Each node also keeps its rows in row order, and
G and H for gains and leaves are summed in that order: ``np.sum`` sums
pairwise, so another order would change the last bits of the model.

Everything is deterministic: gain ties break toward the lowest feature index
and then the lowest threshold.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import GroupedDataset
from .errors import DegenerateObjectiveError, InputError, ValidationError
from .losses import DEFAULT_HESS_FLOOR

FORMAT_NAME = "interdiv-ensemble"
FORMAT_VERSION = 1


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
        for name in ("min_child_hessian", "l2_lambda", "hess_floor"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:  # NaN fails this comparison too
                raise ValidationError(f"{name} must be >= 0 and finite, got {value!r}")


@dataclass
class Tree:
    """Flat-array binary tree; feature -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[node]
            active = feat >= 0
            if not active.any():
                break
            rows = np.nonzero(active)[0]
            cur = node[rows]
            go_left = X[rows, self.feature[cur]] <= self.threshold[cur]
            node[rows] = np.where(go_left, self.left[cur], self.right[cur])
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


def _safe_score(G, H, lam):
    denom = H + lam
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0, (G * G) / np.where(denom > 0, denom, 1.0), 0.0)
    return s


def _best_split(X, g, h, idx, sorted_rows, params: BoostParams):
    """Highest-gain (feature, threshold) for one node; None if no valid split.

    ``idx`` holds the node's rows in row order; ``sorted_rows[f]`` holds the
    same rows stably sorted by feature ``f``.
    """
    Gp = float(g[idx].sum())
    Hp = float(h[idx].sum())
    parent = float(_safe_score(np.array(Gp), np.array(Hp), params.l2_lambda))
    best_gain = 0.0
    best = None
    for f, rows in enumerate(sorted_rows):
        xs = X[rows, f]
        if xs[0] == xs[-1]:
            continue
        gl = np.cumsum(g[rows])[:-1]
        hl = np.cumsum(h[rows])[:-1]
        gr = Gp - gl
        hr = Hp - hl
        ok = (xs[1:] > xs[:-1]) & (hl >= params.min_child_hessian) & (
            hr >= params.min_child_hessian
        )
        if not ok.any():
            continue
        gain = _safe_score(gl, hl, params.l2_lambda) + _safe_score(
            gr, hr, params.l2_lambda
        ) - parent
        gain = np.where(ok, gain, -np.inf)
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            best_gain = float(gain[i])
            best = (f, 0.5 * (xs[i] + xs[i + 1]))
    return best


def _grow_tree(X, g, h, presorted, params: BoostParams) -> tuple[Tree, np.ndarray]:
    """Grow one tree; also return each training row's leaf value.

    ``presorted[f]`` is the stable argsort of column ``f`` of ``X``. A split
    partitions each node's sorted row lists into its children's, which keeps
    them sorted, so no node sorts again.
    """
    feature, threshold, left, right, value = [], [], [], [], []
    update = np.empty(X.shape[0])
    go_left_of = np.zeros(X.shape[0], dtype=bool)

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(X.shape[0]), presorted, 0)]
    while stack:
        nid, idx, sorted_rows, depth = stack.pop()
        split = None
        if depth < params.max_depth and len(idx) >= 2:
            split = _best_split(X, g, h, idx, sorted_rows, params)
        if split is None:
            G = float(g[idx].sum())
            H = float(h[idx].sum())
            denom = H + params.l2_lambda
            value[nid] = -G / denom if denom > 0 else 0.0
            update[idx] = value[nid]
            continue
        f, thr = split
        go_left = X[idx, f] <= thr
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

    def predict(self, X) -> np.ndarray:
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
        if d.get("version") != FORMAT_VERSION:
            raise InputError(f"unsupported ensemble version {d.get('version')!r}")
        try:
            n_features = int(d["n_features"])
            base_score = float(d["base_score"])
            if not np.isfinite(base_score):
                raise InputError("ensemble base_score must be finite")
            return TreeEnsemble(
                base_score=base_score,
                trees=[Tree.from_dict(t, n_features) for t in d["trees"]],
                params=BoostParams(**d["params"]),
                objective_name=d["objective"],
                n_features=n_features,
                train_trace=list(d.get("train_trace", [])),
                region_switches=d.get("region_switches"),
                eval_points=d.get("eval_points"),
            )
        except KeyError as exc:
            raise InputError(f"ensemble file lacks the key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed ensemble file: {exc}") from None

    @staticmethod
    def from_json(path) -> "TreeEnsemble":
        with open(path, encoding="utf-8") as fh:
            return TreeEnsemble.from_dict(json.load(fh))


def fit(ds: GroupedDataset, objective, params: BoostParams) -> TreeEnsemble:
    """Boost ``params.n_rounds`` trees against the objective's grad/hess.

    The base score is the target mean; the training trace stores the
    objective value at the base prediction and after every round. Each
    round's ``grad_hess`` returns the value at the predictions it starts
    from, so ``objective.value`` runs once, after the last round.
    """
    if ds.n < 2:
        raise InputError("need at least 2 samples to fit")
    X = ds.features
    base = float(np.mean(ds.targets))
    preds = np.full(ds.n, base)
    presorted = np.argsort(X.T, axis=1, kind="stable")
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
        tree, update = _grow_tree(X, g, h, presorted, params)
        preds = preds + params.learning_rate * update
        trees.append(tree)
    trace.append(objective.value(preds))
    return TreeEnsemble(
        base_score=base,
        trees=trees,
        params=params,
        objective_name=getattr(objective, "name", objective.__class__.__name__),
        n_features=X.shape[1],
        train_trace=trace,
        region_switches=getattr(objective, "region_switches", None),
        eval_points=getattr(objective, "eval_points", None),
    )
