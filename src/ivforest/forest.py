"""Random-forest regression for interval responses.

Two independent ensembles are grown, one for the response center and one
for the radius; both use every predictor center and radius as candidate
split features. Each tree is CART-style: axis-aligned splits at midpoints
between consecutive distinct feature values, chosen to minimize the summed
child residual sum of squares over a per-node random feature subset. Leaf
values are bootstrap-sample means, so every forest prediction is a convex
combination of training responses.

All randomness for tree t of a given ensemble comes from the stream keyed
by (seed, component, t); fits are reproducible tree by tree regardless of
execution order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, OOBUnavailableError, UnderdeterminedError
from .frame import IntervalFrame
from .linear import PredictionSet
from .rng import stream

_IMPROVEMENT_TOL = 1e-12


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 500
    mtry: int | None = None  # default: a third of the 2p scalar features, at least 2
    min_node: int = 5
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_node < 1:
            raise ConfigError(f"min_node must be >= 1, got {self.min_node}")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigError(f"mtry must be >= 1, got {self.mtry}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError(f"max_depth must be >= 1, got {self.max_depth}")

    def resolved_mtry(self, m: int) -> int:
        # floor to one candidate per node only when a single feature exists;
        # with one interval predictor (m = 2) both coordinates stay in play
        mtry = self.mtry if self.mtry is not None else min(m, max(2, m // 3))
        if mtry > m:
            raise ConfigError(f"mtry={mtry} exceeds the {m} available features")
        return mtry


@dataclass
class Tree:
    """Flattened binary regression tree plus its bootstrap row indices."""

    feature: np.ndarray  # int, -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # leaf mean (0 for internal nodes)
    count: np.ndarray  # rows reaching the node in the bootstrap sample
    bootstrap: np.ndarray  # indices into the training frame, with repetition

    def predict(self, queries: np.ndarray) -> np.ndarray:
        idx = np.zeros(queries.shape[0], dtype=np.int64)
        feat = self.feature
        active = np.nonzero(feat[idx] >= 0)[0]
        while active.size:
            node = idx[active]
            f = feat[node]
            go_left = queries[active, f] <= self.threshold[node]
            idx[active] = np.where(go_left, self.left[node], self.right[node])
            active = active[feat[idx[active]] >= 0]
        return self.value[idx]

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))


def best_split(
    rows: np.ndarray,
    y: np.ndarray,
    features: np.ndarray,
    X: np.ndarray,
    min_child: int = 1,
) -> tuple[int, float, float] | None:
    """Best (feature, threshold, child RSS) over the candidate features.

    Thresholds sit at midpoints between consecutive distinct sorted values;
    each child must keep at least ``min_child`` rows. Returns None when no
    split yields two valid children or improves the parent RSS by more than
    1e-12. Ties break toward the lowest feature index, then the lowest
    threshold.
    """
    rows = np.asarray(rows, dtype=np.int64)
    ynode = y[rows]
    n = ynode.size
    if n < 2 or n < 2 * min_child:
        return None
    total = float(ynode.sum())
    sumsq = float(ynode @ ynode)
    parent_score = total * total / n
    kk = np.arange(1, n)
    lo = max(1, min_child)
    best_score = -np.inf
    best_feature = -1
    best_threshold = 0.0
    # candidates whose scores differ only by floating noise are ties; the
    # earlier (lower-index) feature keeps them
    tie_eps = 1e-12 * max(1.0, sumsq)
    for f in sorted(int(f) for f in features):
        xv = X[rows, f]
        order = np.argsort(xv)
        xs = xv[order]
        valid = xs[:-1] < xs[1:]
        if min_child > 1:
            valid = valid.copy()
            valid[: lo - 1] = False
            valid[n - lo :] = False
        if not valid.any():
            continue
        cs = np.cumsum(ynode[order])[:-1]
        score = np.where(valid, cs * cs / kk + (total - cs) ** 2 / (n - kk), -np.inf)
        j = int(np.argmax(score))
        if score[j] > best_score + tie_eps:
            best_score = float(score[j])
            best_feature = f
            best_threshold = 0.5 * (xs[j] + xs[j + 1])
    if best_feature < 0 or best_score - parent_score <= _IMPROVEMENT_TOL:
        return None
    return best_feature, best_threshold, sumsq - best_score


def grow_tree(
    bootstrap: np.ndarray,
    y: np.ndarray,
    X: np.ndarray,
    params: ForestParams,
    rng: np.random.Generator,
) -> Tree:
    """Grow one tree on the bootstrap multiset of rows.

    A node becomes a leaf when it has fewer than 2 * min_node rows, the
    depth limit is reached, or no candidate split improves the RSS. Splits
    keep at least min_node rows per child, so every leaf under a splittable
    parent holds at least min_node rows.
    """
    bootstrap = np.asarray(bootstrap, dtype=np.int64)
    Xb = np.asarray(X, dtype=float)[bootstrap]
    yb = np.asarray(y, dtype=float)[bootstrap]
    m = Xb.shape[1]
    mtry = params.resolved_mtry(m)
    min_node = params.min_node
    max_depth = params.max_depth

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    count: list[int] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        count.append(0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(bootstrap.size, dtype=np.int64), 0)]
    while stack:
        node, idx, depth = stack.pop()
        count[node] = idx.size
        split = None
        if idx.size >= 2 * min_node and (max_depth is None or depth < max_depth):
            candidates = np.sort(rng.choice(m, size=mtry, replace=False))
            split = best_split(idx, yb, candidates, Xb, min_child=min_node)
        if split is None:
            value[node] = float(yb[idx].mean())
            continue
        f, thr, _ = split
        feature[node] = f
        threshold[node] = thr
        go_left = Xb[idx, f] <= thr
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        # push right first so the left subtree is processed (and numbered) next
        stack.append((right_id, idx[~go_left], depth + 1))
        stack.append((left_id, idx[go_left], depth + 1))

    return Tree(
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=float),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(value, dtype=float),
        np.asarray(count, dtype=np.int64),
        bootstrap,
    )


@dataclass
class ForestFit:
    """Center and radius ensembles sharing one scalar feature layout."""

    feature_names: tuple[str, ...]
    predictor_names: tuple[str, ...]
    params: ForestParams
    center_trees: list[Tree] = field(default_factory=list)
    radius_trees: list[Tree] = field(default_factory=list)
    oob: dict = field(default_factory=dict)


def fit_forest(train: IntervalFrame, params: ForestParams | None = None) -> ForestFit:
    """Grow both ensembles and compute out-of-bag errors."""
    if params is None:
        params = ForestParams()
    if train.n < 2:
        raise UnderdeterminedError(f"forest fit needs n >= 2 rows, got {train.n}")
    X = train.features()
    n = train.n
    params.resolved_mtry(X.shape[1])  # validate early

    fit = ForestFit(train.feature_names(), train.predictor_names, params)
    for component, y in (("center", train.y_center), ("radius", train.y_radius)):
        trees = []
        for t in range(params.n_trees):
            rng = stream("tree", params.seed, component, t)
            boot = rng.integers(0, n, n)
            trees.append(grow_tree(boot, y, X, params, rng))
        if component == "center":
            fit.center_trees = trees
        else:
            fit.radius_trees = trees
    fit.oob = oob_error(fit, train)
    return fit


def _forest_predict(trees: list[Tree], queries: np.ndarray) -> np.ndarray:
    acc = np.zeros(queries.shape[0])
    for tree in trees:
        acc += tree.predict(queries)
    return acc / len(trees)


def predict_forest_rows(fit: ForestFit, queries: np.ndarray) -> PredictionSet:
    """Average tree outputs for query rows in (centers, radii) layout."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != len(fit.feature_names):
        raise DimensionError(
            f"model has {len(fit.feature_names)} features, queries have {queries.shape[1]}"
        )
    centers = _forest_predict(fit.center_trees, queries)
    radii = _forest_predict(fit.radius_trees, queries)
    return PredictionSet(centers, radii, radii < 0.0)


def predict_forest_frame(fit: ForestFit, frame: IntervalFrame) -> PredictionSet:
    return predict_forest_rows(fit, frame.features())


def oob_error(fit: ForestFit, train: IntervalFrame) -> dict:
    """Out-of-bag MSE and R-squared per component.

    Each row is predicted by averaging only the trees whose bootstrap
    excluded it; rows that were in every bag are skipped and counted.
    """
    X = train.features()
    n = train.n
    out: dict = {}
    for component, trees, y in (
        ("center", fit.center_trees, train.y_center),
        ("radius", fit.radius_trees, train.y_radius),
    ):
        acc = np.zeros(n)
        hits = np.zeros(n, dtype=np.int64)
        for tree in trees:
            in_bag = np.bincount(tree.bootstrap, minlength=n) > 0
            oob_rows = np.nonzero(~in_bag)[0]
            if oob_rows.size == 0:
                continue
            acc[oob_rows] += tree.predict(X[oob_rows])
            hits[oob_rows] += 1
        used = hits > 0
        if not used.any():
            raise OOBUnavailableError(
                f"every row was in-bag for all {len(trees)} {component} trees"
            )
        pred = acc[used] / hits[used]
        resid = pred - y[used]
        mse = float(np.mean(resid**2))
        dev = y[used] - y[used].mean()
        sst = float(dev @ dev)
        r2 = 1.0 - float(resid @ resid) / sst if sst > 0.0 else float("nan")
        out[component] = {
            "mse": mse,
            "r2": r2,
            "rows_used": int(used.sum()),
            "rows_skipped": int(n - used.sum()),
        }
    return out


def forest_to_json(fit: ForestFit) -> str:
    def tree_doc(tree: Tree) -> dict:
        return {
            "feature": tree.feature.tolist(),
            "threshold": tree.threshold.tolist(),
            "left": tree.left.tolist(),
            "right": tree.right.tolist(),
            "value": tree.value.tolist(),
            "count": tree.count.tolist(),
            "bootstrap": tree.bootstrap.tolist(),
        }

    doc = {
        "format_version": 1,
        "model": "rf",
        "feature_names": list(fit.feature_names),
        "predictors": list(fit.predictor_names),
        "params": {
            "n_trees": fit.params.n_trees,
            "mtry": fit.params.mtry,
            "min_node": fit.params.min_node,
            "max_depth": fit.params.max_depth,
            "seed": fit.params.seed,
        },
        "oob": fit.oob,
        "center_trees": [tree_doc(t) for t in fit.center_trees],
        "radius_trees": [tree_doc(t) for t in fit.radius_trees],
    }
    return json.dumps(doc, sort_keys=True)


def forest_from_json(text: str) -> ForestFit:
    from .models import model_from_json  # models imports this module

    return model_from_json(text, kinds=("rf",))


def forest_from_doc(doc: dict) -> ForestFit:
    feature_names = tuple(doc["feature_names"])
    if len(feature_names) != 2 * len(doc["predictors"]):
        raise ConfigError("'feature_names' must name a center and a radius per predictor")

    def trees_from(key: str) -> list[Tree]:
        trees = []
        for i, tdoc in enumerate(doc[key]):
            tree = Tree(
                np.asarray(tdoc["feature"], dtype=np.int64),
                np.asarray(tdoc["threshold"], dtype=float),
                np.asarray(tdoc["left"], dtype=np.int64),
                np.asarray(tdoc["right"], dtype=np.int64),
                np.asarray(tdoc["value"], dtype=float),
                np.asarray(tdoc["count"], dtype=np.int64),
                np.asarray(tdoc.get("bootstrap", []), dtype=np.int64),
            )
            problem = _tree_problem(tree, len(feature_names))
            if problem:
                raise ConfigError(f"{key}[{i}]: {problem}")
            trees.append(tree)
        if not trees:
            raise ConfigError(f"{key!r} holds no tree")
        return trees

    return ForestFit(
        feature_names,
        tuple(doc["predictors"]),
        ForestParams(**doc["params"]),
        trees_from("center_trees"),
        trees_from("radius_trees"),
        doc.get("oob", {}),
    )


def _tree_problem(tree: Tree, n_features: int) -> str | None:
    """Why ``Tree.predict`` could not walk this tree, or None.

    Every split node's children must come after it (``grow_tree`` numbers
    them so), which rules out cycles; indices and features must be in range.
    """
    n = tree.feature.size
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value, tree.count)
    if n == 0 or any(a.shape != (n,) for a in arrays):
        return "node arrays must be nonempty lists of equal length"
    split = np.nonzero(tree.feature >= 0)[0]
    for key in ("left", "right"):
        child = getattr(tree, key)[split]
        if np.any(child <= split) or np.any(child >= n):
            return f"'{key}' must point every split node to a later node in range"
    if np.any(tree.feature >= n_features):
        return f"'feature' must be below {n_features}"
    return None
