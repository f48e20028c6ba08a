"""The split search that fitting runs, read off the root of a one-level tree, the rows that
reach each node of a grown tree, and the ensemble of trees made by hand."""

import numpy as np

from ivforest.forest import Ensemble, ForestParams, grow_trees


def root_split(y, X, min_child=1):
    """Best (feature, threshold, child RSS) of all rows over all features, or None.

    ``grow_trees`` grows one tree to depth 1 on every row once (bootstrap
    ``np.arange(n)``), with every feature a candidate (``mtry = m``, so its
    generator is never drawn from) and ``min_node = min_child``. The child RSS
    is recomputed from the root's partition.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = X.shape
    params = ForestParams(n_trees=1, mtry=m, min_node=min_child, max_depth=1)
    tree = grow_trees(X, y, [np.arange(n)], [np.random.default_rng(0)], params).trees[0]
    if tree.feature[0] < 0:
        return None
    feature, threshold = int(tree.feature[0]), float(tree.threshold[0])
    go_left = X[:, feature] <= threshold
    rss = sum(float(np.sum((part - part.mean()) ** 2)) for part in (y[go_left], y[~go_left]))
    return feature, threshold, rss


def leaf_of(tree, X):
    """Leaf node of every row of X in one tree, stepping all rows together."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])
    while np.any(tree.feature[node] >= 0):
        f = tree.feature[node]
        below = X[rows, np.maximum(f, 0)] <= tree.threshold[node]
        child = np.where(below, tree.left[node], tree.right[node])
        node = np.where(f >= 0, child, node)
    return node


def node_counts(tree, X):
    """Rows of X reaching each node of one tree: by ``leaf_of`` at leaves, and at a split node
    the sum over its children. Children come after their parent, so one backward pass adds."""
    count = np.bincount(leaf_of(tree, X), minlength=tree.feature.size)
    for node in np.flatnonzero(tree.feature >= 0)[::-1].tolist():
        count[node] = count[tree.left[node]] + count[tree.right[node]]
    return count


def ensemble_of(trees):
    """The ``Ensemble`` of ``trees``, in order."""
    arrays = [(t.feature, t.threshold, t.value, [t.feature.size], t.bootstrap, [t.bootstrap.size])
              for t in trees]
    return Ensemble(*map(np.concatenate, zip(*arrays)))
