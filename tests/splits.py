"""The split search that fitting runs, read off the root of a one-level tree."""

import numpy as np

from ivforest.forest import ForestParams, grow_trees


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
    tree = grow_trees(X, y, [np.arange(n)], [np.random.default_rng(0)], params)[0]
    if tree.feature[0] < 0:
        return None
    feature, threshold = int(tree.feature[0]), float(tree.threshold[0])
    go_left = X[:, feature] <= threshold
    rss = sum(float(np.sum((part - part.mean()) ** 2)) for part in (y[go_left], y[~go_left]))
    return feature, threshold, rss
