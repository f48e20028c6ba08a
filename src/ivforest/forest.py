"""Random-forest regression for interval responses.

Two independent ensembles are grown, one for the response center and one
for the radius; both use every predictor center and radius as candidate
split features. Each tree is CART-style: axis-aligned splits at midpoints
between consecutive distinct feature values, chosen to minimize the summed
child residual sum of squares over a per-node random feature subset. Leaf
values are bootstrap-sample means, so every forest prediction is a convex
combination of training responses.

All trees of an ensemble are grown together, level by level. All
randomness for tree t comes from the stream keyed by (seed, component, t):
first its bootstrap, then one draw of candidate features per level for its
open nodes (none when every feature is a candidate). Tree t does not depend
on how many trees the forest has.

Prediction and out-of-bag errors sum leaf values through ``_tree_sums``,
one tree at a time in tree order. It packs the ensemble once and hands
``_sums`` a per-tree mask: trees of at most 64 leaves find their leaves by
leaf bitvectors (QuickScorer: Lucchese et al., SIGIR 2015; Dato et al., ACM
TOIS 35(2), 2016) when there are more rows than those trees have distinct
(feature, threshold) pairs, and every other tree is walked. One loop over
blocks of (tree, row) pairs serves both paths, which give the same bytes.
A tree's leaves are numbered left to right from its subtrees' leaf counts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionError, OOBUnavailableError, UnderdeterminedError
from .frame import IntervalFrame
from .intervals import PredictionSet
from .rng import stream

# fit_forest grows trees together in chunks of this many (tree, bootstrap
# row) samples, or one tree when a tree has more. Chunk boundaries fall at
# fixed tree indices, so tree t never depends on n_trees. _sums finds the
# leaves of blocks of as many (tree, query row) pairs.
_CHUNK_SAMPLES = 16_384

# _sums gives each tree on leaf bitvectors one 64-bit word, a bit per leaf, and builds the
# tables of as many such trees at a time as hold about _TABLE_WORDS words
_WORD_BITS = 64
_ALL_LEAVES = np.uint64(2**64 - 1)
_TABLE_WORDS = 2**17


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
    """Flattened binary regression tree plus its bootstrap row indices.

    Nodes are numbered level by level, and a split node's right child
    directly follows its left, so only ``left`` is stored.
    """

    feature: np.ndarray  # int, -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray  # leaf mean (0 for internal nodes)
    count: np.ndarray  # rows reaching the node in the bootstrap sample
    bootstrap: np.ndarray  # indices into the training frame, with repetition

    @property
    def right(self) -> np.ndarray:
        """``left + 1`` at split nodes, -1 at leaves."""
        return np.where(self.feature >= 0, self.left + 1, -1)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))


# A tree's arrays in a model file, each with the dtype it is read as. Files
# carry "right" for readers that route with it; a Tree derives it.
_TREE_ARRAYS = {"feature": np.int64, "threshold": float, "left": np.int64, "right": np.int64,
                "value": float, "count": np.int64, "bootstrap": np.int64}


def _best_splits(
    xs: np.ndarray, ys: np.ndarray, starts: np.ndarray, min_child: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best split of every node over its candidate features, scored in one pass.

    Row ``j`` of ``xs`` and ``ys`` holds each node's ``j``-th candidate
    feature and the responses, sorted by that feature within the node; node
    ``i`` occupies columns ``starts[i]`` up to the next start. A split after
    column ``a`` puts the node's columns up to ``a`` on the left; it is valid
    when the feature value changes there and both children keep at least
    ``min_child`` rows. Gains are computed on node-centered responses, so
    they keep their precision at any response magnitude.

    Returns per node the winning row and the column of its split. The row
    is -1 when no gain exceeds 1e-12 * max(1, node RSS): the RSS about the
    node mean, not the sum of squared responses, so that the tolerance does
    not grow with the response magnitude. Ties go to the lower row, then
    the lower column; gains within that same tolerance of the leader, be it
    in another row or the same one, are ties.
    """
    c, a = xs.shape
    counts = np.diff(np.append(starts, a))
    seg = np.repeat(np.arange(starts.size), counts)
    z = ys - (np.add.reduceat(ys[0], starts) / counts)[seg]
    tol = 1e-12 * np.maximum(1.0, np.add.reduceat(z[0] * z[0], starts))
    cs = np.cumsum(z, axis=1)
    before = np.hstack([np.zeros((c, 1)), cs[:, :-1]])[:, starts]
    total = (cs[:, starts + counts - 1] - before)[:, seg]
    left = cs - before[:, seg]
    n_left = np.arange(1, a + 1) - starts[seg]
    n_right = counts[seg] - n_left
    valid = np.zeros((c, a), dtype=bool)
    valid[:, :-1] = xs[:, :-1] < xs[:, 1:]
    valid &= (n_left >= max(1, min_child)) & (n_right >= max(1, min_child))
    gain = np.where(
        valid,
        left * left / n_left + (total - left) ** 2 / np.maximum(n_right, 1)
        - total * total / counts[seg],
        -np.inf,
    )
    top = np.maximum.reduceat(gain, starts, axis=1)
    # the running sum carries rounding from earlier nodes of the row, so
    # exact ties within a feature can differ by a few ulps
    cols = np.where(gain >= (top - tol)[:, seg], np.arange(a), a)
    first = np.minimum.reduceat(cols, starts, axis=1)
    row = np.full(starts.size, -1)
    best = np.full(starts.size, -np.inf)
    for j in range(c):
        better = top[j] > best + tol
        row[better] = j
        best[better] = top[j, better]
    row[best <= tol] = -1
    return row, first[np.maximum(row, 0), np.arange(starts.size)]


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    bootstraps: list[np.ndarray],
    rngs: list[np.random.Generator],
    params: ForestParams,
) -> list[Tree]:
    """Grow one tree per (bootstrap, generator) pair, all of them level by level.

    A sample is a (tree, bootstrap row) pair, and its node at the current
    level is the only state kept between levels. A node is open when it
    holds at least 2 * min_node samples and lies above max_depth. At each
    level a tree draws the candidate features of all its open nodes in one
    call, ``rng.random((k, m)).argsort(axis=1)[:, :mtry]``, unless
    ``mtry == m``, when every feature is a candidate and nothing is drawn.
    The open samples are then sorted for each candidate by (node, rank of
    the row's feature value), and ``_best_splits`` scores every open node
    of every tree at once. An open node without a valid split becomes a
    leaf, as does every node that is not open. Leaf values are bootstrap
    means. Nodes are numbered level by level, so children always come after
    their parent, and a split node's right child directly follows its left.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n_trees = len(bootstraps)
    m = X.shape[1]
    mtry = params.resolved_mtry(m)
    min_node = params.min_node
    rows = np.concatenate(bootstraps).astype(np.int64)
    Xs, ys = X[rows], y[rows]
    n = X.shape[0]
    # rank[s, f]: place of sample s's row in feature f; rows that tie in X go by row index
    rank = np.argsort(np.argsort(X, axis=0, kind="stable"), axis=0, kind="stable")[rows]

    # each sample's node at the current level, -1 once in a leaf
    node_of = np.repeat(np.arange(n_trees), [b.size for b in bootstraps])
    level_tree = np.arange(n_trees)  # tree of each node at the current level
    n_nodes = np.ones(n_trees, dtype=np.int64)
    levels = []
    depth = 0
    while level_tree.size:
        k = level_tree.size
        live = np.flatnonzero(node_of >= 0)
        node = node_of[live]
        count = np.bincount(node, minlength=k)
        value = np.bincount(node, weights=ys[live], minlength=k) / count
        feature = np.full(k, -1, dtype=np.int64)
        threshold = np.zeros(k)
        is_open = count >= 2 * min_node
        if params.max_depth is not None and depth >= params.max_depth:
            is_open[:] = False
        opened = np.flatnonzero(is_open)
        split = opened[:0]
        if opened.size:
            cand = _draw_candidates(rngs, level_tree[opened], m, mtry)
            samples = live[is_open[node]]
            q = (np.cumsum(is_open) - 1)[node_of[samples]]  # each sample's open-node index
            # keys tie only between bootstrap copies of one row, which agree in
            # every feature and the response, so an unstable sort gives the same trees
            key = q * n + rank[samples, cand[q].T]
            samples = samples[np.argsort(key, axis=1)]
            # each open node's candidates, spread over its samples
            feat = cand[np.repeat(np.arange(opened.size), count[opened])].T
            xs = Xs[samples, feat]
            starts = np.cumsum(count[opened]) - count[opened]
            row, col = _best_splits(xs, ys[samples], starts, min_node)
            ok = row >= 0
            split = opened[ok]
            feature[split] = cand[ok, row[ok]]
            threshold[split] = 0.5 * (xs[row[ok], col[ok]] + xs[row[ok], col[ok] + 1])

        # children: the r-th split node of a tree at this level gets ids n + 2r, n + 2r + 1
        split_tree = level_tree[split]
        left = np.full(k, -1, dtype=np.int64)
        left[split] = (
            n_nodes[split_tree] + 2 * (np.arange(split.size) - np.searchsorted(split_tree, split_tree))
        )
        n_nodes += 2 * np.bincount(split_tree, minlength=n_trees)
        levels.append((level_tree, feature, threshold, left, np.where(feature >= 0, 0.0, value),
                       count))

        # each sample moves to its child's index at the next level, 2q or 2q + 1 for split q
        child = np.full(k, -1, dtype=np.int64)
        child[split] = 2 * np.arange(split.size)
        go_right = Xs[live, feature[node]] > threshold[node]
        node_of[live] = np.where(child[node] >= 0, child[node] + go_right, -1)
        level_tree = np.repeat(split_tree, 2)
        depth += 1

    # within a tree, levels and the nodes of a level come in id order
    columns = [np.concatenate(c) for c in zip(*levels)]
    by_tree = np.argsort(columns[0], kind="stable")
    bounds = np.cumsum(n_nodes)[:-1]
    arrays = [np.split(c[by_tree], bounds) for c in columns[1:]]
    return [
        Tree(*(a[t] for a in arrays), np.asarray(boot, dtype=np.int64))
        for t, boot in enumerate(bootstraps)
    ]


def _draw_candidates(
    rngs: list[np.random.Generator], node_tree: np.ndarray, m: int, mtry: int
) -> np.ndarray:
    """Sorted candidate features of each node; one draw per tree, nodes grouped by tree.

    With ``mtry == m`` every feature is a candidate and no generator is drawn from.
    """
    if mtry == m:
        return np.broadcast_to(np.arange(m), (node_tree.size, m))
    cand = np.empty((node_tree.size, mtry), dtype=np.int64)
    trees, first, per_tree = np.unique(node_tree, return_index=True, return_counts=True)
    for t, i, k in zip(trees.tolist(), first.tolist(), per_tree.tolist()):
        cand[i : i + k] = rngs[t].random((k, m)).argsort(axis=1)[:, :mtry]
    cand.sort(axis=1)
    return cand


@dataclass
class ForestFit:
    """Center and radius ensembles sharing one scalar feature layout."""

    feature_names: tuple[str, ...]
    predictor_names: tuple[str, ...]
    params: ForestParams
    center_trees: list[Tree]
    radius_trees: list[Tree]
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

    def ensemble(component: str, y: np.ndarray) -> list[Tree]:
        trees = []
        per_chunk = max(1, _CHUNK_SAMPLES // n)
        for start in range(0, params.n_trees, per_chunk):
            rngs = [
                stream("tree", params.seed, component, t)
                for t in range(start, min(start + per_chunk, params.n_trees))
            ]
            boots = [rng.integers(0, n, n) for rng in rngs]  # each tree's bootstrap comes first
            trees += grow_trees(X, y, boots, rngs, params)
        return trees

    fit = ForestFit(train.feature_names(), train.predictor_names, params,
                    ensemble("center", train.y_center), ensemble("radius", train.y_radius))
    fit.oob = oob_error(fit, train)
    return fit


class _Nodes(NamedTuple):
    """An ensemble's node arrays, concatenated in tree order, and its word trees' distinct
    thresholds."""

    trees: list[Tree]
    bounds: np.ndarray  # tree t holds nodes bounds[t] up to bounds[t + 1]
    tree_of: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray  # an index into the concatenation
    value: np.ndarray
    word: np.ndarray  # per tree, whether it has at most 64 leaves
    pair_feature: np.ndarray  # the word trees' distinct (feature, threshold) pairs, sorted
    pair_threshold: np.ndarray
    pair: np.ndarray  # each word tree split node's pair, -1 at other nodes


def _pack(trees: list[Tree]) -> _Nodes:
    sizes = [t.feature.size for t in trees]
    bounds = np.cumsum([0] + sizes)
    tree_of = np.repeat(np.arange(len(trees)), sizes)
    feature, threshold, left, value = (
        np.concatenate([getattr(t, key) for t in trees])
        for key in ("feature", "threshold", "left", "value")
    )
    # every split node has two children, so a tree of at most 127 nodes has at most 64 leaves;
    # nodes that the root does not reach, which a model file may hold, only make a tree walk
    word = np.array(sizes) < 2 * _WORD_BITS
    split = np.flatnonzero((feature >= 0) & word[tree_of])
    split = split[np.argsort(threshold[split])]
    split = split[np.argsort(feature[split], kind="stable")]  # by feature, then threshold
    f, thr = feature[split], threshold[split]
    new = np.ones(split.size, dtype=bool)
    new[1:] = (f[1:] != f[:-1]) | (thr[1:] != thr[:-1])
    pair = np.full(feature.size, -1, dtype=np.int64)
    pair[split] = np.cumsum(new) - 1
    return _Nodes(trees, bounds, tree_of, feature, threshold, left + bounds[tree_of], value,
                  word, f[new], thr[new], pair)


def _tree_sums(
    trees: list[Tree], X: np.ndarray, out_of_bag: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``X``, its leaf values summed in tree order and how many trees counted it.

    With ``out_of_bag``, ``X`` holds the training rows and a tree counts only rows outside its
    bootstrap. ``_sums`` finds each (tree, row) pair's leaf by one of two paths that give the
    same bytes, and a per-tree mask picks the path: leaf bitvectors for the trees of at most
    64 leaves, the word trees, when ``X`` has more rows than they have distinct (feature,
    threshold) pairs, and the walk for every other tree. The tables hold a word per word tree
    and pair, so they pay for themselves only over more rows than pairs, and trees of more
    leaves would need several words each.
    """
    nodes = _pack(trees)
    return _sums(nodes, X, nodes.word & (X.shape[0] > nodes.pair_threshold.size), out_of_bag)


def _sums(
    nodes: _Nodes, X: np.ndarray, bits: np.ndarray, out_of_bag: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """``_tree_sums`` with tree t on leaf bitvectors where ``bits[t]`` and walked elsewhere;
    a tree in ``bits`` must have at most 64 leaves.

    Blocks of about ``_CHUNK_SAMPLES`` (tree, row) pairs find their leaves, and each block's
    rows are then added one tree at a time in tree order.

    - The walk: a pair steps from split node ``i`` to ``left[i] + (x > threshold[i])``, its
      right child when ``x > threshold[i]``. A block whose trees all take bitvectors skips it.
    - Leaf bitvectors, after QuickScorer (Lucchese et al., SIGIR 2015; Dato et al., ACM TOIS
      35(2), 2016): bit k of a tree's 64-bit word stands for its k-th leaf from the left. A
      split node clears the bits of its left subtree's leaves when ``x > threshold``. Feature
      f's table holds, per tree and per count r of f's distinct thresholds below x, the AND of
      the masks of the nodes on those r thresholds. ``searchsorted(thresholds, x, "left")``
      counts the thresholds below x, the nodes where the walk goes right. A row ANDs one table
      entry per feature, and its leaf is the lowest bit left set: each leaf to its left lies in
      the left subtree of a node where the walk goes right, and no node on the row's own path
      clears it. Tables have a line per tree in ``bits``, by rank among those trees; they are
      built for about ``_TABLE_WORDS`` words of trees at a time, or one block's trees if those
      take more, when a block first needs them.
    """
    n, m = X.shape
    n_trees = len(nodes.trees)
    rank = np.cumsum(bits) - bits  # of each tree among the trees in bits
    one = np.uint64(1)
    if bits.any():
        first = _first_leaves(nodes, nodes.bounds[np.flatnonzero(bits)])
        reached = first >= 0
        split = np.flatnonzero(reached & (nodes.feature >= 0))
        leaf = np.flatnonzero(reached & (nodes.feature < 0))
        # split node s clears leaves first[s] up to first[right child], its left subtree
        mask = ~((one << first[nodes.left[split] + 1].astype(np.uint64))
                 - (one << first[split].astype(np.uint64)))
        # feature f's columns are starts[f] + f, no threshold below x, up to starts[f + 1] + f
        starts = np.searchsorted(nodes.pair_feature, np.arange(m + 1))
        split_rank = rank[nodes.tree_of[split]]
        split_column = nodes.pair[split] + nodes.feature[split] + 1
        spans, columns = [], []
        for f in np.unique(nodes.pair_feature).tolist():
            a, b = starts[f] + f, starts[f + 1] + f + 1
            spans.append(slice(a, b))
            below = np.searchsorted(nodes.pair_threshold[starts[f] : starts[f + 1]], X[:, f],
                                    "left")
            columns.append(a + np.where(np.isnan(X[:, f]), 0, below))  # nan > threshold is false
        # the k-th leaf from the left of the tree of rank t at t * 64 + k
        n_words = int(bits.sum())
        leaf_value = np.zeros(n_words * _WORD_BITS)
        leaf_value[rank[nodes.tree_of[leaf]] * _WORD_BITS + first[leaf]] = nodes.value[leaf]
        width = nodes.pair_threshold.size + m
        first_rank, table = 0, np.empty((0, width), dtype=np.uint64)  # the current group's
    Xt = X.T.ravel()  # X[r, f] is Xt[f * n + r]
    total = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    per_block = max(1, _CHUNK_SAMPLES // max(1, n))
    for start in range(0, n_trees, per_block):
        stop = min(start + per_block, n_trees)
        counted = np.ones((stop - start, n), dtype=bool)
        if out_of_bag:
            for i, tree in enumerate(nodes.trees[start:stop]):
                counted[i, tree.bootstrap] = False
        word = bits[start:stop]
        if word.all():
            values = np.empty((stop - start, n))
        else:
            lo, hi = nodes.bounds[start], nodes.bounds[stop]
            feature, threshold, value = (
                a[lo:hi] for a in (nodes.feature, nodes.threshold, nodes.value)
            )
            left = nodes.left[lo:hi] - lo
            inner = feature >= 0
            # pair b * n + r of tree start + b and row r finds X[r, f] at pair + (f - b) * n in Xt
            offset = (feature - (nodes.tree_of[lo:hi] - start)) * n
            node = np.repeat(nodes.bounds[start:stop] - lo, n)  # each pair starts at its root
            active = np.flatnonzero((counted & ~word[:, None]).ravel() & inner[node])
            while active.size:
                at = node[active]
                step = left[at] + (Xt[offset[at] + active] > threshold[at])
                node[active] = step
                active = active[inner[step]]
            values = value[node].reshape(stop - start, n)
        if word.any():
            r0, r1 = rank[start], rank[start] + word.sum()  # the ranks of the block's trees in bits
            if r1 > first_rank + len(table):
                end = min(n_words, max(r1, r0 + _TABLE_WORDS // width))
                first_rank, table = r0, np.full((end - r0, width), _ALL_LEAVES)
                a, b = np.searchsorted(split_rank, [r0, end])
                np.bitwise_and.at(table, (split_rank[a:b] - r0, split_column[a:b]), mask[a:b])
                for span in spans:
                    np.bitwise_and.accumulate(table[:, span], axis=1, out=table[:, span])
            words = np.full((r1 - r0, n), _ALL_LEAVES)
            for col in columns:
                words &= table[r0 - first_rank : r1 - first_rank, col]
            # words ^ (words - 1) holds the lowest set bit and the bits below it
            values[word] = leaf_value[_WORD_BITS * np.arange(r0, r1)[:, None] - 1
                                      + np.bitwise_count(words ^ (words - one))]
        for row, kept in zip(values, counted):
            np.add(total, row, out=total, where=kept)
            counts += kept
    return total, counts


def _first_leaves(nodes: _Nodes, roots: np.ndarray) -> np.ndarray:
    """Per node of the trees with the given roots, the place among its tree's leaves, left to
    right, of its subtree's leftmost leaf; -1 at other nodes and at nodes that their root does
    not reach. The trees must have at most 64 leaves.

    A pass per depth level collects each level's split nodes. Counting each subtree's leaves
    bottom up, then numbering top down, gives a left child its parent's first leaf and a right
    child that place plus its sibling's leaf count.
    """
    feature, left = nodes.feature, nodes.left
    leaves = (feature < 0).astype(np.int64)
    levels, level = [], roots
    while level.size:
        level = level[feature[level] >= 0]
        levels.append(level)
        level = np.concatenate([left[level], left[level] + 1])
    for inner in reversed(levels):
        leaves[inner] = leaves[left[inner]] + leaves[left[inner] + 1]
    first = np.full(feature.size, -1, dtype=np.int64)
    first[roots] = 0
    for inner in levels:
        first[left[inner]] = first[inner]
        first[left[inner] + 1] = first[inner] + leaves[left[inner]]
    return first


def predict_forest_rows(fit: ForestFit, queries: np.ndarray) -> PredictionSet:
    """Average tree outputs for query rows in (centers, radii) layout."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != len(fit.feature_names):
        raise DimensionError(
            f"model has {len(fit.feature_names)} features, queries have {queries.shape[1]}"
        )
    centers = np.divide(*_tree_sums(fit.center_trees, queries))
    radii = np.divide(*_tree_sums(fit.radius_trees, queries))
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
        acc, hits = _tree_sums(trees, X, out_of_bag=True)
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
        return {key: getattr(tree, key).tolist() for key in _TREE_ARRAYS}

    doc = {
        "format_version": 1,
        "model": "rf",
        "feature_names": list(fit.feature_names),
        "predictors": list(fit.predictor_names),
        "params": asdict(fit.params),
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
            tdoc = {"bootstrap": [], **tdoc}  # files may omit the bootstrap
            arrays = {k: np.asarray(tdoc[k], dtype=dtype) for k, dtype in _TREE_ARRAYS.items()}
            problem = _tree_problem(arrays, len(feature_names))
            if problem:
                raise ConfigError(f"{key}[{i}]: {problem}")
            trees.append(_level_order(arrays))
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


def _tree_problem(arrays: dict, n_features: int) -> str | None:
    """Why a model file's tree arrays could not be numbered and walked, or None.

    Every split node's children must come after it (``grow_trees`` numbers
    them so), which rules out cycles, and no node may be the child of two
    split nodes, or both children of one; indices and features must be in
    range, and thresholds and values finite.
    """
    feature, left, right = arrays["feature"], arrays["left"], arrays["right"]
    n = feature.size
    if n == 0 or any(a.shape != (n,) for k, a in arrays.items() if k != "bootstrap"):
        return "node arrays must be nonempty lists of equal length"
    split = np.nonzero(feature >= 0)[0]
    for key, child in (("left", left[split]), ("right", right[split])):
        if np.any(child <= split) or np.any(child >= n):
            return f"'{key}' must point every split node to a later node in range"
    children = np.concatenate([left[split], right[split]])
    if np.unique(children).size < children.size:
        return "'left' and 'right' must name each node at most once"
    if np.any(feature >= n_features):
        return f"'feature' must be below {n_features}"
    for key in ("threshold", "value"):
        if not np.all(np.isfinite(arrays[key])):
            return f"{key!r} must be finite"
    return None


def _level_order(arrays: dict) -> Tree:
    """The Tree of a model file's arrays, which must pass ``_tree_problem``.

    A tree whose split nodes each have ``right == left + 1`` is kept as it
    is. Files written before level-wise growth number nodes depth first;
    such a tree is renumbered level by level, as ``grow_trees`` numbers
    nodes, and nodes the root does not reach are dropped.
    """
    feature, left, right = arrays["feature"], arrays["left"], arrays["right"]
    split = feature >= 0
    if np.all(right[split] == left[split] + 1):
        return Tree(feature, arrays["threshold"], left, arrays["value"], arrays["count"],
                    arrays["bootstrap"])
    levels = [np.zeros(1, dtype=np.int64)]
    while levels[-1].size:
        inner = levels[-1][feature[levels[-1]] >= 0]
        levels.append(np.column_stack([left[inner], right[inner]]).ravel())
    order = np.concatenate(levels)
    new_id = np.empty(feature.size, dtype=np.int64)
    new_id[order] = np.arange(order.size)
    split = split[order]
    new_left = np.full(order.size, -1, dtype=np.int64)
    new_left[split] = new_id[left[order[split]]]
    return Tree(feature[order], arrays["threshold"][order], new_left, arrays["value"][order],
                arrays["count"][order], arrays["bootstrap"])
