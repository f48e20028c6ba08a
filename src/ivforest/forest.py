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
on how many trees the forest has. A tree is grown on its distinct bootstrap
rows, each weighted by how many times it was drawn (as scikit-learn's
forests pass bootstrap counts as sample weights, and ranger keeps in-bag
counts: Wright & Ziegler, JSS 77(1), 2017). Node counts and ``min_node``
still count every draw, and leaf means sum every draw in draw order, so
the trees are those grown on the draws themselves. An ``Ensemble`` holds
what growth decides, split features, thresholds, leaf values and bootstraps,
laid end to end in tree order. Growth and the model-file reader build it,
and it derives child indices (``_children``) and all else that prediction
reads once. A ``Tree`` is a view of one tree, for tests and checks.

Prediction and out-of-bag errors sum leaf values through ``_tree_sums``,
one tree at a time in tree order. It hands ``_sums`` a per-tree mask: trees
of at most 64 leaves find their leaves by leaf bitvectors (QuickScorer:
Lucchese et al., SIGIR 2015; Dato et al., ACM TOIS 35(2), 2016) when there
are more rows than those trees have distinct (feature, threshold) pairs, and
every other tree is walked. One loop over blocks of (tree, row) pairs serves
both paths, which give the same bytes. A tree's leaves are numbered left to
right from its subtrees' leaf counts.

Model files hold trees numbered as ``grow_trees`` numbers them, and no other,
as compact JSON. Trees are written and read one at a time: the writer encodes
each tree's object on its own, and the reader turns each tree's lists into
arrays as the parser closes the tree, so neither holds a file's trees as
Python lists, and each peaks at about 3x the file. The reader checks each
tree's keys, types and lengths in turn up to the first faulty tree, then the
trees below it at once, laid end to end as the ensemble they make; a file
with several faulty trees names the lowest tree that any check rejects.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, DimensionError, OOBUnavailableError, UnderdeterminedError
from .frame import IntervalFrame
from .intervals import PredictionSet
from .rng import stream

# fit_forest grows trees together in chunks of this many bootstrap draws,
# or one tree when a tree has more. Chunk boundaries fall at fixed tree
# indices, so tree t never depends on n_trees. _sums finds the leaves of
# blocks of as many (tree, query row) pairs.
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
    min_node: int = 5  # in bootstrap draws, copies of a row included: a node opens at 2 * min_node
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
    """One tree of an ``Ensemble``, as views of its arrays, plus its bootstrap row indices.

    Nodes are numbered level by level: the k-th split node's children are
    2k + 1 and 2k + 2, so children are derived from ``feature``.
    """

    feature: np.ndarray  # int, -1 marks a leaf
    threshold: np.ndarray
    value: np.ndarray  # leaf mean (0 for internal nodes)
    bootstrap: np.ndarray  # indices into the training frame, with repetition

    @property
    def left(self) -> np.ndarray:
        return _children(self.feature, [0])

    @property
    def right(self) -> np.ndarray:
        """``left + 1`` at split nodes, -1 at leaves."""
        return np.where(self.feature >= 0, self.left + 1, -1)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))


class Ensemble:
    """An ensemble's trees laid end to end in tree order, from their node arrays, node counts,
    bootstraps and draw counts, and what prediction derives from them, once."""

    def __init__(self, feature, threshold, value, n_nodes, bootstrap, n_draws):
        self.feature, self.threshold, self.value = feature, threshold, value
        self.bootstrap, self.n_trees = bootstrap, len(n_nodes)
        self.n_nodes, self.n_draws = np.asarray(n_nodes), np.asarray(n_draws)
        # tree t holds nodes bounds[t] up to bounds[t + 1], and draws draw_bounds[t] up to
        # draw_bounds[t + 1] of the bootstrap
        self.bounds = np.cumsum(np.append(0, n_nodes))
        self.draw_bounds = np.cumsum(np.append(0, n_draws))
        self.tree_of = np.repeat(np.arange(self.n_trees), n_nodes)
        # an index into the ensemble: _children's, moved by its tree's start
        left = _children(feature, self.bounds[:-1])
        self.left = np.where(left >= 0, left + self.bounds[self.tree_of], -1)
        # per tree, whether it has at most 64 leaves: a tree of n nodes has (n + 1) / 2 leaves
        self.word = self.n_nodes < 2 * _WORD_BITS
        split = np.flatnonzero((feature >= 0) & self.word[self.tree_of])
        split = split[np.argsort(threshold[split])]
        split = split[np.argsort(feature[split], kind="stable")]  # by feature, then threshold
        f, thr = feature[split], threshold[split]
        new = np.ones(split.size, dtype=bool)
        new[1:] = (f[1:] != f[:-1]) | (thr[1:] != thr[:-1])
        # the word trees' distinct (feature, threshold) pairs, sorted, and each of their split
        # nodes' pair; -1 at other nodes
        self.pair_feature, self.pair_threshold = f[new], thr[new]
        self.pair = np.full(feature.size, -1, dtype=np.int64)
        self.pair[split] = np.cumsum(new) - 1

    @property
    def trees(self) -> list[Tree]:
        """Each tree, its arrays views of this ensemble's."""
        nodes = (np.split(a, self.bounds[1:-1]) for a in (self.feature, self.threshold, self.value))
        return list(map(Tree, *nodes, np.split(self.bootstrap, self.draw_bounds[1:-1])))


# A tree's arrays in a model file, each with the dtype it is read as. Files
# carry "left" and "right" for readers that route with them; a Tree derives
# both, and the reader checks that the file's agree. A "count" key, which
# files written before carried, is not read.
_TREE_ARRAYS = {"feature": np.int64, "threshold": float, "left": np.int64, "right": np.int64,
                "value": float, "bootstrap": np.int64}
_NODE_ARRAYS = ("feature", "threshold", "left", "right", "value")  # one entry per node
_JSON_TYPES = {np.int64: {int}, float: {int, float}}  # the types each dtype's lists may hold
# what oob_error reports per component, and the json_value kind a model file holds each as
_OOB_KINDS = {"mse": float, "r2": float, "rows_used": int, "rows_skipped": int}


def _children(feature: np.ndarray, starts) -> np.ndarray:
    """Each split node's left child in trees laid end to end, tree i from node ``starts[i]``,
    as an index within its own tree; -1 at leaves. A tree's k-th split node has children
    2k + 1 and 2k + 2."""
    split = feature >= 0
    before = np.cumsum(split) - split  # split nodes before each node
    first = np.repeat(starts, np.diff(starts, append=feature.size))  # each node's tree start
    return np.where(split, 2 * (before - before[first]) + 1, -1)


def _best_splits(
    xs: np.ndarray, ys: np.ndarray, ws: np.ndarray, starts: np.ndarray, min_child: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best split of every node over its candidate features, scored in one pass.

    Row ``j`` of ``xs``, ``ys`` and ``ws`` holds each node's ``j``-th
    candidate feature, the responses and the whole-number weights, sorted
    by that feature within the node; node ``i`` occupies columns
    ``starts[i]`` up to the next start. Counts and sums are weighted: a
    node's count is the sum of its weights, its mean ``sum(w * y) / count``,
    and each side of a split sums ``w * z`` and ``w``. A split after column
    ``a`` puts the node's columns up to ``a`` on the left; it is valid when
    the feature value changes there and both children keep a weight of at
    least ``min_child``. Gains are computed on node-centered responses
    ``z``, so they keep their precision at any response magnitude.

    Returns per node the winning row and the column of its split. The row
    is -1 when no gain exceeds 1e-12 * max(1, node RSS): the RSS about the
    node mean, not the sum of squared responses, so that the tolerance does
    not grow with the response magnitude. Ties go to the lower row, then
    the lower column; gains within that same tolerance of the leader, be it
    in another row or the same one, are ties.
    """
    c, a = xs.shape
    size = np.diff(np.append(starts, a))  # columns per node

    def spread(per_node):  # each node's value on each of its columns
        return np.repeat(per_node, size, axis=-1)

    counts = np.add.reduceat(ws[0], starts)
    z = ys - spread(np.add.reduceat(ws[0] * ys[0], starts) / counts)
    wz = ws * z
    tol = 1e-12 * np.maximum(1.0, np.add.reduceat(wz[0] * z[0], starts))
    left = np.cumsum(wz, axis=1)  # the running sum, then each column's left-side sum
    before = np.zeros((c, starts.size))  # the running sum before each node; starts[0] is 0
    before[:, 1:] = left[:, starts[1:] - 1]
    node_total = left[:, starts + size - 1] - before
    left -= spread(before)
    right = spread(node_total)
    right -= left
    n_left = np.cumsum(ws, axis=1)
    n_left -= spread(n_left[:, starts] - ws[:, starts])
    n_right = spread(counts) - n_left
    valid = np.zeros((c, a), dtype=bool)
    valid[:, :-1] = xs[:, :-1] < xs[:, 1:]
    valid &= (n_left >= max(1, min_child)) & (n_right >= max(1, min_child))
    # left² / n_left + right² / max(n_right, 1) - total² / count, in place
    gain = left * left
    gain /= n_left
    right *= right
    right /= np.maximum(n_right, 1, out=n_right)
    gain += right
    gain -= spread(node_total * node_total / counts)
    gain[~valid] = -np.inf
    top = np.maximum.reduceat(gain, starts, axis=1)
    # the running sum carries rounding from earlier nodes of the row, so
    # exact ties within a feature can differ by a few ulps
    cols = np.where(gain >= spread(top - tol), np.arange(a), a)
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
) -> Ensemble:
    """Grow one tree per (bootstrap, generator) pair, all of them level by level, as one
    ``Ensemble``."""
    return Ensemble(*_grow(X, y, bootstraps, rngs, params))


def _grow(X, y, bootstraps, rngs, params) -> tuple:
    """``grow_trees``' trees, from its arguments, as the arrays an ``Ensemble`` is built from, in
    its argument order.

    A sample is a tree's distinct bootstrap row, weighted by how many times
    the tree drew it, and its node at the current level is the only state
    kept between levels. Counts are weighted, so a node's count is its
    bootstrap draws, copies included. A node is open when it holds at least
    2 * min_node draws and lies above max_depth. At each level a tree draws
    the candidate features of all its open nodes in one call,
    ``rng.random((k, m)).argsort(axis=1)[:, :mtry]``, unless ``mtry == m``,
    when every feature is a candidate and nothing is drawn. The open samples
    are then sorted for each candidate by (node, rank of the row's feature
    value), and ``_best_splits`` scores every open node of every tree at
    once. An open node without a valid split becomes a leaf, as does every
    node that is not open. Leaf values are bootstrap means: after the last
    level each draw goes to its sample's leaf, and one ``bincount`` adds the
    draws' responses in draw order. A tree's nodes come level by level, each
    level's in its parents' order, which is the numbering ``_children``
    derives; node counts are not kept.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n_trees = len(bootstraps)
    n, m = X.shape
    mtry = params.resolved_mtry(m)
    min_node = params.min_node
    draws = np.concatenate(bootstraps).astype(np.int64)
    # drawn[t * n + r]: how many times tree t drew row r; samples come by tree, then row
    tree_row = np.repeat(np.arange(n_trees), [b.size for b in bootstraps]) * n + draws
    drawn = np.bincount(tree_row, minlength=n_trees * n)
    present = np.flatnonzero(drawn)
    sample_of_draw = (np.cumsum(drawn > 0) - 1)[tree_row]
    w = drawn[present].astype(float)
    rows = present % n
    Xs, ys = X[rows], y[rows]
    # rank[s, f]: place of sample s's row in feature f; rows that tie in X go by row index
    rank = np.argsort(np.argsort(X, axis=0, kind="stable"), axis=0, kind="stable")[rows]

    node_of = present // n  # each sample's node at the current level, -1 once in a leaf
    leaf_of = np.empty(present.size, dtype=np.int64)  # its leaf's place among all levels' nodes
    level_tree = np.arange(n_trees)  # tree of each node at the current level
    levels = []
    depth = first_node = 0  # first_node: how many nodes the earlier levels hold
    while level_tree.size:
        k = level_tree.size
        live = np.flatnonzero(node_of >= 0)
        node = node_of[live]
        count = np.bincount(node, weights=w[live], minlength=k).astype(np.int64)
        feature = np.full(k, -1, dtype=np.int64)
        threshold = np.zeros(k)
        is_open = count >= 2 * min_node
        if params.max_depth is not None and depth >= params.max_depth:
            is_open[:] = False
        opened = np.flatnonzero(is_open)
        split = opened[:0]
        if opened.size:
            cand = _draw_candidates(rngs, level_tree[opened], m, mtry).T  # a row per candidate
            samples = live[is_open[node]]
            q = (np.cumsum(is_open) - 1)[node_of[samples]]  # each sample's open-node index
            # a row is at most one sample of a tree, so keys are unique within an open
            # node, and the unstable sort still orders every node one way. rank[s, f] and
            # Xs[s, f] are read flat, at s * m + f, which takes half the time of 2-D indexing
            key = q * n + rank.ravel()[samples * m + cand[:, q]]
            samples = samples[np.argsort(key, axis=1)]
            size = np.bincount(q, minlength=opened.size)  # samples per open node
            # each open node's candidates, spread over its samples
            xs = Xs.ravel()[samples * m + np.repeat(cand, size, axis=1)]
            row, col = _best_splits(xs, ys[samples], w[samples], np.cumsum(size) - size,
                                    min_node)
            ok = row >= 0
            split = opened[ok]
            feature[split] = cand[row[ok], ok]
            threshold[split] = 0.5 * (xs[row[ok], col[ok]] + xs[row[ok], col[ok] + 1])

        levels.append((level_tree, feature, threshold, count))

        # each sample moves to its child's index at the next level, 2q or 2q + 1 for split q
        child = np.full(k, -1, dtype=np.int64)
        child[split] = 2 * np.arange(split.size)
        go_right = Xs[live, feature[node]] > threshold[node]
        node_of[live] = np.where(child[node] >= 0, child[node] + go_right, -1)
        ended = child[node] < 0
        leaf_of[live[ended]] = first_node + node[ended]
        first_node += k
        level_tree = np.repeat(level_tree[split], 2)
        depth += 1

    level_tree, feature, threshold, count = (np.concatenate(c) for c in zip(*levels))
    # bincount adds in input order, so each leaf sums its draws' responses in draw order
    sums = np.bincount(leaf_of[sample_of_draw], weights=y[draws], minlength=feature.size)
    value = sums / count  # no draw ends at a split node, so its value is 0
    # within a tree, levels and the nodes of a level come in id order
    by_tree = np.argsort(level_tree, kind="stable")
    return (feature[by_tree], threshold[by_tree], value[by_tree], np.bincount(level_tree), draws,
            [b.size for b in bootstraps])


def _draw_candidates(
    rngs: list[np.random.Generator], node_tree: np.ndarray, m: int, mtry: int
) -> np.ndarray:
    """Sorted candidate features of each node; one draw per tree, nodes in tree order.

    With ``mtry == m`` every feature is a candidate and no generator is drawn from.
    """
    if mtry == m:
        return np.broadcast_to(np.arange(m), (node_tree.size, m))
    trees, per_tree = np.unique(node_tree, return_counts=True)
    draws = [rngs[t].random((k, m)) for t, k in zip(trees.tolist(), per_tree.tolist())]
    return np.sort(np.concatenate(draws).argsort(axis=1)[:, :mtry], axis=1)


@dataclass
class ForestFit:
    """Center and radius ensembles sharing one scalar feature layout."""

    feature_names: tuple[str, ...]
    predictor_names: tuple[str, ...]
    params: ForestParams
    center: Ensemble
    radius: Ensemble
    oob: dict = field(default_factory=dict)
    # each ensemble's trees, as views of its arrays
    center_trees = property(lambda self: self.center.trees)
    radius_trees = property(lambda self: self.radius.trees)


def fit_forest(train: IntervalFrame, params: ForestParams | None = None) -> ForestFit:
    """Grow both ensembles and compute out-of-bag errors."""
    if params is None:
        params = ForestParams()
    if train.n < 2:
        raise UnderdeterminedError(f"forest fit needs n >= 2 rows, got {train.n}")
    X = train.features()
    n = train.n
    params.resolved_mtry(X.shape[1])  # validate early

    def ensemble(component: str, y: np.ndarray) -> Ensemble:
        parts = []
        per_chunk = max(1, _CHUNK_SAMPLES // n)
        for start in range(0, params.n_trees, per_chunk):
            rngs = [
                stream("tree", params.seed, component, t)
                for t in range(start, min(start + per_chunk, params.n_trees))
            ]
            boots = [rng.integers(0, n, n) for rng in rngs]  # each tree's bootstrap comes first
            parts.append(_grow(X, y, boots, rngs, params))
        # each array of the chunks laid end to end, so that the ensemble is derived once
        return Ensemble(*map(np.concatenate, zip(*parts)))

    fit = ForestFit(train.feature_names(), train.predictor_names, params,
                    ensemble("center", train.y_center), ensemble("radius", train.y_radius))
    fit.oob = oob_error(fit, train)
    return fit


def _tree_sums(
    ens: Ensemble, X: np.ndarray, out_of_bag: bool = False
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
    return _sums(ens, X, ens.word & (X.shape[0] > ens.pair_threshold.size), out_of_bag)


def _sums(
    ens: Ensemble, X: np.ndarray, bits: np.ndarray, out_of_bag: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """``_tree_sums`` with tree t on leaf bitvectors where ``bits[t]`` and walked elsewhere;
    a tree in ``bits`` must have at most 64 leaves.

    Blocks of about ``_CHUNK_SAMPLES`` (tree, row) pairs find their leaves. A reduction adds the
    running total and the block's trees' leaf values a row at a time, in tree order; over one
    column it would add pairwise, so a single row of ``X`` goes as two.

    - The walk: a pair steps from split node ``i`` to ``left[i] + (x > threshold[i])``, its
      right child when ``x > threshold[i]``. A block whose trees all take bitvectors skips it.
    - Leaf bitvectors, after QuickScorer (Lucchese et al., SIGIR 2015; Dato et al., ACM TOIS
      35(2), 2016): bit k of a tree's 64-bit word stands for its k-th leaf from the left. A
      split node clears the bits of its left subtree's leaves when ``x > threshold``. Feature
      f's table holds, per tree and per count r of f's distinct thresholds below x, the AND of
      the masks of the nodes on those r thresholds. ``searchsorted(thresholds, x, "left")``
      counts the thresholds below x, the nodes where the walk goes right, on f's contiguous row
      of ``X.T``; nan counts none. A row ANDs one table entry per feature that has a pair,
      starting from the first such feature's entry, and its leaf is the lowest bit left set:
      each leaf to its left lies in the left subtree of a node where the walk goes right, and
      no node on the row's own path clears it. With no pair, every word keeps all its bits,
      leaf 0. Tables have a line per tree in ``bits``, by rank among those trees; they are built
      for about ``_TABLE_WORDS`` words of trees at a time, or one block's trees if those take
      more, when a block first needs them. A block reads each feature's entries with one
      ``take`` of its columns along the block's lines, so each line is read contiguously.
    """
    rows = X.shape[0]
    X = np.repeat(X, 2, axis=0) if rows == 1 else X
    n, m = X.shape
    rank = np.cumsum(bits) - bits  # of each tree among the trees in bits
    one = np.uint64(1)
    Xt = X.T.ravel()  # X[r, f] is Xt[f * n + r]
    if bits.any():
        first = _first_leaves(ens, ens.bounds[np.flatnonzero(bits)])
        in_bits = first >= 0  # the nodes of the trees in bits
        split = np.flatnonzero(in_bits & (ens.feature >= 0))
        leaf = np.flatnonzero(in_bits & (ens.feature < 0))
        # split node s clears leaves first[s] up to first[right child], its left subtree
        mask = ~((one << first[ens.left[split] + 1].astype(np.uint64))
                 - (one << first[split].astype(np.uint64)))
        # feature f's columns are starts[f] + f, no threshold below x, up to starts[f + 1] + f
        starts = np.searchsorted(ens.pair_feature, np.arange(m + 1))
        split_rank = rank[ens.tree_of[split]]
        split_column = ens.pair[split] + ens.feature[split] + 1
        spans, columns = [], []
        for f in np.unique(ens.pair_feature).tolist():
            a, b = starts[f] + f, starts[f + 1] + f + 1
            spans.append(slice(a, b))
            x = Xt[f * n : (f + 1) * n]
            below = np.searchsorted(ens.pair_threshold[starts[f] : starts[f + 1]], x, "left")
            columns.append(a + np.where(np.isnan(x), 0, below))  # nan > threshold is false
        # the k-th leaf from the left of the tree of rank t at t * 64 + k
        n_words = int(bits.sum())
        leaf_value = np.zeros(n_words * _WORD_BITS)
        leaf_value[rank[ens.tree_of[leaf]] * _WORD_BITS + first[leaf]] = ens.value[leaf]
        width = ens.pair_threshold.size + m
        first_rank, table = 0, np.empty((0, width), dtype=np.uint64)  # the current group's
    inner = ens.feature >= 0
    # pair b * n + r of tree start + b and row r finds X[r, f] at pair + offset + start * n in Xt
    offset = (ens.feature - ens.tree_of) * n
    total = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    per_block = max(1, _CHUNK_SAMPLES // max(1, n))
    for start in range(0, ens.n_trees, per_block):
        stop = min(start + per_block, ens.n_trees)
        block = np.empty((stop - start + 1, n))
        block[0] = total
        values = block[1:]  # tree start + b's leaf values in row b
        counted = np.ones(block.shape, dtype=bool)
        if out_of_bag:
            draws = ens.draw_bounds[start : stop + 1]
            row = np.repeat(np.arange(1, stop - start + 1), np.diff(draws))  # each draw's tree
            counted[row, ens.bootstrap[draws[0] : draws[-1]]] = False
        word = bits[start:stop]
        if not word.all():
            node = np.repeat(ens.bounds[start:stop], n)  # each pair starts at its root
            active = np.flatnonzero((counted[1:] & ~word[:, None]).ravel() & inner[node])
            while active.size:
                at = node[active]
                step = ens.left[at] + (Xt[offset[at] + start * n + active] > ens.threshold[at])
                node[active] = step
                active = active[inner[step]]
            values[:] = ens.value[node].reshape(values.shape)
        if word.any():
            r0, r1 = rank[start], rank[start] + word.sum()  # the ranks of the block's trees in bits
            if r1 > first_rank + len(table):
                end = min(n_words, max(r1, r0 + _TABLE_WORDS // width))
                first_rank, table = r0, np.full((end - r0, width), _ALL_LEAVES)
                a, b = np.searchsorted(split_rank, [r0, end])
                np.bitwise_and.at(table, (split_rank[a:b] - r0, split_column[a:b]), mask[a:b])
                for span in spans:
                    np.bitwise_and.accumulate(table[:, span], axis=1, out=table[:, span])
            # with no pair, every word keeps all its bits: leaf 0
            lines = table[r0 - first_rank : r1 - first_rank]
            words = (lines.take(columns[0], axis=1) if columns
                     else np.full((r1 - r0, n), _ALL_LEAVES))
            for col in columns[1:]:
                words &= lines.take(col, axis=1)
            # words ^ (words - 1) holds the lowest set bit and the bits below it
            values[word] = leaf_value[_WORD_BITS * np.arange(r0, r1)[:, None] - 1
                                      + np.bitwise_count(words ^ (words - one))]
        np.add.reduce(block, axis=0, out=total, where=counted, initial=0.0)
        counts += counted[1:].sum(axis=0)
    return total[:rows], counts[:rows]


def _first_leaves(ens: Ensemble, roots: np.ndarray) -> np.ndarray:
    """Per node of the trees with the given roots, the place among its tree's leaves, left to
    right, of its subtree's leftmost leaf; -1 at the nodes of other trees. The trees must have
    at most 64 leaves.

    A pass per depth level collects each level's split nodes. Counting each subtree's leaves
    bottom up, then numbering top down, gives a left child its parent's first leaf and a right
    child that place plus its sibling's leaf count.
    """
    feature, left = ens.feature, ens.left
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
    centers = np.divide(*_tree_sums(fit.center, queries))
    radii = np.divide(*_tree_sums(fit.radius, queries))
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
    for component, ens, y in (("center", fit.center, train.y_center),
                              ("radius", fit.radius, train.y_radius)):
        acc, hits = _tree_sums(ens, X, out_of_bag=True)
        used = hits > 0
        if not used.any():
            raise OOBUnavailableError(
                f"every row was in-bag for all {ens.n_trees} {component} trees"
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
    """The model file's text, ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` of
    the whole document, made one tree's text at a time, so the document never exists as lists.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    doc = {
        "format_version": 1,
        "model": "rf",
        "feature_names": list(fit.feature_names),
        "predictors": list(fit.predictor_names),
        "params": asdict(fit.params),
        "oob": fit.oob,
        "center_trees": fit.center,
        "radius_trees": fit.radius,
    }
    pieces = []
    for key, value in sorted(doc.items()):
        pieces += [",", encode(key), ":"]
        pieces += _tree_texts(value, encode) if key.endswith("_trees") else [encode(value)]
    pieces[0] = "{"
    pieces.append("}")
    return "".join(pieces)


def _tree_texts(ens: Ensemble, encode):
    """An ensemble's JSON array in pieces: each tree's model-file object, encoded on its own from
    slices of the ensemble's arrays, with ``[``, ``,`` and ``]`` around them."""
    left = _children(ens.feature, ens.bounds[:-1])
    nodes = {"feature": ens.feature, "left": left, "right": np.where(left >= 0, left + 1, -1),
             "threshold": ens.threshold, "value": ens.value}
    bounds, draws = ens.bounds.tolist(), ens.draw_bounds.tolist()
    yield "["
    for t in range(ens.n_trees):
        if t:
            yield ","
        a, b = bounds[t], bounds[t + 1]
        yield encode({"bootstrap": ens.bootstrap[draws[t] : draws[t + 1]].tolist(),
                      **{key: v[a:b].tolist() for key, v in nodes.items()}})
    yield "]"


def forest_from_json(text: str) -> ForestFit:
    from .models import model_from_json  # models imports this module

    return model_from_json(text, kinds=("rf",))


def forest_from_doc(doc: dict) -> ForestFit:
    from .models import json_value  # models imports this module

    # a center and a radius per predictor
    feature_names = tuple(json_value(doc, "feature_names", str, (2 * len(doc["predictors"]),)))
    params = doc["params"]  # every field, each a JSON integer; a key of no field is rejected
    keys = {f.name for f in fields(ForestParams)} | set(params)
    params = ForestParams(**{k: json_value(params, k, int, name=f"'params' {k!r}",
                                           null=k in ("mtry", "max_depth")) for k in keys})
    oob, components = doc["oob"], ("center", "radius")  # json writes an undefined R² as NaN
    if not (isinstance(oob, dict) and all(isinstance(oob.get(c), dict) for c in components)):
        raise ConfigError("'oob' must be an object holding objects 'center' and 'radius'")
    oob = {c: {k: json_value(oob[c], k, kind, name=f"'oob' {c!r} {k!r}")
               for k, kind in _OOB_KINDS.items()} for c in components}
    center = _trees_from(doc, "center_trees", len(feature_names))
    radius = _trees_from(doc, "radius_trees", len(feature_names))
    if not params.n_trees == center.n_trees == radius.n_trees:
        raise ConfigError(f"'params' 'n_trees' is {params.n_trees}, but the ensembles hold "
                          f"{center.n_trees} center and {radius.n_trees} radius trees")
    return ForestFit(feature_names, tuple(doc["predictors"]), params, center, radius, oob)


def read_tree_arrays(obj: dict) -> dict:
    """A ``json.loads`` object hook: ``obj`` with each ``_TREE_ARRAYS`` key's list made an
    array as the decoder closes the object, so a model file's trees are never held as lists.

    A list converts only if it holds JSON integers that fit int64, for an integer key, or
    JSON numbers for the others: numpy would truncate 0.9 and parse ``"7"``, and a bool reads
    as 0 or 1. Any other value is left as it is, for ``_tree_fault`` to name.
    """
    for k, dtype in _TREE_ARRAYS.items():
        v = obj.get(k)
        if isinstance(v, list) and set(map(type, v)) <= _JSON_TYPES[dtype]:
            try:
                obj[k] = np.fromiter(v, dtype, len(v))
            except OverflowError:  # beyond int64, or an integer beyond a float
                pass
    return obj


def _tree_fault(tree) -> str | None:
    """One model-file tree's first fault, or None. In order: the tree is an object with every
    key; each key is a list, of JSON integers for an integer key; each list converted
    (``read_tree_arrays``); the node arrays are nonempty and of one length."""
    if not isinstance(tree, dict):
        return "a tree must be a JSON object"
    for k in _TREE_ARRAYS:
        if k not in tree:
            return f"no key {k!r}"
    lists = {k: tree[k] for k in _TREE_ARRAYS if not isinstance(tree[k], np.ndarray)}
    for k, v in lists.items():
        if _TREE_ARRAYS[k] is float and not isinstance(v, list):
            return f"{k!r} must be a list of numbers"
        if _TREE_ARRAYS[k] is np.int64 and not (isinstance(v, list) and set(map(type, v)) <= {int}):
            return f"{k!r} must be a list of JSON integers"
    if lists:  # the first list the hook left: integers beyond int64, or a float key's non-numbers
        k = next(iter(lists))
        return (f"{k!r} holds an integer beyond int64" if _TREE_ARRAYS[k] is np.int64
                else f"{k!r} must be a list of numbers")
    n = tree["feature"].size
    if n == 0 or any(tree[k].size != n for k in _NODE_ARRAYS):
        return "node arrays must be nonempty lists of equal length"
    return None


def _trees_from(doc: dict, key: str, n_features: int) -> Ensemble:
    """Ensemble ``key``, taken out of ``doc``: its trees checked one at a time (``_tree_fault``)
    up to the first faulty one, and those below it laid end to end and checked at once
    (``_tree_problems``). A fault is a ConfigError naming the lowest tree that any check
    rejects, and the first check that rejects it."""
    trees = doc.pop(key)
    if not isinstance(trees, list):
        raise ConfigError(f"{key!r} must be a list of trees")
    if not trees:
        raise ConfigError(f"{key!r} holds no tree")
    faults = enumerate(map(_tree_fault, trees))  # lazily, so checking stops at the first fault
    good, fault = next(((t, f) for t, f in faults if f), (len(trees), None))
    if good:  # the trees below the lowest faulty one, which _tree_problems may lower
        trees = trees[:good]
        n = np.fromiter((t["feature"].size for t in trees), np.int64, good)
        draws = np.fromiter((t["bootstrap"].size for t in trees), np.int64, good)
        arrays = {k: np.concatenate([t[k] for t in trees]) for k in _TREE_ARRAYS}
        del trees  # frees each tree's own arrays before the checks make their temporaries
        for bad, problem in _tree_problems(arrays, n, draws, n_features):
            if (at := np.flatnonzero(bad[:good])).size:
                good, fault = int(at[0]), problem
    if fault:
        raise ConfigError(f"{key}[{good}]: {fault}")
    return Ensemble(arrays["feature"], arrays["threshold"], arrays["value"], n, arrays["bootstrap"],
                    draws)


def _tree_problems(arrays: dict, n_nodes: np.ndarray, n_draws: np.ndarray, n_features: int):
    """Each check of an ensemble's model-file arrays in turn: a flag per tree it rejects, and
    the problem it names.

    ``arrays`` holds each key's entries of all trees laid end to end; tree i has ``n_nodes[i]``
    nodes, at least one, in each node array and ``n_draws[i]`` bootstrap entries. A tree must
    be a tree as ``grow_trees`` numbers it, level by level: s split nodes and s + 1 leaves,
    the k-th split node's children 2k + 1 and 2k + 2, after it. So each node but the root has
    one earlier parent, and the root reaches it. Features must be -1 at leaves and in range
    at splits, thresholds and values finite, and the bootstrap nonempty and nonnegative. Each
    check flags trees that an earlier one rejected as well; only the first flag counts.
    """
    starts = np.cumsum(n_nodes) - n_nodes

    def any_node(bad):  # per tree, whether any of its nodes is bad
        return np.logical_or.reduceat(bad, starts)

    feature, left, right = arrays["feature"], arrays["left"], arrays["right"]
    yield any_node(feature < -1), "'feature' must be at least -1, which marks a leaf"
    split = feature >= 0
    want = _children(feature, starts)
    node = np.arange(feature.size) - np.repeat(starts, n_nodes)  # each node's index in its tree
    yield ((n_nodes != 2 * np.add.reduceat(split, starts, dtype=np.int64) + 1)
           | any_node((left != want) | (right != np.where(split, want + 1, -1))
                      | (split & (want <= node))),
           "'left' and 'right' must number nodes level by level: 2s + 1 nodes for s splits, "
           "split k's children 2k + 1 and 2k + 2, after it, and -1 at leaves")
    yield any_node(feature >= n_features), f"'feature' must be below {n_features}"
    for key in ("threshold", "value"):
        yield any_node(~np.isfinite(arrays[key])), f"{key!r} must be finite"
    negative = np.repeat(np.arange(n_draws.size), n_draws)[arrays["bootstrap"] < 0]
    yield ((n_draws == 0) | (np.bincount(negative, minlength=n_draws.size) > 0),
           "'bootstrap' must be nonempty, with no negative row index")
