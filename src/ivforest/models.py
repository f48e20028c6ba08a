"""The five models behind one interface: fit, predict and the model file.

Fitting dispatches on the model name, prediction and serialization on the
fit's type. The model functions are called through this module's global
names, looked up at call time, so a wrapper installed on one sees every
call. A model file is a JSON object: the envelope shared by all models
(``format_version``, ``model``, ``predictors``) is checked here, the rest
is the model's own body.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

import numpy as np

from .errors import ConfigError, IvforestError
from .forest import (ForestFit, ForestParams, fit_forest, forest_from_doc, forest_to_json,
                     predict_forest_frame, predict_forest_rows, read_tree_arrays)
from .frame import IntervalFrame
from .intervals import PredictionSet
from .kernel import (KernelFit, check_bandwidth, fit_kernel, kernel_from_doc, kernel_to_json,
                     predict_kernel_frame, predict_kernel_rows)
from .linear import (VARIANTS, LinearFit, fit_linear, linear_from_doc, linear_to_json,
                     predict_linear, predict_linear_frame)

MODELS = VARIANTS + ("ke", "rf")  # also the order results.csv sorts models by
FORMAT_VERSION = 1

# json_value's kinds: the Python types json.loads gives each, and how a message names one
# value and several. json reads true as a bool, never an int, so no boolean passes as a number
_JSON_KINDS = {int: ({int}, "a JSON integer", "JSON integers"),
               float: ({int, float}, "a JSON number", "JSON numbers"),
               bool: ({bool}, "true or false", "true or false"),
               str: ({str}, "a string", "strings")}


def json_value(doc: dict, key: str, kind: type, shape: tuple = (), name: str | None = None,
               null: bool = False):
    """``doc[key]`` as a model file's reader takes it, checked and returned as parsed.

    ``kind`` is ``int`` for a JSON integer, ``float`` for any JSON number, ``bool`` for true or
    false and ``str`` for a string; with ``null``, null is taken too. With ``shape``, a length
    per level (None for any), the value is lists nested that deep, those of one level of one
    length, holding such values. A missing key raises KeyError; any other mismatch raises a
    ConfigError naming ``name``, by default the quoted key.
    """
    types, one, many = _JSON_KINDS[kind]
    name = name or repr(key)
    value = doc[key]
    items = [value]
    for length in shape:
        lengths = {len(v) if type(v) is list else -1 for v in items}
        if -1 in lengths or len(lengths | {length} - {None}) > 1:
            sizes = [f"{n} " if n is not None else "" for n in shape]
            raise ConfigError(f"{name} must be a list of {sizes[0]}"
                              + "".join(f"lists of {n}" for n in sizes[1:]) + many)
        items = [v for inner in items for v in inner]
    if not all(type(v) in types or null and v is None for v in items):
        raise ConfigError(f"{name} must hold {many}" if shape
                          else f"{name} must be {one}{' or null' if null else ''}")
    return value


def model_names(names) -> tuple[str, ...]:
    """Lower-cased model names, each checked against :data:`MODELS` and listed once."""
    names = tuple(m.lower() for m in names)
    for i, m in enumerate(names):
        if m not in MODELS:
            raise ConfigError(f"unknown model {m!r}; choose from {', '.join(MODELS)}")
        if m in names[:i]:
            raise ConfigError(f"model {m!r} is listed twice")
    if not names:
        raise ConfigError("no models requested")
    return names


def fit_model(name: str, train: IntervalFrame, seed: int = 0, kernel: str = "gaussian",
              bandwidth: float | None = None, **forest_params):
    """Fit model ``name``; each model reads only its own hyperparameters.

    ``bandwidth=None`` selects the kernel bandwidth by leave-one-out CV;
    ``forest_params`` are the :class:`ForestParams` fields besides the seed.
    """
    if name in VARIANTS:
        return fit_linear(name, train)
    if name == "ke":
        return fit_kernel(train, h=bandwidth, kernel=kernel)
    if name == "rf":
        return fit_forest(train, ForestParams(seed=seed, **forest_params))
    raise ConfigError(f"unknown model {name!r}; choose from {', '.join(MODELS)}")


def check_fit_settings(bandwidth: float | None = None, n_features: Iterable[int] = (),
                       **forest_params) -> None:
    """Raise ConfigError for a fixed bandwidth or a forest setting that :func:`fit_model`
    would reject on data of each feature count in ``n_features``, so that a run can check
    them before it fits or writes anything."""
    if bandwidth is not None:
        check_bandwidth(bandwidth)
    params = ForestParams(**forest_params)
    for m in n_features:
        params.resolved_mtry(m)


def predict_model(fit, test: IntervalFrame) -> PredictionSet:
    if isinstance(fit, LinearFit):
        return predict_linear_frame(fit, test)
    if isinstance(fit, KernelFit):
        return predict_kernel_frame(fit, test)
    return predict_forest_frame(fit, test)


def predict_features(fit, x_center: np.ndarray, x_radius: np.ndarray) -> PredictionSet:
    """Predict rows given only their predictor centers and radii."""
    if isinstance(fit, LinearFit):
        return predict_linear(fit, x_center, x_radius)
    if isinstance(fit, KernelFit):
        return predict_kernel_rows(fit, np.hstack([x_center, x_radius]))
    return predict_forest_rows(fit, np.hstack([x_center, x_radius]))


def fit_settings(fit, bw_auto: bool) -> dict:
    """The hyperparameters a fit resolved to, as ``ivf fit`` records them."""
    if isinstance(fit, KernelFit):
        return {"kernel": fit.kernel, "bandwidth": fit.h, "bw_auto": bw_auto}
    if isinstance(fit, ForestFit):
        p = fit.params
        return {"trees": p.n_trees, "mtry": p.resolved_mtry(len(fit.feature_names)),
                "min_node": p.min_node, "max_depth": p.max_depth, "oob": fit.oob}
    return {}


def model_to_json(fit) -> str:
    if isinstance(fit, LinearFit):
        return linear_to_json(fit)
    if isinstance(fit, KernelFit):
        return kernel_to_json(fit)
    return forest_to_json(fit)


def model_from_json(text, source: str = "<string>", kinds: tuple[str, ...] = MODELS):
    """Read a model file's text (str or bytes) holding one of the models ``kinds``.

    Any fault, in the envelope or the body, is a ConfigError naming
    ``source`` and the missing or bad key.
    """
    try:
        doc = json.loads(text, object_hook=read_tree_arrays)  # forest trees as arrays
    except (ValueError, RecursionError) as exc:  # also bytes that are not UTF-8, or deep nesting
        raise ConfigError(f"{source}: not a JSON model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: a model file holds a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(
            f"{source}: format_version must be {FORMAT_VERSION}, got {doc.get('format_version')!r}"
        )
    name = doc.get("model")
    if name not in kinds:
        raise ConfigError(f"{source}: model {name!r} is not one of {', '.join(kinds)}")
    names = doc.get("predictors")
    if not (isinstance(names, list) and names and all(isinstance(v, str) for v in names)
            and len(set(names)) == len(names)):
        raise ConfigError(f"{source}: 'predictors' must be a nonempty list of distinct names")
    try:
        if name in VARIANTS:
            return linear_from_doc(doc)
        if name == "ke":
            return kernel_from_doc(doc)
        return forest_from_doc(doc)
    except KeyError as exc:
        raise ConfigError(f"{source}: {name} model file has no key {exc}") from None
    # OverflowError: an integer too large for a float, such as a bandwidth of 10**400
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError, IvforestError) as exc:
        raise ConfigError(f"{source}: bad {name} model file: {exc}") from None
