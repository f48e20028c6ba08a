"""Command-line surface: simulate, fit, predict, evaluate, bench, plot.

Every file-producing run writes a ``<output>.manifest.json`` (or
``manifest.json`` in the bench output directory) recording the resolved
flags, seeds, and package version, and contains no timestamps, so reruns
with identical flags produce byte-identical artifacts. Exit codes: 0
success, 2 usage/config error (an unwritable output path included), 3 data
error, 4 numeric failure.
"""

from __future__ import annotations

import json
import sys
from importlib import metadata
from pathlib import Path

import click
import numpy as np

from . import errors
from .evaluate import (
    ExperimentSpec,
    evaluate_frame,
    predictions_csv,
    read_predictions_csv,
    real_summary_csv,
    resolve_workers,
    results_csv,
    run_experiment,
    run_real_data,
    summary_csv,
    timings_csv,
)
from .frame import SplitSpec, load_csv, load_feature_csv, split, write_csv
from .kernel import KERNELS
from .models import (MODELS, check_fit_settings, fit_model, fit_settings, model_from_json,
                     model_names, model_to_json, predict_features)
from .plots import pred_scatter_svg, rectangles_svg
from .simulate import GAMMA_PARAMETERIZATION, SimSetting, simulate

USAGE_EXIT = 2
DATA_EXIT = 3
NUMERIC_EXIT = 4

_DATA_ERRORS = (
    errors.ParseError,
    errors.EmptySampleError,
    errors.SplitError,
    errors.DimensionError,
    errors.DegenerateTruthError,
)
# OSError: an output path that cannot be written, such as one under a file
_CONFIG_ERRORS = (errors.ConfigError, errors.UnknownSettingError, OSError)
# FloatingPointError: main() makes overflow an error, which finite input such as 1e308 can cause
_NUMERIC_ERRORS = (errors.NumericError, errors.UnderdeterminedError, errors.OOBUnavailableError,
                   FloatingPointError)


def _version() -> str:
    try:
        return metadata.version("ivforest")
    except metadata.PackageNotFoundError:
        return "0.0.0"


def _write_manifest(target: Path, command: str, config: dict) -> None:
    doc = {
        "command": command,
        "config": config,
        "versions": {
            "ivforest": _version(),
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    target.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _manifest_for(out_path, command: str, config: dict) -> None:
    _write_manifest(Path(str(out_path) + ".manifest.json"), command, config)


@click.group()
def cli():
    """Regression tools and benchmark harness for interval-valued data."""


@cli.command("simulate")
@click.option("--setting", type=int, required=True, help="Setting id, 1..7.")
@click.option("--n", "n_rows", type=int, required=True, help="Number of rows.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def cmd_simulate(setting, n_rows, seed, out_path):
    """Draw one simulated dataset and write it as a bound-schema CSV."""
    frame = simulate(SimSetting(setting, n_rows, seed))
    write_csv(frame, out_path)
    _manifest_for(
        out_path,
        "simulate",
        {
            "setting": setting,
            "n": n_rows,
            "seed": seed,
            "gamma_parameterization": GAMMA_PARAMETERIZATION,
        },
    )


@cli.command("fit")
@click.option("--model", type=click.Choice(MODELS), required=True)
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--response", default=None, help="Response variable name (default: last pair).")
@click.option("--trees", type=int, default=500, show_default=True)
@click.option("--mtry", type=int, default=None)
@click.option("--min-node", type=int, default=5, show_default=True)
@click.option("--max-depth", type=int, default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--kernel", type=click.Choice(KERNELS), default="gaussian", show_default=True)
@click.option("--bandwidth", type=float, default=None, help="Fixed kernel bandwidth.")
@click.option("--bw-auto", is_flag=True, help="Select the bandwidth by leave-one-out CV.")
def cmd_fit(model, in_path, out_path, response, trees, mtry, min_node, max_depth, seed,
            kernel, bandwidth, bw_auto):
    """Fit a model to a CSV dataset and write the fit as JSON."""
    if bw_auto and bandwidth is not None:
        raise click.UsageError("--bw-auto selects the bandwidth; do not also pass --bandwidth")
    train = load_csv(in_path, response=response)
    fit = fit_model(model, train, seed, kernel, bandwidth, n_trees=trees, mtry=mtry,
                    min_node=min_node, max_depth=max_depth)
    Path(out_path).write_text(model_to_json(fit), encoding="utf-8")
    config = {"model": model, "in": str(in_path), "response": train.response_name, "seed": seed,
              **fit_settings(fit, bw_auto=bandwidth is None)}
    _manifest_for(out_path, "fit", config)


@cli.command("predict")
@click.option("--model-file", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def cmd_predict(model_file, in_path, out_path):
    """Predict response intervals for every row of a CSV dataset."""
    fit = model_from_json(Path(model_file).read_bytes(), model_file)
    xc, xr = load_feature_csv(in_path, fit.predictor_names)
    Path(out_path).write_text(predictions_csv(predict_features(fit, xc, xr)), encoding="utf-8")
    _manifest_for(out_path, "predict", {"model_file": str(model_file), "in": str(in_path)})


@cli.command("evaluate")
@click.option("--pred", "pred_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--truth", "truth_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--response", default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def cmd_evaluate(pred_path, truth_path, response, out_path):
    """Score a predictions CSV against the truth CSV; report JSON per component."""
    pred = read_predictions_csv(pred_path)
    truth = load_csv(truth_path, response=response)
    report = evaluate_frame(pred, truth)
    doc = {
        "center": vars(report.center),
        "radius": vars(report.radius),
        "n_test": report.n_test,
        "incoherent_count": report.incoherent_count,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
        _manifest_for(out_path, "evaluate", {"pred": str(pred_path), "truth": str(truth_path)})
    else:
        click.echo(text, nl=False)


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Parse '1,3,5-7' into (1, 3, 5, 6, 7)."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            lo, dash, hi = part.partition("-")
            lo, hi = int(lo), int(hi if dash else lo)
        except ValueError:
            raise errors.ConfigError(f"bad list spec {text!r} at {part!r}") from None
        if hi < lo:
            raise errors.ConfigError(f"descending range in list spec {text!r} at {part!r}")
        out.extend(range(lo, hi + 1))
    if not out:
        raise errors.ConfigError(f"empty list spec {text!r}")
    return tuple(out)


@cli.command("bench")
@click.option("--settings", default="1-7", show_default=True, help="e.g. '1-4' or '1,3,5-7'.")
@click.option("--sizes", default="500,1000,2000", show_default=True, help="Total dataset sizes.")
@click.option("--reps", type=int, default=100, show_default=True)
@click.option("--models", default="ccrm,rf", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True, help="Master seed.")
@click.option("--train-fraction", type=float, default=None,
              help="Training fraction [default: 0.1 for the grid, 0.8 with --real].")
@click.option("--trees", type=int, default=500, show_default=True)
@click.option("--mtry", type=int, default=None)
@click.option("--min-node", type=int, default=5, show_default=True)
@click.option("--kernel", type=click.Choice(KERNELS), default="gaussian", show_default=True)
@click.option("--bandwidth", type=float, default=None)
@click.option("--workers", type=int, default=None, help="Worker processes (default: IVF_THREADS or CPU count).")
@click.option("--out-dir", type=click.Path(file_okay=False), required=True)
@click.option("--real", "real_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Run on a real CSV dataset instead of the simulation grid.")
@click.option("--response", default=None, help="Response variable of the real CSV.")
@click.option("--train-count", type=int, default=None, help="Exact train size for the real split.")
@click.option("--split-mode", type=click.Choice(["chronological", "random"]),
              default="chronological", show_default=True, help="Split mode for the real CSV.")
def cmd_bench(settings, sizes, reps, models, seed, train_fraction, trees, mtry, min_node,
              kernel, bandwidth, workers, out_dir, real_path, response, train_count, split_mode):
    """Run the benchmark grid (or a real dataset) and write results + summary CSVs."""
    out = Path(out_dir)
    model_list = tuple(m.strip() for m in models.split(",") if m.strip())

    if real_path is not None:
        frame = load_csv(real_path, response=response)
        if reps < 1:
            raise errors.ConfigError(f"reps must be >= 1, got {reps}")
        fits_forest = "rf" in model_names(model_list)  # which also checks the names
        resolve_workers(workers)  # checked as for the grid; the real split runs in one process
        fraction = 0.8 if train_fraction is None else train_fraction
        # checked before the out-dir is made, as ExperimentSpec checks the grid's settings
        split(frame, SplitSpec(fraction, mode=split_mode, seed=seed, train_count=train_count))
        n_features = [frame.features().shape[1]] if fits_forest else []
        check_fit_settings(bandwidth, n_features, n_trees=trees, mtry=mtry, min_node=min_node)
        out.mkdir(parents=True, exist_ok=True)  # before the fits, so a bad --out-dir fails fast
        reports, predictions = run_real_data(
            frame,
            models=model_list,
            train_fraction=fraction,
            train_count=train_count,
            mode=split_mode,
            seed=seed,
            n_trees=trees,
            mtry=mtry,
            min_node=min_node,
            kernel=kernel,
            bandwidth=bandwidth,
        )
        (out / "summary.csv").write_text(real_summary_csv(reports), encoding="utf-8")
        for m, pred in predictions.items():
            (out / f"predictions_{m}.csv").write_text(predictions_csv(pred), encoding="utf-8")
        _write_manifest(
            out / "manifest.json",
            "bench",
            {
                "real": str(real_path), "response": frame.response_name, "models": list(model_list),
                "train_fraction": fraction,
                "train_count": train_count, "split_mode": split_mode, "seed": seed,
                "trees": trees, "mtry": mtry, "min_node": min_node,
                "kernel": kernel, "bandwidth": bandwidth,
            },
        )
        return

    spec = ExperimentSpec(
        settings=_parse_int_list(settings),
        total_sizes=_parse_int_list(sizes),
        reps=reps,
        models=model_list,
        master_seed=seed,
        train_fraction=0.1 if train_fraction is None else train_fraction,
        n_trees=trees,
        mtry=mtry,
        min_node=min_node,
        kernel=kernel,
        bandwidth=bandwidth,
        workers=resolve_workers(workers),  # before the out-dir is made
    )
    out.mkdir(parents=True, exist_ok=True)  # before the run, so a bad --out-dir fails fast
    result = run_experiment(spec)
    (out / "results.csv").write_text(results_csv(result), encoding="utf-8")
    (out / "summary.csv").write_text(summary_csv(result), encoding="utf-8")
    (out / "timings.csv").write_text(timings_csv(result), encoding="utf-8")
    _write_manifest(
        out / "manifest.json",
        "bench",
        {
            "settings": list(spec.settings), "sizes": list(spec.total_sizes),
            "reps": spec.reps, "models": list(spec.models), "master_seed": spec.master_seed,
            "train_fraction": spec.train_fraction, "trees": spec.n_trees, "mtry": spec.mtry,
            "min_node": spec.min_node, "kernel": spec.kernel, "bandwidth": spec.bandwidth,
            "workers_resolved": spec.workers,
            "seed_derivation": "sha256('rep'/master/setting/total_n/rep)",
            "gamma_parameterization": GAMMA_PARAMETERIZATION,
        },
    )


@cli.command("plot")
@click.option("--kind", type=click.Choice(["rectangles", "pred_scatter"]), required=True)
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Dataset CSV (rectangles).")
@click.option("--truth", "truth_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Observed dataset CSV (pred_scatter).")
@click.option("--pred", "pred_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Predictions CSV (pred_scatter).")
@click.option("--response", default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
def cmd_plot(kind, in_path, truth_path, pred_path, response, out_path):
    """Render a deterministic SVG plot; both kinds draw the first predictor."""
    if kind == "rectangles":
        if in_path is None:
            raise click.UsageError("--kind rectangles needs --in")
        frame = load_csv(in_path, response=response)
        text = rectangles_svg(frame)
        config = {"kind": kind, "in": str(in_path)}
    else:
        if truth_path is None or pred_path is None:
            raise click.UsageError("--kind pred_scatter needs --truth and --pred")
        frame = load_csv(truth_path, response=response)
        pred = read_predictions_csv(pred_path)
        text = pred_scatter_svg(frame, pred)
        config = {"kind": kind, "truth": str(truth_path), "pred": str(pred_path)}
    Path(out_path).write_text(text, encoding="utf-8")
    _manifest_for(out_path, "plot", config)


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        with np.errstate(all="raise", under="ignore"):
            cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return USAGE_EXIT
    except click.ClickException as exc:
        exc.show()
        return USAGE_EXIT
    except click.exceptions.Abort:
        return USAGE_EXIT
    except _CONFIG_ERRORS as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return USAGE_EXIT
    except _DATA_ERRORS as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return DATA_EXIT
    except _NUMERIC_ERRORS as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
