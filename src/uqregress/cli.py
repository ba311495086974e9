"""Command-line surface: generate, train, predict, evaluate, adversarial,
recalibrate, screen.

Every command takes flags (or a --config JSON whose keys mirror the flags;
a run manifest also works as a config), writes its outputs plus a sidecar
manifest per output, exits 0 on success and 1 on any error. Defaults follow
the reference protocol: k=5 ensemble folds, 1000 dropout samples at rate
0.05, evidential regularization weight 0.05.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .calibration import DEFAULT_GRID_SIZE, adversarial_group_calibration, calibration_curve
from .core import RngSeed, check_count, check_size, validate_prediction_set
from .datagen import generate_synthetic
from .errors import DegenerateSampleError, DomainError, FileParseError, UqError
from .metrics import distribution_summary
from .neural import _ACTIVATIONS, MlpConfig, MlpModel, TrainConfig, train
from .numerics import scott_bandwidth
from .recalibration import apply_scalar, fit_scalar
from .report import evaluate, report_to_dict
from .screening import ScreenCriteria, honesty_rate, screen
from .uq_methods import (
    EVIDENTIAL_CHANNELS,
    MEMBER_TRAINING_MODES,
    DropoutSpec,
    EnsembleSpec,
    ensemble_predict,
    evidential_predict,
    mc_dropout_predict,
    train_kfold_members,
)

# seed-stream namespaces per command
_GEN_TRAIN_NS = 21
_GEN_TEST_NS = 22
_MODEL_INIT_NS = 31
_MODEL_TRAIN_NS = 32
_RECAL_SPLIT_NS = 41

METHODS = ("ensemble", "dropout", "evidential")
_ERROR_CHARS = 1000  # error message characters printed; the flag or key a message names leads it


def _list_flag(text: str, flag: str, parse, kind: str) -> list:
    """The entries of a comma-separated list flag, blank entries skipped."""
    try:
        return [parse(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise DomainError(f"{flag} must be comma-separated {kind}, got {text!r}") from exc


def _read_train_dataset(path):
    data = io.read_dataset_csv(path).dataset
    if data.n == 0:
        raise DomainError(f"{path} has no rows; cannot train")
    return data


def cmd_generate(args, written: list[str]) -> None:
    base = RngSeed(args.seed)
    out_dir = Path(args.out)
    train_path = out_dir / "train.csv"
    test_path = out_dir / "test.csv"
    for path, n, ns in ((train_path, args.n_train, _GEN_TRAIN_NS),
                        (test_path, args.n_test, _GEN_TEST_NS)):
        data = generate_synthetic(n, args.dim, base.derive(ns), n_groups=args.groups)
        ds = data.dataset
        io.write_dataset_csv(path, ids=ds.ids, features=ds.features, targets=ds.targets,
                             groups=ds.groups, true_sigma=data.true_sigma)
        written.append(str(path))


def cmd_train(args, written: list[str]) -> None:
    hidden = _list_flag(args.hidden, "--hidden", int, "integers")  # fails before the CSV is read
    if not hidden:
        raise DomainError("--hidden must name at least one hidden layer")
    data = _read_train_dataset(args.train)
    base = RngSeed(args.seed)
    evidential = args.method == "evidential"
    mlp = MlpConfig(
        layer_widths=(data.dim, *hidden, 4 if evidential else 1),
        activation=args.activation,
        dropout_rate=args.dropout_rate if args.method == "dropout" else 0.0,
        seed=base.derive(_MODEL_INIT_NS),
    )
    cfg = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.learning_rate,
        lr_decay=args.lr_decay, reg_weight=args.reg_weight if evidential else 0.0,
        seed=base.derive(_MODEL_TRAIN_NS),
    )
    if args.method == "ensemble":
        spec = EnsembleSpec(k=args.k, mlp=mlp, train=cfg, member_training=args.member_training)
        members = train_kfold_members(data, spec)
        io.save_ensemble(args.out, members, args.member_training)
    else:
        model = MlpModel.initialize(mlp)
        train(model, data, cfg)
        io.save_model(args.out, model)
    written.append(str(args.out))


def cmd_predict(args, written: list[str]) -> None:
    test = io.read_dataset_csv(args.test).dataset
    checkpoint = io.load_checkpoint(args.model)
    is_ensemble = isinstance(checkpoint, list)
    if is_ensemble != (args.method == "ensemble"):
        have, need = (("an ensemble", "a single model") if is_ensemble
                      else ("a single model", "an ensemble checkpoint"))
        raise DomainError(f"{args.model} is {have}; {args.method} prediction needs {need}")
    if args.method == "ensemble":
        pred = ensemble_predict(checkpoint, test)
    elif args.method == "dropout":
        rate = checkpoint.config.dropout_rate if args.rate is None else args.rate
        spec = DropoutSpec(args.samples, rate, RngSeed(args.seed))
        pred = mc_dropout_predict(checkpoint, test, spec)
    else:
        pred = evidential_predict(checkpoint, test, uncertainty=args.uncertainty,
                                  apply_sqrt=args.sqrt_uncertainty)
    # a checkpoint's weights may overflow: name the first non-finite output
    io.write_predictions_csv(args.out, validate_prediction_set(pred))
    written.append(str(args.out))


def _require_predictions(path):
    p = io.read_predictions_csv(path)
    if p.n == 0:
        raise DomainError(f"{path} has no prediction rows")
    return p


def cmd_evaluate(args, written: list[str]) -> None:
    # the grid is sized after the curve is written, so the count is checked first
    check_size(check_count(args.violin_points, "--violin-points", 1), "--violin-points")
    p = _require_predictions(args.pred)
    report, curve = evaluate(p, grid_size=args.grid_size, honesty_multiplier=args.honesty_multiplier)
    out = Path(args.out)
    curve_out = Path(args.curve_out) if args.curve_out else out.with_suffix(".curve.csv")
    violin_out = Path(args.violin_out) if args.violin_out else out.with_suffix(".violin.csv")
    if curve is not None:
        io.write_curve_csv(curve_out, curve)
        written.append(str(curve_out))
    try:
        h = scott_bandwidth(p.sigma)
        grid = np.linspace(p.sigma.min() - 3 * h, p.sigma.max() + 3 * h, args.violin_points)
        io.write_violin_csv(violin_out, distribution_summary(p.sigma, grid))
        written.append(str(violin_out))
    except DegenerateSampleError:
        report = dataclasses.replace(report, errors=report.errors + ("DegenerateSample",))
    io.write_json(out, report_to_dict(report))
    written.insert(0, str(out))


def cmd_adversarial(args, written: list[str]) -> None:
    fractions = _list_flag(args.fractions, "--fractions", float, "numbers")
    p = _require_predictions(args.pred)
    adv = adversarial_group_calibration(
        p, fractions, trials=args.trials, subgroups=args.subgroups,
        seed=RngSeed(args.seed), grid_size=args.grid_size,
    )
    io.write_adversarial_csv(args.out, adv)
    written.append(str(args.out))


def cmd_recalibrate(args, written: list[str]) -> None:
    if args.fit_on == "split" and not 0.0 < args.fit_fraction <= 1.0:
        raise DomainError(f"--fit-fraction must lie in (0, 1], got {args.fit_fraction}")
    p = _require_predictions(args.pred)
    holdout = None
    if args.fit_on == "split":
        perm = RngSeed(args.seed).derive(_RECAL_SPLIT_NS).generator().permutation(p.n)
        n_fit = int(round(args.fit_fraction * p.n))
        if n_fit < 2:
            raise DomainError(f"fit fraction {args.fit_fraction} leaves {n_fit} fit rows")
        fit_set = p.subset(np.sort(perm[:n_fit]))
        holdout_idx = np.sort(perm[n_fit:])
        if np.count_nonzero(p.sigma[holdout_idx] > 0.0) >= 2:  # else it has no curve
            holdout = p.subset(holdout_idx)
    else:
        fit_set = p
    result = fit_scalar(fit_set, bracket_lo=args.bracket_lo, bracket_hi=args.bracket_hi,
                        grid_size=args.grid_size)
    recalibrated = apply_scalar(p, result.scalar)

    payload = {
        "format": "uqregress-recalibration-v1",
        "fit_policy": args.fit_on,
        "n_total": p.n,
        "n_fit": fit_set.n,
        "scalar": result.scalar,
        "area_before": result.area_before,
        "area_after": result.area_after,
        "grid_size": result.grid_size,
        "brent": {
            "argmin_log_scalar": result.brent.argmin,
            "value": result.brent.value,
            "iterations": result.brent.iterations,
            "converged": result.brent.converged,
        },
        "holdout": None,
    }
    if holdout is not None:
        payload["holdout"] = {
            "n": holdout.n,
            "area_before": calibration_curve(holdout, args.grid_size).miscalibration_area,
            "area_after": calibration_curve(apply_scalar(holdout, result.scalar),
                                            args.grid_size).miscalibration_area,
        }
    io.write_json(Path(args.out), payload)
    written.append(str(args.out))
    out_pred = Path(args.out_pred) if args.out_pred else Path(args.out).with_suffix(".recalibrated.csv")
    io.write_predictions_csv(out_pred, recalibrated)
    written.append(str(out_pred))


def cmd_screen(args, written: list[str]) -> None:
    p = _require_predictions(args.pred)
    criteria = ScreenCriteria(
        value_lo=args.lo, value_hi=args.hi,
        sigma_max=args.sigma_max, honesty_multiplier=args.multiplier,
    )
    rep = screen(p, criteria)
    io.write_json(Path(args.out), {
        "format": "uqregress-screen-v1",
        "criteria": dataclasses.asdict(criteria),
        "n_selected": rep.n_selected,
        "n_honest": rep.n_honest,
        "n_dishonest": rep.n_dishonest,
        "selected_ids": list(rep.selected_ids),
        "honest_ids": list(rep.honest_ids),
        "dishonest_ids": list(rep.dishonest_ids),
        "overall_honesty_rate": honesty_rate(p, criteria.honesty_multiplier),
    })
    written.append(str(args.out))


class _Parser(argparse.ArgumentParser):
    # a bad command line is an error like any other: one line, exit 1
    def error(self, message):
        raise DomainError(message)


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    # a None default is either no default (a required flag) or one the help
    # text states in words, so only a real value is appended
    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def build_parser() -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    parser = _Parser(
        prog="uqregress",
        description="Uncertainty quantification pipeline for regression predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    fmt = _HelpFormatter

    def common(sp):
        sp.add_argument("--seed", type=int, default=0, help="base RNG seed")
        sp.add_argument("--config", type=str, default=None,
                        help="JSON config (keys mirror the flags); a run manifest also works")

    def grid_size(sp):
        sp.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE,
                        help="interior points of the calibration grid")

    g = sub.add_parser("generate", formatter_class=fmt, help="write synthetic train/test dataset CSVs")
    g.add_argument("--out", required=True, help="output directory (train.csv, test.csv)")
    g.add_argument("--n-train", type=int, default=5000, help="training rows")
    g.add_argument("--n-test", type=int, default=2000, help="test rows")
    g.add_argument("--dim", type=int, default=4, help="feature dimension")
    g.add_argument("--groups", type=int, default=0, help="number of group tags; 0 disables")
    common(g)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", formatter_class=fmt, help="train a UQ model on a dataset CSV")
    t.add_argument("--method", required=True, choices=METHODS, help="UQ producer to train")
    t.add_argument("--train", required=True, help="training dataset CSV")
    t.add_argument("--out", required=True, help="checkpoint JSON path")
    t.add_argument("--hidden", default="32,32", help="hidden layer widths, e.g. 32,32")
    t.add_argument("--activation", default="tanh", choices=tuple(_ACTIVATIONS),
                   help="hidden-layer activation")
    t.add_argument("--epochs", type=int, default=60, help="training epochs")
    t.add_argument("--batch-size", type=int, default=64, help="mini-batch size")
    t.add_argument("--learning-rate", type=float, default=0.02, help="SGD step size")
    t.add_argument("--lr-decay", type=float, default=0.0,
                   help="epoch e trains at learning_rate / (1 + lr_decay * e)")
    t.add_argument("--dropout-rate", type=float, default=0.05,
                   help="hidden-unit drop probability (dropout method)")
    t.add_argument("--reg-weight", type=float, default=0.05,
                   help="evidential regularization weight (evidential method)")
    t.add_argument("--k", type=int, default=5, help="ensemble fold count")
    t.add_argument("--member-training", default="one_fold_each",
                   choices=MEMBER_TRAINING_MODES)
    common(t)
    t.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", formatter_class=fmt, help="predict with uncertainty on a test CSV")
    p.add_argument("--method", required=True, choices=METHODS, help="UQ producer to predict with")
    p.add_argument("--model", required=True, help="checkpoint JSON from `train`")
    p.add_argument("--test", required=True, help="test dataset CSV")
    p.add_argument("--out", required=True, help="prediction CSV path")
    p.add_argument("--samples", type=int, default=1000, help="MC dropout sample count")
    p.add_argument("--rate", type=float, default=None,
                   help="MC dropout rate (default: the model's training rate)")
    p.add_argument("--uncertainty", default="epistemic", choices=EVIDENTIAL_CHANNELS,
                   help="evidential sigma channel")
    p.add_argument("--sqrt-uncertainty", action="store_true",
                   help="treat the evidential channels as variances and take roots")
    common(p)
    p.set_defaults(func=cmd_predict)

    e = sub.add_parser("evaluate", formatter_class=fmt, help="full UQ metric report for a prediction CSV")
    e.add_argument("--pred", required=True, help="prediction CSV")
    e.add_argument("--out", required=True, help="report JSON path")
    e.add_argument("--curve-out", default=None, help="calibration curve CSV (default <out>.curve.csv)")
    e.add_argument("--violin-out", default=None, help="sigma distribution CSV (default <out>.violin.csv)")
    grid_size(e)
    e.add_argument("--honesty-multiplier", type=float, default=3.0,
                   help="interval half-width in sigmas for the honesty rate")
    e.add_argument("--violin-points", type=int, default=128, help="KDE grid size")
    common(e)
    e.set_defaults(func=cmd_evaluate)

    a = sub.add_parser("adversarial", formatter_class=fmt, help="adversarial group calibration sweep")
    a.add_argument("--pred", required=True, help="prediction CSV")
    a.add_argument("--out", required=True, help="sweep CSV path")
    a.add_argument("--fractions", default="0.0025,0.005,0.01,0.02,0.05,0.1,0.2,0.5,1.0",
                   help="comma-separated subgroup fractions of the test set")
    a.add_argument("--trials", type=int, default=100, help="trials per fraction")
    a.add_argument("--subgroups", type=int, default=10, help="subgroups per trial")
    grid_size(a)
    common(a)
    a.set_defaults(func=cmd_adversarial)

    r = sub.add_parser("recalibrate", formatter_class=fmt, help="fit and apply a scalar sigma multiplier")
    r.add_argument("--pred", required=True, help="prediction CSV")
    r.add_argument("--out", required=True, help="result JSON path")
    r.add_argument("--out-pred", default=None,
                   help="recalibrated prediction CSV (default <out>.recalibrated.csv)")
    r.add_argument("--fit-on", default="split", choices=("split", "self"),
                   help="fit the scalar on a held-out split or on the whole file")
    r.add_argument("--fit-fraction", type=float, default=0.5,
                   help="share of rows used to fit the scalar under --fit-on split")
    r.add_argument("--bracket-lo", type=float, default=1e-3, help="scalar search lower bound")
    r.add_argument("--bracket-hi", type=float, default=1e3, help="scalar search upper bound")
    grid_size(r)
    common(r)
    r.set_defaults(func=cmd_recalibrate)

    s = sub.add_parser("screen", formatter_class=fmt, help="window + sigma gate enumeration with honesty audit")
    s.add_argument("--pred", required=True, help="prediction CSV")
    s.add_argument("--out", required=True, help="screen report JSON path")
    s.add_argument("--lo", type=float, default=-0.1, help="window lower edge on y_pred")
    s.add_argument("--hi", type=float, default=0.1, help="window upper edge on y_pred")
    s.add_argument("--sigma-max", type=float, default=0.05, help="sigma selection ceiling")
    s.add_argument("--multiplier", type=float, default=3.0, help="honesty interval multiplier")
    common(s)
    s.set_defaults(func=cmd_screen)
    return parser, sub


def _config_value(action: argparse.Action, value, path: str, key: str):
    """``value`` as the flag would have parsed it; FileParseError if no flag
    value could give it."""
    if isinstance(action, argparse._StoreTrueAction):
        ok = isinstance(value, bool)
    elif value is None:
        ok = action.default is None and not action.required
    else:
        parse = action.type or str
        try:
            # no command line can hold a NUL character
            ok = not isinstance(value, bool) and parse(value) == value and "\0" not in str(value)
        except (TypeError, ValueError, OverflowError):
            ok = False
        ok = ok and (action.choices is None or value in action.choices)
        value = parse(value) if ok else value
    if not ok:
        flag = action.option_strings[0]
        raise FileParseError(f"{path}: config key {key!r}: {flag} cannot take the value {value!r}")
    return value


def _load_config_defaults(path: str, command: str, sub: argparse._SubParsersAction) -> None:
    raw = io._read_json(path)
    if isinstance(raw, dict) and raw.get("format") == io.MANIFEST_FORMAT:
        if raw.get("command") != command:
            raise FileParseError(
                f"{path} is a manifest for {raw.get('command')!r}, not {command!r}"
            )
        raw = raw.get("config")
    if not isinstance(raw, dict):
        raise FileParseError(f"{path}: config must be a JSON object")
    sp = sub.choices[command]
    actions = {a.dest: a for a in sp._actions if a.dest not in ("help", "config")}
    cfg = {}
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise FileParseError(f"{path}: unknown config key {key!r} for command {command!r}")
        cfg[dest] = _config_value(actions[dest], value, path, key)
    sp.set_defaults(**cfg)
    for action in sp._actions:
        if action.dest in cfg:  # the config satisfies this flag
            action.required = False


def _check_finite_floats(args, sp: argparse.ArgumentParser) -> None:
    """Reject NaN and ±inf in every float flag, given directly or through
    --config, before any work: no command can use one, and strict JSON (the
    outputs and the manifest) cannot record it."""
    for action in sp._actions:
        value = getattr(args, action.dest, None)
        if action.type is float and value is not None and not math.isfinite(value):
            raise DomainError(f"{action.option_strings[0]} must be a finite number, got {value}")


def _missing_dirs(args) -> list[Path]:
    """The directories an output flag names or lies in that do not exist
    yet, deepest first: the ones a failed run may have to remove."""
    paths = [Path(v) for k in ("out", "curve_out", "violin_out", "out_pred")
             if (v := getattr(args, k, None))]
    missing = {d for path in paths for d in (path, *path.parents)
               if d.name != ".." and not os.path.exists(d)}
    return sorted(missing, key=lambda d: len(d.parts), reverse=True)


def _resolved_config(args) -> dict:
    skip = {"command", "config", "func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sub = build_parser()
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config", nargs="?")  # a bare --config is left for `parser` to report
    written: list[str] = []
    created: list[Path] = []
    try:
        config_path = pre.parse_known_args(argv)[0].config
        if config_path is not None:
            if argv[0] not in sub.choices:
                parser.error("--config requires a leading command name")
            _load_config_defaults(config_path, argv[0], sub)
        args = parser.parse_args(argv)
        created = _missing_dirs(args)
        _check_finite_floats(args, sub.choices[args.command])
        started = time.time()
        # an overflow ends in an error that names the value, or in a null in
        # a report; numpy's RuntimeWarnings would only add stderr lines
        with np.errstate(all="ignore"):
            args.func(args, written)
        config = _resolved_config(args)
        inputs = [str(getattr(args, k)) for k in ("train", "test", "pred", "model")
                  if getattr(args, k, None)]
        for out in written:
            io.write_manifest(out, args.command, config, inputs, written, started)
    except BaseException as exc:
        # a failed run leaves none of its outputs behind, nor their manifests,
        # nor a directory it created that is empty again
        for out in written:
            Path(out).unlink(missing_ok=True)
            io.manifest_path(out).unlink(missing_ok=True)
        for d in created:
            with contextlib.suppress(OSError):  # not there, not a directory, or not empty
                d.rmdir()
        # a flag that sizes an array can ask for more memory than exists; any
        # other exception is a missing check, and its traceback says where
        if not isinstance(exc, (UqError, OSError, MemoryError)):
            raise
        message = str(exc)  # may echo a flag value or config entry of any size
        if len(message) > _ERROR_CHARS:
            message = message[:_ERROR_CHARS] + "…"
        print(f"uqregress: error: {message}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
