"""In-process pass of uqregress CLI commands, optionally traced.

Runs each command through ``uqregress.cli.main(argv)`` inside one process.
When tracing is on, span-recording wrappers are installed around the public
functions each module calls, in the namespace of the calling module (for
example ``uqregress.report.interval_score`` or the ``io`` module object bound
in ``uqregress.cli``). The program's own files are not changed; every wrapper
is removed again before the process ends.

Each span records its name, parent, start, end and the command it belongs
to. Counters are updated at the same boundaries, or by counting wrappers
around the private helpers a module runs once per SGD step, dropout pass or
subgroup. Spans stay in memory and are written out when the pass ends.

Usage (``run.py`` builds the plan file):

    python3 perfbench/tracing.py PLAN.json RESULT.json

PLAN.json holds ``{"trace": bool, "passdir": str, "first": int, "commands":
[[arg, ...], ...]}``; ``first`` is the index of the first command in its
workload, recorded on every span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# calling module -> functions it calls, wrapped where that module looks them up
WRAPPED = {
    "cli": (
        "generate_synthetic", "train", "train_kfold_members", "ensemble_predict",
        "mc_dropout_predict", "evidential_predict", "evaluate", "report_to_dict",
        "scott_bandwidth", "distribution_summary", "adversarial_group_calibration",
        "calibration_curve", "fit_scalar", "apply_scalar", "screen", "honesty_rate",
    ),
    "uq_methods": ("counter_uniform", "split_k_folds", "predict", "train"),
    "report": (
        "validate_prediction_set", "accuracy", "dispersion", "sharpness",
        "calibration_curve", "interval_score", "honesty_rate",
    ),
    "calibration": ("validate_prediction_set", "std_normal_cdf"),
    "recalibration": ("validate_prediction_set", "calibration_curve", "apply_scalar", "brent_minimize"),
    "scoring": ("validate_prediction_set", "std_normal_quantile"),
    "screening": ("validate_prediction_set",),
    "metrics": ("kde_scott",),
}

# (calling module, name it binds a module object to) -> functions called through it
PROXIED = {
    ("cli", "io"): (
        "read_dataset_csv", "write_dataset_csv", "read_predictions_csv", "write_predictions_csv",
        "write_curve_csv", "write_adversarial_csv", "write_violin_csv", "write_json",
        "save_model", "save_ensemble", "load_checkpoint", "write_manifest",
    ),
    # the evidential loss: head transform, NLL, regulariser and their gradients
    ("neural", "ev"): (
        "head_transform", "head_transform_derivatives", "nll_array", "nll_gradients",
        "regularizer_array", "regularizer_gradients",
    ),
}


# (module, helper it calls once per unit of work) -> (counter, enclosing span or
# None): each call adds 1, but only inside that span when one is named
COUNTED = {
    ("neural", "_loss_and_grads"): ("neural.sgd_steps", None),
    ("uq_methods", "_mc_forward"): ("uq_methods.dropout_passes", None),
    ("calibration", "_observed_proportions"): (
        "calibration.adversarial_subgroups", "calibration.adversarial_group_calibration"),
}


class Tracer:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end, command index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.counted_calls = 0
        self.command = -1

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, parent, time.perf_counter(), 0.0, self.command]
        self.spans.append(span)
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self.stack.pop()


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _file_size(path) -> int:
    return os.stat(path).st_size


def _count_train(c, a, result):
    c["neural.epochs"] += len(result[1])  # train returns one mean loss per epoch


def _count_curve_eval(c, a, result):
    c["recalibration.curve_evals"] += 1


def _count_brent(c, a, result):
    c["numerics.brent_iterations"] += result.iterations


def _count_read_dataset(c, a, result):
    c["io.csv_rows_read"] += 0 if result.dataset is None else result.dataset.n
    c["io.csv_bytes_read"] += _file_size(a["path"])


def _count_read_predictions(c, a, result):
    c["io.csv_rows_read"] += 0 if result is None else result.n
    c["io.csv_bytes_read"] += _file_size(a["path"])


def _count_write_dataset(c, a, result):
    c["io.csv_rows_written"] += 0 if a["ids"] is None else len(a["ids"])
    c["io.csv_bytes_written"] += _file_size(a["path"])


def _count_write_predictions(c, a, result):
    c["io.csv_rows_written"] += 0 if a["p"] is None else a["p"].n
    c["io.csv_bytes_written"] += _file_size(a["path"])


# (calling module, function) -> counter update from the bound arguments and result
COUNTS = {
    ("cli", "train"): _count_train,
    ("uq_methods", "train"): _count_train,
    ("recalibration", "calibration_curve"): _count_curve_eval,
    ("recalibration", "brent_minimize"): _count_brent,
    ("cli", "read_dataset_csv"): _count_read_dataset,
    ("cli", "read_predictions_csv"): _count_read_predictions,
    ("cli", "write_dataset_csv"): _count_write_dataset,
    ("cli", "write_predictions_csv"): _count_write_predictions,
}


def _wrap(tracer: Tracer, fn, count=None):
    name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if count is not None:
            count(tracer.counters, _arguments(fn, args, kwargs), result)
        return result

    return traced


def _counting(tracer: Tracer, fn, counter: str, inside):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counted_calls += 1
        if inside is None or (tracer.stack and tracer.spans[tracer.stack[-1]][0] == inside):
            tracer.counters[counter] += 1
        return fn(*args, **kwargs)

    return counted


class _ModuleProxy:
    """Stands in for a module object in one caller's namespace."""

    def __init__(self, module, overrides: dict) -> None:
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer) -> list[tuple]:
    """Install every wrapper; returns (module, name, original) for removal."""
    installed = []
    for caller, names in WRAPPED.items():
        module = importlib.import_module(f"uqregress.{caller}")
        for name in names:
            original = getattr(module, name)
            setattr(module, name, _wrap(tracer, original, COUNTS.get((caller, name))))
            installed.append((module, name, original))
    for (caller, attr), names in PROXIED.items():
        module = importlib.import_module(f"uqregress.{caller}")
        target = getattr(module, attr)
        overrides = {n: _wrap(tracer, getattr(target, n), COUNTS.get((caller, n))) for n in names}
        setattr(module, attr, _ModuleProxy(target, overrides))
        installed.append((module, attr, target))
    for (caller, name), (counter, inside) in COUNTED.items():
        module = importlib.import_module(f"uqregress.{caller}")
        original = getattr(module, name)
        setattr(module, name, _counting(tracer, original, counter, inside))
        installed.append((module, name, original))
    return installed


def uninstall(installed: list[tuple]) -> None:
    for module, name, original in reversed(installed):
        setattr(module, name, original)


def wrapper_cost_s(repeats: int = 10000) -> float:
    """Measured cost of one span-recording call over a direct call, in seconds
    (an upper bound for a counting wrapper, which records no span)."""

    def noop():
        return None

    wrapped = _wrap(Tracer(), noop)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t1 = time.perf_counter()
        for _ in range(repeats):
            wrapped()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / repeats)
    return sorted(samples)[len(samples) // 2]


def _run_command(main, argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse rejects flags by exiting
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the CLI would die with a traceback and exit 1
        traceback.print_exc()
        return 1


def run_pass(plan: dict) -> dict:
    from uqregress import cli

    tracer = Tracer()
    installed = install(tracer) if plan["trace"] else []
    cwd = os.getcwd()
    commands = []
    try:
        os.chdir(plan["passdir"])
        for i, argv in enumerate(plan["commands"]):
            tracer.command = plan["first"] + i
            index = len(tracer.spans)
            rc = tracer.call("cli.main", _run_command, (cli.main, argv), {})
            start, end = tracer.spans[index][2:4]
            commands.append({"argv": argv, "returncode": rc, "span_s": end - start})
    finally:
        os.chdir(cwd)
        uninstall(installed)
    result = {"commands": commands}
    if plan["trace"]:
        result.update(
            counters=dict(tracer.counters),
            wrapper_calls=len(tracer.spans) - len(commands) + tracer.counted_calls,
            wrapper_cost_s=wrapper_cost_s(),
            spans=tracer.spans,
        )
    return result


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    plan = json.loads(Path(plan_path).read_text())
    result = run_pass(plan)
    Path(result_path).write_text(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
