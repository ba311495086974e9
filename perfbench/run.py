"""uqregress benchmark: CLI workloads timed as fresh processes, plus a traced run.

Run from the root of a uqregress checkout:

    python3 perfbench/run.py --workload protocol_cli --seed 1 --seconds 58 --trace 0
    python3 perfbench/run.py --workload scale_eval --seed 1 --seconds 58 --trace 1
    python3 perfbench/run.py --smoke

``--trace 0`` times whole passes of the workload, each command a fresh
``uqregress`` process, and reports the end-to-end metrics. ``--trace 1``
runs one CLI pass and then the same commands in-process under
span-recording wrappers (``tracing.py``), and reports the per-layer
metrics. ``--smoke`` runs every workload at tiny sizes in both modes and
checks that every metric appears with its unit. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# numpy, and workloads.py with it, is imported only inside functions: main()
# pins the BLAS thread count first, and a BLAS reads it when it loads
HERE = Path(__file__).resolve().parent
CLI = ("-c", "from uqregress.cli import entrypoint; entrypoint()")
COLD_START = ("-c", "from uqregress.cli import build_parser; build_parser()")
IMPORT_TIME = ("-c", "import time; t = time.perf_counter(); import uqregress.cli; "
               "print(time.perf_counter() - t)")
COLD_STARTS = 5  # starts behind each median of cli.interpreter_s and cli.import_s
SETUP_STARTS = 2  # cold starts before each timed pass and after the last, for setup_s
SETUP_PER_PASS = 8  # at most this many more, spread between a pass's commands
RUN_BUDGET_S = 170.0  # every command is killed once a run has taken this long

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}  # as BENCHMARK.json declares them

# Per-layer metrics of the traced run: name -> (unit, workloads where the layer
# runs, source). Sources: ("self", span, ...) sums span self time, ("calls", span)
# counts spans, ("counter", key) reads a counter kept at a wrapper boundary.
ALL = ("protocol_cli", "scale_eval", "scale_train")
PROTO = ("protocol_cli",)
MODEL = ("protocol_cli", "scale_train")
EVAL = ("protocol_cli", "scale_eval")
EVIDENTIAL_LOSS = (
    "evidential.head_transform", "evidential.head_transform_derivatives", "evidential.nll_array",
    "evidential.nll_gradients", "evidential.regularizer_array", "evidential.regularizer_gradients",
)
LAYER_METRICS = {
    "cli.self_s": ("s", ALL, ("self", "cli.main")),
    "core.counter_uniform_s": ("s", PROTO, ("self", "core.counter_uniform")),
    "core.counter_uniform_calls": ("count", PROTO, ("calls", "core.counter_uniform")),
    "core.validate_prediction_set_s": ("s", EVAL, ("self", "core.validate_prediction_set")),
    "core.validate_prediction_set_calls": ("count", EVAL, ("calls", "core.validate_prediction_set")),
    "datagen.generate_synthetic_s": ("s", MODEL, ("self", "datagen.generate_synthetic")),
    "neural.train_s": ("s", MODEL, ("self", "neural.train")),
    "neural.sgd_steps": ("count", MODEL, ("counter", "neural.sgd_steps")),
    "neural.predict_s": ("s", MODEL, ("self", "neural.predict")),
    "neural.predict_calls": ("count", MODEL, ("calls", "neural.predict")),
    "evidential.loss_s": ("s", MODEL, ("self", *EVIDENTIAL_LOSS)),
    "evidential.loss_calls": ("count", MODEL, ("calls", "evidential.head_transform")),
    "uq_methods.train_kfold_members_s": ("s", PROTO, ("self", "uq_methods.train_kfold_members")),
    "uq_methods.ensemble_predict_s": ("s", PROTO, ("self", "uq_methods.ensemble_predict")),
    "uq_methods.mc_dropout_predict_s": ("s", PROTO, ("self", "uq_methods.mc_dropout_predict")),
    "uq_methods.dropout_passes": ("count", PROTO, ("counter", "uq_methods.dropout_passes")),
    "uq_methods.evidential_predict_s": ("s", MODEL, ("self", "uq_methods.evidential_predict")),
    "calibration.calibration_curve_s": ("s", EVAL, ("self", "calibration.calibration_curve")),
    "calibration.calibration_curve_calls": ("count", EVAL, ("calls", "calibration.calibration_curve")),
    "calibration.adversarial_s": ("s", EVAL, ("self", "calibration.adversarial_group_calibration")),
    "calibration.adversarial_subgroups": ("count", EVAL, ("counter", "calibration.adversarial_subgroups")),
    "metrics.accuracy_s": ("s", EVAL, ("self", "metrics.accuracy")),
    "metrics.dispersion_s": ("s", EVAL, ("self", "metrics.dispersion")),
    "metrics.sharpness_s": ("s", EVAL, ("self", "metrics.sharpness")),
    "metrics.distribution_summary_s": ("s", EVAL, ("self", "metrics.distribution_summary")),
    "scoring.interval_score_s": ("s", EVAL, ("self", "scoring.interval_score")),
    "report.evaluate_s": ("s", EVAL, ("self", "report.evaluate")),
    "report.report_to_dict_s": ("s", EVAL, ("self", "report.report_to_dict")),
    "recalibration.fit_scalar_s": ("s", EVAL, ("self", "recalibration.fit_scalar")),
    "recalibration.curve_evals": ("count", EVAL, ("counter", "recalibration.curve_evals")),
    "recalibration.apply_scalar_s": ("s", EVAL, ("self", "recalibration.apply_scalar")),
    "numerics.std_normal_cdf_s": ("s", EVAL, ("self", "numerics.std_normal_cdf")),
    "numerics.kde_scott_s": ("s", EVAL, ("self", "numerics.kde_scott")),
    "numerics.brent_minimize_s": ("s", EVAL, ("self", "numerics.brent_minimize")),
    "numerics.brent_iterations": ("count", EVAL, ("counter", "numerics.brent_iterations")),
    "screening.screen_s": ("s", EVAL, ("self", "screening.screen")),
    "screening.honesty_rate_s": ("s", EVAL, ("self", "screening.honesty_rate")),
    "io.read_dataset_csv_s": ("s", MODEL, ("self", "io.read_dataset_csv")),
    "io.write_dataset_csv_s": ("s", MODEL, ("self", "io.write_dataset_csv")),
    "io.read_predictions_csv_s": ("s", EVAL, ("self", "io.read_predictions_csv")),
    "io.write_predictions_csv_s": ("s", ALL, ("self", "io.write_predictions_csv")),
    "io.csv_rows_read": ("count", ALL, ("counter", "io.csv_rows_read")),
    "io.csv_rows_written": ("count", ALL, ("counter", "io.csv_rows_written")),
    "io.csv_bytes_read": ("bytes", ALL, ("counter", "io.csv_bytes_read")),
    "io.csv_bytes_written": ("bytes", ALL, ("counter", "io.csv_bytes_written")),
    "io.checkpoint_s": ("s", MODEL, ("self", "io.save_model", "io.save_ensemble", "io.load_checkpoint")),
    "io.write_manifest_s": ("s", ALL, ("self", "io.write_manifest")),
}


def _load_benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@dataclass
class Proc:
    returncode: int
    wall_s: float
    rss_mb: float


class Runner:
    """Starts interpreter processes for one benchmark run and times them."""

    def __init__(self, root: Path, logdir: Path) -> None:
        self.env = dict(os.environ)
        # the library's single-core contract: one BLAS thread, never more than nproc
        self.env.update(PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.log = logdir / "stderr.log"
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def spawn(self, argv, cwd: Path, stdout=None) -> Proc:
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.log, "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=self.env,
                                    stdout=stdout or err, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)

    def cold_starts(self, argv, cwd: Path, count: int = COLD_STARTS) -> list[float]:
        return [self.spawn(argv, cwd).wall_s for _ in range(count)]

    def import_s(self, cwd: Path) -> float:
        out = cwd / "import_time.txt"
        samples = []
        for _ in range(COLD_STARTS):
            with open(out, "wb") as f:
                self.spawn(IMPORT_TIME, cwd, stdout=f)
            samples.append(float(out.read_text()))
        return statistics.median(samples)

    def cli_pass(self, steps, passdir: Path, cold_starts: bool = False) -> tuple[list[Proc], list[float]]:
        """One CLI process per step; with ``cold_starts``, a cold start after
        every k-th command, at most SETUP_PER_PASS of them."""
        _fresh(passdir)
        every = -(-len(steps) // SETUP_PER_PASS)
        procs, setup = [], []
        for i, step in enumerate(steps):
            procs.append(self.spawn((*CLI, *step.argv), passdir))
            if cold_starts and i % every == every - 1:
                setup.append(self.spawn(COLD_START, passdir.parent).wall_s)
        return procs, setup

    def inprocess(self, steps, passdir: Path, trace: bool, first: int = 0) -> dict:
        """Run ``steps`` through ``uqregress.cli.main`` in one new process."""
        plan = passdir.parent / f"{passdir.name}.plan.json"
        result = passdir.parent / f"{passdir.name}.result.json"
        plan.write_text(json.dumps({"trace": trace, "passdir": str(passdir), "first": first,
                                    "commands": [list(s.argv) for s in steps]}))
        proc = self.spawn((str(HERE / "tracing.py"), str(plan), str(result)), passdir.parent)
        if proc.returncode != 0:
            raise RuntimeError(f"in-process pass exited {proc.returncode}; see {self.log}")
        return json.loads(result.read_text())

    def traced_pass(self, steps, passdir: Path) -> dict:
        """Each command traced in its own fresh process, as the CLI would run it."""
        _fresh(passdir)
        merged = {"commands": [], "counters": {}, "spans": [], "wrapper_calls": 0}
        costs = []
        for i, step in enumerate(steps):
            r = self.inprocess([step], passdir, trace=True, first=i)
            merged["commands"] += r["commands"]
            for key, value in r["counters"].items():
                merged["counters"][key] = merged["counters"].get(key, 0) + value
            offset = len(merged["spans"])
            merged["spans"] += [[n, p + offset if p >= 0 else p, *rest] for n, p, *rest in r["spans"]]
            merged["wrapper_calls"] += r["wrapper_calls"]
            costs.append(r["wrapper_cost_s"])
        merged["wrapper_cost_s"] = statistics.median(costs)
        return merged


def span_table(spans) -> dict:
    """Per span name: summed self time, summed total time and call count."""
    out: dict[str, dict] = {}
    for name, parent, start, end, _ in spans:
        row = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        row["self_s"] += end - start
        row["total_s"] += end - start
        row["calls"] += 1
        if parent >= 0:
            out[spans[parent][0]]["self_s"] -= end - start
    return out


def _fresh(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_conditions(root: Path, env: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
    }


def check_pass(steps, passdir: Path, returncodes) -> list[tuple[str, list[str]]]:
    """Per step, its command and why it failed: a non-zero exit or a failed output check."""
    from workloads import check_step

    return [(step.command, ([f"exit code {rc}"] if rc != 0 else []) + check_step(step, passdir))
            for step, rc in zip(steps, returncodes)]


def _per_command(steps, values) -> dict[str, float]:
    out: dict[str, float] = {}
    for step, v in zip(steps, values):
        out[step.command] = out.get(step.command, 0.0) + v
    return out


def measure(plan, runner: Runner, work: Path, seconds: float) -> dict:
    """End-to-end metrics: CLI passes back to back for about ``seconds``."""
    from workloads import digests

    setup, passes, failures = [], [], []
    measured = 0.0
    while True:
        # the machine's speed drifts over seconds: spread the set-up samples over
        # the run, between the commands too, so they see the drift wall_s sees
        setup += runner.cold_starts(COLD_START, work, SETUP_STARTS)
        procs, between = runner.cli_pass(plan.steps, work / "cli", cold_starts=True)
        setup += between
        failures += check_pass(plan.steps, work / "cli", [p.returncode for p in procs])
        wall = sum(p.wall_s for p in procs)  # the commands back to back, without the cold starts
        passes.append((wall, procs))
        measured += wall
        if measured + wall > seconds:
            break
    setup += runner.cold_starts(COLD_START, work, SETUP_STARTS)
    metrics = {
        "wall_s": statistics.median(w for w, _ in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(p.rss_mb for p in procs) for _, procs in passes),
    }
    per_command = [_per_command(plan.steps, [p.wall_s for p in procs]) for _, procs in passes]
    for command in per_command[0]:
        metrics[f"{command}_s"] = statistics.median(pc[command] for pc in per_command)
    return {"metrics": metrics, "passes": len(passes), "setup_starts": len(setup),
            "failures": failures, "digests": digests(work / "cli")}


def _layer_value(source, table: dict, counters: dict):
    kind, *keys = source
    if kind == "self":
        return sum(table.get(k, {}).get("self_s", 0.0) for k in keys)
    if kind == "calls":
        return sum(table.get(k, {}).get("calls", 0) for k in keys)
    return counters.get(keys[0], 0)


def trace(plan, runner: Runner, work: Path, workload: str) -> dict:
    """Per-layer metrics from an untraced CLI pass and a traced in-process pass."""
    from workloads import digests

    interpreter_s = statistics.median(runner.cold_starts(("-c", "pass"), work))
    import_s = runner.import_s(work)
    procs, _ = runner.cli_pass(plan.steps, work / "cli")
    failures = check_pass(plan.steps, work / "cli", [p.returncode for p in procs])
    traced = runner.traced_pass(plan.steps, work / "traced")
    spans = traced.pop("spans")
    (work / "spans.json").write_text(json.dumps(spans, separators=(",", ":")))
    traced_failures = check_pass(plan.steps, work / "traced",
                                 [c["returncode"] for c in traced["commands"]])
    cli_digests, traced_digests = digests(work / "cli"), digests(work / "traced")
    for step, (_, problems) in zip(plan.steps, traced_failures):
        for rel in step.outputs:
            if cli_digests.get(rel) != traced_digests.get(rel):
                problems.append(f"{rel}: traced output differs from the CLI output")
    table, counters = span_table(spans), traced["counters"]

    wall = _per_command(plan.steps, [p.wall_s for p in procs])
    span = _per_command(plan.steps, [c["span_s"] for c in traced["commands"]])
    metrics = {"cli.interpreter_s": (interpreter_s, "s"), "cli.import_s": (import_s, "s"),
               "cli.overhead_s": (sum(wall.values()) - sum(span.values()), "s")}
    for command in wall:
        metrics[f"cli.overhead_s.{command}"] = (wall[command] - span[command], "s")
        rss = max(p.rss_mb for s, p in zip(plan.steps, procs) if s.command == command)
        metrics[f"cli.rss_mb.{command}"] = (rss, "MB")
    for name, (unit, where, source) in LAYER_METRICS.items():
        metrics[name] = (_layer_value(source, table, counters), unit)
    epochs = counters.get("neural.epochs", 0)
    metrics["neural.epoch_s"] = (metrics["neural.train_s"][0] / epochs if epochs else 0.0, "s")
    metrics["trace.wrapper_calls"] = (traced["wrapper_calls"], "count")
    metrics["trace.overhead_s"] = (traced["wrapper_calls"] * traced["wrapper_cost_s"], "s")
    return {"metrics": metrics, "failures": failures + traced_failures,
            "digests": cli_digests, "traced_digests_match": cli_digests == traced_digests,
            "layers_run": layers_run(workload, plan)}


def layers_run(workload: str, plan) -> list[str]:
    """Per-layer metrics that measure work on this workload (the rest read 0)."""
    names = ["cli.interpreter_s", "cli.import_s", "cli.overhead_s"]
    for command in dict.fromkeys(s.command for s in plan.steps):
        names += [f"cli.overhead_s.{command}", f"cli.rss_mb.{command}"]
    names += [n for n, (_, where, _) in LAYER_METRICS.items() if workload in where]
    if workload in MODEL:
        names.append("neural.epoch_s")
    return names + ["trace.wrapper_calls", "trace.overhead_s"]


def run(workload: str, seed: int, seconds: float, traced: bool, root: Path, tiny: bool = False) -> dict:
    from workloads import WORKLOADS, write_oracle

    plan = WORKLOADS[workload](seed, tiny)
    work = HERE / "work" / workload
    _fresh(work)
    runner = Runner(root, work)
    conditions = run_conditions(root, runner.env)
    if plan.oracle_rows:
        write_oracle(work / "input" / "oracle.csv", plan.oracle_rows, seed)
    # untimed warm-up: compiles .pyc files and touches every module the pass loads
    warm = WORKLOADS[workload](seed, True)
    if warm.oracle_rows:
        write_oracle(work / "warmup" / "input" / "oracle.csv", warm.oracle_rows, seed)
    _fresh(work / "warmup" / "pass")
    runner.inprocess(warm.steps, work / "warmup" / "pass", trace=False)
    shutil.rmtree(work / "warmup")

    result = trace(plan, runner, work, workload) if traced else measure(plan, runner, work, seconds)
    failures = result.pop("failures")
    failed = sum(1 for _, problems in failures if problems)
    result.update(workload=workload, seed=seed, trace=traced, conditions=conditions,
                  attempted=len(failures), failed=failed, op_fail_ratio=failed / len(failures),
                  problems=[f"{command}: {p}" for command, problems in failures for p in problems])
    for name in ("cli", "traced", "input"):
        shutil.rmtree(work / name, ignore_errors=True)
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict, declared: dict) -> dict:
    """Print the human-readable summary; return the object for the last line."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"{'traced' if result['trace'] else 'untraced'}")
    print("conditions " + json.dumps(result["conditions"]))
    metrics = result["metrics"]
    if result["trace"]:
        shown = {n: metrics[n] for n in result["layers_run"]}
        out = {n: {"value": metrics[n][0], "unit": unit} for n, unit in declared.items()}
    else:
        units = {n: "s" for n in metrics}
        units.update(END_TO_END)
        shown = {n: (v, units[n]) for n, v in metrics.items()}
        out = {n: {"value": metrics[n], "unit": unit} for n, unit in declared.items()}
        print(f"  passes {result['passes']}  setup starts {result['setup_starts']}")
    shown["op_fail_ratio"] = (result["op_fail_ratio"], "ratio")
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {_fmt(value):>14s} {unit}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print("digests " + json.dumps(result["digests"], sort_keys=True))
    if result["trace"]:
        print(f"  traced outputs identical to CLI outputs: {result['traced_digests_match']}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": out}


def smoke(root: Path) -> int:
    """Every workload at tiny sizes in both modes; every metric present with its unit."""
    from workloads import WORKLOADS

    bench = _load_benchmark_json()
    ok = True
    for workload in ALL:
        for traced in (False, True):
            result = run(workload, 1, 0.0, traced, root, tiny=True)
            line = report(result, _declared(bench, traced))
            expected = result["layers_run"] if traced else [
                *END_TO_END, *(f"{s.command}_s" for s in WORKLOADS[workload](1, True).steps)]
            missing = [n for n in expected if n not in result["metrics"]]
            if traced:
                missing += [n for n in expected if not result["metrics"][n][0] > 0]
            missing += [n for n in _declared(bench, traced) if n not in line["metrics"]]
            if missing or not line["correct"]:
                ok = False
                print(f"SMOKE FAIL {workload} trace={int(traced)}: missing or zero {missing}")
    print("smoke " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def _declared(bench: dict, traced: bool) -> dict:
    return {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=ALL)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "uqregress" / "cli.py").is_file():
        print(f"perfbench: error: {root} holds no uqregress source tree (src/uqregress)", file=sys.stderr)
        return 2
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path.insert(0, str(root / "src"))
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required without --smoke")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    line = report(result, _declared(_load_benchmark_json(), bool(args.trace)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
