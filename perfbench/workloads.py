"""The benchmark's workloads, its input generator and its output checks.

A workload is a list of uqregress CLI commands run one after the other in
one pass directory (a closed loop with one client: each command reads the
files the previous ones wrote). Every command line is made here from the
workload seed; the program only ever sees the resulting flags and files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# scale_eval's oracle: sigma is half the true noise std, so the right scalar is 2
ORACLE_SCALAR = 2.0
ORACLE_SCALAR_TOLERANCE = 0.03  # relative; the fit on 500k rows lands within 0.5%
ORACLE_INPUT = "../input/oracle.csv"


@dataclass(frozen=True)
class Step:
    """One CLI command and the data outputs it must leave, as path -> (kind, rows)."""

    argv: tuple[str, ...]
    outputs: dict

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Plan:
    steps: tuple[Step, ...]
    oracle_rows: int = 0  # > 0: write an oracle prediction CSV of this many rows first


def _args(command: str, **flags) -> tuple[str, ...]:
    argv = [command]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return tuple(argv)


def protocol_cli(seed: int, tiny: bool) -> Plan:
    """The README pipeline at its defaults: generate, then six commands per method."""
    n_test = 200 if tiny else 2000
    gen = {"n_train": 300, "n_test": n_test} if tiny else {}
    train = {"epochs": 2} if tiny else {}
    drop = {"samples": 20} if tiny else {}
    adv = {"fractions": "0.1,0.5,1.0", "trials": 3} if tiny else {}
    steps = [Step(_args("generate", out="data", seed=seed, **gen),
                  {"data/train.csv": ("dataset", 300 if tiny else 5000),
                   "data/test.csv": ("dataset", n_test)})]
    for m in ("ensemble", "dropout", "evidential"):
        steps += [
            Step(_args("train", method=m, train="data/train.csv", out=f"{m}.model.json",
                       seed=seed + 1, **train),
                 {f"{m}.model.json": ("checkpoint", None)}),
            Step(_args("predict", method=m, model=f"{m}.model.json", test="data/test.csv",
                       out=f"{m}.pred.csv", **(drop if m == "dropout" else {})),
                 {f"{m}.pred.csv": ("predictions", n_test)}),
            Step(_args("evaluate", pred=f"{m}.pred.csv", out=f"{m}.report.json"),
                 {f"{m}.report.json": ("report", n_test),
                  f"{m}.report.curve.csv": ("table", None),
                  f"{m}.report.violin.csv": ("table", None)}),
            Step(_args("adversarial", pred=f"{m}.pred.csv", out=f"{m}.adv.csv", seed=seed + 2, **adv),
                 {f"{m}.adv.csv": ("table", None)}),
            Step(_args("recalibrate", pred=f"{m}.pred.csv", out=f"{m}.recal.json", seed=seed + 3),
                 {f"{m}.recal.json": ("recalibration", None),
                  f"{m}.recal.recalibrated.csv": ("predictions", n_test)}),
            Step(_args("screen", pred=f"{m}.recal.recalibrated.csv", out=f"{m}.screen.json"),
                 {f"{m}.screen.json": ("screen", None)}),
        ]
    return Plan(tuple(steps))


def scale_eval(seed: int, tiny: bool) -> Plan:
    """The evaluation half on a 1M-row oracle prediction CSV; no neural layer."""
    n = 20_000 if tiny else 1_000_000
    steps = (
        Step(_args("evaluate", pred=ORACLE_INPUT, out="report.json"),
             {"report.json": ("report", n), "report.curve.csv": ("table", None),
              "report.violin.csv": ("table", None)}),
        Step(_args("adversarial", pred=ORACLE_INPUT, out="adv.csv", fractions="0.1,0.5,1.0",
                   trials=10, subgroups=3, seed=seed + 2),
             {"adv.csv": ("table", None)}),
        Step(_args("recalibrate", pred=ORACLE_INPUT, out="recal.json", seed=seed + 3),
             {"recal.json": ("oracle_recalibration", None),
              "recal.recalibrated.csv": ("predictions", n)}),
        Step(_args("screen", pred="recal.recalibrated.csv", out="screen.json"),
             {"screen.json": ("screen", None)}),
    )
    return Plan(steps, oracle_rows=n)


def scale_train(seed: int, tiny: bool) -> Plan:
    """Dataset-CSV writes and reads plus many SGD steps of the evidential loss."""
    n = 2000 if tiny else 200_000
    steps = (
        Step(_args("generate", out="data", n_train=n, n_test=n, dim=8, groups=8, seed=seed),
             {"data/train.csv": ("dataset", n), "data/test.csv": ("dataset", n)}),
        Step(_args("train", method="evidential", train="data/train.csv", out="model.json",
                   epochs=1 if tiny else 5, seed=seed + 1),
             {"model.json": ("checkpoint", None)}),
        Step(_args("predict", method="evidential", model="model.json", test="data/test.csv",
                   out="pred.csv"),
             {"pred.csv": ("predictions", n)}),
    )
    return Plan(steps)


WORKLOADS = {
    "protocol_cli": protocol_cli,
    "scale_eval": scale_eval,
    "scale_train": scale_train,
}


def write_oracle(path: Path, rows: int, seed: int) -> None:
    """Prediction CSV whose sigma is exactly half the noise std that made y_true."""
    rng = np.random.default_rng([seed, 2])
    mu = rng.normal(0.0, 1.0, rows)
    noise = rng.uniform(0.02, 0.2, rows)
    y = mu + noise * rng.standard_normal(rows)
    sigma = noise / ORACLE_SCALAR
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("id,y_true,y_pred,sigma\n")
        f.writelines(f"o{i},{a!r},{b!r},{c!r}\n"
                     for i, a, b, c in zip(range(rows), y.tolist(), mu.tolist(), sigma.tolist()))


# --- output checks -----------------------------------------------------------

def _numbers(path: Path, columns) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=columns, ndmin=2)


def _check_predictions(path: Path, rows) -> list[str]:
    values = _numbers(path, (1, 2, 3))
    problems = []
    if values.shape[0] != rows:
        problems.append(f"{values.shape[0]} rows, expected {rows}")
    if not np.isfinite(values).all():
        problems.append("non-finite value")
    if (values[:, 2] < 0.0).any():
        problems.append("negative sigma")
    return problems


def _check_dataset(path: Path, rows) -> list[str]:
    data = path.read_bytes()
    problems = [] if data.startswith(b"id,x0,") else ["bad header"]
    found = data.count(b"\n") - 1
    if found != rows:
        problems.append(f"{found} rows, expected {rows}")
    return problems


def _check_checkpoint(path: Path, rows) -> list[str]:
    fmt = json.loads(path.read_text()).get("format")
    return [] if fmt in ("uqregress-model-v1", "uqregress-ensemble-v1") else [f"format {fmt!r}"]


def _check_report(path: Path, rows) -> list[str]:
    from uqregress.report import report_from_dict, report_to_dict

    d = json.loads(path.read_text())
    problems = [] if report_to_dict(report_from_dict(d)) == d else ["does not round-trip"]
    if d["n"] != rows:
        problems.append(f"n={d['n']}, expected {rows}")
    return problems


def _check_table(path: Path, rows) -> list[str]:
    values = _numbers(path, None)
    return [] if values.size and np.isfinite(values).all() else ["empty or non-finite table"]


def _check_recalibration(path: Path, rows) -> list[str]:
    d = json.loads(path.read_text())
    s = d["scalar"]
    problems = [] if math.isfinite(s) and s > 0.0 else [f"scalar {s}"]
    if not d["area_after"] <= d["area_before"]:
        problems.append(f"area_after {d['area_after']} > area_before {d['area_before']}")
    return problems


def _check_oracle_recalibration(path: Path, rows) -> list[str]:
    d = json.loads(path.read_text())
    problems = _check_recalibration(path, rows)
    if not abs(d["scalar"] / ORACLE_SCALAR - 1.0) <= ORACLE_SCALAR_TOLERANCE:
        problems.append(f"scalar {d['scalar']} not within {ORACLE_SCALAR_TOLERANCE:.0%} of {ORACLE_SCALAR}")
    if not d["area_after"] < d["area_before"]:
        problems.append("recalibration did not reduce the miscalibration area")
    return problems


def _check_screen(path: Path, rows) -> list[str]:
    d = json.loads(path.read_text())
    ok = (d["n_selected"] == len(d["selected_ids"]) == d["n_honest"] + d["n_dishonest"]
          and len(d["honest_ids"]) == d["n_honest"])
    return [] if ok else ["selection counts disagree"]


CHECKS = {
    "dataset": _check_dataset,
    "checkpoint": _check_checkpoint,
    "predictions": _check_predictions,
    "report": _check_report,
    "table": _check_table,
    "recalibration": _check_recalibration,
    "oracle_recalibration": _check_oracle_recalibration,
    "screen": _check_screen,
}


def check_step(step: Step, passdir: Path) -> list[str]:
    """Problems with one command's outputs and their manifests; empty if none."""
    problems = []
    for rel, (kind, rows) in step.outputs.items():
        path = passdir / rel
        manifest = Path(f"{path}.manifest.json")
        try:
            m = json.loads(manifest.read_text())
            if m.get("command") != step.command or rel not in m.get("outputs", ()):
                problems.append(f"{rel}: manifest does not name it as a {step.command} output")
            problems += [f"{rel}: {p}" for p in CHECKS[kind](path, rows)]
        except Exception as exc:  # a check that cannot even read its file fails the step
            problems.append(f"{rel}: {type(exc).__name__}: {exc}")
    return problems


def digests(passdir: Path) -> dict[str, str]:
    """sha256 of every data output in a pass directory (manifests carry timings)."""
    out = {}
    for path in sorted(passdir.rglob("*")):
        if path.is_file() and not path.name.endswith(".manifest.json"):
            out[path.relative_to(passdir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
