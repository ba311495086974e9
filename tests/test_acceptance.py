"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Every tolerance is pinned here exactly as stated; the printed summary lines
bypass pytest capture so `pytest -v` always shows one line per criterion.
"""

import time

import mpmath
import numpy as np

import conftest
import uqregress as uq
from uqregress import evidential as ev
from uqregress import io
from uqregress.cli import main as cli_main
from uqregress.core import RngSeed
from uqregress.datagen import generate_synthetic
from uqregress.metrics import accuracy, dispersion, sharpness
from uqregress.neural import MlpConfig, MlpModel, TrainConfig, loss_and_gradient, predict, train
from uqregress.numerics import digamma, log_gamma, std_normal_cdf, std_normal_quantile
from uqregress.recalibration import apply_scalar, fit_scalar
from uqregress.scoring import interval_score
from uqregress.screening import ScreenCriteria, honesty_rate, screen
from uqregress.uq_methods import DropoutSpec, evidential_predict, mc_dropout_predict

from conftest import gaussian_null, make_pset
from test_neural import (
    analytic_gradient_vector,
    finite_difference_gradient,
    max_rel_error,
    random_batch,
)

mpmath.mp.dps = 50


def report_line(number: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d} [{status}] {name}: {detail} ({elapsed:.1f}s)"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)


def test_criterion_01_evidential_loss_correctness():
    started = time.time()
    # Standalone loss at (gamma, nu, alpha, beta) = (y, 1, 2, 1) against a
    # 50-digit gamma-function oracle.
    oracle = float(
        mpmath.mpf("0.5") * mpmath.log(mpmath.pi)
        - 2 * mpmath.log(4)
        + mpmath.mpf("2.5") * mpmath.log(4)
        + mpmath.loggamma(2)
        - mpmath.loggamma(mpmath.mpf("2.5"))
    )
    value = float(ev.nll_array(0.0, 1.0, 2.0, 1.0, 0.0))
    probe_ok = abs(value - 0.9808) <= 1e-3 and abs(value - oracle) <= 1e-12

    worst = 0.0
    for i, reg_weight in enumerate((0.0, 0.05, 0.2)):
        for probe in range(50):
            m = MlpModel.initialize(MlpConfig((2, 6, 4), activation="tanh",
                                              seed=RngSeed(1000 + 100 * i + probe)))
            batch = random_batch((2, 6, 4), 4, seed=2000 + 100 * i + probe)
            _, grads = loss_and_gradient(m, batch, reg_weight=reg_weight)
            fd = finite_difference_gradient(m, batch, reg_weight)
            worst = max(worst, max_rel_error(analytic_gradient_vector(grads), fd))
    grad_ok = worst <= 1e-4
    elapsed = time.time() - started
    ok = probe_ok and grad_ok and elapsed < 10.0
    report_line(1, "evidential loss correctness",
                ok, f"probe={value:.6f} (oracle {oracle:.6f}), worst grad rel err {worst:.2e}",
                elapsed)
    assert probe_ok
    assert grad_ok
    assert elapsed < 10.0


def test_criterion_02_calibration_null():
    started = time.time()
    areas, rates = [], []
    for seed in (11, 22, 33):
        p = gaussian_null(100_000, seed=seed)
        areas.append(uq.calibration_curve(p).miscalibration_area)
        rates.append(honesty_rate(p, 3.0))
    area_ok = all(a < 0.01 for a in areas)
    rate_ok = all(abs(r - 0.9973) <= 0.005 for r in rates)
    elapsed = time.time() - started
    ok = area_ok and rate_ok and elapsed < 30.0
    report_line(2, "calibration null test", ok,
                f"areas={[f'{a:.4f}' for a in areas]}, honesty={[f'{r:.4f}' for r in rates]}",
                elapsed)
    assert area_ok
    assert rate_ok
    assert elapsed < 30.0


def test_criterion_03_recalibration_oracle():
    started = time.time()
    half = gaussian_null(100_000, seed=11, sigma_scale=0.5)
    res_half = fit_scalar(half)
    area_applied = uq.calibration_curve(apply_scalar(half, res_half.scalar)).miscalibration_area
    calibrated = gaussian_null(100_000, seed=22)
    res_cal = fit_scalar(calibrated)
    scalar_ok = 1.9 <= res_half.scalar <= 2.1
    area_ok = area_applied < 0.015
    unit_ok = 0.95 <= res_cal.scalar <= 1.05
    elapsed = time.time() - started
    ok = scalar_ok and area_ok and unit_ok and elapsed < 60.0
    report_line(3, "recalibration oracle", ok,
                f"halved->scalar {res_half.scalar:.4f} area {area_applied:.4f}; "
                f"calibrated->scalar {res_cal.scalar:.4f}",
                elapsed)
    assert scalar_ok
    assert area_ok
    assert unit_ok
    assert elapsed < 60.0


def test_criterion_04_scale_invariance():
    started = time.time()
    p = gaussian_null(20_000, seed=44)
    s = 7.3
    scaled = apply_scalar(p, s)
    d0, d1 = dispersion(p), dispersion(scaled)
    cv_ok = abs(d1.cv - d0.cv) <= 1e-12 * abs(d0.cv)
    iqr_ok = abs(d1.iqr - s * d0.iqr) <= 1e-12 * abs(s * d0.iqr)
    sha_ok = abs(sharpness(scaled) - s * sharpness(p)) <= 1e-12 * s * sharpness(p)
    acc_ok = accuracy(scaled) == accuracy(p)
    crit = ScreenCriteria(value_lo=-1.0, value_hi=1.0, sigma_max=0.5)
    crit_scaled = ScreenCriteria(value_lo=-1.0, value_hi=1.0, sigma_max=0.5 * s)
    screen_ok = screen(p, crit).selected_ids == screen(scaled, crit_scaled).selected_ids
    elapsed = time.time() - started
    ok = cv_ok and iqr_ok and sha_ok and acc_ok and screen_ok
    report_line(4, "scale-invariance suite", ok,
                f"cv/iqr/sharpness/accuracy/screen = "
                f"{cv_ok}/{iqr_ok}/{sha_ok}/{acc_ok}/{screen_ok}", elapsed)
    assert ok


def test_criterion_05_interval_score_propriety():
    started = time.time()
    rng = RngSeed(55).generator()
    mu_true, sigma_true = 0.4, 1.0
    y = mu_true + sigma_true * rng.standard_normal(100_000)
    candidates = mu_true + np.linspace(-0.5, 0.5, 11)
    means = [
        interval_score(make_pset(y, np.full_like(y, c), np.full_like(y, sigma_true))).mean_score
        for c in candidates
    ]
    best = candidates[int(np.argmin(means))]
    grid_step = 0.1
    propriety_ok = abs(best - mu_true) <= grid_step + 1e-12

    widths = [
        interval_score(make_pset([1.0], [1.0], [s])).mean_score for s in (0.2, 0.5, 1.0, 2.0, 4.0)
    ]
    monotone_ok = all(b > a for a, b in zip(widths, widths[1:]))
    elapsed = time.time() - started
    ok = propriety_ok and monotone_ok and elapsed < 60.0
    report_line(5, "interval-score propriety", ok,
                f"argmin at {best:+.2f} vs true {mu_true:+.2f}; width monotone {monotone_ok}",
                elapsed)
    assert propriety_ok
    assert monotone_ok
    assert elapsed < 60.0


def test_criterion_06_mc_dropout_convergence():
    started = time.time()
    train_data = generate_synthetic(400, 2, RngSeed(66)).dataset
    test_data = generate_synthetic(5, 2, RngSeed(67)).dataset
    m = MlpModel.initialize(MlpConfig((2, 16, 1), activation="relu",
                                      dropout_rate=0.1, seed=RngSeed(68)))
    train(m, train_data, TrainConfig(epochs=20, batch_size=64, learning_rate=0.01,
                                     seed=RngSeed(69)))

    def sigma_estimates(samples: int, repeats: int) -> np.ndarray:
        out = np.empty((repeats, test_data.n))
        for r in range(repeats):
            p = mc_dropout_predict(m, test_data,
                                   DropoutSpec(samples=samples, rate=0.1, seed=RngSeed(700 + r)))
            out[r] = p.sigma
        return out

    repeats = 40
    spread_50 = sigma_estimates(50, repeats).std(axis=0, ddof=1)
    spread_1000 = sigma_estimates(1000, repeats).std(axis=0, ddof=1)
    rms_50 = float(np.sqrt(np.mean(spread_50**2)))
    rms_1000 = float(np.sqrt(np.mean(spread_1000**2)))
    ratio_ok = rms_1000 <= 1.5 * rms_50 / np.sqrt(20.0)

    p_zero = mc_dropout_predict(m, test_data, DropoutSpec(samples=10, rate=0.0, seed=RngSeed(1)))
    exact_ok = np.array_equal(p_zero.mu, predict(m, test_data.features)[:, 0]) and np.all(
        p_zero.sigma == 0.0
    )
    elapsed = time.time() - started
    ok = ratio_ok and exact_ok
    report_line(6, "MC dropout convergence", ok,
                f"repeat spread S=1000 {rms_1000:.2e} <= 1.5/sqrt(20) * {rms_50:.2e}; "
                f"rate-0 exact {exact_ok}", elapsed)
    assert ratio_ok
    assert exact_ok


def test_criterion_07_adversarial_consistency():
    started = time.time()
    p = gaussian_null(50_000, seed=77)
    full_area = uq.calibration_curve(p).miscalibration_area
    adv_full = uq.adversarial_group_calibration(p, [1.0], trials=3, subgroups=2, seed=RngSeed(5))
    equal_ok = abs(adv_full.mean_worst_area[0] - full_area) <= 1e-12

    fractions = [0.005, 0.01, 0.02, 0.05]
    adv = uq.adversarial_group_calibration(p, fractions, trials=100, subgroups=10,
                                           seed=RngSeed(6))
    inversions = 0
    strict_ok = True
    for i in range(len(fractions) - 1):
        if adv.mean_worst_area[i + 1] > adv.mean_worst_area[i]:
            inversions += 1
            if adv.mean_worst_area[i + 1] - adv.mean_worst_area[i] > adv.std_error[i]:
                strict_ok = False
    mono_ok = strict_ok and inversions <= 1
    elapsed = time.time() - started
    ok = equal_ok and mono_ok
    report_line(7, "adversarial consistency", ok,
                f"fraction-1.0 gap {abs(adv_full.mean_worst_area[0] - full_area):.1e}; "
                f"means {[f'{a:.3f}' for a in adv.mean_worst_area]}, inversions {inversions}",
                elapsed)
    assert equal_ok
    assert mono_ok


def test_criterion_08_lambda_sweep():
    started = time.time()
    train_data = generate_synthetic(5000, 4, RngSeed(101)).dataset
    test_data = generate_synthetic(2000, 4, RngSeed(102)).dataset
    weights = (0.0, 0.05, 0.1, 0.15, 0.2)
    maes, mean_sigmas = [], []
    for w in weights:
        m = MlpModel.initialize(MlpConfig((4, 32, 32, 4), activation="relu", seed=RngSeed(7)))
        train(m, train_data, TrainConfig(epochs=400, batch_size=256, learning_rate=0.015,
                                         lr_decay=0.03, reg_weight=w,
                                         seed=RngSeed(8)))
        p = evidential_predict(m, test_data)
        maes.append(accuracy(p).mae)
        mean_sigmas.append(float(np.mean(p.sigma)))
    spread = (max(maes) - min(maes)) / np.mean(maes)
    mae_ok = spread < 0.02
    mono_ok = all(b >= a for a, b in zip(mean_sigmas, mean_sigmas[1:]))
    elapsed = time.time() - started
    ok = mae_ok and mono_ok and elapsed < 300.0
    report_line(8, "lambda sweep", ok,
                f"MAE spread {spread:.3%} across {weights}; mean sigma_e "
                f"{[f'{s:.2f}' for s in mean_sigmas]} nondecreasing {mono_ok}", elapsed)
    assert mae_ok
    assert mono_ok
    assert elapsed < 300.0


def test_criterion_09_end_to_end_determinism(tmp_path):
    started = time.time()
    root = tmp_path
    data = root / "data"
    fast = ["--hidden", "8", "--epochs", "4", "--batch-size", "32", "--learning-rate", "0.01"]

    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    run("generate", "--out", data, "--n-train", 250, "--n-test", 100, "--dim", 2, "--seed", 3)
    outputs = [data / "train.csv", data / "test.csv"]
    for method, extra in (("ensemble", []), ("dropout", ["--samples", "30"]), ("evidential", [])):
        model = root / f"{method}.model.json"
        pred = root / f"{method}.pred.csv"
        run("train", "--method", method, "--train", data / "train.csv", "--out", model,
            "--seed", 4, *fast)
        run("predict", "--method", method, "--model", model, "--test", data / "test.csv",
            "--out", pred, "--seed", 5, *extra)
        outputs += [model, pred]
    report = root / "report.json"
    run("evaluate", "--pred", root / "evidential.pred.csv", "--out", report)
    recal = root / "recal.json"
    run("recalibrate", "--pred", root / "evidential.pred.csv", "--out", recal, "--seed", 6)
    report2 = root / "report.recal.json"
    run("evaluate", "--pred", root / "recal.recalibrated.csv", "--out", report2)
    screen_out = root / "screen.json"
    run("screen", "--pred", root / "recal.recalibrated.csv", "--out", screen_out)
    outputs += [report, root / "report.curve.csv", root / "report.violin.csv",
                recal, root / "recal.recalibrated.csv", report2, screen_out]

    before = {str(o): o.read_bytes() for o in outputs}
    # re-run every stage from its own manifest
    for o in outputs:
        manifest = io.manifest_path(o)
        command = io.read_manifest(manifest)["command"]
        assert cli_main([command, "--config", str(manifest)]) == 0
    after = {str(o): o.read_bytes() for o in outputs}
    identical = [k for k in before if before[k] == after[k]]
    ok = len(identical) == len(before)
    elapsed = time.time() - started
    report_line(9, "end-to-end determinism", ok,
                f"{len(identical)}/{len(before)} outputs byte-identical after manifest re-run",
                elapsed)
    assert ok


def test_criterion_10_special_functions():
    started = time.time()
    rng = np.random.default_rng(10)
    p = rng.uniform(0.001, 0.999, 10_000)
    round_trip = float(np.max(np.abs(std_normal_cdf(std_normal_quantile(p)) - p)))
    rt_ok = round_trip <= 1e-8

    x = rng.uniform(0.1, 50.0, 10_000)
    lhs = log_gamma(x + 1.0)
    rel = np.abs(lhs - (log_gamma(x) + np.log(x))) / np.maximum(1.0, np.abs(lhs))
    lg_ok = float(rel.max()) <= 1e-10

    xs = rng.uniform(0.2, 30.0, 2_000)
    h = 1e-6
    fd = (log_gamma(xs + h) - log_gamma(xs - h)) / (2 * h)
    dg_err = float(np.max(np.abs(digamma(xs) - fd)))
    dg_ok = dg_err <= 1e-6
    elapsed = time.time() - started
    ok = rt_ok and lg_ok and dg_ok
    report_line(10, "special functions", ok,
                f"round-trip {round_trip:.1e}, lnGamma recurrence {float(rel.max()):.1e}, "
                f"digamma-vs-FD {dg_err:.1e}", elapsed)
    assert rt_ok
    assert lg_ok
    assert dg_ok
