"""Every function the benchmark's tracer hooks still exists where it looks.

``perfbench/tracing.py`` wraps functions by name in the module that calls
them. A rename or a moved call would make its traced run fail, so each name
it lists is checked here against the ``uqregress`` module it names.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def _module(name: str):
    return importlib.import_module(f"uqregress.{name}")


@pytest.mark.parametrize("caller, name", [(c, n) for c, names in tracing.WRAPPED.items()
                                          for n in names])
def test_wrapped_names_exist(caller, name):
    assert callable(getattr(_module(caller), name, None))


@pytest.mark.parametrize("caller, attr, name", [(c, a, n) for (c, a), names in tracing.PROXIED.items()
                                                for n in names])
def test_proxied_names_exist(caller, attr, name):
    assert callable(getattr(getattr(_module(caller), attr), name, None))


@pytest.mark.parametrize("caller, name", sorted(tracing.COUNTED))
def test_counted_helpers_exist(caller, name):
    assert callable(getattr(_module(caller), name, None))


@pytest.mark.parametrize("caller, name", sorted(tracing.COUNTS))
def test_counts_hook_a_wrapped_or_proxied_name(caller, name):
    # a count fires only through a wrapper, so its name must be wrapped or proxied
    proxied = [n for (c, _), names in tracing.PROXIED.items() if c == caller for n in names]
    assert name in tracing.WRAPPED.get(caller, ()) or name in proxied


def test_evaluation_layers_reach_the_tracer():
    # the per-layer metrics read these spans and counters: each of the curve,
    # the adversarial sweep and the fit reaches Φ, the fit runs one Brent
    # search and one curve, and the sweep counts each subgroup once
    from collections import Counter

    from uqregress import cli

    from conftest import gaussian_null

    p = gaussian_null(300, seed=1, sigma_scale=0.5)
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        cli.calibration_curve(p)
        cli.adversarial_group_calibration(p, [0.5, 1.0], trials=2, subgroups=3)
        fit = cli.fit_scalar(p)
    finally:
        tracing.uninstall(installed)
    spans = Counter(span[0] for span in tracer.spans)
    assert spans["numerics.std_normal_cdf"] == 3
    assert spans["numerics.brent_minimize"] == 1
    assert tracer.counters["calibration.adversarial_subgroups"] == 2 * 2 * 3
    assert tracer.counters["recalibration.curve_evals"] == 1
    assert tracer.counters["numerics.brent_iterations"] == fit.brent.iterations > 0
