"""Cold start: no command and no library function loads scipy,
``import uqregress`` loads none of its modules until a name is used, and
``uqregress.io`` reads tables with ``core`` and ``errors`` alone.

Φ, Φ⁻¹, Brent, ln Γ, ψ and the evidential head's logistic are numpy and
stdlib code. Each check runs in a fresh interpreter, because the test
process itself has long since imported scipy (the ports' test oracle).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uqregress
from uqregress import evidential, numerics
from uqregress.cli import main

SRC = str(Path(uqregress.__file__).resolve().parent.parent)

SCIPY_KEYS = "sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.'))"


def run_fresh(code: str):
    """Run ``code`` in a new interpreter and return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_scipy():
    assert run_fresh(f"import json, sys\nimport uqregress.cli\nprint(json.dumps({SCIPY_KEYS}))") == []


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    # dir() lists the exports before any of them is loaded
    code = (
        "import json, sys, uqregress\n"
        "ours = sorted(k for k in sys.modules if k.startswith(('uqregress.', 'numpy')))\n"
        "print(json.dumps([ours, sorted(set(uqregress.__all__) - set(dir(uqregress)))]))"
    )
    assert run_fresh(code) == [[], []]


def test_each_export_is_the_object_its_module_defines():
    code = (
        "import importlib, json, uqregress\n"
        "print(json.dumps([n for m, names in uqregress._EXPORTS.items() for n in names if\n"
        "    getattr(uqregress, n) is not getattr(importlib.import_module('uqregress.' + m), n)]))"
    )
    assert run_fresh(code) == []
    names = [n for names in uqregress._EXPORTS.values() for n in names]  # each listed once
    assert sorted(names) == uqregress.__all__ and len(set(names)) == len(names)


def test_star_import_binds_every_export():
    code = (
        "import json, uqregress\nfrom uqregress import *\n"
        "print(json.dumps([n for n in uqregress.__all__ if globals().get(n) is not\n"
        "    getattr(uqregress, n)]))"
    )
    assert run_fresh(code) == []


def test_unknown_name_raises_attribute_error_and_submodules_still_import():
    code = (
        "import json, sys, uqregress\n"
        "try:\n    uqregress.no_such_name\n    raised = False\n"
        "except AttributeError:\n    raised = True\n"
        "from uqregress import cli\n"
        "print(json.dumps([raised, cli.__name__, 'uqregress.cli' in sys.modules]))"
    )
    assert run_fresh(code) == [True, "uqregress.cli", True]


# every module `import uqregress.cli` may add to those numpy loads; `statistics`
# (for Φ⁻¹) loads inside the function that uses it
CLI_IMPORTS = {
    "__future__", "_csv", "_json", "argparse", "copy", "csv", "dataclasses", "gettext",
    "json", "json.decoder", "json.encoder", "json.scanner",
}


def test_importing_the_cli_loads_no_new_module():
    added = run_fresh(
        "import json, sys\nimport numpy\nbefore = set(sys.modules)\nimport uqregress.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    ours = {m for m in added if m == "uqregress" or m.startswith("uqregress.")}
    assert set(added) - ours <= CLI_IMPORTS
    assert "uqregress.cli" in ours


TINY_TRAIN = ["--hidden", "4", "--epochs", "1", "--k", "2"]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A tiny dataset, an ensemble, a dropout and an evidential checkpoint, and a prediction CSV."""
    root = tmp_path_factory.mktemp("cold")
    assert main(["generate", "--out", str(root), "--n-train", "30", "--n-test", "10"]) == 0
    for method in ("ensemble", "dropout", "evidential"):
        assert main(["train", "--method", method, "--train", str(root / "train.csv"),
                     "--out", str(root / f"{method}.json"), *TINY_TRAIN]) == 0
    assert main(["predict", "--method", "dropout", "--model", str(root / "dropout.json"),
                 "--test", str(root / "test.csv"), "--out", str(root / "pred.csv"),
                 "--samples", "3"]) == 0
    return root


# every command, each method's train and predict; {root} is the tiny fixture's directory
NO_SCIPY = {
    "generate": ["generate", "--out", "{out}", "--n-train", "20", "--n-test", "10"],
    "train-ensemble": ["train", "--method", "ensemble", "--train", "{root}/train.csv",
                       "--out", "{out}", *TINY_TRAIN],
    "train-dropout": ["train", "--method", "dropout", "--train", "{root}/train.csv",
                      "--out", "{out}", *TINY_TRAIN],
    "train-evidential": ["train", "--method", "evidential", "--train", "{root}/train.csv",
                         "--out", "{out}", *TINY_TRAIN],
    "predict-ensemble": ["predict", "--method", "ensemble", "--model", "{root}/ensemble.json",
                         "--test", "{root}/test.csv", "--out", "{out}"],
    "predict-dropout": ["predict", "--method", "dropout", "--model", "{root}/dropout.json",
                        "--test", "{root}/test.csv", "--out", "{out}", "--samples", "3"],
    "predict-evidential": ["predict", "--method", "evidential", "--model", "{root}/evidential.json",
                           "--test", "{root}/test.csv", "--out", "{out}"],
    "evaluate": ["evaluate", "--pred", "{root}/pred.csv", "--out", "{out}"],
    "adversarial": ["adversarial", "--pred", "{root}/pred.csv", "--out", "{out}",
                    "--fractions", "0.5,1.0", "--trials", "2"],
    "recalibrate": ["recalibrate", "--pred", "{root}/pred.csv", "--out", "{out}"],
    "screen": ["screen", "--pred", "{root}/pred.csv", "--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(NO_SCIPY))
def test_command_loads_no_scipy(tiny, tmp_path, command):
    out = tmp_path / "out"
    argv = [a.format(root=tiny, out=out) for a in NO_SCIPY[command]]
    code = (
        "import json, sys\n"
        "from uqregress.cli import main\n"
        f"rc = main({argv!r})\n"
        f"print(json.dumps([rc, {SCIPY_KEYS}]))"
    )
    assert run_fresh(code) == [0, []]
    assert out.exists()


def test_reading_tables_through_io_loads_only_core_and_errors(tiny):
    # the format layer parses the evaluation half's inputs without loading it
    code = (
        "import json, sys\nimport uqregress.io as io\n"
        "ours = lambda: sorted(k for k in sys.modules if k.startswith('uqregress'))\n"
        f"io.read_dataset_csv({str(tiny / 'test.csv')!r})\n"
        f"io.read_predictions_csv({str(tiny / 'pred.csv')!r})\nread = ours()\n"
        f"io.load_checkpoint({str(tiny / 'dropout.json')!r})\n"
        "print(json.dumps([read, ours()]))"
    )
    read, after_checkpoint = run_fresh(code)
    assert read == ["uqregress", "uqregress.core", "uqregress.errors", "uqregress.io"]
    assert "uqregress.neural" in after_checkpoint


NO_SCIPY_CALLS = (
    "numerics.std_normal_cdf(np.array([-np.inf, -1.5, 0.0, 0.3, 7.0, np.inf])).tolist()",
    "numerics.std_normal_quantile(np.array([1e-9, 0.025, 0.5, 0.9])).tolist()",
    "numerics.brent_minimize(lambda x: (x - 0.3) ** 2 + np.cos(7 * x), -1.0, 2.0).iterations",
)


def test_normal_functions_and_brent_load_no_scipy():
    code = ["import json, sys", "import numpy as np", "from uqregress import numerics",
            f"out = [{', '.join(NO_SCIPY_CALLS)}]", f"print(json.dumps([out, {SCIPY_KEYS}]))"]
    fresh, loaded = run_fresh("\n".join(code))
    assert loaded == []
    assert fresh == [eval(call) for call in NO_SCIPY_CALLS]


# (module, function, argument) of the special functions; in a fresh process
# their first calls load no scipy
CALLS = (
    ("numerics", "log_gamma", "[1e-3, 0.5, 1.0, 2.0, 3.7, 150.0]"),
    ("numerics", "digamma", "[1e-3, 0.5, 3.7, 150.0]"),
    ("numerics", "log_gamma_half_step", "[1.000001, 3.7, 150.0, 1e9]"),
    ("numerics", "digamma_half_step", "[1.000001, 3.7, 150.0, 1e9]"),
    ("evidential", "head_transform_derivatives", "[[0.1, -2.0, 0.0, 3.0], [0.0, -800.0, 40.0, 1.0]]"),
)


def test_first_calls_in_a_fresh_process_match_in_process_values():
    code = ["import json, sys, numpy as np", "from uqregress import evidential, numerics", "out = []"]
    for module, name, arg in CALLS:
        code.append(f"out.append(np.asarray({module}.{name}(np.array({arg}))).tolist())")
    code.append("r = numerics.brent_minimize(lambda x: (x - 0.3) ** 2 + np.cos(7 * x), -1.0, 2.0)")
    code.append("out.append([r.argmin, r.value, r.iterations, r.converged])")
    code.append(f"print(json.dumps([out, {SCIPY_KEYS}]))")
    fresh, loaded = run_fresh("\n".join(code))
    assert loaded == []

    modules = {"numerics": numerics, "evidential": evidential}
    here = [np.asarray(getattr(modules[m], name)(np.array(json.loads(arg)))).tolist()
            for m, name, arg in CALLS]
    r = numerics.brent_minimize(lambda x: (x - 0.3) ** 2 + np.cos(7 * x), -1.0, 2.0)
    here.append([r.argmin, r.value, r.iterations, r.converged])
    assert fresh == here
