"""Cold start: scipy stays off the import path and loads on first use.

Each check runs in a fresh interpreter, because the test process itself has
long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import uqregress
from uqregress import evidential, numerics

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


def test_generate_loads_no_scipy(tmp_path):
    code = (
        "import json, sys\n"
        "from uqregress.cli import main\n"
        f"rc = main(['generate', '--out', {str(tmp_path)!r}, '--n-train', '20', '--n-test', '10'])\n"
        f"print(json.dumps([rc, {SCIPY_KEYS}]))"
    )
    assert run_fresh(code) == [0, []]
    assert (tmp_path / "test.csv").exists()


# (module, function, call) for every function that imports scipy on first use
CALLS = (
    ("numerics", "std_normal_cdf", "[-1.5, 0.0, 0.3, 7.0]"),
    ("numerics", "std_normal_quantile", "[1e-9, 0.025, 0.5, 0.9]"),
    ("numerics", "log_gamma", "[1e-3, 0.5, 3.7, 150.0]"),
    ("numerics", "digamma", "[1e-3, 0.5, 3.7, 150.0]"),
    ("evidential", "head_transform_derivatives", "[[0.1, -2.0, 0.0, 3.0]]"),
)


def test_first_calls_in_a_fresh_process_match_in_process_values():
    code = ["import json, numpy as np", "from uqregress import evidential, numerics", "out = []"]
    for module, name, arg in CALLS:
        code.append(f"out.append(np.asarray({module}.{name}(np.array({arg}))).tolist())")
    code.append("r = numerics.brent_minimize(lambda x: (x - 0.3) ** 2 + np.cos(7 * x), -1.0, 2.0)")
    code.append("out.append([r.argmin, r.value, r.iterations, r.converged])")
    code.append("print(json.dumps(out))")
    fresh = run_fresh("\n".join(code))

    modules = {"numerics": numerics, "evidential": evidential}
    here = [np.asarray(getattr(modules[m], name)(np.array(json.loads(arg)))).tolist()
            for m, name, arg in CALLS]
    r = numerics.brent_minimize(lambda x: (x - 0.3) ** 2 + np.cos(7 * x), -1.0, 2.0)
    here.append([r.argmin, r.value, r.iterations, r.converged])
    assert fresh == here
