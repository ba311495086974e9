"""Golden digests: the sha256 of every data output of the tiny pipeline.

The pipeline is the README one at CI's tiny sizes (300 train / 200 test rows,
``--epochs 2``, 20 samples), run in process through ``cli.main``; it writes 29
data outputs beside their manifests. Their bytes depend on the numpy version,
the BLAS build, the OpenBLAS core picked at run time and the SIMD target numpy
dispatches ``exp``, ``log``, ``log1p`` and ``expm1`` to, so the table in
``golden_digests.json`` is keyed by all four. Under a key the table lacks, the
test skips with the key in its reason.

A change that declares a byte change rewrites the entry of its key in the same
diff and lists the changed outputs in CHANGES.md; a change that claims byte
identity leaves the table alone. To write the entry of this environment's key:

    PYTHONPATH=src python tests/test_golden_digests.py --write
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from uqregress.cli import main

TABLE = Path(__file__).with_name("golden_digests.json")
DISPATCHED = ("exp", "log", "log1p", "expm1")


def _openblas_core() -> str:
    """The core OpenBLAS picked at run time, asked of the OpenBLAS library
    mapped into this process (numpy has no public API for it)."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for lib in libs:
        corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def environment_key() -> str:
    from numpy.lib.introspect import opt_func_info

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    targets = opt_func_info(func_name=f"^({'|'.join(DISPATCHED)})$")
    dispatch = " ".join(f"{f}:{targets[f]['dd']['current']}" for f in DISPATCHED)  # float64
    return (f"numpy {np.__version__}; {blas.get('name')} {blas.get('version')} "
            f"on {_openblas_core()}; {dispatch}")


def pipeline_digests(root: Path) -> dict[str, str]:
    """Run the tiny pipeline in ``root``; the sha256 of each data output, by path."""
    def run(*argv):
        if main([str(a) for a in argv]) != 0:
            raise RuntimeError(f"uqregress {' '.join(map(str, argv))} failed")

    data = root / "data"
    run("generate", "--out", data, "--n-train", 300, "--n-test", 200, "--seed", 1)
    for m in ("ensemble", "dropout", "evidential"):
        model, pred = root / f"{m}.json", root / f"{m}.csv"
        run("train", "--method", m, "--train", data / "train.csv", "--out", model,
            "--epochs", 2, "--seed", 2)
        run("predict", "--method", m, "--model", model, "--test", data / "test.csv",
            "--out", pred, "--samples", 20)
        run("evaluate", "--pred", pred, "--out", root / f"{m}.report.json")
        run("adversarial", "--pred", pred, "--out", root / f"{m}.adv.csv",
            "--fractions", "0.05,0.5,1.0", "--trials", 2, "--seed", 3)
        run("recalibrate", "--pred", pred, "--out", root / f"{m}.recal.json", "--seed", 4)
        run("screen", "--pred", root / f"{m}.recal.recalibrated.csv",
            "--out", root / f"{m}.screen.json")
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and not p.name.endswith(".manifest.json")}  # manifests hold timings


def test_tiny_pipeline_outputs_match_the_golden_table(tmp_path):
    key = environment_key()
    table = json.loads(TABLE.read_text())
    if key not in table:
        pytest.skip(f"no golden digests for {key!r}: "
                    "add them with `python tests/test_golden_digests.py --write`")
    want, got = table[key], pipeline_digests(tmp_path)
    changed = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not changed, f"{len(changed)} output(s) changed under {key!r}: {', '.join(changed)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write (writes this environment's entry "
                 f"into {TABLE.name})")
    key = environment_key()
    with tempfile.TemporaryDirectory() as tmp:
        digests = pipeline_digests(Path(tmp))
    table = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    table[key] = digests
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests under {key!r} to {TABLE}")
