"""Golden digests of seeded outputs.

Each sweep config below runs through `rkfw sweep` in a fresh directory, and
each builtin tableau's certificate through `rkfw certify`. Every output file
is hashed with sha256 after the wall_ns column of traj.csv is dropped (as
bench/checks.py's `_canonical` does). The digests live in
fixtures/golden_digests.json together with the numpy and BLAS that wrote
them. A change that moves outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and declares the change.

The runs happen in a child process with OpenBLAS pinned to its Prescott
kernel, which every x86-64 CPU can run. The default kernel is picked per
CPU, and the kernels round even two-element dot products differently. On
an AVX-512 CPU the default SkylakeX kernel writes triangle-tae (seed 7)
files other than the Haswell, Sandybridge and Prescott kernels do: the
last digit of f moves in 23 of euler's 151 rows, and so do the gap and
the step norm. The line-search runs and the certificate tables split
three ways between those kernels. Where the digests differ in another
environment (another numpy, another BLAS, or an OpenBLAS without the
Prescott kernel), the test fails and its message names both environments.
"""

import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import rkfw
from rkfw.cli import main
from rkfw.tableau import TABLEAU_NAMES

GOLDEN = Path(__file__).parent / "fixtures" / "golden_digests.json"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"
PINNED = {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"}

ALL = "tableau = euler, midpoint, rk38, rk44, rk5\n"
SENSING_7 = "problem = sensing\nm = 500\nn = 100\nseed = 7\nwindows = 5, 20\n"
SWEEPS = {
    # bench/workloads.py's triangle-tae config at seed 7
    "triangle-tae-7": ("problem = triangle\n"
                       "x_star = 0.09662958999198357, 0.27294020806219943\n"
                       "delta = 0.1\nref_delta = 0.01\nrecord_iterates = true\n"
                       + ALL + "variant = plain\niters = 150\n"),
    # bench/workloads.py's sensing and sensing-ls configs at seed 7
    "sensing-7": SENSING_7 + ALL + "variant = plain\niters = 1000\n",
    "sensing-ls-7": (SENSING_7 + "tableau = euler, rk44\n"
                     "variant = line_search\niters = 400\n"),
    "triangle-line-search": ("problem = triangle\n" + ALL
                             + "variant = line_search\niters = 100\n"),
    "triangle-momentum": ("problem = triangle\ntableau = euler\n"
                          "variant = momentum\niters = 100\n"),
    "scalar-huber": ("problem = scalar_huber\nepsilon = 0.1\n"
                     "tableau = euler, rk44\ndelta = 0.5\nref_delta = 0.05\n"
                     "iters = 200\n"),
    # a reference grid that misses the trajectory's times: 429 steps of 0.007,
    # so np.interp blends two reference rows at every time after 0
    "triangle-off-grid-tae": ("problem = triangle\ntableau = euler, rk44\n"
                              "delta = 0.1\nref_delta = 0.007\niters = 30\n"),
    "sensing-logistic-7": ("problem = sensing_logistic\nm = 200\nn = 50\nseed = 7\n"
                           "tableau = euler, rk44\niters = 200\n"),
    "completion": ("problem = completion\ndata = ratings20.tsv\n"
                   "tableau = euler\niters = 30\n"),
}
# fixtures a config reads, copied beside it so that its manifest names them
# by a relative path
DATA = {"completion": "ratings20.tsv"}


def _canonical(path):
    data = path.read_bytes()
    if path.name != "traj.csv":
        return data
    return b"\n".join(line.rpartition(b",")[0] for line in data.split(b"\n"))


def _hashes(directory):
    return {str(p.relative_to(directory)): hashlib.sha256(_canonical(p)).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def compute_digests():
    """{config name: {output file: sha256}}, from runs in a temporary directory."""
    cwd = os.getcwd()
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for name, text in SWEEPS.items():
                work = Path(tmp) / name
                work.mkdir()
                os.chdir(work)  # out_dir is relative, as in bench's configs
                (work / "sweep.cfg").write_text(text + "out_dir = out\n")
                if name in DATA:
                    shutil.copy(Path(__file__).parent / "fixtures" / DATA[name], work)
                assert main(["sweep", "--config", "sweep.cfg"]) == 0, name
                digests[name] = _hashes(work / "out")
        finally:
            os.chdir(cwd)
        certify = Path(tmp) / "certify"
        certify.mkdir()
        for name in TABLEAU_NAMES:
            # the exit code is the verdict: midpoint's certificate fails
            main(["certify", "--tableau", name, "--c", "2", "--delta", "1",
                  "--k-max", "200", "--out", str(certify / f"{name}.csv")])
        digests["certify"] = _hashes(certify)
    return digests


def _blas_kernel():
    """The core OpenBLAS chose when numpy loaded it, or "unknown"."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            cdll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(cdll, symbol, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return "unknown"


def environment():
    """numpy's version and its BLAS: name, version and the kernel in use."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"), "blas_kernel": _blas_kernel()}


def _describe(env):
    return (f"numpy {env['numpy']}, {env['blas']} {env['blas_version']}, "
            f"kernel {env['blas_kernel']}")


def snapshot():
    return {"environment": environment(), "digests": compute_digests()}


def pinned_snapshot():
    """snapshot() from a child process whose OpenBLAS runs the PINNED kernel."""
    path = [str(Path(rkfw.__file__).parents[1]), str(Path(__file__).parent),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, **PINNED, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import json, test_golden; print(json.dumps(test_golden.snapshot()))"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=600)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    got = pinned_snapshot()
    want, have = golden["digests"], got["digests"]
    differing = sorted(f"{name}/{path}"
                       for name in set(want) | set(have)
                       for path in set(want.get(name, {})) | set(have.get(name, {}))
                       if want.get(name, {}).get(path) != have.get(name, {}).get(path))
    assert not differing, (
        f"outputs differ from {GOLDEN.name}: {', '.join(differing)}\n"
        f"recorded under {_describe(golden['environment'])}\n"
        f"this run under {_describe(got['environment'])}\n"
        f"a change that moves outputs on purpose regenerates the file "
        f"({REGENERATE}) and declares it")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(dict(pinned_snapshot(), regenerate=REGENERATE),
                                 indent=1) + "\n")
    print(f"wrote {GOLDEN}")
