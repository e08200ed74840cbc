import os
import subprocess
import sys

import pytest

from conftest import openblas_threads

TESTS = os.path.dirname(os.path.abspath(__file__))


def test_blas_runs_on_one_thread():
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert threads[0]() == 1


def test_pin_holds_when_numpy_loaded_first():
    # As under a plugin that imports numpy: BLAS starts with its default
    # thread count, and importing conftest must still bring it down to one.
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([TESTS] + sys.path)
    code = (
        "import numpy, conftest\n"
        "threads = conftest.openblas_threads()\n"
        "print('none' if threads is None else threads[0]())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    if out == ["none"]:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert out == ["1"]
