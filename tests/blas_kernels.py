"""OpenBLAS kernels a test can force, and a runner for code under one of them.

OpenBLAS reads ``OPENBLAS_CORETYPE`` once, when it loads, so each kernel
runs in a child process of its own.
"""

import os
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import airsgd

# OpenBLAS kernels and the CPU feature each needs; forcing a kernel the CPU
# lacks crashes the process
BLAS_KERNELS = {"SkylakeX": "AVX512_SKX", "Haswell": "AVX2", "Zen": "AVX2",
                "Sandybridge": "AVX", "Prescott": "SSE3"}


def run_on_kernel(kernel: str, code: str) -> str:
    """Run Python ``code`` in a child process under OpenBLAS kernel ``kernel``.

    The child imports the test modules and airsgd from this checkout, and
    its standard output is returned. The test is skipped where the CPU lacks
    the kernel's feature, and fails with the child's stderr when the child
    exits nonzero.
    """
    if not __cpu_features__.get(BLAS_KERNELS[kernel]):
        pytest.skip(f"this CPU lacks {BLAS_KERNELS[kernel]}")
    src = os.path.dirname(os.path.dirname(airsgd.__file__))
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join([os.path.dirname(__file__), src])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
