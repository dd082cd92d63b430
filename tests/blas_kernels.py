"""OpenBLAS kernels and numpy SIMD targets a test can force, and a runner for code under them.

OpenBLAS reads ``OPENBLAS_CORETYPE`` once, when it loads, and numpy reads
``NPY_DISABLE_CPU_FEATURES`` once, when it is imported, so each
combination runs in a child process of its own.
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

# numpy's SIMD targets and the environment that selects each on a CPU that
# has it. X86_V3 switches the AVX-512 loops off, leaving the loops an AVX2
# host without AVX-512 runs (Zen 2 or 3, say), whose float64 exp and log
# round differently.
SIMD_TARGETS = {"X86_V4": {},
                "X86_V3": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}}


def run_on_kernel(kernel: str, code: str, target: str = "X86_V4") -> str:
    """Run Python ``code`` in a child process under OpenBLAS kernel ``kernel``.

    numpy runs its ``target`` loops there. The child imports the test
    modules and airsgd from this checkout, and its standard output is
    returned. The test is skipped where the CPU lacks the kernel's feature
    or the target, and fails with the child's stderr when the child exits
    nonzero.
    """
    for feature in (BLAS_KERNELS[kernel], target):
        if not __cpu_features__.get(feature):
            pytest.skip(f"this CPU lacks {feature}")
    src = os.path.dirname(os.path.dirname(airsgd.__file__))
    env = {**os.environ, **SIMD_TARGETS[target], "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join([os.path.dirname(__file__), src])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
