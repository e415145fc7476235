"""Machine-speed calibration for the timed metrics.

Shared 2-core machines change speed by 20-30% within seconds as other
tenants come and go; identical passes over the same input then differ by
as much.  So the benchmark measures the speed of its core alongside the
program: a fixed kernel, sharing no code with teter, is timed every
50 ms while a pass runs (see child.SpeedProbe), its own time is taken
out of the inputs' times, and every time is rescaled to the kernel's
nominal speed:

    reported time = program time * nominal kernel time / kernel time around it

On a machine as fast as the one the nominal times were taken on,
reported and wall times agree; on a slower or busier one the reported
time stays put while the wall time grows.  A change to teter cannot move
the kernel, so it moves the reported times as it moves the wall times.
"""

import time

import numpy as np

# median kernel times on the 2-core x86-64 VM the reference figures
# come from (Python 3.11, numpy 2.4, one BLAS thread)
NOMINAL_INTERPRETER_S = 0.001
NOMINAL_NUMPY_S = 0.0012

_SIZE = 6_000
_STEPS = (7, 11, 13)
_PRIME = 32003
_MATRIX = np.arange(192 * 192, dtype=np.int64).reshape(192, 192) % _PRIME


def interpreter_kernel():
    """Interpreted loops over a small table, like the semigroup layer."""
    table = bytearray(_SIZE + 1)
    table[0] = 1
    for h in range(1, _SIZE + 1):
        for step in _STEPS:
            if step <= h and table[h - step]:
                table[h] = 1
                break
    return table


def numpy_kernel():
    """Small eliminations mod p on a 300 KB matrix, like the modp layer."""
    mat = _MATRIX
    for i in range(4):
        col, row = mat[:, i].copy(), mat[i].copy()
        mat = (mat - np.outer(col, row)) % _PRIME
        np.nonzero(mat[i])
    return mat


def time_kernel(numeric):
    """Seconds the kernel takes now, relative to its nominal time.

    The interpreter kernel alone, or with ``numeric`` the sum of both
    kernels over the sum of their nominal times, for workloads whose time
    goes to numpy array code as much as to interpreted code.
    """
    start = time.perf_counter()
    interpreter_kernel()
    if not numeric:
        return (time.perf_counter() - start) / NOMINAL_INTERPRETER_S
    numpy_kernel()
    return (time.perf_counter() - start) / (NOMINAL_INTERPRETER_S + NOMINAL_NUMPY_S)
