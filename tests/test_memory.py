"""Peak-allocation guards: the dense kernels must stay within O(n^2) memory.

The bound is 32 n^2 doubles at n=300 (about 23 MB), so a single n^3
temporary (216 MB of doubles, or 27 MB even as booleans) breaks it.
"""

import tracemalloc

import numpy as np

from fraclap import besov_energy, fixture, heat_kernel_series

N = 300
BOUND_BYTES = 32 * N * N * 8


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_besov_energy_peak_allocation():
    # a fresh space, so the ball-mass table is built inside the traced call
    sp = fixture("random_geometric", n=N, radius=0.15, seed=0)
    f = np.random.default_rng(0).standard_normal(N)
    assert peak_bytes(besov_energy, sp, 0.5, f) <= BOUND_BYTES


def test_heat_kernel_series_peak_allocation():
    sp = fixture("grid2d", nx=15, ny=20)
    assert peak_bytes(heat_kernel_series, sp, 1.0) <= BOUND_BYTES
