"""Benchmark the numba kernels against their pure-numpy fallbacks.

The valuation solve has one plain-Python implementation and is timed
end to end by ``perfbench/run.py --workload certify``.

Run from the repository root:

    python3 benchmarks/bench_kernels.py

The script times both implementations of each kernel on fixed seeded
workloads and prints a small table.  When numba is unavailable (or
disabled via BKSGEOM_DISABLE_NUMBA) only the numpy column is filled.
"""

import time

import numpy as np

from bksgeom import _kernels
from bksgeom.geometry import enumerate_points, span
from bksgeom.pauli import parse_observable, to_symplectic
from bksgeom.rectangle import magic_rectangle
from bksgeom.search import _third_table


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def cap_workload():
    tables = [
        _third_table(enumerate_points(sub))
        for sub in magic_rectangle().context_spans()[:4]
    ]
    unit = span(
        [to_symplectic(parse_observable(w)) for w in ("XI", "IX", "ZI", "IZ")]
    )
    tables.append(_third_table(enumerate_points(unit)))
    return tables


def parity_workload(count=1_000_000, seed=77):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 1 << 16, size=count, dtype=np.int64) for _ in range(4)
    ]


def main():
    rows = []

    tables = cap_workload()

    def caps_np():
        for third in tables:
            _kernels._cap_subsets_np(third, -1)

    np_time = best_of(3, caps_np)
    jit_time = None
    if _kernels.NUMBA_ACTIVE:

        def caps_jit():
            for third in tables:
                _kernels._cap_subsets_jit(third, -1)

        caps_jit()  # compile
        jit_time = best_of(3, caps_jit)
    rows.append((f"cap_subsets ({len(tables)} spaces, 3003 subsets each)", np_time, jit_time))

    x1, z1, x2, z2 = parity_workload()
    np_time = best_of(3, lambda: _kernels._pair_parity_np(x1, z1, x2, z2))
    jit_time = None
    if _kernels.NUMBA_ACTIVE:
        _kernels._pair_parity_jit(x1[:4], z1[:4], x2[:4], z2[:4])  # compile
        jit_time = best_of(3, lambda: _kernels._pair_parity_jit(x1, z1, x2, z2))
    rows.append(("pair_parity (10^6 pairs)", np_time, jit_time))

    print(f"numba active: {_kernels.NUMBA_ACTIVE}")
    header = f"{'kernel':<44} {'numpy':>10} {'numba':>10} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, np_time, jit_time in rows:
        if jit_time is None:
            print(f"{name:<44} {np_time * 1e3:>8.1f}ms {'-':>10} {'-':>9}")
        else:
            print(
                f"{name:<44} {np_time * 1e3:>8.1f}ms {jit_time * 1e3:>8.1f}ms "
                f"{np_time / jit_time:>8.1f}x"
            )


if __name__ == "__main__":
    main()
