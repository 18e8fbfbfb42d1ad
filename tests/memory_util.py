"""Traced memory of one call, for the tests that bound what a routine
allocates."""

import tracemalloc


def traced_peak(fn, *args) -> int:
    """The peak bytes tracemalloc traces while fn(*args) runs: what the call
    allocates beyond what was alive before it, NumPy arrays included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
