"""Helpers shared by the test modules."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """A function that calls fn() and returns the peak, in bytes, of the
    memory that tracemalloc saw allocated during the call."""
    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
