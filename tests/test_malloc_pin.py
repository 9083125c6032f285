"""glibc malloc thresholds pinned when the package is imported."""

import ctypes
import resource

import numpy as np
import pytest

import stereoloc

HAS_MALLOPT = hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not HAS_MALLOPT, reason="no mallopt (not glibc)")
def test_pin_sets_both_thresholds():
    assert stereoloc.pin_malloc_thresholds()


@pytest.mark.skipif(not HAS_MALLOPT, reason="no mallopt (not glibc)")
def test_freed_heap_top_is_not_trimmed():
    # 16 arrays of 256 KB, allocated, written and freed together: each round
    # reuses the 4 MB the last one freed. With glibc's dynamic thresholds
    # the freed heap top goes back to the OS and every round faults it in
    # again (about 1000 faults per round in a fresh process).
    def round_():
        arrays = [np.ones(1 << 15) for _ in range(16)]
        del arrays

    for _ in range(2):
        round_()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(4):
        round_()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


def test_missing_symbol_does_nothing(monkeypatch):
    monkeypatch.setattr(stereoloc.ctypes, "CDLL", lambda name: object())
    assert stereoloc.pin_malloc_thresholds() is False
