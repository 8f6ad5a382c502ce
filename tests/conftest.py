import weakref

import numpy as np
import pytest

import cusketch.bounds


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240817))


@pytest.fixture
def kernel_refs(monkeypatch):
    """Weak references to every kernel `cusketch.bounds` builds.

    Building a kernel while an earlier one is still alive fails the test.
    """
    refs = []
    build_kernel = cusketch.bounds.build_kernel

    def build_one_at_a_time(space, variant):
        assert all(ref() is None for ref in refs), "an earlier chain's kernel is alive"
        kernel = build_kernel(space, variant)
        refs.append(weakref.ref(kernel))
        return kernel

    monkeypatch.setattr(cusketch.bounds, "build_kernel", build_one_at_a_time)
    return refs
