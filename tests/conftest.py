import dataclasses

import numpy as np
import pytest


def _assert_same_state(got, want):
    """Field-for-field equality of two state objects, down to each slot's
    realization, event and label."""
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same_state(a, b)
    elif isinstance(want, (type, str)):
        assert got == want
    elif dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            _assert_same_state(getattr(got, field.name), getattr(want, field.name))
    else:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def _states_read_like(states, eager):
    """Every index, negative indices, slices and iteration of a transport's
    ``states`` give the objects the eager list gives."""
    n = len(eager)
    assert len(states) == n
    got = ([states[i] for i in range(-n, n)] + states[::50] + states[3:-7:4]
           + states[::-1] + list(states))
    want = eager + eager + eager[::50] + eager[3:-7:4] + eager[::-1] + eager
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _assert_same_state(g, w)
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            states[index]


@pytest.fixture
def states_read_like():
    """Assert that a transport result's lazy ``states`` reads like the list
    of eagerly built state objects."""
    return _states_read_like
