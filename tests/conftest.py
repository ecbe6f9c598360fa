import dataclasses

import numpy as np
import pytest

from quline.geometry import Event


def _assert_same_state(got, want):
    """Field-for-field equality of two state objects, labels included."""
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, Event):
            assert a.chart_id == b.chart_id
            a, b = a.coords, b.coords
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


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
