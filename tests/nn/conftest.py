"""``filterwarnings = error::RuntimeWarning`` for everything under tests/nn.

The kernels must be warning-clean by construction: an ``-inf - -inf`` in
a running max or an overflowing ``exp`` is a bug to fix, not a NaN to
guard after the fact.
"""

import warnings

import pytest


@pytest.fixture(autouse=True)
def runtime_warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield
