"""Run the doctests embedded in the pure-function modules."""

import doctest

import pytest

import repro.cache.opt
import repro.common.addr
import repro.common.bitops
import repro.harness.formatting
import repro.security.channel

MODULES = (
    repro.common.bitops,
    repro.common.addr,
    repro.cache.opt,
    repro.harness.formatting,
    repro.security.channel,
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0, f"{module.__name__}: {result.failed} doctest failures"
    assert result.attempted > 0, f"{module.__name__}: no doctests collected"
