"""Shared fixtures."""

import pytest

from vvmf2 import forms


@pytest.fixture
def cold_cache():
    """The process series cache, emptied before and after the test.

    ``minform.tables_DC`` keeps its build there, so a fault patched into
    one of its inputs (``_conv``, ``_e_series``, ``_divisor_sums`` or the
    kernel) reaches the build only from a cold cache, and the faulty
    tables it leaves must not reach a later test.
    """
    forms.clear_cache()
    yield
    forms.clear_cache()
