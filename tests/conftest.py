"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def low_int_limit():
    """The lowest int(str) limit an interpreter accepts, where it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)
