import sys

import pytest


@pytest.fixture(params=[640, 4300, 0], ids=["least_limit", "default_limit", "no_limit"])
def int_digit_limit(request):
    """Run a test under the least limit on the digits int() reads that
    PYTHONINTMAXSTRDIGITS may set, under Python's default limit, then with
    no limit, and restore the limit afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on the digits int() reads")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    try:
        yield request.param
    finally:
        sys.set_int_max_str_digits(old)
