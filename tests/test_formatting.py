import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from satqlink.formatting import csv_block, csv_float, csv_floats

_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 2.2250738585072014e-308 / 3.0, 1.7976931348623157e308,
                0.1, 1e16, 1e17, 123456789012345680.0]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS),
                          st.integers(-(10 ** 30), 10 ** 30))))
@example(_EDGE_FLOATS + [0, 1, -7, 2 ** 53 + 1, True])
def test_csv_floats_is_csv_float_of_each(values):
    # the %-template and format() must print every float and int alike
    assert csv_floats(values) == [csv_float(x) for x in values]


def test_csv_block_prefixes_every_line():
    assert csv_block("7", ["a"]) == "7,a\n"
    assert csv_block("7", iter(["a,b", "c,d"])) == "7,a,b\n7,c,d\n"
