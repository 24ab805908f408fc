import re
import sys

from hypothesis import given
from hypothesis import strategies as st

from wbancomp.rundir import _EVENT_COLUMNS


@given(st.floats(min_value=0.0, allow_infinity=False)
       | st.sampled_from([-0.0, 5e-324, 1e-05, 0.0001, 1e16,
                          9999999999999998.0, sys.float_info.max]))
def test_repr_of_every_finite_float_fits_the_float_columns(x):
    for name in ["time_ms", "cd_ms", "dtr_ms", "dd_ms", "arrival_ms"]:
        assert re.fullmatch(_EVENT_COLUMNS[name][0], repr(x))
