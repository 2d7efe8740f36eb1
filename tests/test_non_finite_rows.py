"""Row checks refuse NaN and inf.

Each check states the condition every row must meet (``value <= bound``
through ``_require_rows``), so a NaN, for which every comparison is False,
fails it. Each case, a row of the bad-row table (bad_rows.py), puts one bad
row in a three-row stack and asserts that the check names that row, with
warnings as errors.
"""

import bad_rows
from conftest import printed_tests

globals().update(printed_tests(__name__, bad_rows.ROWS))
