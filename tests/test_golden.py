"""Every golden digest of tests/golden_cases.py, recomputed.

A change that moves a digest on purpose prints the new table for
golden_cases.GOLDEN with

    PYTHONPATH=src python tests/test_golden.py
"""

import pytest

from golden_cases import CASES, GOLDEN, digest


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case):
    assert digest(case) == GOLDEN[case]


if __name__ == "__main__":
    for _case in sorted(CASES):
        print(f'    "{_case}":\n        "{digest(_case)}",')
