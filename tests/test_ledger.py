"""The integer-valued outcomes of the ledger's cases against ``ledger.json``.

A failure here means a pinned answer moved: an evaluation count, a step's
flips, a phase, a single-flip count, a violation or a verdict. The float
columns are compared bit for bit by ``python tests/ledger.py --digest`` on
two trees, not here.
"""

import json

import pytest

from ledger import CASES, PINNED

EXPECTED = json.loads(PINNED.read_text())


def test_the_ledger_pins_every_case_and_nothing_else():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_the_case_has_its_pinned_outcome(name):
    ints, _ = CASES[name]()
    assert ints == EXPECTED[name]
