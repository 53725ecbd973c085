import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from mplindex import algebra  # noqa: E402


@pytest.fixture
def solve_side(monkeypatch):
    """Steer algebra.factor_two_way and record what its item side decided.

    solve_side("units") makes every factor eliminate the items, as every
    solve did before the item side existed; solve_side("items") tries the
    item side first at every shape and falls back as factor_two_way does;
    solve_side() leaves the choice to factor_two_way.  Each returns the list
    the item side's verdicts go to in call order: True when it factored the
    system, False when it left the decision to the unit side.
    """
    verdicts = []
    eliminate_units, eliminate_items = algebra._eliminate_units, algebra._eliminate_items

    def recorded(*args):
        factor = eliminate_units(*args)
        verdicts.append(factor is not None)
        return factor

    def items_first(*args, unit_labels):
        return recorded(*args) or eliminate_items(*args, unit_labels=unit_labels)

    def steer(side=None):
        monkeypatch.setattr(algebra, "_eliminate_units",
                            recorded if side is None else lambda *args: None)
        monkeypatch.setattr(algebra, "_eliminate_items",
                            items_first if side == "items" else eliminate_items)
        return verdicts

    return steer
