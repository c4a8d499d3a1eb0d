"""The benchmark tracer must find every dpkit name it wraps.

``dpbench/tracer.py`` patches dpkit functions and methods by name, so a
rename or deletion in ``src/`` breaks only traced benchmark runs unless a
test installs the tracer.
"""

import os
import sys

import dpkit
from dpkit import _kernels, accountant, cli, erm, mechanisms, models, stats
from dpkit import tuning

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "dpbench"))
from tracer import Tracer  # noqa: E402

_MODULES = (dpkit, _kernels, accountant, cli, erm, mechanisms, models, stats,
            tuning)
_CLASSES = (accountant.BudgetLedger, mechanisms.RandomSource,
            models.TrainedModel)


def _snapshot():
    return [dict(vars(owner)) for owner in _MODULES + _CLASSES]


def test_tracer_installs_and_uninstalls_cleanly():
    minimize = erm.minimize
    load = accountant.BudgetLedger.__dict__["load"]
    before = _snapshot()
    tracer = Tracer()
    try:
        tracer.install(dpkit)
        assert erm.minimize is not minimize
        assert accountant.BudgetLedger.__dict__["load"] is not load
    finally:
        tracer.uninstall()
    assert erm.minimize is minimize
    assert accountant.BudgetLedger.__dict__["load"] is load
    # Every other patched name is back too.
    for old, new in zip(before, _snapshot()):
        assert old.keys() == new.keys()
        assert all(new[key] is value for key, value in old.items())
