import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def one_solver_iteration(monkeypatch):
    """Stop every solver run inside dpkit.erm after one iteration, so the
    fit it serves cannot converge. Only the classification path iterates;
    the regression path's exact solve never calls ``minimize``."""
    import dpkit.erm
    original = dpkit.erm.minimize
    monkeypatch.setattr(dpkit.erm, "minimize", lambda *a, **k: original(
        *a, **{**k, "max_iters": 1}))
