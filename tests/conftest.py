import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def one_solver_iteration(monkeypatch):
    """Cap every solver run inside dpkit.erm at one iteration, so the fit
    it serves cannot converge. Only the classification path iterates; the
    regression path's exact solve never calls ``minimize``."""
    import dpkit.erm
    monkeypatch.setattr(dpkit.erm, "_MAX_ITERS", 1)
