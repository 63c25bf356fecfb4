"""The §5.1 case-study ``synthesize`` pinned to its search trajectory.

The design the capex bisection returns depends on the solver's search
path: a run to tolerance 0 finds a cheaper optimum than the design the
engine stops at. A solver change that moves the trajectory can therefore
move the answer, so solver hot-path rewrites must keep the case study on
exactly this many conflicts and this design.
"""

from __future__ import annotations

import pytest

from repro.core.engine import ReasoningEngine
from repro.knowledge import default_knowledge_base, inference_case_study
from repro.obs.observer import EngineObserver

pytestmark = pytest.mark.timeout(300)


def test_casestudy_synthesize_trajectory_is_pinned():
    observer = EngineObserver()
    engine = ReasoningEngine(default_knowledge_base(), observer=observer)
    outcome = engine.synthesize(inference_case_study())
    assert outcome.feasible
    gauges = observer.metrics.as_dict()["gauges"]
    assert gauges["solver.conflicts"] == 9791
    assert outcome.solution.cost_usd == 1060570
