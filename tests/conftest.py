import os
import sys

import pytest

from crystalpop.poset import ReachabilityIndex

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def index_builds(monkeypatch) -> list:
    """The graph of every ReachabilityIndex built during the test, in order."""
    built, init = [], ReachabilityIndex.__init__

    def counted(self, graph):
        built.append(graph)
        init(self, graph)
    monkeypatch.setattr(ReachabilityIndex, "__init__", counted)
    return built
