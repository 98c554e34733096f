import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "dev",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("dev")


@pytest.fixture
def searched_sources(monkeypatch):
    """The device position of every per-source shortest-path search, in call order.

    Both the path table and weighted betweenness run ``overlay._search`` on
    device positions; centrality binds its own reference, so both bindings
    are counted.
    """
    import smartfog.centrality
    import smartfog.overlay

    calls = []
    original = smartfog.overlay._search

    def counting(neighbours, source, *args):
        calls.append(source)
        return original(neighbours, source, *args)

    for module in (smartfog.overlay, smartfog.centrality):
        monkeypatch.setattr(module, "_search", counting)
    return calls
