import pytest

from taskfusion import tensor as tl


@pytest.fixture
def recorded_nodes(monkeypatch):
    """Every tape node recorded while the test runs, in order."""
    nodes = []
    node = tl.Node

    def record(*args, **kwargs):
        nodes.append(node(*args, **kwargs))
        return nodes[-1]

    monkeypatch.setattr(tl, "Node", record)
    return nodes
