import pytest

from repro.siena.events import Event


class RecordingTree:
    """Stands in for a ``BrokerTree``: records each event published."""

    def __init__(self):
        self.published: list[Event] = []

    def publish(self, event: Event) -> int:
        self.published.append(event)
        return 1


@pytest.fixture
def tree() -> RecordingTree:
    return RecordingTree()
