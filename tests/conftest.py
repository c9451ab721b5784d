import pytest

from repro.sim import Process


@pytest.fixture
def processes_made(monkeypatch):
    """A list that grows by one per ``Process`` constructed."""
    made = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return made
