import os

import pytest


@pytest.fixture(params=[2, 1], ids=["split", "serial"])
def cpus(request, monkeypatch):
    """The CPUs the process may use, as the stable sampler sees them: with
    two, a large draw is split across two threads; with one, it is not."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(request.param)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: request.param)
    return request.param
