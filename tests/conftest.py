"""Fixtures shared across the test suite."""

import contextlib

import pytest

from repro.sim.network import SimNetwork


def _refuse_fast_dissem(self, stream):
    # ``_fast`` stays as __init__ left it (unset): every send takes the
    # per-hop scalar path.
    return False


@pytest.fixture
def scalar_dissem(monkeypatch):
    """``with scalar_dissem(): ...`` runs on the per-hop scalar
    dissemination path — the array fast path's reference — by making
    :meth:`SimNetwork.enable_fast_dissem` refuse."""

    @contextlib.contextmanager
    def scalar():
        with monkeypatch.context() as patch:
            patch.setattr(SimNetwork, "enable_fast_dissem", _refuse_fast_dissem)
            yield

    return scalar
