"""The ``repro-serve smoke`` gate (repro.tools.serve_cli): it passes on a
working tier and fails on a wrong answer or a leaked lane arena."""

import sys

import pytest

from repro.serve import LookupService
from repro.serve.shard import LaneArena
from repro.tools import serve_cli

SMOKE = ["--shards", "2", "--prefixes", "200", "smoke", "--lookups", "4000", "--batches", "2"]


def test_smoke_passes(capsys):
    assert serve_cli.main(SMOKE) == 0
    assert "serve-smoke: OK" in capsys.readouterr().out


def test_smoke_fails_on_a_wrong_answer(capsys, monkeypatch):
    """The shards answer through ``serve``; only the reference is off by one."""
    lookup_batch = LookupService.lookup_batch
    monkeypatch.setattr(
        LookupService, "lookup_batch", lambda self, a, v: lookup_batch(self, a, v) + 1
    )
    assert serve_cli.main(SMOKE) == 1
    assert "4000 answered lookup(s) differ" in capsys.readouterr().err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_smoke_fails_on_a_leaked_arena(capsys, monkeypatch):
    kept = []
    close = LaneArena.close
    monkeypatch.setattr(LaneArena, "close", lambda self: kept.append(self))
    try:
        assert serve_cli.main(SMOKE) == 1
    finally:
        for arena in kept:
            close(arena)
    err = capsys.readouterr().err
    assert "a lane arena is still mapped" in err
    assert "more descriptor(s) open" in err
