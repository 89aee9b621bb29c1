"""Tests for tuples and tokens."""

import pytest

from repro.core.tuples import StreamTuple, Token


def test_tuple_basics():
    t = StreamTuple(payload={"x": 1}, size=100, entered_at=5.0, source_seq=3)
    assert t.size == 100
    assert not t.replay


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        StreamTuple(payload=None, size=-1, entered_at=0.0)


def test_derive_inherits_lineage():
    t = StreamTuple(payload=1, size=10, entered_at=2.0, source_seq=7, lineage=("S1", 7))
    d = t.derive(payload=2, size=20)
    assert d.entered_at == 2.0
    assert d.source_seq == 7
    assert d.lineage == ("S1", 7)
    assert d.size == 20
    assert d.uid != t.uid


def test_uids_monotone():
    a = StreamTuple(payload=None, size=0, entered_at=0.0)
    b = StreamTuple(payload=None, size=0, entered_at=0.0)
    assert b.uid > a.uid


def test_token_is_small():
    """The paper: token overhead < 1% of tuple size (tuples are images)."""
    t = Token(version=1, origin="x")
    assert t.size < 0.01 * 100 * 1024


def test_stream_tuple_has_slots():
    t = StreamTuple(payload=None, size=0, entered_at=0.0)
    assert not hasattr(t, "__dict__")
    with pytest.raises(AttributeError):
        t.extra_field = 1


def test_token_is_immutable_value_type():
    a = Token(version=1, origin="x")
    b = Token(version=1, origin="x")
    c = Token(version=2, origin="x")
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert not hasattr(a, "__dict__")
    with pytest.raises(AttributeError):
        a.version = 9
    assert len({a, b, c}) == 2


def test_token_pickles_and_copies():
    """Regression: the immutability guard must not break pickle/copy,
    which restore slot state via setattr by default."""
    import copy
    import pickle

    t = Token(version=3, origin="nodeA")
    assert pickle.loads(pickle.dumps(t)) == t
    assert copy.copy(t) == t
    assert copy.deepcopy(t) == t
