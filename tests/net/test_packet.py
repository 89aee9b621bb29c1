"""Tests for messages."""

import pytest

from repro.net import Message


def test_message_fields():
    m = Message(src="A", dst="B", size=100, kind="tuple")
    assert m.size == 100


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Message(src="A", dst="B", size=-1, kind="x")


def test_message_ids_unique():
    a = Message(src="A", dst="B", size=1, kind="x")
    b = Message(src="A", dst="B", size=1, kind="x")
    assert a.msg_id != b.msg_id
