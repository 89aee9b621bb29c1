"""Tests for flash storage."""

import pytest

from repro.device import FlashStorage
from repro.device.storage import StorageFull


def test_write_read():
    fs = FlashStorage(1000)
    fs.write("ckpt.v1", 400, payload={"state": 1})
    assert fs.read("ckpt.v1") == {"state": 1}
    assert fs.used_bytes == 400
    assert fs.free_bytes == 600


def test_overwrite_adjusts_usage():
    fs = FlashStorage(1000)
    fs.write("k", 400)
    fs.write("k", 100)
    assert fs.used_bytes == 100


def test_capacity_enforced():
    fs = FlashStorage(1000)
    fs.write("a", 800)
    with pytest.raises(StorageFull):
        fs.write("b", 300)
    # overwrite that shrinks is fine even near capacity
    fs.write("a", 1000)
    assert fs.used_bytes == 1000


def test_delete_idempotent():
    fs = FlashStorage(1000)
    fs.write("k", 500)
    fs.delete("k")
    assert fs.used_bytes == 0
    fs.delete("k")  # no error


def test_wipe():
    fs = FlashStorage(1000)
    fs.write("a", 500)
    fs.wipe()
    assert fs.used_bytes == 0
    assert fs.keys() == []


def test_missing_key_raises():
    fs = FlashStorage(1000)
    with pytest.raises(KeyError):
        fs.read("nope")


def test_validation():
    with pytest.raises(ValueError):
        FlashStorage(0)
    with pytest.raises(ValueError):
        FlashStorage(10).write("k", -1)
