import os
import sys
import threading

import pytest

from latwig import serialize


def test_write_atomic_failed_replace_leaves_target_and_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old\n")

    def fail(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(serialize.os, "replace", fail)
    with pytest.raises(OSError, match="simulated"):
        serialize.write_atomic(str(target), "new\n")
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.json"]


def _umask():
    umask = os.umask(0)
    os.umask(umask)
    return umask


def _open_mode(directory):
    probe = directory / "probe"
    probe.write_text("x\n")
    mode = probe.stat().st_mode
    probe.unlink()
    return mode


def test_write_atomic_gives_the_mode_open_would(tmp_path):
    serialize.write_atomic(str(tmp_path / "a.json"), "x\n")
    assert (tmp_path / "a.json").stat().st_mode == _open_mode(tmp_path)


def test_write_atomic_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # The umask is process-wide: setting it per write races between threads.
    def forbidden(mask):
        raise AssertionError("write_atomic changed the process umask")

    monkeypatch.setattr(serialize.os, "umask", forbidden)
    serialize.write_atomic(str(tmp_path / "a.json"), "x\n")
    assert (tmp_path / "a.json").read_text() == "x\n"


def test_concurrent_writers_leave_one_complete_payload(tmp_path):
    target = tmp_path / "out.json"
    payloads = [f"{k}:" + str(k) * 200_000 + "\n" for k in range(8)]
    errors = []
    umask = _umask()

    def writer(text):
        try:
            for _ in range(5):
                serialize.write_atomic(str(target), text)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert target.read_text() in payloads
    assert os.listdir(tmp_path) == ["out.json"]
    assert _umask() == umask
    assert target.stat().st_mode == _open_mode(tmp_path)
