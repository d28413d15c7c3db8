"""The thread policy: OpenBLAS pinned to one thread, and the helper thread that
runs the second frame span of each chunk."""

from __future__ import annotations

import os
import select
import signal
import types

import numpy as np
import pytest

from ttabench.model import threads


def test_blas_runs_on_one_thread():
    assert threads.blas_threads() == 1


@pytest.mark.parametrize(
    "loader",
    [lambda: types.SimpleNamespace(), lambda: (_ for _ in ()).throw(OSError("no library"))],
    ids=["symbol-missing", "library-missing"],
)
def test_unpinnable_blas_is_reported_in_one_line(monkeypatch, capsys, loader):
    monkeypatch.setattr(threads, "_load_openblas", loader)
    assert threads._bind_openblas() is None
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "cannot pin numpy's OpenBLAS to one thread" in err


def test_unpinned_blas_reports_no_thread_count(monkeypatch):
    monkeypatch.setattr(threads, "_OPENBLAS", None)
    threads._pin_blas()
    assert threads.blas_threads() is None


def test_helper_runs_under_the_callers_errstate():
    def divide_by_zero():
        return np.divide(1.0, np.zeros(3))

    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            threads.in_parallel(lambda: None, divide_by_zero)
    # pyproject turns a RuntimeWarning into an error, so this passes only if
    # the helper ignores the division as the caller asked
    with np.errstate(divide="ignore"):
        _, out = threads.in_parallel(lambda: None, divide_by_zero)
    assert np.all(np.isinf(out))


def test_helper_work_is_finished_when_the_caller_fails():
    done = []

    def fail():
        raise ValueError("first")

    with pytest.raises(ValueError, match="first"):
        threads.in_parallel(fail, lambda: done.append(True))
    assert done == [True]


def test_forked_child_gets_its_own_helper_and_pinned_blas():
    threads.in_parallel(lambda: None, lambda: None)  # the parent's helper thread exists
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: report and leave without running the parent's cleanup
        try:
            _, second = threads.in_parallel(lambda: 1, lambda: 2)
            os.write(write, f"{second} {threads.blas_threads()}".encode())
        finally:
            os._exit(0)
    os.close(write)
    # a child left with the parent's (absent) helper thread would wait forever
    ready, _, _ = select.select([read], [], [], 60)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    with os.fdopen(read) as fh:
        reply = fh.read() if ready else "no reply"
    os.waitpid(pid, 0)
    assert reply == "2 1"
