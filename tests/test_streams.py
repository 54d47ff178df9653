"""The estimator's worker pool and the per-thread workspace of the kernels.

Streams run on one persistent pool of worker threads, and the draws and the
Gram scratch go through buffers that each thread keeps from call to call.
Neither may change a result: every estimate here must equal its serial,
first-run value bit for bit, whatever ran before it on the same thread, and
the serial values of the mixed sequence keep every |z| < 5.
"""

import multiprocessing
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from wishmom import _kernels, montecarlo
from wishmom.montecarlo import (
    EntryProduct,
    PowerTrace,
    RngSpec,
    TracePower,
    estimate,
    estimate_haar,
    sample_haar_batch,
    sample_wishart_batch,
)
from wishmom.wishart import WishartParams

_SIGMA3 = np.diag([2.0, 1.0, 0.5]) + 0.1
_P3 = WishartParams(d=3, beta=Fraction(5, 2), sigma=_SIGMA3)
_P3_VECTORS = WishartParams(d=3, beta=3, sigma=_SIGMA3)
_P8 = WishartParams(d=8, beta=Fraction(11, 2), sigma=np.eye(8) + 0.3)
_P8_VECTORS = WishartParams(d=8, beta=8, sigma=np.eye(8) + 0.3)
_P4_INVERSE = WishartParams(d=4, beta=Fraction(53, 6), sigma=np.eye(4) + 0.2)

# name -> estimate at the given thread count; a Bartlett case follows a vectors
# case, so a Gram scratch left holding Gaussian draws would show.  The 2500
# draws of "vectors d=8 p=16 chunk=1000" end each stream on a 250-draw chunk
# after a full one.  The last seven are the mixed sequence at the sizes and
# seeds where every |z| < 5 is also checked
CASES = {
    "bartlett d=8": lambda t: estimate([EntryProduct((1, 2, 3, 4)), TracePower(2)], _P8, 2000, RngSpec(31),
                                       method="bartlett", streams=2, threads=t),
    "vectors d=3 p=6": lambda t: estimate([EntryProduct((1, 1, 2, 2)), TracePower(1)], _P3_VECTORS, 4000,
                                          RngSpec(32), method="vectors", streams=2, threads=t),
    "bartlett d=3": lambda t: estimate([EntryProduct((1, 2)), TracePower(2), PowerTrace((2, 1))], _P3, 4000,
                                       RngSpec(33), method="bartlett", streams=2, threads=t),
    "haar N=8": lambda t: estimate_haar([((1, 1), (1, 1)), ((1, 1, 2, 2), (1, 8, 1, 8))], 8, 2000, RngSpec(34),
                                        streams=2, threads=t),
    "haar N=3": lambda t: estimate_haar([((1, 1), (1, 1)), ((1, 1, 2, 2), (1, 2, 1, 2))], 3, 4000, RngSpec(35),
                                        streams=2, threads=t),
    "vectors d=8 p=16 chunk=1000": lambda t: estimate([EntryProduct((1, 2, 3, 4)), TracePower(2)], _P8_VECTORS,
                                                      2500, RngSpec(36), method="vectors", chunk=1000,
                                                      streams=2, threads=t),
    "mixed bartlett d=3": lambda t: estimate([EntryProduct((1, 2)), PowerTrace((2, 1))], _P3, 20_000, RngSpec(1),
                                             method="bartlett", streams=2, threads=t),
    "mixed vectors d=3 p=6": lambda t: estimate([EntryProduct((1, 1, 2, 2)), TracePower(1)], _P3_VECTORS, 20_000,
                                                RngSpec(2), method="vectors", streams=2, threads=t),
    "mixed bartlett d=8": lambda t: estimate([EntryProduct((1, 2, 3, 4)), TracePower(2)], _P8, 5000, RngSpec(3),
                                             method="bartlett", streams=2, threads=t),
    "mixed vectors d=8 p=16 chunk=1000": lambda t: estimate([EntryProduct((1, 2, 3, 4)), TracePower(2)],
                                                            _P8_VECTORS, 4000, RngSpec(4), method="vectors",
                                                            chunk=1000, streams=2, threads=t),
    "mixed inverse d=4": lambda t: estimate([EntryProduct((1, 2, 1, 2), True), TracePower(1, True)], _P4_INVERSE,
                                            8000, RngSpec(5), streams=2, threads=t),
    "mixed haar N=8": lambda t: estimate_haar([((1, 1), (1, 1)), ((1, 1, 2, 2), (1, 8, 1, 8))], 8, 8000,
                                              RngSpec(6), streams=2, threads=t),
    "mixed haar N=3": lambda t: estimate_haar([((1, 1), (1, 1)), ((1, 1, 2, 2), (1, 2, 1, 2))], 3, 20_000,
                                              RngSpec(7), streams=2, threads=t),
}


def _hex(stats):
    return [(s.count, s.rejected, s.mean.hex(), s.stderr.hex()) for s in stats]


def _on_thread(fn):
    """fn() run on a new thread, whose workspace starts empty."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as exc:  # re-raised on the calling thread
            out["error"] = exc

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(120)
    assert not worker.is_alive(), "the thread did not finish"
    if "error" in out:
        raise out["error"]
    return out["value"]


def _every_case_twice(threads):
    """Each case's results, in CASES order and then in reverse order."""
    names = list(CASES) + list(reversed(CASES))
    return [(name, _hex(CASES[name](threads))) for name in names]


@pytest.mark.parametrize("where", ["this thread", "a new thread"])
@pytest.mark.parametrize("threads", [1, 2])
def test_reused_buffers_do_not_change_results(where, threads):
    runs = _every_case_twice(threads) if where == "this thread" else _on_thread(lambda: _every_case_twice(threads))
    first = {}
    for name, got in runs:
        assert got == first.setdefault(name, got), name


def test_reused_buffers_give_the_serial_fresh_thread_result():
    serial = {name: _on_thread(lambda run=run: run(1)) for name, run in CASES.items()}
    mixed = [s for name, stats in serial.items() if name.startswith("mixed ") for s in stats]
    assert all(abs(s.zscore) < 5 for s in mixed), serial
    assert dict(_every_case_twice(2)) == {name: _hex(stats) for name, stats in serial.items()}


def test_returned_arrays_are_not_the_workspace():
    gen = np.random.default_rng(40)
    chol2 = _P3.chol / np.sqrt(2.0)
    calls = {
        "sample_wishart_batch bartlett": lambda: sample_wishart_batch(_P3, 500, gen, "bartlett"),
        "sample_wishart_batch vectors": lambda: sample_wishart_batch(_P3_VECTORS, 500, gen, "vectors"),
        "sample_haar_batch": lambda: sample_haar_batch(4, 500, gen),
        "bartlett_gram": lambda: _kernels.bartlett_gram(chol2, gen.chisquare([5.0, 4.0, 3.0], (500, 3)),
                                                        gen.standard_normal((500, 3))),
        "vectors_gram": lambda: _kernels.vectors_gram(chol2, gen.standard_normal((500, 3, 6))),
    }
    for name, call in calls.items():
        first = call()
        kept = first.copy()
        second = call()
        assert np.array_equal(first, kept), name
        assert not np.array_equal(first, second), name
        for buf in _kernels._workspace.buffers.values():
            assert not np.shares_memory(first, buf), name


_CALLERS = [
    lambda t: estimate([EntryProduct((1, 2)), PowerTrace((2, 1))], _P3, 8000, RngSpec(50), method="bartlett",
                       streams=4, threads=t),
    lambda t: estimate([EntryProduct((1, 2, 3, 4))], _P8_VECTORS, 4000, RngSpec(51), method="vectors",
                       chunk=500, streams=4, threads=t),
    lambda t: estimate_haar([((1, 1, 2, 2), (1, 2, 1, 2))], 3, 8000, RngSpec(52), chunk=1000, streams=4,
                            threads=t),
    lambda t: estimate([EntryProduct((1, 1), inverse=True)], WishartParams(d=4, beta=6, sigma=np.eye(4) + 0.2),
                       6000, RngSpec(53), chunk=700, streams=4, threads=t),
]


def _callers_at_once(threads):
    """caller i runs _CALLERS[i] at threads[i], all released at once"""
    start = threading.Barrier(len(threads))
    got = [None] * len(threads)

    def run(i):
        start.wait()
        got[i] = _hex(_CALLERS[i](threads[i]))

    workers = [threading.Thread(target=run, args=(i,)) for i in range(len(threads))]
    for w in workers:
        w.start()
    for w in workers:
        w.join(120)
    assert not any(w.is_alive() for w in workers), "a caller did not finish"
    return got


def test_two_callers_at_once_each_get_the_serial_result():
    assert _callers_at_once([2, 2]) == [_hex(call(1)) for call in _CALLERS[:2]]


def test_callers_growing_the_pool_at_once_each_get_the_serial_result():
    # each caller needs more workers than the one before, so the pool is
    # replaced while other callers still run lanes on the one it replaced
    serial = [_hex(call(1)) for call in _CALLERS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            montecarlo._pool = None
            assert _callers_at_once([2, 3, 4, 4]) == serial
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [2, 3])
def test_at_most_threads_streams_draw_at_once(threads, monkeypatch):
    sample = montecarlo.sample_wishart_batch
    lock = threading.Lock()
    inside = [0, 0]  # now, most

    def counting(*args, **kwargs):
        with lock:
            inside[0] += 1
            inside[1] = max(inside)
        try:
            time.sleep(0.005)  # long enough for every lane to be drawing at once
            return sample(*args, **kwargs)
        finally:
            with lock:
                inside[0] -= 1

    monkeypatch.setattr(montecarlo, "sample_wishart_batch", counting)
    stats = estimate([EntryProduct((1, 2))], _P3, 6000, RngSpec(60), chunk=250, streams=6, threads=threads)
    monkeypatch.undo()
    assert inside[1] == threads
    assert stats == estimate([EntryProduct((1, 2))], _P3, 6000, RngSpec(60), chunk=250, streams=6)


def test_a_thread_keeps_at_most_the_cap():
    # 10,000 draws at d = 8, p = 16 are 10 MB of Gaussian draws, past the cap
    assert 10_000 * 8 * 16 * 8 > _kernels._KEEP_BYTES

    def run():
        stats = estimate([TracePower(1)], _P8_VECTORS, 10_000, RngSpec(70), method="vectors")
        return stats, {name: buf.nbytes for name, buf in _kernels._workspace.buffers.items()}

    stats, kept = _on_thread(run)
    assert sum(kept.values()) <= _kernels._KEEP_BYTES
    assert kept.get("normal", 0) < 10_000 * 8 * 16 * 8
    assert stats == estimate([TracePower(1)], _P8_VECTORS, 10_000, RngSpec(70), method="vectors")


def _threaded_estimate():
    return _hex(estimate([EntryProduct((1, 2)), TracePower(2)], _P3, 4000, RngSpec(80), streams=2, threads=2))


def _send_threaded_estimate(conn):
    conn.send(_threaded_estimate())
    conn.close()


@pytest.mark.skipif(sys.platform != "linux", reason="fork start method")
# Python 3.12+ warns when a process with threads forks, which is the case tested here
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_runs_threaded_estimates():
    want = _threaded_estimate()  # the parent's pool now has idle workers
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_threaded_estimate, args=(send,))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child's estimate did not finish"
        got = recv.recv()
    finally:
        recv.close()
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert child.exitcode == 0
    assert got == want
