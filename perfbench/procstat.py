"""Linux /proc readings: peak resident set and process descendants."""

from __future__ import annotations

import ctypes
import gc
import os
import signal
import threading
import time
from pathlib import Path
from typing import Dict, List


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of a live process, in MB; 0 if gone."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def reset_peak_rss() -> None:
    """Release free heap memory, then restart VmHWM from what is left.

    Without the release, a pass's peak depends on how fragmented earlier
    passes left the C heap (±3 % on a 6 Mbit set) more than on the pass.
    """
    gc.collect()
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):  # not glibc: nothing to release
        pass
    else:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def children(pid: int) -> List[int]:
    kids: List[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            kids.extend(int(x) for x in (task / "children").read_text().split())
        except OSError:
            continue
    return kids


def descendants(pid: int) -> List[int]:
    found: List[int] = []
    frontier = [pid]
    while frontier:
        kids = children(frontier.pop())
        found.extend(kids)
        frontier.extend(kids)
    return found


def alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def stop_descendants(timeout_s: float = 10.0) -> List[int]:
    """Stop every process this one started and wait until each has ended.

    The sharded codec's shared memory starts multiprocessing's resource
    tracker in this process.  It ends only when it reads end-of-file on
    its pipe, so left alone it outlives the benchmark by a moment (and
    stays a zombie where nothing reaps orphans); here its pipe is closed
    and it is waited for.  Anything else still running is killed.
    Returns the pids that had to be killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    others = [pid for pid in descendants(os.getpid()) if pid != tracker_pid]
    killed = [pid for pid in others if alive(pid)]
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in killed:  # reap our own children; wait out grandchildren
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    deadline = time.monotonic() + timeout_s
    while any(alive(pid) for pid in killed) and time.monotonic() < deadline:
        time.sleep(0.02)
    # closing the tracker's pipe ends it; _stop then waits for it
    tracker._stop()
    return killed


class PeakSampler:
    """Polls the peak RSS of this process's descendants until stopped.

    Short-lived workers (a sharded encode's pool) only exist while a
    call runs, so their VmHWM is read while they are alive.
    """

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self.peaks: Dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        for pid in descendants(os.getpid()):
            rss = peak_rss_mb(pid)
            if rss > self.peaks.get(pid, 0.0):
                self.peaks[pid] = rss

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "PeakSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def peak(self) -> float:
        return max(self.peaks.values(), default=0.0)
