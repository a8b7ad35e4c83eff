"""No process started by a benchmark run may outlive it.

Three mechanisms together cover a clean exit, an exception, SIGINT/SIGTERM
and SIGKILL of the top process:

- :func:`install` registers an at-fork hook, so every child forked by this
  process (the ``fork`` pool workers) asks the kernel for SIGKILL when its
  parent dies (``PR_SET_PDEATHSIG``).  Multiprocessing reaps daemon
  workers only in an ``atexit`` hook, which a killed parent never runs.
- :func:`install` also turns SIGTERM and SIGINT into ``SystemExit``, so the
  ``finally`` blocks that close pools and stores run.
- :func:`run_child` starts CLI children in their own process group with
  the same parent-death signal, and kills the group if the call is left
  early.
- :func:`kill_children` SIGKILLs and reaps any pool worker that a pool's
  ``close()`` could not stop (a stopped or wedged worker ignores the
  SIGTERM ``close()`` sends), so the exit path never waits on one.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import subprocess

_PR_SET_PDEATHSIG = 1
_prctl = None
_forking_pid = None
_installed = False


def _load_prctl():
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    return libc.prctl


def _die_with_parent(parent_pid: int) -> None:
    """Child side: SIGKILL on parent death; exit now if it already died."""
    if _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        os._exit(70)
    # The parent may have died between fork and prctl; the signal would
    # then never come.
    if os.getppid() != parent_pid:
        os._exit(70)


def _before_fork() -> None:
    global _forking_pid
    _forking_pid = os.getpid()


def _after_fork_in_child() -> None:
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    _die_with_parent(_forking_pid)


def _raise_exit(signum, frame) -> None:
    # A second signal must not interrupt the cleanup the first one started.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def install() -> None:
    """Tie this process's children to its lifetime (idempotent)."""
    global _prctl, _installed
    if _installed:
        return
    _prctl = _load_prctl()
    os.register_at_fork(before=_before_fork,
                        after_in_child=_after_fork_in_child)
    signal.signal(signal.SIGTERM, _raise_exit)
    signal.signal(signal.SIGINT, _raise_exit)
    _installed = True


def run_child(argv: list[str], *, env: dict, cwd: str,
              timeout: float) -> tuple[int, str, str]:
    """Run ``argv`` to completion; return ``(exit code, stdout, stderr)``.

    The child gets its own process group and dies with this process.  On
    a timeout, an exception or a signal here, the whole group is killed
    and reaped before the exception propagates.
    """
    if _prctl is None:
        raise RuntimeError("procs.install() must run before run_child")
    parent = os.getpid()
    process = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=cwd, start_new_session=True,
        preexec_fn=lambda: _die_with_parent(parent))
    try:
        out, err = process.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        raise
    return process.returncode, out, err


def kill_children() -> None:
    """SIGKILL and reap every multiprocessing child still alive."""
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
