"""Starting the program's processes and waiting until they are ready."""

from __future__ import annotations

import os
import subprocess
import time

READY_TIMEOUT = 120.0


def start(what: str, cmd: list[str], root: str, ready: str, log: str):
    """Start ``cmd`` in ``root`` with the program on ``PYTHONPATH`` and
    wait until it writes a full line to ``ready``.  Returns ``(process,
    line, seconds from spawn to ready)``; output goes to ``log``."""
    if os.path.exists(ready):
        os.unlink(ready)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    started = time.perf_counter()
    with open(log, "a", encoding="utf-8") as out:
        proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=out,
                                stderr=out)
    try:
        while True:
            try:
                with open(ready, encoding="utf-8") as f:
                    line = f.read()
            except OSError:
                line = ""
            if line.endswith("\n"):
                return proc, line, time.perf_counter() - started
            if proc.poll() is not None:
                raise RuntimeError(
                    f"{what} exited with {proc.returncode} on start:\n"
                    f"{_tail(log)}")
            if time.perf_counter() - started > READY_TIMEOUT:
                raise RuntimeError(f"{what} never became ready")
            time.sleep(0.002)
    except BaseException:
        stop(proc)
        raise


def stop(proc) -> None:
    """Kill ``proc`` if it still runs, and wait for it."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _tail(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()[-2000:]
