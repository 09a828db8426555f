"""Shared plumbing for the end-to-end smoke scripts.

``serve_smoke.py`` and ``cluster_smoke.py`` both boot real
``python -m repro`` subprocesses; the repo-rooted environment, logged
runs, the ready-file wait (instead of racing a server's bind) and the
cleanup shutdown live here once.
"""

import os
import subprocess
import sys
import time

TIMEOUT = 120  # generous ceiling for a cold python start on a busy box


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def repo_env() -> dict:
    """A subprocess environment with ``src/`` on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo_root(), "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run(argv, env=None, timeout=TIMEOUT, **kwargs):
    """`subprocess.run` with the command echoed and a hard timeout."""
    print("+", " ".join(argv), flush=True)
    return subprocess.run(argv, timeout=timeout,
                          env=env if env is not None else repo_env(),
                          **kwargs)


def popen(argv, env=None, **kwargs):
    """Background `subprocess.Popen` with the command echoed."""
    print("+", " ".join(argv), "&", flush=True)
    return subprocess.Popen(argv,
                            env=env if env is not None else repo_env(),
                            **kwargs)


def wait_for_ready(path, process, label, timeout=TIMEOUT) -> str:
    """Poll a ``--ready-file`` until it appears; return the address in it.

    Fails fast when the process exits first instead of waiting for the
    full timeout.
    """
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if process.poll() is not None:
            raise RuntimeError(
                f"{label} exited (rc={process.returncode}) before becoming "
                "ready")
        if time.monotonic() > deadline:
            raise RuntimeError(f"{label} never became ready")
        time.sleep(0.05)
    with open(path) as handle:
        return handle.read().strip()


def terminate(process, timeout=10) -> None:
    """Best-effort shutdown of a leftover subprocess."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()


def fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 1
