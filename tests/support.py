"""Helpers that several test modules share: a launcher for fresh
interpreters, which import bernlab from SRC, and a race of threads."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import bernlab

SRC = str(Path(bernlab.__file__).resolve().parents[1])

# `python -c CLI ARGV` runs `bernlab ARGV` as the console script does.
CLI = "import sys; from bernlab.cli import main; sys.argv[0] = 'bernlab'; main()"


def environment() -> dict:
    return {**os.environ, "PYTHONPATH": SRC}


def run_code(code: str, *args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """`python -c CODE ARGS` in a fresh process, its output captured as text."""
    command = [sys.executable, "-c", code, *args]
    return subprocess.run(command, env=environment(), capture_output=True, text=True, timeout=timeout)


def race(work, inputs, switch_interval: float = 1e-6) -> list:
    """Run work(x) for every x in inputs on threads started together, with
    the switch interval set to switch_interval; return what they raised."""
    barrier = threading.Barrier(len(inputs))
    errors = []

    def run(x):
        try:
            barrier.wait(timeout=10)
            work(x)
        except Exception as exc:  # returned to the caller
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(x,)) for x in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(switch_interval)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors
