"""Benchmark entry point: build the program from this checkout, run one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload klp-webtable --seed 1 --seconds 10 --trace 0

Steps:

1. build the program into ``.bench_build/program/<key>/``: the checkout's
   own ``setup.py`` compiles the native popcount extension there
   (``build_ext --build-lib``), then ``src/repro`` is copied beside it.
   ``<key>`` is one digest over ``src/repro`` (Python and C sources),
   ``setup.py``, ``pyproject.toml`` and the interpreter's ABI, so a change
   to any of them, build flags included, builds and measures a new tree,
   and nothing is written into ``src/``;
2. run :mod:`perfbench.bench` in a child process whose environment pins
   ``PYTHONHASHSEED``, ``REPRO_TUNING=off``, ``OMP_NUM_THREADS=1`` and
   ``REPRO_BACKEND=native`` (every process it starts inherits them).

The child prints the result as the last line of standard output.  This
wrapper exits non-zero, without printing a result, when the checkout
cannot be built, the native backend is missing, or the run overruns its
time limit.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
PACKAGE = Path("src/repro")
#: Where the extension sits inside the built tree.
NATIVE_DIR = Path("repro/core/kernels/_native")

#: Limit on one run after the build (a run must end within 180 s).
RUN_LIMIT_S = 170.0
BUILD_LIMIT_S = 600.0

#: Environment every benchmark process runs under.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "REPRO_TUNING": "off",
    "OMP_NUM_THREADS": "1",
    "REPRO_BACKEND": "native",
}


class BenchSetupError(RuntimeError):
    """The checkout cannot be built or run; no result is printed."""


class Terminated(Exception):
    """SIGTERM arrived; the run's process group is stopped on the way out."""


def _terminated(signum, frame) -> None:
    raise Terminated()


def _source_files(base: Path) -> list[Path]:
    skip_suffixes = {".so", ".pyc", ".pyd", ".o"}
    return sorted(
        p
        for p in base.rglob("*")
        if p.is_file()
        and "__pycache__" not in p.relative_to(base).parts
        and p.suffix not in skip_suffixes
        and ".egg-info" not in str(p)
    )


def source_key(root: Path) -> str:
    """Digest of everything the built program depends on."""
    inputs = [root / "setup.py", root / "pyproject.toml", *_source_files(root / PACKAGE)]
    h = hashlib.sha256(
        f"{sys.implementation.cache_tag}-{sys.platform}-{os.uname().machine}".encode()
    )
    for path in inputs:
        if path.is_file():
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build() -> Path:
    """Build the program from this checkout; return the tree to import it from."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / PACKAGE).is_dir():
        raise BenchSetupError(
            f"no buildable checkout at {ROOT} (need setup.py and {PACKAGE})"
        )
    key = source_key(ROOT)
    final = BUILD_DIR / "program" / key
    if final.is_dir():
        return final
    # Built aside and renamed into place, so an interrupted build never
    # leaves a tree that looks finished.
    staging = BUILD_DIR / "program" / f"{key}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(staging), "--build-temp", str(staging / "_obj")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=BUILD_LIMIT_S,
    )
    if proc.returncode != 0 or not list((staging / NATIVE_DIR).glob("_nativeext*.so")):
        shutil.rmtree(staging, ignore_errors=True)
        raise BenchSetupError(
            "native extension did not build; the benchmark does not fall "
            f"back to another backend:\n{proc.stdout}\n{proc.stderr}"
        )
    shutil.rmtree(staging / "_obj")
    shutil.copytree(
        ROOT / PACKAGE, staging / "repro", dirs_exist_ok=True,
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc", "*.egg-info"),
    )
    staging.rename(final)
    return final


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def child_env(program: Path) -> dict[str, str]:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("REPRO_", "PERFBENCH_", "PYTHON"))
    }
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(program), str(ROOT)])
    env["PERFBENCH_GIT_SHA"] = git_sha() or ""
    env["PERFBENCH_SOURCE_KEY"] = program.name
    return env


def main(argv: list[str] | None = None) -> int:
    """Build, then run ``perfbench.bench`` with this script's arguments
    (``--workload``, ``--seed``, ``--seconds``, ``--trace``; see there)."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        program = build()
    except (BenchSetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    started = time.monotonic()
    cmd = [sys.executable, "-m", "perfbench.bench", *argv]
    # Its own process group, so a timeout can stop the server children
    # and cluster workers it starts along with it.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(program), start_new_session=True
    )
    signal.signal(signal.SIGTERM, _terminated)
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        return proc.wait(timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        print("perfbench: run overran its time limit; stopped", file=sys.stderr)
        return 3
    except (KeyboardInterrupt, Terminated):
        print("perfbench: interrupted; stopped", file=sys.stderr)
        return 4
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        else:
            # The child's own children (servers, workers) normally exit
            # before it; make sure none outlives the run.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


if __name__ == "__main__":
    sys.exit(main())
