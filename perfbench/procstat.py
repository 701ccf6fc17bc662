"""Process and thread accounting read from ``/proc`` (Linux only).

CPU times come from ``/proc/<pid>/stat`` and ``/proc/<pid>/task/<tid>/stat``
(user + system clock ticks, usually 10 ms each), hypervisor steal from
``/proc/stat``; resident and peak memory are ``VmRSS`` and ``VmHWM`` from
``/proc/<pid>/status``.  Writing ``5`` to ``/proc/self/clear_refs`` resets
this process's ``VmHWM`` to its ``VmRSS``, which is how an in-process
workload measures the peak of its set-up and measured phase alone.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
_HWM = re.compile(r"^VmHWM:\s+(\d+)\s+kB", re.MULTILINE)
_RSS = re.compile(r"^VmRSS:\s+(\d+)\s+kB", re.MULTILINE)


def _stat_cpu_s(path: Path) -> float:
    raw = path.read_text()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the full line (11 and 12 after the name).
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of every thread of ``pid``, live or ended."""
    return _stat_cpu_s(Path(f"/proc/{pid}/stat"))


def thread_cpu_s(pid: int) -> dict[int, float]:
    """User + system CPU seconds of each live thread of ``pid``, by tid."""
    out: dict[int, float] = {}
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            out[int(task.name)] = _stat_cpu_s(task / "stat")
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread ended between listing and reading
    return out


def _status_mb(pid: int, field: re.Pattern) -> float:
    match = field.search(Path(f"/proc/{pid}/status").read_text())
    if match is None:
        raise RuntimeError(f"no {field.pattern} for pid {pid}")
    return int(match.group(1)) / 1024.0


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB."""
    return _status_mb(pid, _HWM)


def rss_mb(pid: int) -> float:
    """``VmRSS`` of ``pid`` in MiB."""
    return _status_mb(pid, _RSS)


def cpu_ticks() -> tuple[int, int]:
    """Machine-wide (steal, total) clock ticks from ``/proc/stat``.

    Steal is time a virtual CPU wanted to run but the hypervisor ran
    someone else; its share over a run shows how disturbed the run was.
    """
    cpu_line = Path("/proc/stat").read_text().split("\n", 1)[0]
    fields = [int(x) for x in cpu_line.split()[1:]]
    return fields[7], sum(fields[:8])


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current resident size."""
    Path("/proc/self/clear_refs").write_text("5")
