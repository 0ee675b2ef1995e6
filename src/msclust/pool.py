"""run_shares, the package's one os.fork site, for cli's restarts and
fastmsc's split scan, and the usable_cpus and free_memory they fit in."""

from __future__ import annotations

import ctypes
import os
import pickle
from pathlib import Path

CGROUP_ROOT = "/sys/fs/cgroup"
OWN_CGROUP = "/proc/self/cgroup"
MEMINFO = "/proc/meminfo"


def _cgroup_numbers(v1: tuple, v2: tuple):
    """Per own cgroup of this process with the files named v1 (in a v1
    hierarchy) or v2 (unified), their integers; "max" (no limit) skips it."""
    try:
        entries = [line.split(":", 2) for line in Path(OWN_CGROUP).read_text().splitlines()]
    except OSError:  # not Linux
        return
    for _, controllers, path in entries:
        where, names = Path(CGROUP_ROOT, controllers, path.lstrip("/")), v1 if controllers else v2
        try:  # a v1 hierarchy of another controller has no such files
            yield [int(v) for f in names for v in (where / f).read_text().split()]
        except (OSError, ValueError):  # ValueError: "max"
            continue


def usable_cpus() -> int:
    """The affinity mask's CPUs (one without os.sched_getaffinity, as on
    macOS), capped at ceil(quota / period) of this process's own cgroup:
    v2 cpu.max, where "max" is no limit, or v1 cpu.cfs_quota_us over
    cpu.cfs_period_us, where -1 is no limit."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    for quota, period in _cgroup_numbers(("cpu.cfs_quota_us", "cpu.cfs_period_us"), ("cpu.max",)):
        if quota > 0 and period > 0:
            cpus = min(cpus, -(-quota // period))
    return cpus


def free_memory() -> int:
    """MEMINFO's MemAvailable (else sysconf's free pages) in bytes, capped at
    the limit less the usage of this process's own cgroup: v2 memory.max
    less memory.current, or v1 memory.limit_in_bytes less memory.usage_in_bytes."""
    try:
        free = int(Path(MEMINFO).read_text().split("MemAvailable:")[1].split()[0]) << 10  # kB
    except (OSError, IndexError, ValueError):  # not Linux, or a kernel before 3.14
        free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    for limit, usage in _cgroup_numbers(("memory.limit_in_bytes", "memory.usage_in_bytes"),
                                        ("memory.max", "memory.current")):
        free = min(free, limit - usage)
    return free


def run_shares(fn, items, count: int) -> list:
    """fn(items), a list, as the concatenation of fn(share) over max(1,
    min(count, len(items))) consecutive shares whose sizes differ by at
    most one, the larger first (np.array_split's rule). Share 0 runs here,
    each other in a child made with os.fork, on the state it inherits. A
    share with no child (no pipe or fork), or whose child sent nothing (it
    raised or died), runs here when collected, in share order, so the
    first share to fail raises its error here. The finally kills and reaps
    every child not reaped yet, also on an error or interrupt."""
    count = max(1, min(count, len(items)))
    size, extra = divmod(len(items), count)
    cuts = [s * size + min(s, extra) for s in range(count + 1)]
    shares = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    children = [None]  # per share: _fork_share's (pid, read end), or None
    try:
        for share in shares[1:]:
            children.append(_fork_share(fn, share))
        return [x for child, share in zip(children, shares) for x in _collect(child, fn, share)]
    finally:
        for pid, reader in filter(None, children):
            reader.close()
            _kill(pid)


def _fork_share(fn, share):
    """(pid, read end) of a child that pickles fn(share) into a pipe, or
    None if no pipe or child can be made. The child writes nothing else and
    ends in os._exit: it never returns into its caller nor runs atexit."""
    parent, fds = os.getpid(), ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        code = 1
        try:
            _die_with(parent)
            os.close(read_fd)
            data = pickle.dumps(fn(share))
            with open(write_fd, "wb") as fh:
                fh.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _die_with(parent: int) -> None:
    """Have Linux SIGKILL this child when its parent dies, by a signal
    too, and exit now if the parent died before that was set."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (AttributeError, OSError, TypeError):  # not Linux: no prctl
        return
    prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
    if os.getppid() != parent:
        os._exit(1)


def _collect(child, fn, share):
    """What the child sent, or fn(share) run here if there is no child or it
    sent nothing. The child is reaped; run_shares closes the reader."""
    if child:
        data = child[1].read()
        status = os.waitpid(child[0], 0)[1]
        if data and os.waitstatus_to_exitcode(status) == 0:
            return pickle.loads(data)
    return fn(share)


def _kill(pid: int) -> None:
    """Kill and reap a child that is not reaped yet. A pid that is reaped
    already may belong to another process by now: it is left alone."""
    try:
        if os.waitpid(pid, os.WNOHANG)[0]:  # it had exited: now reaped
            return
        os.kill(pid, 9)  # SIGKILL
        os.waitpid(pid, 0)
    except ChildProcessError:  # reaped already
        pass
