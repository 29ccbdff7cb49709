#!/usr/bin/env python3
"""Sample where a command spends its CPU time, by project source line.

    python3 scripts/profile.py [--] COMMAND [ARGS...]

Runs COMMAND (and every process and thread it starts) under a user-space
task-clock sampler opened with perf_event_open(2) -- no `perf` binary, only
`kernel.perf_event_paranoid` <= 2 -- then symbolises each sampled
instruction pointer with `addr2line -i` and prints the share of samples by
file and by the innermost frame, inlined frames included, whose source lies
under the current directory (so run it from the checkout the binary was built
from), as `file:line` with its function.  A sample with no such frame (a
library function the compiler did not inline: `hashbrown`, `alloc`, `core`)
is reported in both tables by its outermost function, the symbol the sampled
instruction belongs to.  It samples at HZ per CPU-second and prints the TOP
rows of each table.  Build with line tables so that inlined frames resolve:

    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release ...

Samples in code without line tables (libc, the vDSO) are reported by the
mapped file's name.  Python 3 standard library only.
"""

import collections
import ctypes
import functools
import mmap
import os
import platform
import struct
import subprocess
import sys
import time

SYS_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}
PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_TASK_CLOCK = 1
PERF_SAMPLE_IP = 1 << 0
PERF_SAMPLE_TID = 1 << 1
# perf_event_attr flag bits.
DISABLED, INHERIT, EXCLUDE_KERNEL, EXCLUDE_HV, MMAP, ENABLE_ON_EXEC = (
    1 << 0, 1 << 1, 1 << 5, 1 << 6, 1 << 8, 1 << 12)
PERF_FLAG_FD_CLOEXEC = 1 << 3
RECORD_MMAP, RECORD_LOST, RECORD_SAMPLE = 1, 2, 9
ATTR_SIZE = 112  # PERF_ATTR_SIZE_VER5
RING_PAGES = 256  # data pages per CPU, a power of two
HZ = 20000  # samples per CPU-second
TOP = 25  # rows per table


def perf_event_open(pid, cpu, period_ns):
    """One task-clock sampling event on `pid` (and its future children)."""
    attr = bytearray(ATTR_SIZE)
    struct.pack_into("IIQQQQQ", attr, 0, PERF_TYPE_SOFTWARE, ATTR_SIZE,
                     PERF_COUNT_SW_TASK_CLOCK, period_ns,
                     PERF_SAMPLE_IP | PERF_SAMPLE_TID, 0,
                     DISABLED | INHERIT | EXCLUDE_KERNEL | EXCLUDE_HV | MMAP
                     | ENABLE_ON_EXEC)
    libc = ctypes.CDLL(None, use_errno=True)
    buf = ctypes.create_string_buffer(bytes(attr), ATTR_SIZE)
    fd = libc.syscall(SYS_PERF_EVENT_OPEN[platform.machine()], buf,
                      ctypes.c_int(pid), ctypes.c_int(cpu), ctypes.c_int(-1),
                      ctypes.c_ulong(PERF_FLAG_FD_CLOEXEC))
    if fd < 0:
        err = ctypes.get_errno()
        sys.exit(f"perf_event_open: {os.strerror(err)} "
                 "(needs kernel.perf_event_paranoid <= 2)")
    return fd


class Ring:
    """A perf ring buffer: the control page, then RING_PAGES data pages."""

    def __init__(self, fd):
        self.page = mmap.PAGESIZE
        self.size = RING_PAGES * self.page
        self.map = mmap.mmap(fd, self.page + self.size)

    def drain(self, out):
        """Appends every complete record as `(type, body)` to `out`."""
        head = struct.unpack_from("Q", self.map, 1024)[0]
        tail = struct.unpack_from("Q", self.map, 1032)[0]
        while tail < head:
            at = self.page + tail % self.size
            kind, _misc, size = struct.unpack_from("IHH", self.read(at, 8))
            out.append((kind, self.read(at + 8, size - 8)))
            tail += size
        struct.pack_into("Q", self.map, 1032, tail)

    def read(self, at, n):
        """`n` bytes from data offset `at`, across the wrap."""
        end = self.page + self.size
        first = self.map[at:min(at + n, end)]
        return first + self.map[self.page:self.page + n - len(first)]


def run_sampled(argv):
    """Runs `argv` under the sampler; returns (records, exit status)."""
    go_r, go_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        # Wait until every event is open, then exec (which enables them).
        os.close(go_w)
        os.read(go_r, 1)
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    os.close(go_r)
    # A per-task event that inherits cannot be mapped, so open one per CPU.
    rings = [Ring(perf_event_open(pid, cpu, 10**9 // HZ))
             for cpu in range(os.cpu_count())]
    os.write(go_w, b"x")
    os.close(go_w)
    records = []
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        for ring in rings:
            ring.drain(records)
        if done:
            return records, os.waitstatus_to_exitcode(status)
        time.sleep(0.01)


@functools.lru_cache(maxsize=None)
def load_segments(path):
    """The ELF file's PT_LOAD segments as (offset, vaddr, filesz)."""
    segs = []
    try:
        with open(path, "rb") as f:
            ident = f.read(64)
            if ident[:4] == b"\x7fELF" and ident[4] == 2:
                phoff, = struct.unpack_from("Q", ident, 32)
                phentsize, phnum = struct.unpack_from("HH", ident, 54)
                f.seek(phoff)
                table = f.read(phentsize * phnum)
                for i in range(phnum):
                    kind, _flags, off, vaddr, _paddr, filesz = \
                        struct.unpack_from("IIQQQQ", table, i * phentsize)
                    if kind == 1:
                        segs.append((off, vaddr, filesz))
    except OSError:
        pass
    return tuple(segs)


def locate(maps, pid, ip):
    """(file, address as addr2line reads it) for a sampled `ip`."""
    for start, end, pgoff, path in maps.get(pid, ()):
        if start <= ip < end:
            off = ip - start + pgoff
            for seg_off, vaddr, filesz in load_segments(path):
                if seg_off <= off < seg_off + filesz:
                    return path, off - seg_off + vaddr
            return path, None
    return "[unknown]", None


def symbolise(path, addrs, root):
    """{address: (function, file:line, in the project)} via addr2line: the
    innermost project frame, else the outermost frame if it has a line."""
    if not addrs:
        return {}
    out = subprocess.run(
        ["addr2line", "-e", path, "-i", "-f", "-C", "-a"],
        input="".join(f"{a:#x}\n" for a in addrs), capture_output=True,
        text=True, check=False).stdout.splitlines()
    found, addr, frames = {}, None, []

    def close():
        if addr is not None:
            inside = [(fn, loc) for fn, loc in frames if loc.startswith(root)]
            if inside:
                fn, loc = inside[0]
                found[addr] = (fn, os.path.relpath(loc.split(" ")[0], root), True)
            elif frames and not frames[-1][1].startswith("??"):
                fn, loc = frames[-1]
                found[addr] = (fn, os.path.basename(loc.split(" ")[0]), False)

    i = 0
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            close()
            addr, frames = int(line, 16), []
            i += 1
        else:
            frames.append((line, out[i + 1] if i + 1 < len(out) else ""))
            i += 2
    close()
    return found


def main():
    argv = sys.argv[2:] if sys.argv[1:2] == ["--"] else sys.argv[1:]
    if not argv:
        sys.exit(f"usage: {sys.argv[0]} [--] COMMAND [ARGS...]")
    root = os.path.join(os.getcwd(), "")

    records, code = run_sampled(argv)
    maps, samples, lost = collections.defaultdict(list), [], 0
    for kind, body in records:
        if kind == RECORD_MMAP:
            pid, _tid, start, length, pgoff = struct.unpack_from("IIQQQ", body)
            path = body[32:].split(b"\0")[0].decode(errors="replace")
            maps[pid].append((start, start + length, pgoff, path))
        elif kind == RECORD_SAMPLE:
            ip, pid, _tid = struct.unpack_from("QII", body)
            samples.append((pid, ip))
        elif kind == RECORD_LOST:
            lost += struct.unpack_from("QQ", body)[1]

    where = [locate(maps, pid, ip) for pid, ip in samples]
    by_file = collections.defaultdict(set)
    for path, addr in where:
        if addr is not None:
            by_file[path].add(addr)
    names = {path: symbolise(path, sorted(addrs), root)
             for path, addrs in by_file.items()}

    lines, files = collections.Counter(), collections.Counter()
    for path, addr in where:
        hit = names.get(path, {}).get(addr)
        if hit:
            fn, loc, ours = hit
            lines[(loc, fn)] += 1
            files[loc.rsplit(":", 1)[0] if ours else fn[:70]] += 1
        else:
            files[f"[{os.path.basename(path)}]"] += 1
    total = max(len(samples), 1)
    print(f"{len(samples)} samples at {HZ} Hz, {lost} lost; "
          f"command exited {code}")
    print(f"\n{'share':>7}  {'samples':>8}  file (or library function)")
    for name, n in files.most_common(TOP):
        print(f"{100 * n / total:6.2f}%  {n:8d}  {name}")
    print(f"\n{'share':>7}  {'samples':>8}  innermost project file:line, else library  (function)")
    for (loc, fn), n in lines.most_common(TOP):
        print(f"{100 * n / total:6.2f}%  {n:8d}  {loc}  ({fn[:70]})")
    return code


if __name__ == "__main__":
    sys.exit(main())
