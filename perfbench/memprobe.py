"""Peak memory of one op, measured in a fresh process.

    python3 perfbench/memprobe.py <workload>

Builds the first instance of the workload's list, hands freed heap back to
the system, then forks and runs one op in the child.  The kernel starts a
forked child's peak resident set at its resident set, so the child's peak
minus its resident set before the op is the memory the op itself touched.
The op runs uninstrumented; the result is printed as JSON in megabytes.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import os
import resource
import sys

from run import OUT, import_program, pin_blas_threads


def resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def main(workload: str) -> int:
    pin_blas_threads()
    import_program()
    from workloads import WORKLOADS, CliWorkload

    wl = WORKLOADS[workload]
    seed = wl.seeds[0]
    if isinstance(wl, CliWorkload):
        # the timed run has written the problem file; writing it here would
        # leave its own peak behind
        from bpalm import cli

        wl.workdir = OUT / "work"
        argv = wl.argv(seed)

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)

    else:
        inst = wl.instance(seed)
        built = wl.build(inst)

        def call():
            wl.op(inst, built)

    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: no thread runs here, BLAS is pinned to one
        code = 1
        try:
            os.close(read_end)
            before = resident_bytes()
            with contextlib.suppress(Exception):  # the timed run reports failures
                call()
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            os.write(write_end, json.dumps({"peak_mb": (peak - before) / 1e6}).encode())
            code = 0
        finally:
            os._exit(code)  # never run the parent's code in the child
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        print("memprobe: the measuring child failed", file=sys.stderr)
        return 1
    print(payload.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
