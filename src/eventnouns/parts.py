"""A map over independent items, each item but the first in a child from
os.fork: results, and what the calls write to ``sys.stderr``, come in item
order, and every result, message and exception is that of the loop run in
one process. Split a job into at most :func:`workers` items.
"""

import io
import marshal
import os
import sys


def workers() -> int:
    """The CPUs this process may run on, or 1 where os.fork is missing or a
    second thread runs, as a child of fork() holds only the thread that
    made it."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading and threading.active_count() > 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def map_parts(func, items) -> list:
    """``[func(item) for item in items]`` over a sequence: the first item
    here, each other in a child started before it. An item whose child
    sends no result (it raised, was killed or could not be forked) is
    computed here instead. A result must be something marshal can send.
    On every path each child is reaped, after a kill if its result is not
    needed."""
    children = []  # each later item's (pid, pipe) until reaped, or None
    try:
        for item in items[1:]:
            children.append(_fork(func, item))
        results = [func(item) for item in items[:1]]
        for number, item in enumerate(items[1:]):
            status = 1  # no child, or no result from it: the item is computed here
            if children[number]:
                pid, pipe = children[number]
                with pipe:
                    data = pipe.read()
                children[number] = None
                _, status = os.waitpid(pid, 0)
            if status:
                results.append(func(item))
                continue
            result, text = marshal.loads(data)
            sys.stderr.write(text)
            results.append(result)
        return results
    finally:
        for child in filter(None, children):
            import signal
            pid, pipe = child
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(func, item):
    """Start a child that sends ``func(item)`` and what it wrote to
    ``sys.stderr`` as marshal bytes, or nothing if anything goes wrong, and
    leaves through os._exit; returns its pid and the read end of its pipe,
    or None if os.fork fails."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid:
        os.close(write_end)
        return pid, open(read_end, "rb")
    code = 1
    try:
        os.close(read_end)
        sys.stderr = text = io.StringIO()
        result = func(item)
        with open(write_end, "wb") as pipe:
            pipe.write(marshal.dumps((result, text.getvalue())))
        code = 0
    finally:
        os._exit(code)
