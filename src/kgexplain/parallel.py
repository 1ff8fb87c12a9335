"""The package's use of more than one CPU, and its one reader of the
machine's resources: the CPUs this process may run on, its physical
memory, the helper threads that run `explain.TesOp`'s row blocks, and the
forked worker processes that train `evaluate`'s explainers. No other
module starts a thread or a process.

Neither mechanism changes an output byte, and neither has a setting:
`taskset -c 0` gives one CPU, so one row block and no worker. Where a
helper thread or a child cannot be started, its work runs in the calling
thread or process, at its turn, as a run on one CPU would run it.
"""

import os
import pickle
import threading

import numpy as np

from .errors import WorkerError

# (pid, job queues) of the helper threads this process started, in block
# order: kept for the process's life, like the BLAS pin, so that epochs
# reuse them
_helpers = None


def _cpus() -> int:
    """The CPUs this process may run on (1 where the OS does not say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _physical_memory():
    """Bytes of physical memory, or 0 where `os.sysconf` cannot tell."""
    try:
        return max(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), 0)
    except (AttributeError, OSError, ValueError):
        return 0


def _outcome(fn, *args):
    """(True, fn(*args)), or (False, the exception it raised): `_together`
    and `_fork_map` raise the exception at its call's turn (`_result`)."""
    try:
        return True, fn(*args)
    except Exception as exc:
        return False, exc


def _result(ok, value):
    """The value of an `_outcome`, or the exception it holds, raised."""
    if not ok:
        raise value
    return value


def _serve(jobs):
    """A helper thread: for each (fn, replies) of `jobs`, put `_outcome(fn)`
    in `replies`. It ignores overflow and invalid values, as `TesOp` does:
    numpy's error state belongs to each thread."""
    np.seterr(over="ignore", invalid="ignore")
    while True:
        fn, replies = jobs.get()
        replies.put(_outcome(fn))
        del fn, replies  # so that what the job holds is freed now, not at the next job


def _helper_jobs(count: int) -> list:
    """The job queues of this process's first `count` helper threads, each
    started on first use and kept for every later call; only those before
    the first that cannot start. A forked child starts its own, as its
    parent's threads were not copied."""
    global _helpers
    if _helpers is None or _helpers[0] != os.getpid():
        _helpers = (os.getpid(), [])
    while len(_helpers[1]) < count:
        from queue import SimpleQueue  # here, so that importing the package never loads it

        jobs = SimpleQueue()
        try:
            threading.Thread(target=_serve, args=(jobs,), name="tes-rows", daemon=True).start()
        except RuntimeError:  # no thread now: the calls beyond run in the calling thread
            break
        _helpers[1].append(jobs)
    return _helpers[1][:count]


def _together(here, *there) -> list:
    """[here(), *(fn() for fn in there)]: `here` in this thread, each of
    `there` on a helper thread, or, where its helper cannot start, in this
    thread after `here`. Every call that started has ended when this returns
    or raises, and the first call in that order that raised raises here."""
    from queue import SimpleQueue

    replies = []
    for jobs, fn in zip(_helper_jobs(len(there)), there):
        replies.append(SimpleQueue())  # one per call: a reply never outlives it
        jobs.put((fn, replies[-1]))
    try:
        first = here()
    finally:
        done = [reply.get() for reply in replies]
    done += [_outcome(fn) for fn in there[len(replies):]]
    return [first] + [_result(*outcome) for outcome in done]


def _worker_count(jobs: int, job_bytes: int = 0) -> int:
    """How many processes `_fork_map` runs `jobs` jobs in: one per CPU this
    process may run on, at most one per job, and no more jobs at once than
    fit in physical memory at `job_bytes` each (a lower bound on what one
    job needs). 1, this process alone, where `os.fork` or the CPU set is
    missing."""
    if not hasattr(os, "fork"):
        return 1
    workers = min(_cpus(), jobs)
    physical = _physical_memory()
    if job_bytes and physical:
        workers = min(workers, physical // job_bytes)
    return max(workers, 1)


def _fork_map(fn, items, job_bytes: int = 0):
    """Yield `fn(item)` for each item, in item order, computed in forked
    worker processes when `_worker_count` gives two or more, and one by one
    in this process otherwise.

    Each call runs in a child forked for it, at most that many at once. The
    child shares what this process held when it was forked, so the graph
    and model are never copied or pickled, and sends back only what `fn`
    returns, pickled into a pipe, or the exception `fn` raised, then ends in
    `os._exit`. The exception is raised here at its item's turn, as a
    serial run raises it; a child that ends without sending anything raises
    WorkerError there. Where a child cannot be started (no process slot,
    memory or pipe left), that item and every one not yet started run in
    this process, as a serial run would, while the children already running
    finish. Use the generator in `contextlib.closing`: closing it kills and
    reaps every child still running. A fork copies only the calling thread,
    so call this where no other Python thread holds a lock the jobs need.
    The package's own threads, the helpers of `_together`, are idle between
    calls (each call waits for its helpers before it returns or raises), and
    a child that trains a large ego-graph starts helpers of its own
    (`_helper_jobs` is per process), so its `TesOp` runs on as many threads
    as the parent's would.
    """
    items = list(items)
    workers = _worker_count(len(items), job_bytes)
    if workers < 2:  # none: the loop runs every job here, in order
        workers = 0
    import select  # here, so that importing the package never loads them
    import signal

    pending = iter(enumerate(items))
    running = {}  # pipe read end -> (item index, child pid, bytes read)
    outcomes = {}  # item index -> (True, result) or (False, exception)
    try:
        for i in range(len(items)):
            while i not in outcomes:
                while len(running) < workers and (job := next(pending, None)):
                    try:
                        fd, pid = _fork_call(fn, job[1])
                    except OSError:  # no child now: this job and the rest run here
                        workers = 0
                        outcomes[job[0]] = _outcome(fn, job[1])
                        break
                    running[fd] = (job[0], pid, [])
                if not running:  # item i was never started
                    index, item = next(pending)
                    outcomes[index] = _outcome(fn, item)
                    continue
                for fd in select.select(list(running), [], [])[0]:
                    chunk = os.read(fd, 1 << 20)
                    if chunk:
                        running[fd][2].append(chunk)
                        continue
                    index, pid, chunks = running.pop(fd)
                    os.close(fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    if code == 0:
                        outcomes[index] = pickle.loads(b"".join(chunks))
                        continue
                    how = (f"was killed by signal {-code}" if code < 0
                           else f"exited with status {code}")
                    outcomes[index] = (False, WorkerError(
                        f"worker process {pid} {how} before it sent its result"))
            yield _result(*outcomes.pop(i))
    finally:
        for fd, (_, pid, _) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)


def _fork_call(fn, item):
    """(pipe read end, pid) of a forked child that computes `fn(item)`."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return read_end, pid
    code = 1  # the child: whatever happens, it never returns into the parent's stack
    try:
        os.close(read_end)
        data = memoryview(pickle.dumps(_outcome(fn, item), pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(write_end, data):]
        code = 0
    finally:
        os._exit(code)
