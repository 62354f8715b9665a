"""The process's second thread, the helper, and the size rule that decides
what work goes to it.

The optimizer's sweep hands it big params to step (``training.Adafactor``),
``evaluate_perplexity`` a share of its forwards, and an MoE layer's experts
node a share of its experts (``layers.moe_experts``). Its jobs never enter
``tensor.no_grad``: that flag is global to the module, so the caller sets
it around both threads' work.
"""

from __future__ import annotations

import collections
import queue
import threading

# Most bytes of params one optimizer chunk stacks. Stacking runs each numpy
# pass once for many small params, but a stack past the 2 MB per-core L2
# cache ran slower than one pass per param (as stacked expert weights did);
# at 256 KB the wide model's expert matrices are one-member chunks. A param
# of at least this size is big: the optimizer's sweep steps it on the
# helper thread, and an MoE layer whose expert matrices are big shares its
# experts' work with the helper. Smaller work costs more to hand over than
# the second core gains.
CHUNK_BYTES = 256 * 1024


class _Helper:
    """The process's second thread: a daemon that runs submitted jobs, each
    a tuple ``(fn, *args)``, in order and one at a time under ``lock``,
    while the thread that submitted them goes on. After a job raises, the
    later ones are dropped; ``take_over`` returns the error. ``share``
    splits a list of items between the caller's thread and this one."""

    def __init__(self):
        self.jobs = collections.deque()  # (fn, *args), in submission order
        self.lock = threading.Lock()
        self.wake = queue.SimpleQueue()
        self.error = None
        self.thread = threading.Thread(target=self._serve, name="brainformer-helper",
                                       daemon=True)
        self.thread.start()

    def submit(self, job):
        self.jobs.append(job)
        self.wake.put(None)

    def _serve(self):
        while True:
            self.wake.get()
            self.run()

    def run(self):
        """Run the queued jobs until none is left. Whoever holds the lock
        pops the next one, so no job is in flight once this returns."""
        while True:
            with self.lock:
                if not self.jobs:
                    return
                job = self.jobs.popleft()
                if self.error is None:
                    try:
                        job[0](*job[1:])
                    except Exception as exc:  # raised again on the submitter's thread
                        self.error = exc

    def take_over(self):
        """Run what the thread has not started on the caller's thread, wait
        for the job in flight, and return (and forget) the first error a
        job raised, if any. On one CPU this runs every job the thread did
        not get to."""
        self.run()
        error, self.error = self.error, None
        return error

    def share(self, fn, items):
        """Call ``fn(item)`` once for each of ``items`` (a sequence), the
        caller's thread and this one each taking the next item not yet
        taken (one list-iterator step, atomic), until none is left.

        The helper's part goes to the front of the queue, ahead of the jobs
        already queued, which keep their order. The caller then waits for
        that part only: a part the helper has not started is cancelled, and
        queued jobs stay queued. An exception in the helper's part raises
        here, after the caller's items, and the helper keeps no error; after
        one on the caller's thread, the helper starts no further item. Called
        on the helper's own thread, or after a queued job raised, the caller
        calls ``fn`` on every item itself."""
        todo = iter(items)
        if threading.current_thread() is self.thread:
            for item in todo:
                fn(item)
            return
        claim = threading.Lock()  # held while the helper's part runs
        failed = []

        def part():
            with claim:
                try:
                    for item in todo:
                        fn(item)
                except Exception as exc:  # raised again on the caller's thread
                    failed.append(exc)
                    for _ in todo:  # the caller takes no further item
                        pass
        job = (part,)
        self.jobs.appendleft(job)
        self.wake.put(None)
        try:
            for item in todo:
                fn(item)
        finally:
            for _ in todo:  # after a raise here, the helper starts no further item
                pass
            try:
                self.jobs.remove(job)  # not started: cancelled
            except ValueError:  # popped: wait for it (it finds no item left)
                with claim:
                    pass
        if failed:
            raise failed[0]


_helper = None  # the one ``_Helper`` of the process, made by ``helper()``


def helper():
    """The process's one helper thread, started at the first call (the
    first sweep with a big param, the first evaluation or the first
    forward of an MoE layer with big experts), never at import: a thread
    per optimizer would outlive it, as a search builds one per trial."""
    global _helper
    if _helper is None:
        _helper = _Helper()
    return _helper
