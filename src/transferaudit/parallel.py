"""An ordered map over forked worker processes, one per usable CPU.

The function is set in a module global before the workers fork, so they
inherit it, and whatever it reads, without pickling; only the items and
their results cross the pipes.  `multiprocessing` is imported only when a
map forks.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")

# the function the forked workers apply, while a pool runs
_fn: Callable | None = None


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _apply(item):
    # an error travels as a result, so that the results before it, which
    # may share its chunk, still reach the caller; it arrives with the
    # worker's traceback as its cause
    try:
        return True, _fn(item)
    except Exception as exc:
        from multiprocessing.pool import ExceptionWithTraceback

        return False, ExceptionWithTraceback(exc, exc.__traceback__)


def ordered_map(fn: Callable[[T], R], items: Sequence[T]) -> Iterator[R]:
    """Yield `fn(item)` for each item, in input order, as `map` would.

    The items run in min(len(items), usable CPUs) forked processes; with
    fewer than two, or where `fork` is unavailable, this is `map`.  An
    error raised by `fn` is raised at its item, after every earlier result
    has been yielded, so the output and the error are those of `map`.
    """
    workers = min(len(items), usable_cpus())
    if workers < 2:
        return map(fn, items)
    import multiprocessing  # here, so that importing this module does not pay for it

    if "fork" not in multiprocessing.get_all_start_methods():
        return map(fn, items)
    return _forked(multiprocessing.get_context("fork"), fn, items, workers)


def _forked(context, fn, items, workers):
    global _fn
    _fn = fn
    try:
        with context.Pool(workers) as pool:
            chunk = max(1, len(items) // (32 * workers))
            for ok, value in pool.imap(_apply, items, chunk):
                if not ok:
                    raise value
                yield value
    finally:
        _fn = None
