"""Concurrent template reads on plain threads.

Batches run on one thread, but ``repro serve --workers N`` still runs
readers concurrently, so the caches' thread-safety tests start their
readers here.
"""

from __future__ import annotations

import threading


def read_concurrently(service, template, bindings, threads=4):
    """``service.execute_template(template, params)`` for every binding
    in ``bindings``, spread over ``threads`` threads that start
    together.  Returns ``(results, errors)``: the results in binding
    order (``None`` where a read raised) and every exception raised."""
    results = [None] * len(bindings)
    errors = []
    start = threading.Barrier(threads)

    def reader(first):
        start.wait()
        for index in range(first, len(bindings), threads):
            try:
                results[index] = service.execute_template(template,
                                                          bindings[index])
            except Exception as error:
                errors.append(error)

    readers = [threading.Thread(target=reader, args=(first,))
               for first in range(threads)]
    for thread in readers:
        thread.start()
    for thread in readers:
        thread.join()
    return results, errors
