"""P4 — concurrent serving: a 4x overload burst against the frontend.

The serving front-end's contract under overload (DESIGN.md §2.14): every
submitted query ends in exactly one of {answer, typed refusal, typed
rejection} — nothing hangs, nothing dies untyped — while the overload
controller sheds *accuracy* (ladder entry rung) before the admission
queue sheds *work*. This benchmark drives a burst of 4x the queue
capacity from concurrent client threads and records the three serving
health numbers the claim lives on:

* **throughput** — queries answered per second during the burst;
* **shed rate** — fraction of answers served from a shed entry rung
  (``shed_to`` provenance present);
* **p99 queue wait** — among *served* queries, which the queue deadline
  must bound (a query past the deadline is rejected, not served late).

The numbers land in ``BENCH_results.json`` via ``record_metric`` so the
baseline comparison can watch serving health across commits.
"""

import threading
import time

import numpy as np
import pytest

from common import once, record_metric, table, write_report
from repro import Database
from repro.core.errorspec import ErrorSpec
from repro.core.exceptions import QueryRejected, QueryRefused
from repro.core.options import QueryOptions
from repro.serving import ServingFrontend

N_ROWS = 400_000
WORKERS = 2
MAX_QUEUE = 16
BURST = 4 * MAX_QUEUE
CLIENTS = 8
QUEUE_DEADLINE_S = 5.0
QUERY = (
    "SELECT SUM(v) AS s FROM events WHERE v > 5 "
    "ERROR WITHIN 10% CONFIDENCE 95%"
)


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(4)
    db = Database()
    db.create_table(
        "events",
        {
            "v": rng.exponential(10.0, N_ROWS),
            "k": rng.integers(0, 100, N_ROWS),
        },
    )
    return db


def test_p04_concurrent_serving(benchmark, world):
    db = world
    spec = ErrorSpec(relative_error=0.10, confidence=0.95)

    def compute():
        frontend = ServingFrontend(
            db,
            workers=WORKERS,
            max_queue=MAX_QUEUE,
            queue_deadline_s=QUEUE_DEADLINE_S,
            seed=7,
        )
        tickets = []
        rejected = {"overload": 0, "queue_deadline": 0, "budget": 0}
        lock = threading.Lock()

        def client(client_id: int) -> None:
            for i in range(BURST // CLIENTS):
                try:
                    t = frontend.submit(
                        QUERY,
                        options=QueryOptions(
                            tenant=f"client{client_id}",
                            priority="interactive" if i % 2 else "batch",
                            spec=spec,
                            seed=client_id * 1000 + i,
                        ),
                    )
                    with lock:
                        tickets.append(t)
                except QueryRejected as exc:
                    with lock:
                        rejected[exc.reason] += 1

        start = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert frontend.drain(timeout=120.0), "queue failed to drain"
        elapsed = time.perf_counter() - start

        served, refused, waits, shed = 0, 0, [], 0
        for t in tickets:
            assert t.wait(timeout=60.0), "ticket never resolved (hang)"
            err = t.exception()
            if err is None:
                served += 1
                waits.append(t.queue_wait)
                if t.shed_to is not None:
                    shed += 1
            elif isinstance(err, QueryRejected):
                rejected[err.reason] += 1
            else:
                assert isinstance(err, QueryRefused), f"untyped error: {err!r}"
                refused += 1
        frontend.close()

        total = served + refused + sum(rejected.values())
        assert total == BURST, f"lost queries: {total}/{BURST}"
        p99_wait = float(np.percentile(waits, 99)) if waits else 0.0
        assert p99_wait <= QUEUE_DEADLINE_S, (
            f"served a query after waiting {p99_wait:.2f}s, past the "
            f"queue deadline {QUEUE_DEADLINE_S:.2f}s"
        )
        throughput = served / elapsed if elapsed > 0 else 0.0
        shed_rate = shed / served if served else 0.0
        record_metric(
            "bench_p04_concurrent_serving",
            "serving",
            {
                "burst": BURST,
                "served": served,
                "refused": refused,
                "rejected": rejected,
                "shed_answers": shed,
                "shed_rate": shed_rate,
                "throughput_qps": throughput,
                "p99_queue_wait_s": p99_wait,
                "elapsed_s": elapsed,
            },
        )
        return elapsed, served, refused, rejected, shed_rate, throughput, p99_wait

    elapsed, served, refused, rejected, shed_rate, throughput, p99 = once(
        benchmark, compute
    )
    write_report(
        "P04_concurrent_serving",
        [
            f"{BURST} queries from {CLIENTS} clients into a "
            f"{MAX_QUEUE}-slot queue, {WORKERS} workers, "
            f"{elapsed:.2f}s wall",
            "",
            *table(
                ["outcome", "count"],
                [
                    ("served", served),
                    ("served from shed rung", f"{shed_rate:.1%}"),
                    ("refused (typed)", refused),
                    ("rejected overload", rejected["overload"]),
                    ("rejected queue_deadline", rejected["queue_deadline"]),
                    ("throughput qps", f"{throughput:.1f}"),
                    ("p99 queue wait", f"{p99 * 1e3:.1f} ms"),
                ],
            ),
        ],
    )
