"""Serving quickstart: train -> save -> load -> score -> micro-batched serving.

The training quickstart stops when the model converges; this script shows
the other half of in-database analytics — getting predictions back out
without the data (or the model) ever leaving the RDBMS:

1. train linear regression on a heap table (sharded, 2 segments);
2. ``save_model`` — parameters persisted into a real heap table, descriptor
   in the catalog, versioned;
3. ``load_model`` — bit-identical round trip;
4. ``score_table`` — whole-table scan-and-score through the bulk Strider
   page walk, fanned out across segments;
5. a micro-batching :class:`PredictionServer` scoring concurrent point
   requests in batches of whatever queued while it was busy.

Run with:  PYTHONPATH=src python examples/serving_quickstart.py
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.algorithms import Hyperparameters, get_algorithm
from repro.core import DAnA
from repro.perf import ScoreRunCost
from repro.rdbms import Database

N_FEATURES = 12
N_TUPLES = 4_000


def main() -> None:
    rng = np.random.default_rng(11)
    X = rng.normal(size=(N_TUPLES, N_FEATURES))
    true_model = rng.normal(size=N_FEATURES)
    y = X @ true_model + 0.01 * rng.normal(size=N_TUPLES)
    data = np.hstack([X, y[:, None]])

    algorithm = get_algorithm("linear")
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=8)
    spec = algorithm.build_spec(N_FEATURES, hyper)

    database = Database()
    database.load_table("ratings", spec.schema, data)
    system = DAnA(database)
    system.register_udf("linearR", spec, epochs=8)

    # 1. train (sharded: one accelerator per segment)
    run = system.train("linearR", "ratings", segments=2)
    print(f"trained: {run.epochs_run} epochs, loss {algorithm.loss(data, run.models):.6f}")

    # 2./3. save into heap tables through the catalog, load back bit-identically
    entry = system.save_model("house_prices", "linearR", run.models)
    loaded = system.load_model("house_prices")
    assert all(np.array_equal(loaded[k], np.asarray(v, np.float64)) for k, v in run.models.items())
    print(f"saved model {entry.name!r} v{entry.version} -> heap table {entry.table_name!r}")

    # 4. whole-table scan-and-score via the bulk Strider page walk
    result = system.score_table("linearR", "ratings", model_name="house_prices", segments=2)
    cost = ScoreRunCost.from_result(result)
    rmse = float(np.sqrt(np.mean((result.predictions - y) ** 2)))
    print(
        f"scored {result.tuples_scored} tuples on {len(result.segments)} segments: "
        f"rmse {rmse:.4f}, {cost.inference_cycles_per_tuple:.1f} inference cycles/tuple, "
        f"modelled {cost.tuples_per_second():,.0f} tuples/s"
    )

    # 5. micro-batched point predictions from concurrent clients
    with system.serve("linearR", model_name="house_prices", max_batch_size=32) as server:
        with ThreadPoolExecutor(max_workers=8) as clients:
            futures = list(clients.map(server.submit, (row for row in X[:512])))
        predictions = np.array([f.result(timeout=30) for f in futures])
    direct = system.predict("linearR", X[:512], model_name="house_prices")
    assert np.allclose(predictions, direct, rtol=1e-12)
    stats = server.stats
    print(
        f"served {stats.requests} point requests in {stats.batches} micro-batches "
        f"(mean batch {stats.mean_batch_size:.1f}): "
        f"{stats.requests_per_second:,.0f} req/s, "
        f"p50 {stats.p50_latency_ms:.2f} ms, p99 {stats.p99_latency_ms:.2f} ms"
    )


if __name__ == "__main__":
    main()
