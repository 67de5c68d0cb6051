"""SQL quickstart: the whole in-database analytics loop from SQL.

The paper's deployment story (and MADlib's before it) is that a data
scientist never leaves SQL: training is a ``CREATE MODEL`` away, models are
catalogued database objects, and predictions are a ``SELECT``.  This script
drives that loop end-to-end through ``Database.execute``:

1. ``CREATE MODEL ... AS TRAIN ... WITH (epochs, segments, ...)`` — train
   on the simulated DAnA accelerator and persist the model into heap
   tables through the catalog;
2. ``SHOW MODELS`` — the registry as a catalog view;
3. ``SELECT dana.predict('<model>') FROM <table> [WHERE ...] [LIMIT n]`` —
   scan-and-score through the batched inference tape (bit-identical to the
   Python ``DAnA.score_table`` API);
4. ``SELECT * FROM dana.score('<model>', '<table>', segments => N)`` —
   sharded scoring with explicit serving knobs;
5. ``EXPLAIN`` / ``EXPLAIN ANALYZE`` — the costed operator tree (predicted
   cycles and modelled seconds from the schedule-derived cost functions)
   and, under ANALYZE, measured spans/wall/rows and the run's booked cycles
   next to every prediction — asserted equal, operator by operator;
6. ``DROP MODEL`` — clean up, parameter tables included.

Run with:  PYTHONPATH=src python examples/sql_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import Hyperparameters, get_algorithm
from repro.core import DAnA
from repro.rdbms import Database

N_FEATURES = 10
N_TUPLES = 3_000


def main() -> None:
    """Run the SQL session and print each statement's result."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(N_TUPLES, N_FEATURES))
    true_model = rng.normal(size=N_FEATURES)
    y = X @ true_model + 0.01 * rng.normal(size=N_TUPLES)
    data = np.hstack([X, y[:, None]])

    algorithm = get_algorithm("linear")
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=16, epochs=6)
    spec = algorithm.build_spec(N_FEATURES, hyper)

    database = Database()
    database.load_table("houses", spec.schema, data)
    system = DAnA(database)  # attaches itself as the SQL serving runtime
    system.register_udf("linearR", spec, epochs=6)

    def run(sql: str):
        print(f"\n=> {sql}")
        result = database.execute(sql)
        for row in result.rows[:5]:
            print("  ", row)
        if len(result.rows) > 5:
            print(f"   ... ({len(result.rows)} rows)")
        return result

    # 1. train + persist, entirely from SQL
    created = run(
        "CREATE MODEL prices AS TRAIN linearR ON houses "
        "WITH (epochs => 6, segments => 2)"
    )
    assert created.rows[0][:2] == ("prices", 1)

    # 2. the registry is a catalog view
    run("SHOW MODELS")

    # 3. predictions are a SELECT (streaming scan-and-score underneath)
    run("SELECT count(*) FROM houses")
    predictions = run("SELECT dana.predict('prices') AS yhat FROM houses")
    served = np.array([row[0] for row in predictions.rows])
    rmse = float(np.sqrt(np.mean((served - y) ** 2)))
    print(f"   rmse vs ground truth: {rmse:.4f}")

    # The SQL surface and the Python API are the same computation.
    direct = system.score_table("linearR", "houses", model_name="prices")
    assert np.array_equal(served, direct.predictions), "SQL != Python API"
    print("   SQL predictions bit-identical to DAnA.score_table: OK")

    filtered = run(
        "SELECT dana.predict('prices') FROM houses WHERE x0 > 1.5 LIMIT 5"
    )
    assert len(filtered.rows) <= 5

    # 4. explicit serving knobs through dana.score(...)
    sharded = run(
        "SELECT * FROM dana.score('prices', 'houses', segments => 4, "
        "stream => true) LIMIT 3"
    )
    print(f"   stats: {sharded.stats}")

    # 5. plan introspection: EXPLAIN prices the statement without running
    # it; EXPLAIN ANALYZE runs it inside a statement trace and renders
    # predicted-vs-actual per operator.  Predicted and actual cycles come
    # out of one cost constructor fed by the functions the run books with,
    # so wherever an operator shows both they must be equal.
    def assert_priced_as_run(report) -> None:
        compared = 0
        for op in report.root.walk():
            for key, predicted in op.predicted.items():
                if key.endswith("cycles") and key in op.actual:
                    assert predicted == op.actual[key], (
                        f"{op.name} {op.label}: predicted {key}={predicted}, "
                        f"actual {op.actual[key]}"
                    )
                    compared += 1
        assert compared, "no operator carried both a predicted and an actual cycle"
        print(f"   predicted == actual on {compared} modelled-cycle fields: OK")

    train_sql = (
        "CREATE MODEL prices2 AS TRAIN linearR ON houses "
        "WITH (epochs => 6, segments => 2)"
    )
    run("EXPLAIN " + train_sql)
    assert [row[0] for row in database.execute("SHOW MODELS").rows] == [
        "prices"
    ], "EXPLAIN must neither train nor DROP"
    assert_priced_as_run(run("EXPLAIN ANALYZE " + train_sql).payload)
    run("DROP MODEL prices2")
    score_sql = "SELECT * FROM dana.score('prices', 'houses', segments => 2)"
    bare = database.execute(score_sql)
    explained = run("EXPLAIN ANALYZE " + score_sql)
    report = explained.payload
    assert (
        report.result.rows == bare.rows
    ), "EXPLAIN ANALYZE changed the statement's result"
    print("   EXPLAIN ANALYZE result bit-identical to the bare statement: OK")
    assert_priced_as_run(report)

    # 6. clean up: the model and its parameter heap tables disappear
    run("DROP MODEL prices")
    assert database.execute("SHOW MODELS").rows == []
    print("\nSQL session complete.")


if __name__ == "__main__":
    main()
