"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "smoke: end-to-end smoke tests (example scripts, CLI entry points)"
    )
    config.addinivalue_line(
        "markers", "slow: tests that take more than a couple of seconds"
    )
    config.addinivalue_line(
        "markers",
        "chaos: fault-injection parity tests (retried runs must be "
        "bit-identical to fault-free runs)",
    )

from repro import dana
from repro.algorithms import Hyperparameters, LinearRegression
from repro.rdbms import Database, Schema
from repro.translator import translate


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def small_regression_data(rng):
    """200 tuples, 4 features, exact linear target (no noise)."""
    X = rng.normal(size=(200, 4))
    w = np.array([2.0, -1.0, 0.5, 3.0])
    y = X @ w
    return np.hstack([X, y[:, None]])


@pytest.fixture
def linear_spec():
    """A compiled-ready linear-regression spec with 4 features."""
    hyper = Hyperparameters(learning_rate=0.05, merge_coefficient=8, epochs=30)
    return LinearRegression().build_spec(4, hyper)


@pytest.fixture
def linear_graph(linear_spec):
    return translate(linear_spec.algo)


@pytest.fixture
def small_database(small_regression_data, linear_spec):
    """A database with the small regression table loaded (8 KB pages)."""
    db = Database(page_size=8 * 1024)
    db.load_table("train", linear_spec.schema, small_regression_data)
    return db


@pytest.fixture
def linear_algo_factory():
    """Builds a fresh linear-regression DSL program (update rule of §4.3)."""

    def build(n_features=4, merge_coefficient=8, learning_rate=0.05, epochs=10):
        mo = dana.model([n_features], name="mo")
        x = dana.input([n_features], name="x")
        y = dana.output(name="y")
        lr = dana.meta(learning_rate, name="lr")
        coeff = dana.meta(float(merge_coefficient), name="mc")
        algo = dana.algo(mo, x, y, name="linearR")
        s = dana.sigma(mo * x, 1)
        grad = (s - y) * x
        merged = algo.merge(grad, merge_coefficient, "+")
        algo.setModel(mo - lr * (merged / coeff))
        algo.setEpochs(epochs)
        return algo

    return build


@pytest.fixture
def walk_full_page():
    """Packs one page of ``layout`` full of ``schema`` tuples and walks it
    with the Strider *interpreter*: ``(tuples on the page, its StriderStats)``
    — the count every closed-form page-walk cost is held to."""
    from repro.compiler import compile_strider
    from repro.hw import Strider
    from repro.hw.fpga import DEFAULT_FPGA
    from repro.rdbms.page import HeapPage

    def walk(layout, schema):
        page = HeapPage(layout)
        capacity = layout.tuples_per_page(schema)
        records = schema.to_records(np.ones((capacity, len(schema))))
        assert page.extend(schema, records) == capacity
        assert not page.has_room(schema)
        strider = Strider(
            compile_strider(layout, schema).program, DEFAULT_FPGA.bram_read_width_bytes
        )
        stats = strider.process_page(page.to_bytes()).stats
        assert stats.tuples_emitted == capacity
        return capacity, stats

    return walk
