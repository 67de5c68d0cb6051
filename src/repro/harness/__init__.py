"""Experiment harness: regenerates every table and figure of the paper."""

from repro.harness import paper_values
from repro.harness.tables import format_table

__all__ = ["format_table", "paper_values"]
