"""Statement-level referee benchmark (see README.md in this directory)."""
