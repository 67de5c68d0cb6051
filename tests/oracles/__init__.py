"""Reference implementations the parity suites hold the library's fast paths to.

The library ships only its fast paths; each slow, obviously-correct twin
lives here and is imported by the tests that compare against it.
"""
