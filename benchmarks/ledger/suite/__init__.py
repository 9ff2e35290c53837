"""The performance ledger's workloads, tracer and measurement helpers.

Imported by ``benchmarks/ledger/run.py`` only; see ``../README.md``.
"""
