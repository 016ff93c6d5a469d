"""Executable oracles the shipped simulator is held to; test-only.

``fanout`` is the per-receiver fan-out the batched delivery replays;
``stats``, ``aggregate_model`` and ``aggregate_oracle`` are the
aggregate tier's KS/χ² tests, closed forms and A1–A4 judge.  Nothing
under ``src/`` imports them (``tests/test_layering.py``).
"""
