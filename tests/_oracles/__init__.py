"""Executable oracles the shipped simulator is held to; test-only."""
