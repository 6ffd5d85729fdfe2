"""The sustained, layered benchmark: ``python3 bench/run.py`` (see README.md)."""
