"""The repo benchmark (see ``perfbench/run.py`` and ``BENCHMARK.json``)."""
