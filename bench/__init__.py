"""The repository's benchmark: named workloads, end-to-end and per-layer
metrics, and a traced run.  Measures the program strictly from outside
(``src/`` is never edited from here); see ``bench/README.md``."""
