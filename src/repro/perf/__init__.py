"""Performance infrastructure: the same-host A/B and result caching.

* :mod:`repro.perf.ab` -- ``repro bench --against REV``: interleaved
  pairs of engine benchmarks on a git revision and the working tree,
  judged per metric against its bound;
* :mod:`repro.perf.probe` -- the Water x12 engine micro-benchmark the
  A/B runs as a script on each side;
* :mod:`repro.perf.diskcache` -- the persistent on-disk simulation
  result cache used by :class:`repro.experiments.runner.ExperimentRunner`.
"""

from repro.perf.diskcache import ResultDiskCache, content_key

__all__ = ["ResultDiskCache", "content_key"]
