"""Cloud application workloads: realistic traffic for the scale model.

"As a development environment, it permits reproduction of actual traffic
patterns with realistic Cloud applications" (§I) -- the paper names
lightweight httpd servers, databases and Hadoop (Fig. 3, §IV).  These
applications run *inside containers*: their CPU work goes through the
container's cgroup on the host scheduler, and their traffic crosses the
fabric from the container's bridged IP -- so the cross-layer couplings
the paper argues for are intrinsic, not scripted.

* :mod:`~repro.apps.traffic` -- arrival processes and flow-size
  distributions (Poisson, Pareto mice/elephants, ON/OFF bursts).
* :mod:`~repro.apps.http` -- a lighttpd-style server and closed/open-loop
  HTTP clients with latency accounting.
* :mod:`~repro.apps.mapreduce` -- a Hadoop-style job: splits, map tasks,
  an all-to-all shuffle over the fabric, reduce tasks.
"""

from repro.apps.http import HttpClientApp, HttpServerApp
from repro.apps.mapreduce import MapReduceJob, MapReduceReport
from repro.apps.traffic import (
    OnOffTrafficSource,
    pareto_size,
    poisson_wait,
)

__all__ = [
    "HttpClientApp",
    "HttpServerApp",
    "MapReduceJob",
    "MapReduceReport",
    "OnOffTrafficSource",
    "pareto_size",
    "poisson_wait",
]
