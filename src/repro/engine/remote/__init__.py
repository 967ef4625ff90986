"""Distributed synthesis: broker/worker transport for output groups.

The DAC-1995 flow decomposes output groups independently, and PR 3's
:class:`repro.bdd.transfer.PortableDag` already makes one group's
subproblem a self-contained, manager-free value.  This package ships
that value across *hosts* instead of processes:

- :mod:`repro.engine.remote.wire` -- the JSON schemas
  (``repro-remote-task/1`` / ``repro-remote-result/2``) that carry a
  :class:`repro.engine.worker.GroupPayload` to a worker and a
  :class:`repro.engine.worker.GroupResult` back.
- :mod:`repro.engine.remote.broker` -- the task board behind
  ``repro broker``, on the stdlib HTTP/JSON core :mod:`repro.httpjson`
  it shares with ``repro serve``: coordinators post tasks, workers
  long-poll for leases, expired leases requeue (dead-host tolerance).
- :mod:`repro.engine.remote.client` -- the ``urllib`` HTTP client both
  sides use.
- :mod:`repro.engine.remote.worker` -- the pull-decompose-post loop
  behind ``repro worker``; decomposition itself is literally
  :func:`repro.engine.worker.run_group` on a private BDD manager.
- :mod:`repro.engine.remote.executor` -- :class:`RemoteExecutor`, the
  ``--executor remote`` seam.  It subclasses the process executor and
  overrides only future creation, so retries, degrade-to-serial at the
  merge position, the result cache (and with it resume) and the
  deterministic merge order are inherited unchanged -- the mapped BLIF
  is byte-identical to a serial run.  A raced group is one task: the
  worker races its candidates itself.

See ``docs/DISTRIBUTED.md`` for topology, wire formats and lease
semantics.
"""

from repro.engine.remote.broker import BrokerConfig, TaskBroker
from repro.engine.remote.client import BrokerClient, BrokerError, BrokerUnavailable
from repro.engine.remote.executor import RemoteExecutor
from repro.engine.remote.wire import RESULT_SCHEMA, TASK_SCHEMA
from repro.engine.remote.worker import run_worker

__all__ = [
    "BrokerClient",
    "BrokerConfig",
    "BrokerError",
    "BrokerUnavailable",
    "RESULT_SCHEMA",
    "RemoteExecutor",
    "TASK_SCHEMA",
    "TaskBroker",
    "run_worker",
]
