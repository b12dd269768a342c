"""Distributed, resumable experiment farm — and the
:class:`~repro.exp.runner.Runner`'s one out-of-process execution core.

The full controller-zoo × topology × fault matrix is 10^5–10^6 cacheable
points — beyond one machine and one uninterrupted run.  The farm is the
:class:`~repro.exp.runner.Runner`'s execution layer in three pieces
that survive crashes independently (a local ``parallel=N`` run is the
same thing over a temporary directory; ``repro sweep --farm DIR``
keeps it):

* a **broker** (:class:`~repro.farm.Broker`) owns a persistent
  work queue under one *farm directory*: pickled task files, claim
  tokens, a lease table with expiry, and an append-only journal used
  for failure budgets, observability and lease heartbeats;
* **workers** (:func:`~repro.farm.work`: forked and supervised by the
  broker locally, or ``repro farm work DIR`` on any host that can see
  the farm directory) lease tasks via atomic rename, journal
  heartbeats for them (a lease file is never rewritten), execute them
  through the existing :func:`~repro.exp.spec.execute_task`, and publish
  rows through the shared content-addressed
  :class:`~repro.exp.cache.ResultCache` — already atomic and
  corrupt-tolerant, so it is the farm's result store for free;
* a **streaming aggregator** folds rows in deterministic grid order as
  they land.

Because every task is a seeded, deterministic simulation and the result
store is content-addressed, duplicate execution is harmless and
*completion authority is cache presence*: a grid interrupted at any
point (worker SIGKILL, broker SIGKILL, power loss) and resumed over the
same directory produces rows bit-identical to an uninterrupted
in-process :class:`~repro.exp.runner.Runner` run.  See ``docs/RUNNER.md``.
"""

from .._exports import lazy_exports

#: Public name -> the submodule defining it (loaded on first use).
_EXPORTS = {
    "Broker": ".broker",
    "FarmError": ".broker",
    "FarmLayout": ".layout",
    "WorkerStartError": ".broker",
    "farm_status": ".broker",
    "run_farm": ".broker",
    "work": ".worker",
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
