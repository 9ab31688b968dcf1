"""Seeded flow fixture: every flow rule fires exactly where planned.

Expected findings (asserted in tests/test_checks_flow.py):

* FLOW001 in ``kernel/sweep.py`` — ``tick`` reaches ``time.time()``
  through ``util.helpers.jitter`` -> ``util.helpers.wall_now``;
* CON001 (x2) and CON002 in ``kernel/sweep.py`` — ``Pool`` violates its
  ``COLUMN_CONTRACTS`` table;
* ``tick_suppressed`` in ``kernel/sweep.py`` carries a sink-line
  ``# repro: noqa[FLOW001]`` and must NOT be reported.
"""
