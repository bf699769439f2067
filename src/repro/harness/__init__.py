"""Experiment harness.  Import the module you need: the package itself
imports nothing, so :mod:`repro.harness.reporting` loads no simulator.

Section 5's tables and figures: :mod:`~repro.harness.timing` (crypto
calibration, Tables 1-2), :mod:`~repro.harness.keymgmt` (Figures 3-5),
:mod:`~repro.harness.endtoend` (Figures 9-11),
:mod:`~repro.harness.verification` (``repro verify``) and
:mod:`~repro.harness.reporting` (table and metric formatting).

``repro chaos`` scenarios, each a :class:`~repro.harness.scenario.Scenario`
(a config, a run and named gates): :mod:`~repro.harness.chaos`
(``overlay``, and the tree workload behind ``repro metrics``),
:mod:`~repro.harness.kdcchaos` (``kdc``), :mod:`~repro.harness.recovery`,
:mod:`~repro.harness.overload`, :mod:`~repro.harness.rekey` and
:mod:`~repro.harness.live`.
"""
