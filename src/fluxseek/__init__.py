"""Deterministic indirect field-oriented induction-motor drive simulator with
search-based fuzzy efficiency optimization and feedforward pulsating-torque
compensation.

The package root re-exports nothing: import from the submodules (``machine``,
``fuzzy``, ``optimizer``, ``compensator``, ``errors``, and
``harness.config``, ``harness.runner``, ``harness.report``, ...)."""
