"""The energy ledger: over a run, the input energy equals the four loss
energies, the load work, the friction and the change in kinetic energy, up to
the trapezoids' error. ``machine.step`` integrates the mechanics and
``power_terms`` computes the powers, so a torque, loss or power written one
way in one and another way in the other shows here, whatever the pinned bytes
say."""

from __future__ import annotations

import pytest

from fluxseek.harness.runner import simulate

from conftest import energy_ledger

# Rows every step: the worst residual measured is 1.4e-6 of the input energy
# (4.7e-2 J of 34,227 J, load-step-abandon, where the trapezoid crosses the
# load step); a torque constant 1% off in the machine step alone gives 7e-3.
SHIPPED_BOUND = 1e-5


@pytest.mark.parametrize(
    "name", ["quarter-load-search", "load-step-abandon", "rated-flux-baseline", "short-demo"])
def test_shipped_scenarios_balance_energy(config, name):
    ledger = energy_ledger(simulate(config.scenario(name), config, decimation=1).records)
    assert ledger.energy_in > 0.0
    assert abs(ledger.residual) <= SHIPPED_BOUND * ledger.energy_in, ledger

