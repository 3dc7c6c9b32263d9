"""Fixed-step closed-loop execution of one scenario.

Step order: commands (from the scenario's ``commands``, the steps on which a
speed or load command takes effect) -> mode supervisor -> speed PI, written
inline with conditional anti-windup -> search sample and compensator latch,
when due -> feedforward compensation -> inline torque-current limiting ->
coupled machine step -> the telemetry row, every decimation interval. Most
computed steps call no function but ``InductionMachine.step`` and, in the
search, ``TorqueCompensator.output``: ``_repeats`` runs only where the speed
repeats, and ``power_terms``, ``search_sample`` and ``latch`` only at samples.

The supervisor runs on events (see ``optimizer``): an ordinary step only tests
the speed error against the band, and the steps of search entry and of each
sample are known ahead of time, the latter from ``Scenario.sample_steps``. A
search's ``SearchState`` is the drive mode's only record: it and the search's
``TorqueCompensator`` (when enabled) are built at its entry and dropped at its
abandon.

Rows keep only what the loop integrates: each row's flux, speed and
``i_qs_cmd`` go into one ``array("d")``, and its ``i_ds`` and ``i_qs`` too when
current tracking lags (under ideal tracking ``InductionMachine.step`` returns
the command floats themselves). The rest is rebuilt as rows are read: the time
from ``Scenario.row_times``, and the speed reference, ``i_ds_cmd``, load and
mode from one short log keyed by step, which the loop appends to at each
command-schedule step, at search entry, at abandon and at each sample. The log
is also the search's one record: a sample's entry holds the ``converged`` flag,
from which the result's counters are read. A per-step run keeps 24 bytes a
row under ideal tracking and 40 under lagged tracking. Torque, losses and
power are pure functions of the state; ``MachineParams.power_terms`` computes
them in one call, for the rows read, when they are read. Rows are read in
order only, never indexed: the CSV writer and the report read them as state
tuples from ``PackedRecords.rows``, without building records. The writer
compares tuples, so the work it skips costs no per-field Python: a row whose
state after ``time`` repeats the previous row's bit for bit reuses its text,
the speed reference, ``i_ds_cmd``, ``i_ds`` and load are formatted only when
one of them changes, and an ``i_qs`` equal to its nonzero command reuses the
command's text.

A step that left psi, omega, i_d, i_q and the PI integrator unchanged bit for
bit is a fixed point, so the next step is *held*: it reuses the state without
the PI, compensator, clamp or machine step, unless a command, the mode or a
search sample changes. With the state fixed the speed error is too, so no
other event falls before the next command change, sample or search entry: the
loop jumps there and writes the rows in between. Every row's time comes from
``Scenario.row_times``; the loop keeps no time but its integer step. The CSV
output is byte-identical for identical scenario and config.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from itertools import chain, islice, repeat, starmap
from operator import sub
from typing import NamedTuple

from ..compensator import TorqueCompensator
from ..errors import NonFiniteError, SimulationDivergedError
from ..machine import InductionMachine, MachineParams
from ..optimizer import SearchState, search_sample
from .config import DriveConfig, check_search_speeds
from .scenario import Scenario

CSV_HEADER = (
    "time,omega_ref,omega_r,i_ds_cmd,i_qs_cmd,i_ds,i_qs,psi_dr,torque,"
    "load_torque,loss_cu_s,loss_cu_r,loss_fe,loss_conv,p_in,p_out,"
    "efficiency,mode"
)


class TelemetryRecord(NamedTuple):
    """One decimated integration step's signals."""

    time: float
    omega_ref: float
    omega_r: float
    i_ds_cmd: float
    i_qs_cmd: float
    i_ds: float
    i_qs: float
    psi_dr: float
    torque: float
    load_torque: float
    loss_stator_copper: float
    loss_rotor_copper: float
    loss_iron: float
    loss_converter: float
    p_in: float
    p_out: float
    efficiency: float | None  # absent unless p_in > 0
    mode: str


def _row_width(params) -> int:
    """The doubles a row stores: psi, omega_r and i_qs_cmd, then i_ds and i_qs
    when current tracking lags; under ideal tracking they are the commands."""
    return 5 if params.current_tracking_time_constant > 0.0 else 3


class PackedRecords:
    """A run's telemetry rows, read in order: iterated as ``TelemetryRecord``,
    or as state tuples by ``rows``. ``values`` holds each row's integrated
    state, ``_row_width`` doubles; ``scenario`` gives each row's time, and
    ``log`` its commands and mode, as ``(step, omega_ref, i_ds_cmd, t_load,
    mode, converged)`` at each step where one may change (``converged`` is the
    search's flag at a sample, else ``None``). ``params`` computes each row's
    torque, losses and power from its state."""

    __slots__ = ("params", "_values", "_width", "_log", "_scenario", "_decimation")

    def __init__(self, values: array, log: list[tuple], scenario: Scenario, decimation: int,
                 params: MachineParams):
        self.params = params
        self._values = values
        self._width = _row_width(params)
        self._log = log
        self._scenario = scenario
        self._decimation = decimation

    def __len__(self) -> int:
        return len(self._values) // self._width

    def __iter__(self):
        return starmap(self._record, zip(self.times(), self.rows()))

    def times(self):
        """Each row's time, in row order: an iterator, not a copy."""
        return self._scenario.row_times(self._decimation)

    def rows(self, start: int = 0):
        """The state of each row from ``start`` on, ``(omega_ref, omega_r,
        i_ds_cmd, i_qs_cmd, i_ds, i_qs, psi, load_torque, mode)``: stored
        columns, read in place, zipped with the rebuilt ones."""
        n_rows = len(self)
        width = self._width
        columns = memoryview(self._values)[start * width:]
        psi, omega_r, i_qs_cmd = (columns[j::width] for j in range(3))
        log, decimation = self._log, self._decimation
        omega_ref, i_ds_cmd, t_load, mode = (
            _held(log, field, decimation, start, n_rows) for field in range(1, 5))
        if width == 5:
            i_ds, i_qs = columns[3::width], columns[4::width]
        else:
            i_ds, i_qs = _held(log, 2, decimation, start, n_rows), columns[2::width]
        return zip(omega_ref, omega_r, i_ds_cmd, i_qs_cmd, i_ds, i_qs, psi, t_load, mode)

    def _record(self, time: float, state: tuple) -> TelemetryRecord:
        omega_ref, omega_r, i_ds_cmd, i_qs_cmd, i_ds, i_qs, psi, t_load, mode = state
        t_e, stator, rotor, iron, converter, p_in = self.params.power_terms(
            psi, omega_r, i_ds, i_qs)
        p_out = t_load * omega_r
        return TelemetryRecord(time, omega_ref, omega_r, i_ds_cmd, i_qs_cmd, i_ds, i_qs, psi,
                               t_e, t_load, stator, rotor, iron, converter, p_in, p_out,
                               p_out / p_in if p_in > 0.0 else None, mode)


def _held(changes: list[tuple], field: int, decimation: int, start: int, stop: int):
    """The value of ``field`` of ``changes``, ``(step, ...)`` in step order, at
    each row from ``start`` to ``stop``: a change on step k holds from row
    ``k // decimation`` to the next; of changes on one row the last wins."""
    rows = [max(change[0] // decimation, start) for change in changes]
    rows.append(stop)
    counts = map(sub, rows[1:], rows)
    return chain.from_iterable(map(repeat, [change[field] for change in changes], counts))


@dataclass(frozen=True)
class SimulationResult:
    """Records plus search bookkeeping the report generator needs."""

    records: PackedRecords
    sample_count: int
    converged: bool
    samples_to_convergence: int | None
    convergence_time: float | None


def simulate(
    scenario: Scenario, config: DriveConfig, *, decimation: int | None = None
) -> SimulationResult:
    """Run the full closed loop and collect telemetry."""
    params = config.machine
    settings = config.search
    dt = scenario.dt
    decim = config.telemetry_decimation if decimation is None else decimation
    if decim < 1:
        raise ValueError("decimation must be >= 1")
    step = InductionMachine(params, dt).step
    check_search_speeds(scenario, settings.gains, params.friction)

    flc = scenario.flc_enabled
    kp = config.speed_kp
    ki = config.speed_ki
    i_ds_rated = params.rated_excitation_current
    i_qs_max = params.max_torque_current
    i_qs_min = -i_qs_max
    integrator = 0.0
    tolerance = settings.steady_speed_tolerance
    neg_tolerance = -tolerance
    # a search's own state, built at its entry and dropped at its abandon: the
    # drive mode is "search" exactly when search is not None
    search = comp = None
    # pre-magnetized standstill: rated flux established, shaft at rest
    psi = params.rated_flux
    omega_r = 0.0
    i_ds = i_ds_rated
    i_qs = 0.0
    i_ds_cmd = i_ds_rated

    schedule = iter(scenario.commands)
    _, omega_ref, t_load = next(schedule)
    next_change, ref, load = next(schedule)
    log = [(0, omega_ref, i_ds_cmd, t_load, "transient", None)]  # see PackedRecords

    # every row's slot, allocated once: growing the array row by row makes the
    # allocator copy it on some reallocations, so the peak memory of a long
    # per-step run depended on what earlier allocations left in the heap
    n_steps = scenario.steps
    width = _row_width(params)
    lagged = width == 5
    values = array("d", (0.0,)) * (n_steps // decim * width)
    pack_row = struct.Struct(f"{width}d").pack_into  # native doubles, as in the array
    row_size = width * values.itemsize
    fixed = False  # the last computed step left its state unchanged
    # the supervisor's event step: in the search, the next sample's; in
    # transient, while the speed error stays in the band, the search entry's;
    # else n_steps, past the end, which leaves it unarmed
    event = n_steps

    steps_left = iter(range(n_steps))
    for k in steps_left:
        hold = fixed
        command_changed = False
        if k == next_change:
            command_changed = ref != omega_ref or load != t_load
            # identity, not ==: a held step must see the very same command floats
            hold = fixed and ref is omega_ref and load is t_load
            omega_ref, t_load = ref, load
            next_change, ref, load = next(schedule)
            # at every entry: 0.0 == -0.0, but rows show the scenario's own float
            log.append((k, omega_ref, i_ds_cmd, t_load,
                        "transient" if search is None else "search", None))

        error = omega_ref - omega_r
        sample_due = False
        if flc:
            in_band = neg_tolerance <= error <= tolerance  # abs(error) <= tolerance
            if search is not None:
                if command_changed or not in_band:
                    search = comp = None
                    hold = False
                    event = n_steps
                    i_ds_cmd = i_ds_rated
                    log.append((k, omega_ref, i_ds_cmd, t_load, "transient", None))
                elif k == event:
                    sample_due = True
                    hold = False
            elif command_changed or not in_band:
                event = n_steps
            else:
                if event == n_steps:
                    event = k + settings.steady_steps - 1
                if k == event:
                    search = SearchState()
                    if scenario.compensator_enabled:
                        comp = TorqueCompensator(
                            params, config.flux_source, config.compensation_mode)
                    hold = False
                    log.append((k, omega_ref, i_ds_cmd, t_load, "search", None))
                    samples = scenario.sample_steps(settings.search_period, k)
                    event = next(samples, n_steps)
                    sample_due = k == event

        if hold:
            # Nothing changes before the next command change or supervisor
            # event, as the state and so the speed error stay the same: steps
            # k to stop - 1 end at once. Their rows differ only in time.
            stop = min(next_change, event)
            for row in range(k // decim, stop // decim):
                if lagged:
                    pack_row(values, row * row_size, psi, omega_r, i_qs_cmd, i_ds, i_qs)
                else:
                    pack_row(values, row * row_size, psi, omega_r, i_qs_cmd)
            skip = stop - k - 1  # the loop goes on at step stop
            next(islice(steps_left, skip, skip), None)
            continue

        t = k * dt
        integrator_before = integrator
        # The speed PI; its integrator carries the ki factor (amperes).
        # Conditional anti-windup: the integrator is frozen while the
        # unsaturated output exceeds the limit in the error's own direction,
        # and is clamped to +/- i_qs_max.
        unsaturated = kp * error + integrator
        if unsaturated > i_qs_max:
            iqs_pi = i_qs_max
            windup = error > 0.0
        elif unsaturated < i_qs_min:
            iqs_pi = i_qs_min
            windup = error < 0.0
        else:
            iqs_pi = unsaturated
            windup = False
        if not windup:
            integrator = integrator + ki * error * dt
            if integrator > i_qs_max:
                integrator = i_qs_max
            elif integrator < i_qs_min:
                integrator = i_qs_min
        # i_ds_cmd needs no clamp: it is rated or what search_sample clamped.
        # The same float as min(max(v, i_qs_min), i_qs_max), without the calls.
        i_qs_cmd = iqs_pi + (comp.output(psi, t) if comp is not None else 0.0)
        if i_qs_cmd < i_qs_min:
            i_qs_cmd = i_qs_min
        elif i_qs_cmd > i_qs_max:
            i_qs_cmd = i_qs_max
        if sample_due:
            p_d = params.power_terms(psi, omega_r, i_ds, i_qs)[5]
            i_ds_cmd = search_sample(search, settings, params, p_d, omega_r, i_ds_cmd, i_qs_cmd)
            log.append((k, omega_ref, i_ds_cmd, t_load, "search", search.converged))
            if comp is not None:
                comp.latch(psi, iqs_pi, i_ds_cmd, t)
                # the step runs on the boost from the new anchors
                i_qs_cmd = min(max(iqs_pi + comp.output(psi, t), i_qs_min), i_qs_max)
            event = next(samples, n_steps)

        try:
            new = step(psi, omega_r, i_ds, i_qs, i_ds_cmd, i_qs_cmd, t_load)
        except NonFiniteError as exc:
            raise SimulationDivergedError(
                k, str(exc), psi, omega_r, i_ds, i_qs, i_ds_cmd, i_qs_cmd, t_load
            ) from exc
        # most computed steps change the speed: test it before the whole state;
        # a compensator whose boost moves with t keeps its search from holding
        fixed = new[1] == omega_r and (comp is None or not comp.time_varying) and _repeats(
            (psi, omega_r, i_ds, i_qs, integrator_before), (*new, integrator))
        psi, omega_r, i_ds, i_qs = new

        if (k + 1) % decim == 0:
            if lagged:
                pack_row(values, k // decim * row_size, psi, omega_r, i_qs_cmd, i_ds, i_qs)
            else:
                pack_row(values, k // decim * row_size, psi, omega_r, i_qs_cmd)

    sampled = [change for change in log if change[5] is not None]
    first = next((n for n, change in enumerate(sampled, 1) if change[5]), None)
    return SimulationResult(
        records=PackedRecords(values, log, scenario, decim, params),
        sample_count=len(sampled),
        converged=search is not None and search.converged,
        samples_to_convergence=first,
        convergence_time=None if first is None else sampled[first - 1][0] * dt,
    )


def _repeats(before: tuple[float, ...], after: tuple[float, ...]) -> bool:
    """``after`` is ``before`` bit for bit: equal, and as -0.0 == 0.0, equal
    reprs where a zero is present."""
    return before == after and (0.0 not in after or repr(before) == repr(after))


def write_csv(records: PackedRecords, target) -> None:
    """Write telemetry as CSV to a text file object (anything with ``write``).
    Floats use shortest round-trip formatting, so repeated runs are
    byte-identical."""
    write = target.write
    write(CSV_HEADER + "\n")
    power_terms = records.params.power_terms
    # tuples compare in C; 0.0 == -0.0, but their reprs differ
    shared = None    # the previous row's state after time, mode included
    commands = None  # omega_ref, i_ds_cmd, i_ds and load_torque of the last text
    for time, state in zip(records.times(), records.rows()):
        if not _repeats(shared, state):
            shared = state
            omega_ref, omega_r, i_ds_cmd, i_qs_cmd, i_ds, i_qs, psi, t_load, mode = state
            if (omega_ref, i_ds_cmd, i_ds, t_load) != commands or 0.0 in commands:
                commands = (omega_ref, i_ds_cmd, i_ds, t_load)
                ref_text = repr(omega_ref)
                ids_cmd_text = repr(i_ds_cmd)
                ids_text = repr(i_ds)
                load_text = repr(t_load)
            iqs_cmd_text = repr(i_qs_cmd)  # an equal, nonzero i_qs has the same bits
            iqs_text = iqs_cmd_text if i_qs == i_qs_cmd and i_qs else repr(i_qs)
            t_e, stator, rotor, iron, converter, p_in = power_terms(psi, omega_r, i_ds, i_qs)
            p_out = t_load * omega_r
            eff = repr(p_out / p_in) if p_in > 0.0 else ""
            text = (f",{ref_text},{omega_r!r},{ids_cmd_text},{iqs_cmd_text},{ids_text},"
                    f"{iqs_text},{psi!r},{t_e!r},{load_text},{stator!r},{rotor!r},{iron!r},"
                    f"{converter!r},{p_in!r},{p_out!r},{eff},{mode}\n")
        write(f"{time!r}{text}")
