"""Per-layer call counts and self time, taken from outside the program.

The tracer replaces named functions of fluxseek's modules and classes with
timing wrappers while a traced run executes, and puts the originals back
afterwards. Nothing under ``src/`` is edited. A target that no longer exists
(say, a function a later change inlined) is reported as absent with zero
calls instead of failing the run.

A layer's self time is the time inside its wrapped calls minus the time
inside wrapped calls they make. The wrappers' own cost is measured once
(``calibrate``) and taken out of both the layer and its caller.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time

_clock = time.perf_counter_ns

# layer name -> targets as "module:attribute[.attribute]". A layer with
# several targets sums their time; COUNTED_TARGET names the one whose
# calls count.
SIM_LAYERS = {
    "machine.step": ["fluxseek.machine:InductionMachine.step"],
    "machine.losses": [
        "fluxseek.machine:InductionMachine.electrical_frequency",
        "fluxseek.machine:InductionMachine.compute_losses",
        "fluxseek.machine:InductionMachine.developed_torque",
        "fluxseek.machine:InductionMachine.input_power",
    ],
    "foc.speed_pi_step": ["fluxseek.harness.runner:speed_pi_step"],
    "foc.make_drive_command": ["fluxseek.harness.runner:make_drive_command"],
    "optimizer.update_mode": ["fluxseek.harness.runner:update_mode"],
    "optimizer.advance_sample_timer": ["fluxseek.harness.runner:advance_sample_timer"],
    "optimizer.search_sample": ["fluxseek.harness.runner:search_sample"],
    "fuzzy.efficiency_step": ["fluxseek.optimizer:efficiency_step"],
    "compensator.output": ["fluxseek.compensator:TorqueCompensator.output"],
    "compensator.latch": ["fluxseek.compensator:TorqueCompensator.latch"],
    "compensator.reset": ["fluxseek.compensator:TorqueCompensator.reset"],
    "harness.simulate": [
        "fluxseek.harness.runner:simulate",
        "fluxseek.harness.report:simulate",
    ],
    # CSV writing: one telemetry row per call, or the whole part-load report
    "harness.format_record": [
        "fluxseek.harness.runner:format_record",
        "fluxseek.harness.report:write_report_csv",
    ],
}
COUNTED_TARGET = {"machine.losses": "fluxseek.machine:InductionMachine.compute_losses"}
SETUP_LAYERS = {
    # parse_config is what load_config calls; a nested call of the same layer
    # is part of the outer one.
    "harness.load_config": [
        "fluxseek.harness.config:load_config",
        "fluxseek.harness.config:parse_config",
    ],
}
CHECK_LAYERS = {"harness.oracle_sweep": ["fluxseek.harness.oracle:oracle_sweep"]}


class Layer:
    __slots__ = ("calls", "entries", "elapsed_ns", "child_ns", "overhead_ns", "present")

    def __init__(self):
        self.calls = 0        # counted calls
        self.entries = 0      # wrapped calls of any of the layer's targets
        self.elapsed_ns = 0
        self.child_ns = 0     # time inside wrapped calls this layer made
        self.overhead_ns = 0  # wrapper cost this layer paid for those calls
        self.present = False


def _resolve(target: str):
    """(owner, attribute name, original) or None when the target is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self.absent_targets: list[str] = []
        # frames of the calls in progress: [child_ns, child_overhead_ns, layer]
        self._stack: list[list] = [[0, 0.0, None]]
        self._installed: list[tuple] = []
        # wrapper cost per call: inside the timed window, and outside it (paid
        # by the caller) for wrappers without and with hooks
        self.inside_ns = 0.0
        self.outside_ns = [0.0, 0.0]
        # search supervisor events seen at the call boundaries
        self.abandons = 0
        self.clamped_steps = 0
        self.unobservable: set[str] = set()
        self._requested_step = None

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer()
        return self.layers[name]

    # -- installing ----------------------------------------------------------

    def install(self, layers: dict[str, list[str]]) -> None:
        hooks = {
            "optimizer.update_mode": (self._mode_before, self._mode_after),
            "optimizer.search_sample": (self._sample_before, self._sample_after),
            "fuzzy.efficiency_step": (_no_token, self._step_after),
        }
        for name, targets in layers.items():
            layer = self.layer(name)
            for target in targets:
                resolved = _resolve(target)
                if resolved is None:
                    if target not in self.absent_targets:
                        self.absent_targets.append(target)
                    continue
                owner, attr, original = resolved
                layer.present = True
                counted = COUNTED_TARGET.get(name, target) == target
                wrapper = self._wrap(layer, original, counted, *hooks.get(name, ()))
                self._installed.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, layer: Layer, fn, counted: bool, before=None, after=None):
        stack = self._stack
        outside = self.outside_ns
        hooked = int(before is not None)

        def wrapper(*args, **kwargs):
            if stack[-1][2] is layer:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if hooked else None
            frame = [0, 0.0, layer]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += outside[hooked]
                layer.elapsed_ns += elapsed
                layer.child_ns += frame[0]
                layer.overhead_ns += frame[1]
                layer.entries += 1
                if counted:
                    layer.calls += 1
            if hooked:
                after(token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- wrapper cost ----------------------------------------------------------

    def calibrate(self, n: int = 100_000, repeats: int = 5) -> None:
        """Measure what a wrapped call costs beyond a plain call, split into
        the part inside the timed window and the part the caller pays."""

        def noop(a, b, c):
            return None

        def hook(*args):
            return None

        inside, outside = [], [[], []]
        for hooked in (0, 1):
            probe = Layer()
            wrapped = self._wrap(probe, noop, True, *((hook, hook) if hooked else ()))
            for _ in range(repeats):
                empty, plain = _loop(None, n), _loop(noop, n)
                probe.elapsed_ns = 0
                traced = _loop(wrapped, n)
                inside.append((probe.elapsed_ns - (plain - empty)) / n)
                outside[hooked].append((traced - empty - probe.elapsed_ns) / n)
        self._stack[0][:2] = [0, 0.0]
        self.inside_ns = max(0.0, statistics.median(inside))
        self.outside_ns[:] = [max(0.0, statistics.median(o)) for o in outside]

    def self_ns(self, layer: Layer) -> float:
        """Total self time with the wrappers' own cost taken out."""
        own = layer.elapsed_ns - layer.child_ns - layer.overhead_ns
        return max(0.0, own - layer.entries * self.inside_ns)

    # -- observing the search supervisor --------------------------------------

    def _mode_before(self, args, kwargs):
        return _mode_value(args[0] if args else kwargs.get("state"))

    def _mode_after(self, before, args, kwargs, result):
        if before is None:
            self.unobservable.add("optimizer.abandons")
        elif before == "search" and _mode_value(args[0] if args else kwargs.get("state")) == "transient":
            self.abandons += 1

    def _sample_before(self, args, kwargs):
        self._requested_step = None
        try:
            from fluxseek.harness import runner

            fn = getattr(runner.search_sample, "__wrapped__", runner.search_sample)
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            state = bound["state"]
            token = (bound["settings"], bound["ctrl"], bound["omega_r"], bound["i_ds_cmd"],
                     bound["i_qs_cmd"], state.previous_power is None, state.awaiting_first_step)
        except (AttributeError, KeyError, TypeError):
            self.unobservable.add("optimizer.clamped_steps")
            return None
        return token

    def _sample_after(self, token, args, kwargs, result):
        if token is None:
            return
        settings, ctrl, omega_r, i_ds, i_qs, priming, first = token
        if priming:
            return
        try:
            requested = self._requested_step
            if first:
                requested = -settings.initial_step_fraction * ctrl.output_base(omega_r, i_ds, i_qs)
            raw = i_ds + requested
            lo, hi = ctrl.params.min_excitation_current, ctrl.params.rated_excitation_current
        except (AttributeError, TypeError):
            self.unobservable.add("optimizer.clamped_steps")
            return
        if raw < lo or raw > hi:
            self.clamped_steps += 1

    def _step_after(self, token, args, kwargs, result):
        self._requested_step = result


def _no_token(args, kwargs):
    return None


def _loop(fn, n: int) -> int:
    start = _clock()
    if fn is None:
        for _ in range(n):
            pass
    else:
        for _ in range(n):
            fn(1, 2, 3)
    return _clock() - start


def _mode_value(state):
    mode = getattr(state, "mode", None)
    return getattr(mode, "value", mode)
