"""Deterministic model of the star network: latency, energy states, sleep.

Devices share no channel and the sink keeps one reference value per device,
so each device runs as its own loop, which owns the device's filter, and
keeps its energy ledger and delay sums in locals. The loop steps from one
transmitted sample to the next: it encodes the residual, charges the ledger
so the per-state times partition the run duration exactly, folds the row
into the delay sums, and appends the row as its runlog_events.csv line; the
suppressed samples in between are charged and appended as one stretch.
Currents are whole-device currents per state (tx, idle, sleep, cpu), so
charge is current times time summed over states.

Each device runs to completion before the next, in scenario order, so the
run log's rows and packets are grouped by device in scenario order, and by
seq within a device. What depends on one value only, a period's row time
cells or a whole-run sum of a repeated ledger step, is worked out once per
run and shared by the devices with that value. A packet is its
packets.trace row, built as text from the codec's trace cells. The run
log's records and files are rundir's.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain, repeat
from operator import add

from .codec import (MAX_CODEWORD_BITS, MAX_GROUP, codeword_bytes,
                    codeword_cells)
from .control import DeviceState
from .metrics import MS_PER_HOUR, lifetime  # lifetime: read from here too
from .rundir import DelaySums, DeviceRun, RunLog
from .signals import TraceSpec, trace_codes

MODES = ("CGWC", "CGLL", "CGLS")  # no compression / lossless / lossy

LEDGER_STATES = ("tx", "idle", "sleep", "cpu")


@dataclass(frozen=True)
class ChannelModel:
    """Per-packet transit delay: base latency plus an optional per-bit term."""

    base_latency_ms: float = 49.0
    per_bit_delay_ms: float = 0.0

    def __post_init__(self):
        if self.base_latency_ms < 0 or self.per_bit_delay_ms < 0:
            raise ValueError("channel delays must be non-negative")

    def transit_ms(self, bit_count: int) -> float:
        return self.base_latency_ms + self.per_bit_delay_ms * bit_count


@dataclass(frozen=True)
class RadioEnergyModel:
    """Whole-device current per radio/CPU state, plus the battery size."""

    tx_ma: float = 24.0
    idle_ma: float = 8.0
    sleep_ma: float = 0.2
    cpu_active_ma: float = 10.0
    wake_latency_ms: float = 0.0
    battery_mah: float = 400.0

    def __post_init__(self):
        currents = (self.tx_ma, self.idle_ma, self.sleep_ma, self.cpu_active_ma)
        if any(c < 0 for c in currents):
            raise ValueError("currents must be non-negative")
        if not self.sleep_ma < self.idle_ma < self.tx_ma:
            raise ValueError("expected sleep_ma < idle_ma < tx_ma")
        if self.wake_latency_ms < 0:
            raise ValueError("wake_latency_ms must be non-negative")
        if self.battery_mah <= 0:
            raise ValueError("battery_mah must be positive")

    def current_ma(self, state: str) -> float:
        try:
            return {
                "tx": self.tx_ma,
                "idle": self.idle_ma,
                "sleep": self.sleep_ma,
                "cpu": self.cpu_active_ma,
            }[state]
        except KeyError:
            raise ValueError(f"unknown energy state {state!r}") from None


@dataclass(frozen=True)
class SleepPolicy:
    """Radio sleeps once a device suppresses this many samples in a row."""

    enabled: bool = False
    suppressions_before_sleep: int = 2

    def __post_init__(self):
        if self.suppressions_before_sleep < 1:
            raise ValueError("suppressions_before_sleep must be at least 1")


class EnergyLedger:
    """Accumulated time and charge per energy state for one device.

    The device loop adds the same sums in locals, in the same order, so
    replaying a run's charges through this class gives its ledger exactly.
    """

    def __init__(self, model: RadioEnergyModel):
        self.model = model
        self.time_ms = {state: 0.0 for state in LEDGER_STATES}
        self.charge_mah = {state: 0.0 for state in LEDGER_STATES}
        self._current_ma = {state: model.current_ma(state)
                            for state in LEDGER_STATES}

    def charge(self, state: str, duration_ms: float) -> None:
        """Add current(state) x duration to the ledger."""
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        current = self._current_ma.get(state)
        if current is None:
            current = self.model.current_ma(state)  # raises: unknown state
        self.time_ms[state] += duration_ms
        self.charge_mah[state] += current * (duration_ms / MS_PER_HOUR)


@dataclass(frozen=True)
class DeviceConfig:
    """One wearable device in a scenario."""

    name: str
    device_id: int
    mode: str
    trace: TraceSpec
    threshold: int = 0
    cd_ms: float = 1.0
    dd_ms: float = 1.0
    suppress_zero: bool = True
    energy: RadioEnergyModel | None = None  # overrides the scenario model

    def __post_init__(self):
        if not 0 <= self.device_id <= 255:
            raise ValueError(f"device_id {self.device_id} outside [0, 255]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.cd_ms < 0 or self.dd_ms < 0:
            raise ValueError("cd_ms and dd_ms must be non-negative")


@dataclass(frozen=True)
class Scenario:
    """Full simulation input: devices, channel, energy model, sleep policy."""

    duration_s: float
    devices: tuple[DeviceConfig, ...]
    channel: ChannelModel = ChannelModel()
    energy: RadioEnergyModel = RadioEnergyModel()
    sleep: SleepPolicy = SleepPolicy()
    seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.devices:
            raise ValueError("scenario needs at least one device")
        ids = [d.device_id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ValueError(f"device ids are not unique: {ids}")
        for dev in self.devices:
            spec = dev.trace
            if spec.duration_s is not None and spec.duration_s != self.duration_s:
                raise ValueError(
                    f"device {dev.name}: trace duration differs from scenario"
                )
            try:
                count = replace(spec, duration_s=self.duration_s).sample_count()
            except ValueError as exc:
                raise ValueError(f"device {dev.name}: {exc}") from None
            if count < 1:
                raise ValueError(f"device {dev.name}: no samples in duration")
            if dev.mode == "CGLL" and dev.threshold != 0:
                raise ValueError(f"device {dev.name}: CGLL requires threshold 0")
            if dev.mode == "CGLS" and dev.threshold < 1:
                raise ValueError(f"device {dev.name}: CGLS requires threshold >= 1")
            if dev.mode != "CGWC" and spec.adc_bits > MAX_GROUP:
                raise ValueError(f"device {dev.name}: codec covers at most "
                                 f"{MAX_GROUP}-bit readings")
            model = dev.energy or self.energy
            coded = dev.mode != "CGWC"
            # The loop's rest after a send, in its order and with the largest
            # terms it can charge: a raw device spends no cpu time, and only
            # a coded device that sleeps wakes. As float subtraction is
            # monotone, no run that passes charges a negative rest.
            transit_ms = self.channel.transit_ms(
                MAX_CODEWORD_BITS if coded else spec.adc_bits)
            cd_ms = dev.cd_ms if coded else 0.0
            wake_ms = (model.wake_latency_ms if coded and self.sleep.enabled
                       else 0.0)
            rest_ms = spec.sample_period_ms - cd_ms - wake_ms - transit_ms
            if rest_ms < 0:
                raise ValueError(
                    f"device {dev.name}: per-sample busy time leaves a rest "
                    f"of {rest_ms!r}ms of the {spec.sample_period_ms}ms "
                    f"sample period"
                )


class _SharedWork:
    """Work that depends on one value only, done once per run and shared by
    every device with that value."""

    def __init__(self):
        self._stamps: dict[float, list[str]] = {}
        # By addend d: the term counts n summed so far, ascending, and sums.
        self._sums: dict[float, tuple[list[int], list[float]]] = {}

    def stamps(self, period: float, samples: int) -> list[str]:
        """The seq and time_ms cells, `seq,t_ms,`, of samples 0 to
        samples - 1 at period. An int period and an equal float one share
        them: each cell rounds the exact product seq * period once."""
        stamps = self._stamps.setdefault(period, [])
        stamps += [f"{seq},{float(seq * period)!r},"
                   for seq in range(len(stamps), samples)]
        return stamps

    def repeated_sum(self, d: float, n: int) -> float:
        """reduce(add, repeat(d, n), 0.0), continued from the largest sum of
        d already worked out to at most n terms: the same additions in the
        same order, so the same float. An int d and an equal float, or -0.0
        and 0.0, share their sums, as adding either to a float sum that
        starts at 0.0 gives the same float."""
        counts, sums = self._sums.setdefault(d, ([0], [0.0]))
        at = bisect_right(counts, n)
        if counts[at - 1] == n:
            return sums[at - 1]
        total = reduce(add, repeat(d, n - counts[at - 1]), sums[at - 1])
        counts.insert(at, n)
        sums.insert(at, total)
        return total


def _device_loop(cfg: DeviceConfig, scenario: Scenario, rows: list[str],
                 packet_rows: list[str], shared: _SharedWork
                 ) -> tuple[DeviceRun, DelaySums]:
    """Run one device over its samples, appending its rows and packet rows.

    The filter yields only the samples it sends. Each sent sample is
    encoded, charged to its ledger, folded into its delay sums and appended
    to `rows` as its events-file line, and its packet goes to `packet_rows`
    as its packets.trace line. The suppressed stretch before it, and the one
    that ends the run, is charged and rendered whole: its rows all hold the
    last sent reading, and its first suppressions_before_sleep - 1 samples
    idle while the rest sleep. Without the filter (CGWC) every sample is sent
    raw, one step each.
    Scenario checks that each sample's busy time leaves a non-negative
    rest of its period, so none is charged below zero.
    The ledger is EnergyLedger's arithmetic in locals: each state's time and
    charge add `d` and `current * (d / MS_PER_HOUR)` in sample order. Equal
    additions in a row (cpu on every sample, sleep on every slept one, idle
    through a stretch) are one reduce(add, repeat(d, n), total), which adds
    left to right as n `+=` would; sum() would not, as it compensates float
    rounding from Python 3.12 on. The whole-run cpu and sleep sums start
    from 0.0, so `shared` continues each from the last device's sum of the
    same addend, and hands out each period's row time cells.
    """
    spec = replace(cfg.trace, duration_s=scenario.duration_s)
    codes, _ = trace_codes(spec)
    samples = len(codes)
    period = spec.sample_period_ms
    stamps = shared.stamps(period, samples)
    model = cfg.energy or scenario.energy
    transit_ms = scenario.channel.transit_ms
    device = None
    # (seq, residual cell) of each sent sample: CGWC's cell is blank.
    sends = zip(range(samples), repeat(""))
    if cfg.mode != "CGWC":
        device = DeviceState(
            device_id=cfg.device_id,
            threshold=cfg.threshold,
            suppress_zero=cfg.suppress_zero,
            adc_bits=spec.adc_bits,
        )
        sends = device.transmits(codes)
    # A stretch's samples that idle before the radio sleeps: all of them
    # when it cannot sleep.
    awake_quiet = samples
    if scenario.sleep.enabled and device is not None:
        awake_quiet = scenario.sleep.suppressions_before_sleep - 1
    # A raw reading travels as adc_bits bits, zero-padded to whole bytes,
    # and costs no compression or decompression delay.
    raw_bytes = (spec.adc_bits + 7) // 8
    raw_pad = 8 * raw_bytes - spec.adc_bits
    raw_hex = f"0{2 * raw_bytes}x"
    cd_ms, dd_ms = (0.0, 0.0) if device is None else (cfg.cd_ms, cfg.dd_ms)
    # Row cells as csv.writer writes them: repr for floats, blank for None.
    # Caches are keyed by int only: -0.0 == 0.0, and each writes its own repr.
    head = f"{cfg.device_id},"
    cd_cell, dd_cell = repr(cd_ms), repr(dd_ms)

    def sent_cells(bits: int) -> tuple[str, int, float, str]:
        """A packet's bit_count cell and bits, transit time and dtr cell."""
        dtr_ms = transit_ms(bits)
        return str(bits), bits, dtr_ms, repr(dtr_ms)

    raw_sent = sent_cells(spec.adc_bits)
    # By residual: its codeword's trace cells, then sent_cells of its bits.
    codewords: dict[int, tuple[str, str, int, float, str]] = {}

    tx_ma, idle_ma = model.tx_ma, model.idle_ma
    # A suppressed sample spends its period as cpu time, then rest.
    quiet_rest_ms = period - cd_ms
    quiet_idle_mah = idle_ma * (quiet_rest_ms / MS_PER_HOUR)
    tx_ms = idle_ms = tx_mah = idle_mah = 0.0
    slept = sent = payload_bits = 0
    cd_sum = dd_sum = ad_sum = 0.0
    quiet_from = reconstructed = 0

    # The end of the run closes the last stretch, as a sent sample would.
    for seq, residual in chain(sends, ((samples, None),)):
        quiet = seq - quiet_from
        if quiet:
            awake = min(quiet, awake_quiet)
            idle_ms = reduce(add, repeat(quiet_rest_ms, awake), idle_ms)
            idle_mah = reduce(add, repeat(quiet_idle_mah, awake), idle_mah)
            slept += quiet - awake
            tail = f",0,,0,{cd_cell},0.0,0.0,,{reconstructed}\n"
            rows += [f"{head}{stamp}{code}{tail}" for stamp, code in
                     zip(stamps[quiet_from:seq], codes[quiet_from:seq])]
        if seq == samples:
            break
        quiet_from = seq + 1
        reconstructed = code = codes[seq]
        t_ms = float(seq * period)
        if device is None:
            bit_count, bits, dtr_ms, dtr_cell = raw_sent
            cells = f"{bit_count},{format(code << raw_pad, raw_hex)}"
        else:
            known = codewords.get(residual)
            if known is None:
                known = codewords[residual] = (
                    codeword_cells(residual),
                    *sent_cells(codeword_bytes(residual)[0]))
            cells, bit_count, bits, dtr_ms, dtr_cell = known
        # A stretch long enough to put the radio to sleep ends in a wake.
        wake_ms = model.wake_latency_ms if quiet > awake_quiet else 0.0
        packet_rows.append(f"{seq},{head}{cells}\n")
        arrival_ms = t_ms + cd_ms + wake_ms + dtr_ms + dd_ms
        sent += 1
        payload_bits += bits
        cd_sum += cd_ms
        dd_sum += dd_ms
        ad_sum += cd_ms + dd_ms + dtr_ms

        # Energy: the sample period splits into cpu, wake, tx, and rest. A
        # sent sample ends the quiet run, so the radio idles through the rest.
        rest_ms = period - cd_ms - wake_ms - dtr_ms
        if wake_ms:
            idle_ms += wake_ms
            idle_mah += idle_ma * (wake_ms / MS_PER_HOUR)
        if dtr_ms:
            tx_ms += dtr_ms
            tx_mah += tx_ma * (dtr_ms / MS_PER_HOUR)
        idle_ms += rest_ms
        idle_mah += idle_ma * (rest_ms / MS_PER_HOUR)
        rows.append(f"{head}{stamps[seq]}{code},1,{residual},{bit_count},"
                    f"{cd_cell},{dtr_cell},{dd_cell},{arrival_ms!r},"
                    f"{reconstructed}\n")

    cpu_step_mah = model.cpu_active_ma * (cd_ms / MS_PER_HOUR)
    quiet_sleep_mah = model.sleep_ma * (quiet_rest_ms / MS_PER_HOUR)
    sums = DelaySums(rows=samples, transmitted=sent, cd_ms=cd_sum,
                     dd_ms=dd_sum, ad_ms=ad_sum, payload_bits=payload_bits)
    run = DeviceRun(
        name=cfg.name, device_id=cfg.device_id, mode=cfg.mode,
        threshold=cfg.threshold, sample_period_ms=period,
        signal=getattr(cfg.trace.source, "kind", "file"),
        battery_mah=model.battery_mah, samples=samples,
        transmitted=sent, payload_bits=payload_bits,
        state_time_ms={
            "tx": tx_ms, "idle": idle_ms,
            "sleep": shared.repeated_sum(quiet_rest_ms, slept),
            "cpu": shared.repeated_sum(cd_ms, samples)},
        state_charge_mah={
            "tx": tx_mah, "idle": idle_mah,
            "sleep": shared.repeated_sum(quiet_sleep_mah, slept),
            "cpu": shared.repeated_sum(cpu_step_mah, samples)})
    return run, sums


def simulate(scenario: Scenario) -> RunLog:
    """Run the scenario to completion and return its RunLog.

    Deterministic: the same scenario (seeds included) produces an identical
    log, event for event.
    """
    devices: list[DeviceRun] = []
    sums: dict[int, DelaySums] = {}
    rows: list[str] = []
    packet_rows: list[str] = []
    shared = _SharedWork()
    for cfg in scenario.devices:
        run, sums[cfg.device_id] = _device_loop(cfg, scenario, rows,
                                                packet_rows, shared)
        devices.append(run)
    return RunLog(duration_ms=scenario.duration_s * 1000.0,
                  seed=scenario.seed, devices=devices, sums=sums,
                  rows=rows, packet_rows=packet_rows)
