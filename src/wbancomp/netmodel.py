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
log's records and files are rundir's, and the scenario's records config's.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace
from functools import reduce
from itertools import chain, repeat
from operator import add

from .codec import codeword_cells
# SleepPolicy and lifetime: read from here too.
from .config import DeviceConfig, RadioEnergyModel, Scenario, SleepPolicy
from .control import DeviceState
from .metrics import MS_PER_HOUR, lifetime
from .rundir import DelaySums, DeviceRun, RunLog
from .signals import trace_codes

LEDGER_STATES = ("tx", "idle", "sleep", "cpu")


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
                cells = codeword_cells(residual)
                known = codewords[residual] = (
                    cells, *sent_cells(int(cells.partition(",")[0])))
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
