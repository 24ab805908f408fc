"""Deterministic model of the star network: latency, energy states, sleep.

Devices share no channel and the sink keeps one reference value per device,
so each device runs as its own loop over its samples. Each sample runs the
threshold filter, encodes the residual when transmitted, decodes it at the
sink, and charges the device's energy ledger so the per-state residency
times partition the run duration exactly. Currents are whole-device
currents per state (tx, idle, sleep, cpu), so consumed charge is current
times time summed over states.

The run log merges the devices' events by time. Events at equal times are
ordered by when their devices' previous events were emitted; the first
events follow the scenario's device order.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .bitstream import BitReader, BitString
from .codec import encode_residual
from .control import DeviceState
from .signals import TraceSpec, trace_samples
from .sink import Packet, Sink

MODES = ("CGWC", "CGLL", "CGLS")  # no compression / lossless / lossy

LEDGER_STATES = ("tx", "rx", "idle", "sleep", "cpu")

MS_PER_HOUR = 3_600_000.0


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
    rx_ma: float = 24.0
    idle_ma: float = 8.0
    sleep_ma: float = 0.2
    cpu_active_ma: float = 10.0
    wake_latency_ms: float = 0.0
    battery_mah: float = 400.0

    def __post_init__(self):
        currents = (self.tx_ma, self.rx_ma, self.idle_ma, self.sleep_ma,
                    self.cpu_active_ma)
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
                "rx": self.rx_ma,
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
    """Accumulated time and charge per energy state for one device."""

    def __init__(self, model: RadioEnergyModel):
        self.model = model
        self.time_ms = {state: 0.0 for state in LEDGER_STATES}
        self.charge_mah = {state: 0.0 for state in LEDGER_STATES}

    def charge(self, state: str, duration_ms: float) -> None:
        """Add current(state) x duration to the ledger."""
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
        current = self.model.current_ma(state)
        self.time_ms[state] += duration_ms
        self.charge_mah[state] += current * (duration_ms / MS_PER_HOUR)

    def total_mah(self) -> float:
        return sum(self.charge_mah.values())

    def total_time_ms(self) -> float:
        return sum(self.time_ms.values())

    def average_ma(self) -> float:
        elapsed = self.total_time_ms()
        if elapsed <= 0:
            raise ValueError("ledger holds no elapsed time")
        return self.total_mah() / (elapsed / MS_PER_HOUR)


def lifetime(battery_mah: float, average_current_ma: float) -> float:
    """Battery life in hours at a steady average current draw."""
    if average_current_ma <= 0:
        raise ValueError("average current must be positive")
    return battery_mah / average_current_ma


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

    def validate(self) -> None:
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
            if dev.mode != "CGWC" and spec.adc_bits > 11:
                raise ValueError(
                    f"device {dev.name}: codec covers at most 11-bit readings"
                )
            model = dev.energy or self.energy
            worst_bits = spec.adc_bits if dev.mode == "CGWC" else 20
            busy = dev.cd_ms + model.wake_latency_ms + self.channel.transit_ms(worst_bits)
            if busy > spec.sample_period_ms:
                raise ValueError(
                    f"device {dev.name}: per-sample busy time {busy}ms exceeds "
                    f"the {spec.sample_period_ms}ms sample period"
                )


@dataclass
class SampleEvent:
    """One processed sample; the RunLog holds one of these per sample."""

    device_id: int
    seq: int
    time_ms: float
    value: int
    transmitted: bool
    residual: int | None
    codeword_bits: int
    cd_ms: float
    dtr_ms: float
    dd_ms: float
    arrival_ms: float | None
    reconstructed: int


@dataclass
class DeviceRun:
    """Per-device outcome summary plus its energy ledger breakdown."""

    name: str
    device_id: int
    mode: str
    threshold: int
    sample_period_ms: int
    signal: str
    battery_mah: float
    samples: int = 0
    transmitted: int = 0
    payload_bits: int = 0
    state_time_ms: dict = field(default_factory=dict)
    state_charge_mah: dict = field(default_factory=dict)

    @property
    def suppressed(self) -> int:
        return self.samples - self.transmitted

    def total_mah(self) -> float:
        return sum(self.state_charge_mah.values())


@dataclass
class RunLog:
    """Everything a simulation run produced, in deterministic order."""

    duration_ms: float
    seed: int
    events: list[SampleEvent]
    devices: list[DeviceRun]
    packets: list[tuple[int, int, Packet]]  # (device_id, seq, packet)

    def device(self, device_id: int) -> DeviceRun:
        for dev in self.devices:
            if dev.device_id == device_id:
                return dev
        raise KeyError(f"no device {device_id} in run")

    def summary_dict(self) -> dict:
        return {
            "duration_ms": self.duration_ms,
            "seed": self.seed,
            "devices": [asdict(dev) for dev in self.devices],
        }

    EVENT_FIELDS = (
        "device_id", "seq", "time_ms", "value", "transmitted", "residual",
        "codeword_bits", "cd_ms", "dtr_ms", "dd_ms", "arrival_ms",
        "reconstructed",
    )

    def events_rows(self) -> list[list]:
        rows = []
        for ev in self.events:
            rows.append([
                ev.device_id, ev.seq, ev.time_ms, ev.value,
                int(ev.transmitted),
                "" if ev.residual is None else ev.residual,
                ev.codeword_bits, ev.cd_ms, ev.dtr_ms, ev.dd_ms,
                "" if ev.arrival_ms is None else ev.arrival_ms,
                ev.reconstructed,
            ])
        return rows

    def to_json(self) -> str:
        return json.dumps(self.summary_dict(), indent=2, sort_keys=True)

    @classmethod
    def load(cls, rundir: Path) -> RunLog:
        """Read a run directory back: the inverse of to_json and events_rows.

        Malformed files raise ValueError naming the file and the line or
        device entry at fault. The packets are not read back.
        """
        summary_path = rundir / "runlog.json"
        events_path = rundir / "runlog_events.csv"
        if not events_path.exists() or not summary_path.exists():
            raise FileNotFoundError(f"{rundir} is not a run directory")
        try:
            summary = json.loads(summary_path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{summary_path}: {exc}") from None
        _require_keys(summary, {"duration_ms", "seed", "devices"},
                      str(summary_path))
        if not isinstance(summary["devices"], list):
            raise ValueError(f"{summary_path}: devices is not a list")
        devices = []
        for index, entry in enumerate(summary["devices"]):
            _require_keys(entry, _DEVICE_RUN_KEYS,
                          f"{summary_path}: device {index}")
            devices.append(DeviceRun(**entry))
        device_ids = {dev.device_id for dev in devices}

        events = []
        with events_path.open(newline="") as handle:
            reader = csv.reader(handle)
            if tuple(next(reader, ())) != cls.EVENT_FIELDS:
                raise ValueError(f"{events_path}: unexpected event columns")
            for row in reader:
                try:
                    if len(row) != len(cls.EVENT_FIELDS):
                        raise ValueError(f"{len(row)} cells, expected "
                                         f"{len(cls.EVENT_FIELDS)}")
                    event = SampleEvent(
                        device_id=int(row[0]), seq=int(row[1]),
                        time_ms=float(row[2]), value=int(row[3]),
                        transmitted=bool(int(row[4])),
                        residual=None if row[5] == "" else int(row[5]),
                        codeword_bits=int(row[6]), cd_ms=float(row[7]),
                        dtr_ms=float(row[8]), dd_ms=float(row[9]),
                        arrival_ms=None if row[10] == "" else float(row[10]),
                        reconstructed=int(row[11]),
                    )
                    if event.device_id not in device_ids:
                        raise ValueError(f"device {event.device_id} is not "
                                         f"in {summary_path.name}")
                except ValueError as exc:
                    raise ValueError(
                        f"{events_path}:{reader.line_num}: {exc}") from None
                events.append(event)
        return cls(
            duration_ms=summary["duration_ms"],
            seed=summary["seed"],
            events=events,
            devices=devices,
            packets=[],
        )


_DEVICE_RUN_KEYS = frozenset(fld.name for fld in fields(DeviceRun))


def _require_keys(doc, keys: set | frozenset, where: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: not a JSON object")
    if doc.keys() != keys:
        raise ValueError(
            f"{where}: expected keys {sorted(keys)}, got {sorted(doc)}")


def _device_loop(cfg: DeviceConfig, scenario: Scenario, sink: Sink,
                 run: DeviceRun) -> Iterator[tuple[SampleEvent, Packet | None]]:
    """Run one device over its samples, yielding each finished event.

    Every sample is filtered, encoded, decoded at the sink, checked and
    charged to the device's ledger before its event and packet are yielded.
    Decoding at send time gives the sink state that decoding at arrival
    would, because Scenario.validate lands each arrival before the device's
    next sample and no other device touches its sink reference.
    """
    spec = replace(cfg.trace, duration_s=scenario.duration_s)
    samples = trace_samples(spec)
    model = cfg.energy or scenario.energy
    ledger = EnergyLedger(model)
    sleep = scenario.sleep
    device = None
    if cfg.mode != "CGWC":
        device = DeviceState(
            device_id=cfg.device_id,
            threshold=cfg.threshold,
            suppress_zero=cfg.suppress_zero,
            adc_bits=spec.adc_bits,
        )
        sink.register_device(cfg.device_id)
    can_sleep = sleep.enabled and device is not None
    asleep = False

    for seq, sample in enumerate(samples):
        t_ms = float(sample.timestamp_ms)
        if device is None:
            residual = None
            word = BitString(sample.value, spec.adc_bits)
            cd_ms = 0.0
            reconstructed = sample.value
        else:
            residual = device.process_sample(sample.value)
            word = None if residual is None else encode_residual(residual)
            cd_ms = cfg.cd_ms
            reconstructed = device.last_reading

        packet = None
        wake_ms = dtr_ms = dd_ms = 0.0
        arrival_ms = None
        if word is not None:
            if asleep:
                wake_ms = model.wake_latency_ms
            dtr_ms = scenario.channel.transit_ms(len(word))
            packet = Packet.from_bits(cfg.device_id, word)
            if device is None:
                # Raw payload: no decompression happens at the sink.
                value = BitReader(packet.payload, packet.bit_count).read_uint(
                    spec.adc_bits)
            else:
                value = sink.on_packet(packet)
                dd_ms = cfg.dd_ms
            if value != reconstructed:
                raise RuntimeError(
                    f"sink reconstruction {value} diverged from device-side "
                    f"{reconstructed} (device {cfg.device_id})"
                )
            arrival_ms = t_ms + cd_ms + wake_ms + dtr_ms + dd_ms
            run.payload_bits += len(word)
            run.transmitted += 1
        run.samples += 1

        # Energy: the sample period splits into cpu, wake, tx, and rest.
        asleep = (can_sleep and device.consecutive_suppressed
                  >= sleep.suppressions_before_sleep)
        rest_ms = spec.sample_period_ms - cd_ms - wake_ms - dtr_ms
        ledger.charge("cpu", cd_ms)
        if wake_ms:
            ledger.charge("idle", wake_ms)
        if dtr_ms:
            ledger.charge("tx", dtr_ms)
        ledger.charge("sleep" if asleep else "idle", rest_ms)

        yield SampleEvent(
            device_id=cfg.device_id, seq=seq, time_ms=t_ms,
            value=sample.value, transmitted=word is not None,
            residual=residual, codeword_bits=len(word) if word else 0,
            cd_ms=cd_ms, dtr_ms=dtr_ms, dd_ms=dd_ms, arrival_ms=arrival_ms,
            reconstructed=reconstructed,
        ), packet

    if device is not None:
        held = sink.held_value(cfg.device_id)
        if held != device.last_reading:
            raise RuntimeError(
                f"device {cfg.device_id}: sink reference {held} != "
                f"device memory {device.last_reading}"
            )
    run.state_time_ms = dict(ledger.time_ms)
    run.state_charge_mah = dict(ledger.charge_mah)


def simulate(scenario: Scenario) -> RunLog:
    """Run the scenario to completion and return its RunLog.

    Deterministic: the same scenario (seeds included) produces an identical
    log, event for event.
    """
    scenario.validate()
    sink = Sink()
    runs = [
        DeviceRun(
            name=cfg.name,
            device_id=cfg.device_id,
            mode=cfg.mode,
            threshold=cfg.threshold,
            sample_period_ms=cfg.trace.sample_period_ms,
            signal=getattr(cfg.trace.source, "kind", "file"),
            battery_mah=(cfg.energy or scenario.energy).battery_mah,
        )
        for cfg in scenario.devices
    ]
    # The key's counter is drawn when merge pulls a device's next event,
    # right after that device's previous event is emitted, so equal times
    # keep the order in which their devices' previous events were emitted.
    # Packets are collected here, not in the device loops, because merge
    # runs a device's next sample before that sample's turn comes.
    order = itertools.count()
    merged = heapq.merge(
        *(_device_loop(cfg, scenario, sink, run)
          for cfg, run in zip(scenario.devices, runs)),
        key=lambda item: (item[0].time_ms, next(order)),
    )
    events: list[SampleEvent] = []
    packets: list[tuple[int, int, Packet]] = []
    for event, packet in merged:
        events.append(event)
        if packet is not None:
            packets.append((event.device_id, event.seq, packet))

    return RunLog(
        duration_ms=scenario.duration_s * 1000.0,
        seed=scenario.seed,
        events=events,
        devices=runs,
        packets=packets,
    )
