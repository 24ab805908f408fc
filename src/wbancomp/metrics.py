"""Evaluation metrics over a RunLog: delays, energy, compression ratio.

Definitions:

    PCR   packet compression ratio, (1 - comp_pkt / orig_pkt) x 100
    CD    compression delay, averaged per transmitted sample
    DD    decompression delay, averaged per delivered packet
    DTR   channel transit delay per packet
    AD    mean of CD + DD + DTR over every transmission of every device
    DEC   device energy consumption, current x time summed over states

Report numbers are serialized at 4 decimal places; the human-readable table
rounds to 2 decimals, half-up.
"""

from __future__ import annotations

from math import isfinite
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .rundir import RunLog

MS_PER_HOUR = 3_600_000.0


def compression_ratio(orig_pkt: int, comp_pkt: int) -> float:
    """Percentage of packets saved relative to an uncompressed stream."""
    if orig_pkt <= 0:
        raise ValueError("orig_pkt must be positive")
    if comp_pkt < 0 or comp_pkt > orig_pkt:
        raise ValueError(f"comp_pkt {comp_pkt} outside [0, {orig_pkt}]")
    return (1.0 - comp_pkt / orig_pkt) * 100.0


def lifetime(battery_mah: float, average_current_ma: float) -> float:
    """Battery life in hours at a steady average current draw."""
    if battery_mah <= 0:
        raise ValueError("battery_mah must be positive")
    if average_current_ma <= 0:
        raise ValueError("average current must be positive")
    return battery_mah / average_current_ma


def average_delay(runlog: RunLog) -> float:
    """Mean CD + DD + DTR over all transmissions of all devices, in ms.

    Adds the devices' delay sums with += in device order, the order of the
    run log's rows, so simulate and a read-back log give the same mean.
    """
    total, count = 0.0, 0
    for sums in runlog.sums.values():
        total += sums.ad_ms
        count += sums.transmitted
    if count == 0:
        raise ValueError("run log holds no transmissions")
    if not isfinite(total):
        raise ValueError("run delay sum is not finite")
    return total / count


def display_round(value: float, places: int = 2) -> float:
    """Round half-up for table display, the way the result tables print."""
    # Imported here: only simulate's table and encode's summary round.
    from decimal import ROUND_HALF_UP, Decimal

    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


class DeviceMetrics(NamedTuple):
    device_id: int
    mode: str
    orig_pkt: int
    comp_pkt: int
    pcr_pct: float
    cd_ms: float
    dd_ms: float
    ad_ms: float
    dec_mah: float
    lifetime_h: float


class RunMetrics(NamedTuple):
    device_count: int
    transmissions: int
    ad_ms: float
    duration_s: float


def compute(runlog: RunLog) -> tuple[list[DeviceMetrics], RunMetrics]:
    """Per-device metrics plus the run-level summary.

    Device values that do not fit together, or that disagree with the
    device's event rows, raise ValueError naming the device by its index in
    runlog.devices.
    """
    if not runlog.devices:
        raise ValueError("run log holds no devices")
    duration_h = runlog.duration_ms / MS_PER_HOUR
    if not duration_h:
        raise ValueError(f"duration_ms {runlog.duration_ms!r}: too short "
                         f"to count in hours")
    out = []
    for index, dev in enumerate(runlog.devices):
        sums = runlog.sums[dev.device_id]
        sent = sums.transmitted
        dec = dev.total_mah()
        try:
            if not sent:
                raise ValueError("transmitted nothing")
            pcr = compression_ratio(dev.samples, dev.transmitted)
            life = lifetime(dev.battery_mah, dec / duration_h)
            if (sums.rows, sent) != (dev.samples, dev.transmitted):
                raise ValueError(
                    f"samples {dev.samples} and transmitted "
                    f"{dev.transmitted}, but the events hold {sums.rows} "
                    f"rows, {sent} transmitted")
            if sums.payload_bits != dev.payload_bits:
                raise ValueError(
                    f"payload_bits {dev.payload_bits}, but the transmitted "
                    f"rows hold {sums.payload_bits} codeword bits")
            # Finite delay cells and charges can add up past the float range.
            if not all(map(isfinite, (sums.cd_ms, sums.dd_ms, sums.ad_ms))):
                raise ValueError("delay sums are not finite")
            if not isfinite(dec):
                raise ValueError("state_charge_mah sum is not finite")
        except ValueError as exc:
            raise ValueError(f"device {index}: {exc}") from None
        cd = sums.cd_ms / sent
        dd = sums.dd_ms / sent
        ad = sums.ad_ms / sent
        out.append(DeviceMetrics(
            device_id=dev.device_id,
            mode=dev.mode,
            orig_pkt=dev.samples,
            comp_pkt=dev.transmitted,
            pcr_pct=pcr,
            cd_ms=cd,
            dd_ms=dd,
            ad_ms=ad,
            dec_mah=dec,
            lifetime_h=life,
        ))
    run = RunMetrics(
        device_count=len(runlog.devices),
        transmissions=sum(m.comp_pkt for m in out),
        ad_ms=average_delay(runlog),
        duration_s=runlog.duration_ms / 1000.0,
    )
    return out, run


# The DeviceMetrics fields declared float, which the documents format.
_FLOAT_FIELDS = frozenset(
    {"pcr_pct", "cd_ms", "dd_ms", "ad_ms", "dec_mah", "lifetime_h"})


def _fields_dict(m: DeviceMetrics, fmt) -> dict:
    """m's fields by name, with fmt applied to those declared float."""
    return {name: fmt(value) if name in _FLOAT_FIELDS else value
            for name, value in zip(m._fields, m)}


def to_csv(devices: list[DeviceMetrics]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, DeviceMetrics._fields,
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(_fields_dict(m, lambda value: f"{value:.4f}")
                     for m in devices)
    return buf.getvalue()


def to_json(devices: list[DeviceMetrics], run: RunMetrics) -> str:
    import json

    doc = {
        "run": {
            "device_count": run.device_count,
            "transmissions": run.transmissions,
            "ad_ms": round(run.ad_ms, 4),
            "duration_s": run.duration_s,
        },
        "devices": [_fields_dict(m, lambda value: round(value, 4))
                    for m in devices],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report(runlog: RunLog, fmt: str = "csv") -> str:
    """Render the full metrics document for a run."""
    devices, run = compute(runlog)
    if fmt == "csv":
        return to_csv(devices)
    if fmt == "json":
        return to_json(devices, run)
    raise ValueError(f"unknown report format {fmt!r}")


def format_table(devices: list[DeviceMetrics], run: RunMetrics) -> str:
    """Human-readable summary, 2-decimal half-up rounding."""
    lines = [
        f"{'device':>6} {'mode':>5} {'orig':>6} {'sent':>6} {'pcr%':>7} "
        f"{'cd_ms':>6} {'dd_ms':>6} {'ad_ms':>7} {'dec_mah':>8} {'life_h':>7}"
    ]
    for m in devices:
        lines.append(
            f"{m.device_id:>6} {m.mode:>5} {m.orig_pkt:>6} {m.comp_pkt:>6} "
            f"{display_round(m.pcr_pct):>7.2f} {display_round(m.cd_ms):>6.2f} "
            f"{display_round(m.dd_ms):>6.2f} {display_round(m.ad_ms):>7.2f} "
            f"{display_round(m.dec_mah):>8.2f} {display_round(m.lifetime_h):>7.2f}"
        )
    lines.append(
        f"run: {run.device_count} devices, {run.transmissions} transmissions, "
        f"AD {display_round(run.ad_ms):.2f} ms over {run.duration_s:g} s"
    )
    return "\n".join(lines)
