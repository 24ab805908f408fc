"""Traced run: per-layer metrics measured in process, from outside the package.

Spans are recorded only here, around calls into each module's public
functions; nothing inside src/ is instrumented. A traced pass

1. calls `cli.main` in process for the workload's two steps and checks their
   output like the closed loop does;
2. replays each layer's public functions on the inputs the run used:
   `trace_samples`, then `DeviceState.process_sample`, then
   `encode_residual` / `Packet.from_bits`, then `Sink.on_packet` and
   `decode_residual`, and `EnergyLedger.charge` with the charges rebuilt
   from the run's events; plus `netmodel.simulate`, `metrics.compute`,
   `metrics.report`, `tracefile.write_trace` / `read_trace` and
   `config.parse_scenario` as whole calls.

Derived layer times are estimates: `netmodel.self_s` is `netmodel.simulate_s`
minus the replayed layers it calls, and the `cli.*_s` times are in-process
`cli.main` time minus one call of each layer it needs. A layer a workload
never calls reports the length of an empty span (the timer floor, a few
microseconds at most) for its times and 0 for its counts.

Passes repeat until --seconds have gone by; each metric is the median over
passes. Peak memory comes from one extra pass under tracemalloc.
"""

from __future__ import annotations

import io
import json
import shutil
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from dataclasses import replace
from pathlib import Path

import harness
import workloads

PER_LAYER_UNITS = {
    "codec.encode_s": "s", "codec.residuals": "count",
    "codec.payload_bits": "bit", "codec.bits_per_residual": "bit",
    "codec.long_share": "ratio", "codec.decode_s": "s",
    "sink.on_packet_s": "s", "sink.packets": "count",
    "control.filter_s": "s", "control.tx_ratio": "ratio",
    "netmodel.simulate_s": "s", "netmodel.self_s": "s",
    "netmodel.events": "count", "netmodel.us_per_event": "us/event",
    "netmodel.ledger_s": "s", "netmodel.peak_mib": "MiB",
    "netmodel.bytes_per_event": "B/event",
    "signals.gen_s": "s", "signals.samples": "count",
    "metrics.compute_s": "s", "cli.write_s": "s", "cli.rundir_bytes": "B",
    "cli.load_s": "s", "tracefile.write_s": "s", "tracefile.read_s": "s",
    "tracefile.bytes": "B", "cli.csv_read_s": "s", "config.parse_s": "s",
    "trace.overhead_pct": "%",
}

# Layer times read straight off one span each.
SPAN_LAYERS = ("codec.encode", "codec.decode", "sink.on_packet", "control.filter",
               "netmodel.simulate", "netmodel.ledger", "signals.gen",
               "metrics.compute", "tracefile.write", "tracefile.read",
               "config.parse")


class Tracer:
    """In-memory spans: name, start, end, parent and workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                  "workload": self.workload}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str, since: int) -> float | None:
        """Summed duration of spans called `name` recorded after index `since`."""
        spans = [s for s in self.spans[since:] if s["name"] == name]
        if not spans:
            return None
        return sum(s["end"] - s["start"] for s in spans)

    def floor(self, name: str) -> float:
        """Length of an empty span: what a layer that did no work reports."""
        with self.span(name):
            pass
        return self.spans[-1]["end"] - self.spans[-1]["start"]


def _quiet_main(cli, argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _cli_step(wb, tracer, checker, tally, out, label, argv) -> None:
    """Run one workload step through `cli.main` in process and check it."""
    with tracer.span(f"cli.main.{label}"):
        code = _quiet_main(wb.cli, argv)
    tally.record(label, checker.check(label, out) if code == 0
                 else [f"exit code {code}"])


def _replay_filter(tracer, devices):
    """Run each (fresh DeviceState, sample values) pair; return the residuals."""
    with tracer.span("control.filter"):
        return [[state.process_sample(v) for v in values]
                for state, values in devices]


def _replay_codec(tracer, wb, streams):
    """Encode each (device_id, residuals) stream, then sink and decode it."""
    packets = []
    with tracer.span("codec.encode"):
        for device_id, residuals in streams:
            packets.append([wb.Packet.from_bits(device_id, wb.encode_residual(r))
                            for r in residuals if r is not None])
    sink = wb.Sink()
    with tracer.span("sink.on_packet"):
        for (device_id, _), stream in zip(streams, packets):
            sink.register_device(device_id)
            for packet in stream:
                sink.on_packet(packet)
    with tracer.span("codec.decode"):
        for stream in packets:
            for packet in stream:
                reader = wb.BitReader(packet.payload, packet.bit_count)
                while reader.remaining:
                    wb.decode_residual(reader)
    return packets, sink


def _codec_counts(streams, packets) -> dict:
    residuals = [r for _, stream in streams for r in stream if r is not None]
    bits = sum(p.bit_count for stream in packets for p in stream)
    return {
        "codec.residuals": len(residuals),
        "codec.payload_bits": bits,
        "codec.bits_per_residual": bits / len(residuals) if residuals else 0.0,
        "codec.long_share": (sum(abs(r) >= 64 for r in residuals) / len(residuals)
                             if residuals else 0.0),
        "sink.packets": sum(len(stream) for stream in packets),
    }


def _ledger_charges(scenario, cfg, runlog_events, filter_states):
    """The charges netmodel made for one device, rebuilt from its events.

    `filter_states` holds (asleep before, asleep after) per sample.
    """
    model = cfg.energy or scenario.energy
    period = cfg.trace.sample_period_ms
    charges = []
    for event, (was_asleep, asleep_after) in zip(runlog_events, filter_states):
        wake = model.wake_latency_ms if event.transmitted and was_asleep else 0.0
        charges.append(("cpu", event.cd_ms))
        if wake:
            charges.append(("idle", wake))
        if event.dtr_ms:
            charges.append(("tx", event.dtr_ms))
        charges.append(("sleep" if asleep_after else "idle",
                        period - event.cd_ms - wake - event.dtr_ms))
    return model, charges


def _sleep_flags(wb, scenario, cfg, values):
    """(asleep before, asleep after) per sample, as netmodel decides them."""
    policy = scenario.sleep
    if cfg.mode == "CGWC" or not policy.enabled:
        return [(False, False)] * len(values)
    state = wb.DeviceState(cfg.device_id, cfg.threshold, cfg.suppress_zero,
                           cfg.trace.adc_bits)
    flags = []
    before = False
    for value in values:
        state.process_sample(value)
        after = state.consecutive_suppressed >= policy.suppressions_before_sleep
        flags.append((before, after))
        before = after
    return flags


def sim_pass(wb, tracer, inputs, out, checker, tally) -> dict:
    """One traced pass of a simulation workload; returns its layer metrics."""
    since = len(tracer.spans)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    with tracer.span("config.parse"):
        scenario = wb.config.parse_scenario(inputs.scenario)
    for label, argv in workloads.steps(inputs, out):
        _cli_step(wb, tracer, checker, tally, out, label, argv)

    with tracer.span("netmodel.simulate"):
        runlog = wb.simulate(scenario)
    with tracer.span("metrics.compute"):
        wb.metrics.compute(runlog)
    with tracer.span("metrics.report"):
        wb.metrics.report(runlog, "json")
    trace = wb.tracefile.PacketTrace(
        samples=max(dev.samples for dev in runlog.devices), adc_bits=0,
        sample_period_ms=0, packets=[(seq, pkt) for _, seq, pkt in runlog.packets])
    with tracer.span("tracefile.write"):
        wb.tracefile.write_trace(out / "replay.trace", trace)

    specs = [(cfg, replace(cfg.trace, duration_s=scenario.duration_s))
             for cfg in scenario.devices]
    with tracer.span("signals.gen"):
        samples = [wb.trace_samples(spec) for _, spec in specs]
    values = [[s.value for s in device] for device in samples]
    filtered = [(cfg, vals) for (cfg, _), vals in zip(specs, values)
                if cfg.mode != "CGWC"]

    residuals = _replay_filter(tracer, [
        (wb.DeviceState(cfg.device_id, cfg.threshold, cfg.suppress_zero,
                        cfg.trace.adc_bits), vals) for cfg, vals in filtered])
    streams = [(cfg.device_id, res) for (cfg, _), res in zip(filtered, residuals)]
    packets, sink = _replay_codec(tracer, wb, streams)

    by_device = {dev.device_id: [] for dev in runlog.devices}
    for event in runlog.events:
        by_device[event.device_id].append(event)
    ledgers = []
    for cfg, vals in zip(scenario.devices, values):
        flags = _sleep_flags(wb, scenario, cfg, vals)
        ledgers.append(_ledger_charges(scenario, cfg, by_device[cfg.device_id], flags))
    with tracer.span("netmodel.ledger"):
        replayed = []
        for model, charges in ledgers:
            ledger = wb.EnergyLedger(model)
            for state, duration in charges:
                ledger.charge(state, duration)
            replayed.append(ledger)

    errors = []
    for dev, ledger in zip(runlog.devices, replayed):
        if ledger.time_ms != dev.state_time_ms:
            errors.append(f"replayed ledger of device {dev.device_id} differs")
    for cfg, _ in filtered:
        if sink.held_value(cfg.device_id) != by_device[cfg.device_id][-1].reconstructed:
            errors.append(f"replayed sink of device {cfg.device_id} differs")
    tally.record("replay", errors)

    total = tracer.total
    filter_samples = sum(len(vals) for _, vals in filtered)
    transmitted = sum(r is not None for res in residuals for r in res)
    events = len(runlog.events) + len(runlog.packets)
    sim_s = total("netmodel.simulate", since)
    child_s = sum(total(name, since) for name in (
        "signals.gen", "control.filter", "codec.encode", "sink.on_packet",
        "netmodel.ledger"))
    rundir = out / "run"
    return {
        **_codec_counts(streams, packets),
        "control.tx_ratio": transmitted / filter_samples if filter_samples else 0.0,
        "netmodel.self_s": sim_s - child_s,
        "netmodel.events": events,
        "netmodel.us_per_event": sim_s / events * 1e6,
        "signals.samples": sum(len(vals) for vals in values),
        "cli.write_s": total("cli.main.simulate", since) - sum(
            total(name, since) for name in (
                "config.parse", "netmodel.simulate", "metrics.compute",
                "tracefile.write")),
        "cli.load_s": total("cli.main.report", since) - total("metrics.report", since),
        "cli.rundir_bytes": sum(p.stat().st_size for p in rundir.iterdir()),
        "tracefile.bytes": (rundir / "packets.trace").stat().st_size,
    }


def codec_pass(wb, tracer, inputs, out, checker, tally) -> dict:
    """One traced pass of codec_roundtrip; returns its layer metrics."""
    since = len(tracer.spans)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    for label, argv in workloads.steps(inputs, out):
        _cli_step(wb, tracer, checker, tally, out, label, argv)

    values = [int(line) for line in inputs.readings.read_text().split()]
    bits = workloads.CODEC_ADC_BITS
    [residuals] = _replay_filter(tracer, [(wb.DeviceState(1, 0, True, bits), values)])
    streams = [(1, residuals)]
    packets, _ = _replay_codec(tracer, wb, streams)
    trace = wb.tracefile.PacketTrace(
        samples=len(values), threshold=0, adc_bits=bits, sample_period_ms=0,
        packets=[(seq, pkt) for seq, pkt in zip(
            (i for i, r in enumerate(residuals) if r is not None), packets[0])])
    replay_path = out / "replay.trace"
    with tracer.span("tracefile.write"):
        wb.tracefile.write_trace(replay_path, trace)
    with tracer.span("tracefile.read"):
        wb.tracefile.read_trace(replay_path)

    total = tracer.total
    transmitted = len(packets[0])
    return {
        **_codec_counts(streams, packets),
        "control.tx_ratio": transmitted / len(values),
        "tracefile.bytes": (out / "packets.trace").stat().st_size,
        "cli.csv_read_s": total("cli.main.encode", since) - sum(
            total(name, since) for name in (
                "control.filter", "codec.encode", "tracefile.write")),
    }


def memory_pass(wb, inputs) -> dict:
    """Peak traced allocation of one `netmodel.simulate` call."""
    scenario = wb.config.parse_scenario(inputs.scenario)
    tracemalloc.start()
    try:
        runlog = wb.simulate(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    events = len(runlog.events) + len(runlog.packets)
    return {"netmodel.peak_mib": peak / 2**20,
            "netmodel.bytes_per_event": peak / events}


def _import_program():
    """The package as the checkout's src/ holds it, with its submodules."""
    sys.path.insert(0, str(harness.SRC))
    import wbancomp
    import wbancomp.cli
    import wbancomp.config
    import wbancomp.metrics
    import wbancomp.tracefile
    return wbancomp


def run(args, inputs, out: Path, record: dict):
    tally = harness.Tally()
    checker = workloads.Checker(inputs)
    # The untraced baseline: one closed-loop round of CLI children.
    baseline = sum(wall for _, wall, _ in harness.run_round(inputs, checker, out, tally))

    wb = _import_program()
    tracer = Tracer(args.workload)
    one_pass = sim_pass if inputs.scenario is not None else codec_pass
    passes = []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        start = len(tracer.spans)
        with tracer.span("pass"):
            layer = one_pass(wb, tracer, inputs, out, checker, tally)
        traced_s = tracer.total("pass", start)
        for name in SPAN_LAYERS:
            busy = tracer.total(name, start)
            if busy is not None:
                layer[f"{name}_s"] = busy
        layer["trace.overhead_pct"] = (traced_s - baseline) / baseline * 100.0
        passes.append(layer)
    if inputs.scenario is not None:
        memory = memory_pass(wb, inputs)
        for layer in passes:
            layer.update(memory)

    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [layer[name] for layer in passes if name in layer]
        if values:
            value = statistics.median(values)
        elif unit == "s":
            value = tracer.floor(name[:-2])
        else:
            value = 0
        metrics[name] = {"value": value, "unit": unit}

    spans_path = harness.WORK / f"spans-{args.workload}-s{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.spans) + "\n")
    record.update(passes=len(passes), untraced_round_s=baseline,
                  counts=checker.counts, spans=spans_path.name)
    print(f"{args.workload} seed {args.seed}: traced, {len(passes)} passes "
          f"in {args.seconds} s (medians; self and cli times are estimates)")
    for name, metric in metrics.items():
        print(f"  {name:<26} {metric['value']:.6g} {metric['unit']}")
    return metrics, tally
