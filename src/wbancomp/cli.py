"""Command-line front end: encode, decode, signals dump, simulate, report.

Exit codes: 0 success, 1 usage error, 2 data error. All commands are
deterministic given their inputs and seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import config, metrics, tracefile
from .codec import CodecError, encode_residual
from .control import DeviceState
from .netmodel import RunLog, simulate
from .signals import (SYNTH_KINDS, FileSource, SyntheticSource, TraceSpec,
                      load_trace, read_column, synth_samples)
from .sink import Packet, Sink

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wbancomp",
                     description="Threshold-delta residual codec and "
                                 "sensor-to-sink pipeline simulator.")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the run seed where one applies")
    parser.add_argument("--out", default=None, help="output file or directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="report format (default csv)")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="compress a CSV of ADC readings "
                                        "into a packet trace")
    enc.add_argument("input", help="CSV file of integer readings")
    enc.add_argument("--threshold", type=int, default=0,
                     help="suppression threshold (0 = lossless)")
    enc.add_argument("--column", type=int, default=0, help="value column index")
    enc.add_argument("--device-id", type=int, default=1)
    enc.add_argument("--adc-bits", type=int, default=10)
    enc.add_argument("--sample-period-ms", type=int, default=0,
                     help="recorded in the trace header for decode timing")
    enc.add_argument("--transmit-zeros", action="store_true",
                     help="at threshold 0, send zero deltas instead of "
                          "suppressing them")

    dec = sub.add_parser("decode", help="rebuild the reading sequence from "
                                        "a packet trace")
    dec.add_argument("input", help="packet trace file")

    sig = sub.add_parser("signals", help="signal utilities")
    sigsub = sig.add_subparsers(dest="signals_command", required=True)
    dump = sigsub.add_parser("dump", help="emit a quantized trace as CSV")
    src = dump.add_mutually_exclusive_group(required=True)
    src.add_argument("--kind", choices=SYNTH_KINDS, help="synthetic signal")
    src.add_argument("--file", help="CSV trace to quantize")
    dump.add_argument("--column", type=int, default=0)
    dump.add_argument("--samples", type=int, default=120)
    dump.add_argument("--period-ms", type=int, default=1000)
    dump.add_argument("--adc-bits", type=int, default=10)
    dump.add_argument("--range", dest="adc_range", default=None,
                      help="physical range as 'min,max' (file traces)")

    sim = sub.add_parser("simulate", help="run a scenario file")
    sim.add_argument("scenario", help="scenario config file")

    rep = sub.add_parser("report", help="re-render metrics from a run "
                                        "directory")
    rep.add_argument("rundir", help="directory written by simulate")

    return parser


def cmd_encode(args) -> int:
    if args.out is None:
        raise UsageError("encode requires --out for the packet trace")
    codes = []
    for lineno, code in read_column(Path(args.input), args.column, int):
        if not 0 <= code < 1 << args.adc_bits:
            raise ValueError(f"{args.input}:{lineno}: reading {code} outside "
                             f"{args.adc_bits}-bit range")
        codes.append(code)
    state = DeviceState(
        device_id=args.device_id,
        threshold=args.threshold,
        suppress_zero=not args.transmit_zeros,
        adc_bits=args.adc_bits,
    )
    trace = tracefile.PacketTrace(
        samples=len(codes),
        threshold=args.threshold,
        adc_bits=args.adc_bits,
        sample_period_ms=args.sample_period_ms,
    )
    for seq, code in enumerate(codes):
        residual = state.process_sample(code)
        if residual is None:
            continue
        packet = Packet.from_bits(args.device_id, encode_residual(residual))
        trace.packets.append((seq, packet))
    tracefile.write_trace(args.out, trace)
    ratio = metrics.compression_ratio(len(codes), len(trace.packets))
    print(f"original={len(codes)} transmitted={len(trace.packets)} "
          f"pcr={metrics.display_round(ratio):.2f}%")
    return EXIT_OK


def cmd_decode(args) -> int:
    trace = tracefile.read_trace(args.input)
    sink = Sink()
    by_seq: dict[int, list[Packet]] = {}
    device_ids: list[int] = []
    for seq, packet in trace.packets:
        if packet.device_id not in device_ids:
            device_ids.append(packet.device_id)
            sink.register_device(packet.device_id)
        by_seq.setdefault(seq, []).append(packet)
    if len(device_ids) > 1:
        raise ValueError(
            f"{args.input}: trace holds {len(device_ids)} devices; decode "
            f"expects a single-device trace")
    if not device_ids:
        raise ValueError(f"{args.input}: trace holds no packets")
    device_id = device_ids[0]

    lines = []
    for seq in range(trace.samples):
        for index, packet in enumerate(by_seq.get(seq, [])):
            try:
                sink.on_packet(packet)
            except (CodecError, ValueError) as exc:
                raise ValueError(
                    f"{args.input}: packet at sample {seq}: {exc}") from None
        lines.append(str(sink.held_value(device_id)))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_signals_dump(args) -> int:
    if args.kind:
        spec = TraceSpec(
            source=SyntheticSource(kind=args.kind,
                                   seed=args.seed if args.seed is not None else 0),
            sample_period_ms=args.period_ms,
            duration_s=args.samples * args.period_ms / 1000.0,
            adc_bits=args.adc_bits,
        )
        samples = synth_samples(spec)
        clamps = 0
    else:
        if args.adc_range is None:
            raise UsageError("--file requires --range min,max")
        parts = args.adc_range.split(",")
        if len(parts) != 2:
            raise UsageError("--range expects 'min,max'")
        spec = TraceSpec(
            source=FileSource(path=args.file, value_column=args.column),
            sample_period_ms=args.period_ms,
            duration_s=None,
            adc_bits=args.adc_bits,
            adc_range=(float(parts[0]), float(parts[1])),
        )
        load = load_trace(spec)
        samples, clamps = load.samples, load.clamp_count
    lines = ["timestamp_ms,code"]
    lines.extend(f"{s.timestamp_ms},{s.value}" for s in samples)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if clamps:
        print(f"warning: {clamps} readings clamped to the ADC range",
              file=sys.stderr)
    return EXIT_OK


def _write_run_outputs(outdir: Path, runlog: RunLog) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / "runlog_events.csv").open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RunLog.EVENT_FIELDS)
        writer.writerows(runlog.events_rows())
    (outdir / "runlog.json").write_text(runlog.to_json() + "\n")
    devices, run = metrics.compute(runlog)
    (outdir / "metrics.csv").write_text(metrics.to_csv(devices))
    (outdir / "metrics.json").write_text(metrics.to_json(devices, run) + "\n")
    packet_trace = tracefile.PacketTrace(
        samples=max(dev.samples for dev in runlog.devices),
        adc_bits=0,
        sample_period_ms=0,
    )
    packet_trace.packets = [(seq, pkt) for _, seq, pkt in runlog.packets]
    tracefile.write_trace(outdir / "packets.trace", packet_trace)


def cmd_simulate(args) -> int:
    scenario = config.parse_scenario(args.scenario, seed_override=args.seed)
    runlog = simulate(scenario)
    devices, run = metrics.compute(runlog)
    print(metrics.format_table(devices, run))
    if args.out:
        _write_run_outputs(Path(args.out), runlog)
    return EXIT_OK


def cmd_report(args) -> int:
    text = metrics.report(RunLog.load(Path(args.rundir)), args.format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "encode": cmd_encode,
    "decode": cmd_decode,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "signals":
            return cmd_signals_dump(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, ValueError, CodecError,
            config.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
