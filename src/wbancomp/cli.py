"""Command-line front end: encode, decode, signals dump, simulate, report.

Exit codes: 0 success, 1 usage error, 2 data error: any OSError or
ValueError, mapped only in main. Data errors are plain ValueErrors whose
messages locate the fault; the package defines no error class but
UsageError. All commands are deterministic given their inputs and seed.
Each command imports the modules it runs when it runs, so decode loads
neither the simulator nor the signal generators.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import MAX_ADC_BITS, SYNTH_KINDS

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
    enc.set_defaults(run=cmd_encode)

    dec = sub.add_parser("decode", help="rebuild the reading sequence from "
                                        "a packet trace")
    dec.add_argument("input", help="packet trace file")
    dec.set_defaults(run=cmd_decode)

    sig = sub.add_parser("signals", help="signal utilities")
    sigsub = sig.add_subparsers(dest="signals_command", required=True)
    dump = sigsub.add_parser("dump", help="emit a quantized trace as CSV")
    src = dump.add_mutually_exclusive_group(required=True)
    src.add_argument("--kind", choices=SYNTH_KINDS, help="synthetic signal")
    src.add_argument("--file", help="CSV trace to quantize")
    dump.add_argument("--column", type=int, default=None,
                      help="value column index (file traces, default 0)")
    dump.add_argument("--samples", type=int, default=None,
                      help="synthetic samples (--kind only, default 120)")
    dump.add_argument("--period-ms", type=int, default=1000)
    dump.add_argument("--adc-bits", type=int, default=10)
    dump.add_argument("--range", dest="adc_range", default=None,
                      help="physical range as 'min,max' (file traces)")
    dump.set_defaults(run=cmd_signals_dump)

    sim = sub.add_parser("simulate", help="run a scenario file")
    sim.add_argument("scenario", help="scenario config file")
    sim.set_defaults(run=cmd_simulate)

    rep = sub.add_parser("report", help="re-render metrics from a run "
                                        "directory")
    rep.add_argument("rundir", help="directory written by simulate")
    rep.set_defaults(run=cmd_report)

    return parser


def _check_column(column: int) -> None:
    # A negative index would read a row from the right.
    if column < 0:
        raise UsageError(f"--column {column}: must be non-negative")


def _write_out(args, text: str) -> None:
    """Write a command's text output to --out, or to stdout without it."""
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_encode(args) -> int:
    """Compress one CSV column of ADC readings into a packet trace at --out,
    and print the reading and packet counts.

    read_column reads the file once, a column at a time when csv.reader
    would split it at newlines and commas alone. Each block of readings is
    range-checked with min and max, and the line of its first bad reading
    is looked up only when that check fails. Each transmitted residual's
    row indexes the codeword cells table directly: readings of at most
    MAX_GROUP bits keep every residual inside it.
    """
    from . import metrics, tracefile
    from .codec import MAX_GROUP, RESIDUAL_MIN, _codeword_cells
    from .control import DeviceState

    if args.out is None:
        raise UsageError("encode requires --out for the packet trace")
    if not 1 <= args.adc_bits <= MAX_GROUP:
        raise UsageError(f"--adc-bits {args.adc_bits} outside [1, {MAX_GROUP}]: "
                         f"the codec covers at most {MAX_GROUP}-bit readings")
    if args.threshold < 0:
        raise UsageError(f"--threshold {args.threshold}: must be non-negative")
    if not 0 <= args.device_id <= 255:
        raise UsageError(f"--device-id {args.device_id} outside [0, 255]")
    if args.sample_period_ms < 0:
        raise UsageError(f"--sample-period-ms {args.sample_period_ms}: "
                         f"must be non-negative")
    _check_column(args.column)
    state = DeviceState(
        device_id=args.device_id,
        threshold=args.threshold,
        suppress_zero=not args.transmit_zeros,
        adc_bits=args.adc_bits,
    )
    # read_column yields at least one reading or raises, and yields the
    # readings before a fault first, so checking each block names the first
    # fault in file order.
    codes: list[int] = []
    top = 1 << args.adc_bits
    for numbers, block in tracefile.read_column(Path(args.input), args.column,
                                                int):
        if min(block) < 0 or max(block) >= top:
            index = next(index for index, code in enumerate(block)
                         if not 0 <= code < top)
            raise ValueError(f"{args.input}:{numbers[index]}: reading "
                             f"{block[index]} outside {args.adc_bits}-bit "
                             f"range")
        codes += block
    # Each packet is its trace row's text.
    cells = _codeword_cells()
    device_cell = f",{args.device_id},"
    rows = [f"{seq}{device_cell}{cells[residual - RESIDUAL_MIN]}\n"
            for seq, residual in state.transmits(codes)]
    trace = tracefile.PacketTrace(
        samples=len(codes),
        threshold=args.threshold,
        adc_bits=args.adc_bits,
        sample_period_ms=args.sample_period_ms,
    )
    tracefile.write_rows(args.out, trace, rows)
    ratio = metrics.compression_ratio(trace.samples, len(rows))
    print(f"original={trace.samples} transmitted={len(rows)} "
          f"pcr={metrics.display_round(ratio):.2f}%")
    return EXIT_OK


def cmd_decode(args) -> int:
    """Write the reading of every sample of a single-device packet trace,
    one per line, to --out or stdout.

    Every row is checked first, in file order, as read_trace checks it, but
    a row whose cells are an encoder codeword builds no Packet: its residual
    is one lookup. The rows then fold in stable seq order, sorted only when
    the file's seqs are not already in order, into running values, so
    packets at one sample apply in file order, and each sample shows the
    value after every packet up to its index. A lookup miss is decoded in
    that order, and a fault is named at the first packet in that order that
    has one.
    """
    from itertools import accumulate, islice
    from operator import gt, mul, sub

    from . import tracefile
    from .codec import MAX_GROUP, cell_residuals
    from .sink import Packet, payload_residual

    path = Path(args.input)
    trace, blocks = tracefile.read_rows(path)
    residual_of = cell_residuals()
    # Each row's seq and residual, in file order; a lookup miss holds its
    # Packet until the fold decodes it.
    seqs: list[int] = []
    residuals: list = []
    device_ids: set[str] = set()
    missed = False
    for first, block_seqs, block_ids, cells in blocks:
        block_residuals = list(map(residual_of.get, cells))
        # A Packet checks every miss; read_rows has checked every id.
        if None in block_residuals:
            missed = True
            for index, residual in enumerate(block_residuals):
                if residual is None:
                    try:
                        block_residuals[index] = Packet.from_cells(
                            block_ids[index], cells[index])
                    except ValueError as exc:
                        raise ValueError(
                            f"{path}:{first + index}: {exc}") from None
        device_ids.update(block_ids)
        seqs += block_seqs
        residuals += block_residuals
    # A reading is an ADC code of adc_bits bits, which encode caps at the
    # codec's widest group. simulate's run-directory traces write 0 there,
    # and mix codec payloads with raw CGWC ones.
    adc_bits = trace.adc_bits
    if not adc_bits:
        raise ValueError(f"{args.input}: #adc_bits=0: a run directory's "
                         f"trace, which holds no ADC width to decode with")
    if adc_bits > MAX_GROUP:
        raise ValueError(f"{args.input}: #adc_bits={adc_bits}: outside "
                         f"[1, {MAX_GROUP}]")
    if len(device_ids) > 1:
        raise ValueError(
            f"{args.input}: trace holds {len(device_ids)} devices; decode "
            f"expects a single-device trace")
    if not device_ids:
        raise ValueError(f"{args.input}: trace holds no packets")

    if any(map(gt, seqs, islice(seqs, 1, None))):
        order = sorted(range(len(seqs)), key=seqs.__getitem__)
        seqs = [seqs[index] for index in order]
        residuals = [residuals[index] for index in order]
    fault = None
    for index, residual in enumerate(residuals if missed else ()):
        if isinstance(residual, Packet):
            try:
                residuals[index] = payload_residual(residual.bit_count,
                                                    residual.payload)
            except ValueError as exc:
                fault = index, exc
                del residuals[index:]
                break
    values = list(accumulate(residuals))
    top = 1 << adc_bits
    # The values before a miss that fails to decode can fault first.
    if values and (min(values) < 0 or max(values) >= top):
        index = next(index for index, value in enumerate(values)
                     if not 0 <= value < top)
        fault = index, f"reading {values[index]} outside [0, 2**{adc_bits})"
    if fault is not None:
        index, exc = fault
        raise ValueError(
            f"{args.input}: packet at sample {seqs[index]}: {exc}")
    # Each value holds from its packet's sample up to the next packet's,
    # the last one to the end; the samples before the first hold 0.
    line_of = [f"{value}\n" for value in range(top)]
    ends = seqs[1:]
    ends.append(trace.samples)
    # The output is built whole: a #samples past memory or index is bad data.
    try:
        text = "0\n" * seqs[0] + "".join(map(
            mul, map(line_of.__getitem__, values), map(sub, ends, seqs)))
    except (MemoryError, OverflowError):
        raise ValueError(f"{args.input}: #samples={trace.samples}: too many "
                         f"samples to decode in memory") from None
    _write_out(args, text)
    return EXIT_OK


def cmd_signals_dump(args) -> int:
    from .signals import FileSource, TraceSpec, parse_range, synth, trace_codes

    if not 1 <= args.adc_bits <= MAX_ADC_BITS:
        raise UsageError(f"--adc-bits {args.adc_bits} outside "
                         f"[1, {MAX_ADC_BITS}]")
    if args.period_ms <= 0:
        raise UsageError(f"--period-ms {args.period_ms}: must be positive")
    if args.samples is not None and args.samples < 0:
        raise UsageError(f"--samples {args.samples}: must be non-negative")
    if args.kind:
        for flag, value in (("--range", args.adc_range),
                            ("--column", args.column)):
            if value is not None:
                raise UsageError(f"{flag} applies to --file traces only")
        samples = 120 if args.samples is None else args.samples
        codes, clamps = synth(args.kind, {}, args.seed or 0, samples,
                              args.adc_bits), 0
    else:
        # A file trace is as long as its file.
        if args.samples is not None:
            raise UsageError("--samples applies to --kind traces only, not "
                             "--file")
        column = 0 if args.column is None else args.column
        _check_column(column)
        if args.adc_range is None:
            raise UsageError("--file requires --range min,max")
        try:
            adc_range = parse_range(args.adc_range)
        except ValueError as exc:
            raise UsageError(f"--range: {exc}") from None
        codes, clamps = trace_codes(TraceSpec(
            source=FileSource(path=args.file, value_column=column),
            sample_period_ms=args.period_ms,
            adc_bits=args.adc_bits,
            adc_range=adc_range,
        ))
    lines = ["timestamp_ms,code"]
    lines.extend(f"{i * args.period_ms},{code}" for i, code in enumerate(codes))
    _write_out(args, "\n".join(lines) + "\n")
    if clamps:
        print(f"warning: {clamps} readings clamped to the ADC range",
              file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import config, metrics
    from .netmodel import simulate

    scenario = config.parse_scenario(args.scenario, seed_override=args.seed)
    runlog = simulate(scenario)
    table = metrics.format_table(*metrics.compute(runlog))
    # A failed run makes no --out, and an --out that cannot be a directory
    # fails before any output.
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    print(table)
    if args.out:
        runlog.save(Path(args.out))
    return EXIT_OK


def cmd_report(args) -> int:
    from . import metrics
    from .rundir import SUMMARY_FILE, RunLog

    rundir = Path(args.rundir)
    runlog = RunLog.load(rundir)
    try:
        text = metrics.report(runlog, args.format)
    except ValueError as exc:
        raise ValueError(f"{rundir / SUMMARY_FILE}: {exc}") from None
    _write_out(args, text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
