"""Threshold-delta compression of body-sensor streams with a prefix-free
residual codec, plus a deterministic sensor-to-sink pipeline simulator with
latency and energy accounting."""

from .bitstream import BitReader, BitString
from .codec import (decode_residual, encode_prefix, encode_residual,
                    encode_suffix, group_of)
from .control import DeviceState
from .netmodel import (ChannelModel, DeviceConfig, EnergyLedger,
                       RadioEnergyModel, Scenario, SleepPolicy, lifetime,
                       simulate)
from .rundir import RunLog
from .signals import (FileSource, Sample, SyntheticSource, TraceSpec,
                      quantize, synth, trace_samples)
from .sink import Packet, Sink

__version__ = "0.1.0"

__all__ = [
    "BitReader", "BitString",
    "decode_residual", "encode_prefix", "encode_residual", "encode_suffix",
    "group_of",
    "DeviceState",
    "ChannelModel", "DeviceConfig", "EnergyLedger", "RadioEnergyModel",
    "RunLog", "Scenario", "SleepPolicy", "lifetime", "simulate",
    "FileSource", "Sample", "SyntheticSource", "TraceSpec", "quantize",
    "synth", "trace_samples",
    "Packet", "Sink",
    "__version__",
]
