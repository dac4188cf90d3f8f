"""Flat JSON configuration shared by every subcommand.

Each setting is declared once, as a field of `CliConfig`: its default, and
in the field metadata its command-line flag, metavar and help. The CLI
flags, on the subcommands that read their settings, and the config-file
value types are derived from these fields. A field without a flag
(`energy_floor`) is set only from a config file.

Precedence: the command's base config (these defaults; `repro-figures`
starts from `repro.BASE_CONFIG`), then the --config file, then flags. The
effective values are echoed into output artifacts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .artifacts import field_dict, json_number, read_json
from .errors import BadConfig, VadKitError
from .filters import FilterSpec
from .vad import VadConfig


def _setting(default, flag=None, metavar=None, help=None):
    return dataclasses.field(default=default, metadata={"flag": flag, "metavar": metavar, "help": help})


@dataclass(frozen=True)
class CliConfig:
    sample_rate_hz: int = _setting(FilterSpec.sample_rate_hz, "--sample-rate", "N", "pipeline sample rate in Hz")
    filter_order: int = _setting(FilterSpec.order, "--order", "N", "overall bandpass order (even)")
    low_cutoff_hz: float = _setting(FilterSpec.low_cutoff_hz, "--low", "HZ", "bandpass low cutoff in Hz")
    high_cutoff_hz: float = _setting(FilterSpec.high_cutoff_hz, "--high", "HZ", "bandpass high cutoff in Hz")
    window_s: float = _setting(VadConfig.window_length_s, "--window", "S", "analysis window length in seconds")
    threshold_db: float = _setting(VadConfig.snr_threshold_db, "--threshold", "DB", "SNR decision threshold in dB")
    hop_s: float | None = _setting(VadConfig.hop_length_s, "--hop", "S", "hop between frames in seconds")
    noise_percentile: float = _setting(
        VadConfig.noise_percentile, "--noise-percentile", "Q", "noise-floor quantile in (0,1)"
    )
    energy_floor: float = _setting(VadConfig.energy_floor)
    fft_size: int = _setting(1024, "--fft-size", "N", "spectrogram FFT size (power of two)")
    spectrogram_hop: int = _setting(512, "--spectrogram-hop", "N", "spectrogram hop in samples")

    def filter_spec(self) -> FilterSpec:
        return FilterSpec(
            order=self.filter_order,
            low_cutoff_hz=self.low_cutoff_hz,
            high_cutoff_hz=self.high_cutoff_hz,
            sample_rate_hz=self.sample_rate_hz,
        )

    def vad_config(self) -> VadConfig:
        return VadConfig(
            window_length_s=self.window_s,
            snr_threshold_db=self.threshold_db,
            hop_length_s=self.hop_s,
            noise_percentile=self.noise_percentile,
            energy_floor=self.energy_floor,
        )

    def to_dict(self) -> dict:
        return field_dict(self, hop_s=self.window_s if self.hop_s is None else self.hop_s)


def value_type(field: dataclasses.Field) -> type:
    """int where the field's default is an int, float otherwise."""
    return int if isinstance(field.default, int) else float


def _parse_value(field: dataclasses.Field, value):
    """The JSON value as the field's type; ValueError says why it is not one."""
    if value is None and field.default is None:
        return None
    number = json_number(value)
    if value_type(field) is float:
        return number
    if not number.is_integer():
        raise ValueError("expected an integer")
    return int(value)


def load_config(path, base: CliConfig = CliConfig()) -> CliConfig:
    """Read a flat JSON object of config keys over `base`; unknown keys are rejected."""
    try:
        raw = read_json(path, "config")
    except VadKitError as exc:
        raise BadConfig(str(exc)) from exc
    if not isinstance(raw, dict):
        raise BadConfig(f"config {path} must hold a JSON object")
    fields = {field.name: field for field in dataclasses.fields(CliConfig)}
    values = {}
    for key, value in raw.items():
        if key not in fields:
            raise BadConfig(f"config {path}: unknown key {key!r}")
        try:
            values[key] = _parse_value(fields[key], value)
        except ValueError as exc:
            raise BadConfig(f"config {path}: bad value for {key!r}: {value!r} ({exc})") from None
    return dataclasses.replace(base, **values)
