"""Sectioned key-value experiment configuration.

Format: INI-style sections [grid], [group], [data], [heat], [wave],
[diagnostics], [output]; ``key = value`` lines; '#' comments.  Unknown
sections or keys are rejected with the offending line number.  The config
records each key it is asked for, so that a builder can reject the keys of
a section that its choices left unread (reject_unread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

SCHEMA = {
    "grid": {"n", "h", "boundary", "deriv"},
    "group": {"name", "file"},
    "data": {
        "kind",
        "seed",
        "amplitude",
        "k_band",
        "lambda",
        "center",
        "orientation",
    },
    "heat": {
        "ds_factor",
        "s_max",
        "stop_F_tol",
        "sample_stride",
        "de_turck",
    },
    "wave": {"cfl", "t_end", "snapshot_stride"},
    "diagnostics": {"eps", "vertex", "t1", "t2", "ed_truncation"},
    "output": {"dir"},
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    sections: Dict[str, Dict[str, str]] = field(default_factory=dict)
    source_text: str = ""
    asked: Set[Tuple[str, str]] = field(default_factory=set, init=False, repr=False)

    def get(self, section: str, key: str, default=None, cast=str):
        """[section] key through cast, or default when the key is absent.

        A value cast rejects, or a cast float that is not finite, is a
        ConfigError.
        """
        self.asked.add((section, key))
        val = self.sections.get(section, {}).get(key)
        if val is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            return default
        try:
            out = cast(val)
        except ValueError as err:
            raise ConfigError(f"bad value for [{section}] {key}: {val!r}") from err
        numbers = out if isinstance(out, tuple) else (out,)
        if any(isinstance(x, float) and not math.isfinite(x) for x in numbers):
            raise ConfigError(f"[{section}] {key} is not finite: {val!r}")
        return out

    def get_floats(self, section: str, key: str, default=None, length=None):
        """A vector of finite floats, separated by commas or blanks; a value
        of other than length numbers, when length is given, is a ConfigError."""
        vals = self.get(section, key, default, cast=_floats)
        if length is not None and len(vals) != length:
            raise ConfigError(f"[{section}] {key} takes {length} numbers, got {len(vals)}")
        return vals

    def get_bool(self, section: str, key: str) -> bool:
        """A yes/no value; False when the key is absent."""
        self.asked.add((section, key))
        val = self.sections.get(section, {}).get(key)
        if val is None:
            return False
        low = val.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean for [{section}] {key}: {val!r}")

    def reject_unread(self, section: str) -> None:
        """A ConfigError naming each key of [section] that no get has asked
        for: given the section's other settings, it would have no effect."""
        unread = sorted(k for k in self.sections.get(section, {}) if (section, k) not in self.asked)
        if unread:
            raise ConfigError(
                f"[{section}] {', '.join(unread)}: not read given the other [{section}] "
                "settings, so without effect"
            )


def _floats(val: str) -> tuple:
    return tuple(float(tok) for tok in val.replace(",", " ").split())


def positive_float(val: str) -> float:
    """A cast for ExperimentConfig.get that rejects a number <= 0."""
    x = float(val)
    if x <= 0.0:
        raise ValueError(f"{val!r} is not positive")
    return x


def int_at_least(lo: int):
    """A cast for ExperimentConfig.get that rejects an integer below lo."""

    def cast(val: str) -> int:
        x = int(val)
        if x < lo:
            raise ValueError(f"{val!r} is below {lo}")
        return x

    return cast


def parse_config(text: str) -> ExperimentConfig:
    sections: Dict[str, Dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        section_name = next(s for s, d in sections.items() if d is current)
        if key not in SCHEMA[section_name]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section_name}]")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        current[key] = value.strip()
    return ExperimentConfig(sections, text)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())
