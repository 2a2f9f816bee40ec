"""Sectioned key-value experiment configuration.

Format: INI-style sections [grid], [group], [data], [heat], [wave],
[diagnostics], [output]; ``key = value`` lines; '#' comments.  Unknown
sections or keys are rejected with the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

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

    def get(self, section: str, key: str, default=None, cast=str):
        val = self.sections.get(section, {}).get(key)
        if val is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            return default
        try:
            return cast(val)
        except ValueError as err:
            raise ConfigError(f"bad value for [{section}] {key}: {val!r}") from err

    def get_floats(self, section: str, key: str, default=None):
        val = self.sections.get(section, {}).get(key)
        if val is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            return default
        try:
            return tuple(float(tok) for tok in val.replace(",", " ").split())
        except ValueError as err:
            raise ConfigError(f"bad value for [{section}] {key}: {val!r}") from err

    def get_bool(self, section: str, key: str, default: bool = False) -> bool:
        val = self.sections.get(section, {}).get(key)
        if val is None:
            return default
        low = val.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean for [{section}] {key}: {val!r}")


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
