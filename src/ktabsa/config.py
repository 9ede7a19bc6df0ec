"""Flat key/value run configuration with strict parsing.

Config files are plain text: one ``key = value`` per line, ``#`` comments.
The keys are the fields of :class:`RunConfig` (corpus and artifact paths,
the dev split and the number of runs), of :class:`~ktabsa.model.ModelConfig`
and of :class:`~ktabsa.training.Schedule`; each is declared once, in its own
dataclass, and no name may belong to two of them. Tuple-valued keys
(``kernel_widths``, ``transfers``) are comma-separated. Unknown and
duplicate keys are rejected, every key has a default, and the effective
configuration is echoed into the output directory so a run can be
reproduced from its artifacts alone. Relative paths are resolved against
the directory containing the config file.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from .data import atomic_write
from .model import ModelConfig
from .tensor import ConfigError
from .training import Schedule

PATH_FIELDS = ("aspect_train", "aspect_test", "documents",
               "general_embeddings", "domain_embeddings", "out_dir")


@dataclass
class RunConfig:
    aspect_train: str = ""
    aspect_test: str = ""
    documents: str = ""
    general_embeddings: str = ""
    domain_embeddings: str = ""
    out_dir: str = "out"
    dev_fraction: float = 0.2
    runs: int = 1
    model: ModelConfig = field(default_factory=ModelConfig)
    schedule: Schedule = field(default_factory=Schedule)

    def validate(self) -> None:
        """Reject out-of-range values of every key before a run starts."""
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if not 0.0 <= self.dev_fraction < 1.0:
            raise ConfigError(f"dev_fraction must be in [0, 1), "
                              f"got {self.dev_fraction}")
        self.model.validate()
        self.schedule.validate()


# The nested sections of a RunConfig; their fields are config keys too.
_SECTIONS = {"model": ModelConfig, "schedule": Schedule}
_DECLARED = [(f.name, section, f.type)
             for section, cls in [(None, RunConfig), *_SECTIONS.items()]
             for f in dataclasses.fields(cls)
             if section is not None or f.name not in _SECTIONS]
# config key -> (section attribute or None for RunConfig's own, field type)
KEYS = {name: (section, kind) for name, section, kind in _DECLARED}
if len(KEYS) != len(_DECLARED):
    raise AssertionError("a config key is declared by more than one "
                         "configuration class")


def get_key(rc: RunConfig, key: str):
    section = KEYS[key][0]
    return getattr(rc if section is None else getattr(rc, section), key)


def with_keys(rc: RunConfig, **values) -> RunConfig:
    """``rc`` with the given config keys replaced, wherever they live."""
    split: dict = {None: {}, **{s: {} for s in _SECTIONS}}
    for key, value in values.items():
        split[KEYS[key][0]][key] = value
    return dataclasses.replace(rc, **split[None], **{
        s: dataclasses.replace(getattr(rc, s), **split[s]) for s in _SECTIONS})


def _parse_value(name: str, raw: str):
    kind = KEYS[name][1]
    raw = raw.strip()
    if kind == "str":
        return raw
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected an integer, got {raw!r}")
    if kind == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected a number, got {raw!r}")
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected true/false, got {raw!r}")
    parts = raw.replace(",", " ").split()
    if kind == "tuple[str, ...]":
        return tuple(parts)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{name}: expected comma-separated integers, "
                          f"got {raw!r}")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, val)
    for key in PATH_FIELDS:
        if values.get(key):
            values[key] = os.path.normpath(
                os.path.join(base_dir, values[key]))
    return with_keys(RunConfig(), **values)


def load_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text: {e}") from None
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def apply_overrides(rc: RunConfig, overrides: list[str]) -> RunConfig:
    changes: dict = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, "
                              f"got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        changes[key] = _parse_value(key, val)
    return with_keys(rc, **changes)


def format_config(rc: RunConfig) -> str:
    return "# effective configuration\n" + "".join(
        f"{key} = {_format_value(get_key(rc, key))}\n" for key in KEYS)


def echo_config(rc: RunConfig, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "effective.cfg")
    with atomic_write(path) as f:
        f.write(format_config(rc))
    return path
