"""Run configuration: station map, sample window, and pipeline settings.

Config files are flat ``key = value`` lines, each key at most once,
followed by a ``[stations]`` block of whitespace-separated rows::

    window_start = 1960-01-01
    window_end = 2017-12-31

    [stations]
    PHL USW00013739 Philadelphia
    !IAH USW00012960 Houston          # '!' = excluded by default

A leading ``!`` marks a station that is parsed but skipped unless requested
explicitly (stations with known large data gaps). ``#`` at the start of a
line or after whitespace starts a comment, on settings lines and station
rows alike; elsewhere it is part of the value (``endpoint = http://x/#y``).
Environment variables TEMPDYN_ENDPOINT and TEMPDYN_CACHE_DIR
override the corresponding config values.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from datetime import date
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

DEFAULT_ENDPOINT = "https://www.ncei.noaa.gov/pub/data/ghcn/daily/all"
ENV_ENDPOINT = "TEMPDYN_ENDPOINT"
ENV_CACHE_DIR = "TEMPDYN_CACHE_DIR"

DEFAULT_WINDOW = (date(1960, 1, 1), date(2017, 12, 31))

# codes and GHCN IDs become file names and unquoted CSV fields
_IDENTIFIER = re.compile(r"[A-Za-z0-9_-]+")
_COMMENT = re.compile(r"(?:^|\s)#.*")
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class ConfigError(ValueError):
    """A setting the run cannot use, from the config file, the environment
    or a flag, including a window or HAC lag the models cannot be fitted on."""


@dataclass(frozen=True)
class Station:
    code: str  # airport code, e.g. PHL
    ghcn_id: str  # GHCN-daily station identifier
    name: str  # human-readable city name
    excluded: bool = False


@dataclass
class RunConfig:
    stations: list[Station] = field(default_factory=list)
    window_start: date = DEFAULT_WINDOW[0]
    window_end: date = DEFAULT_WINDOW[1]
    hac_bandwidth: Union[int, str] = "auto"
    output_dir: Path = Path("out")
    cache_dir: Path = Path("cache")
    endpoint: str = DEFAULT_ENDPOINT
    strict_qc: bool = False

    def active_stations(self) -> list[Station]:
        return [s for s in self.stations if not s.excluded]

    def station(self, code: str) -> Station:
        for station in self.stations:
            if station.code == code:
                return station
        raise ConfigError(f"no station {code!r} in configuration")

    def select(self, codes: Optional[Sequence[str]]) -> list[Station]:
        """Stations to process: the active set, or an explicit selection.

        Explicitly requested codes may include excluded-by-default stations;
        a code requested twice is refused, as a duplicate config row is.
        """
        if not codes:
            return self.active_stations()
        for i, code in enumerate(codes):
            if code in codes[:i]:
                raise ConfigError(f"station {code!r} requested more than once")
        return [self.station(code) for code in codes]


def default_config_path() -> Path:
    return Path(resources.files("tempdyn").joinpath("data/stations.cfg"))


def load_config(path: Optional[Union[str, Path]] = None) -> RunConfig:
    """Parse a UTF-8 config file (the packaged default when ``path`` is None),
    with or without a byte-order mark."""
    source = Path(path) if path is not None else default_config_path()
    data = source.read_bytes()
    try:
        # the mark is dropped after decoding: the "utf-8-sig" codec would
        # import a module, about 24 KB, in every command
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # lines of the UTF-8 prefix, with "?" standing in for the bad byte
        number = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise ConfigError(
            f"{source}:{number}: byte 0x{data[exc.start]:02x} is not UTF-8; "
            "save the file as UTF-8"
        ) from None
    config = parse_config(text, source=str(source))
    endpoint = os.environ.get(ENV_ENDPOINT)
    if endpoint:
        config.endpoint = endpoint
    cache_dir = os.environ.get(ENV_CACHE_DIR)
    if cache_dir:
        config.cache_dir = Path(cache_dir)
    return config


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    config = RunConfig()
    in_stations = False
    codes_seen = set()
    settings_seen: dict[str, int] = {}  # key -> the line that set it
    for number, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        if line.lower() == "[stations]":
            in_stations = True
            continue
        key, equals, value = line.partition("=")
        key = key.strip().lower()
        if in_stations:
            # a station name may hold "=", a station code may not
            if equals and key in _SETTINGS:
                raise ConfigError(
                    f"{source}:{number}: setting {key!r} is inside the [stations] block; "
                    "settings go before [stations]"
                )
            excluded = line.startswith("!")
            if excluded:
                line = line[1:].strip()
            parts = line.split(None, 2)
            if len(parts) < 3:
                raise ConfigError(
                    f"{source}:{number}: station rows need CODE GHCN_ID NAME"
                )
            code, ghcn_id, name = parts
            for label, value in (("station code", code), ("GHCN ID", ghcn_id)):
                if not _IDENTIFIER.fullmatch(value):
                    raise ConfigError(
                        f"{source}:{number}: {label} {value!r} may hold only "
                        "letters, digits, '_' and '-'"
                    )
            if code in codes_seen:
                raise ConfigError(f"{source}:{number}: duplicate station {code!r}")
            codes_seen.add(code)
            config.stations.append(Station(code, ghcn_id, name, excluded))
            continue
        if not equals:
            raise ConfigError(f"{source}:{number}: expected key = value, got {line!r}")
        if key not in _SETTINGS:
            raise ConfigError(
                f"{source}:{number}: unknown configuration key {key!r}; "
                f"expected one of {', '.join(_SETTINGS)}"
            )
        if key in settings_seen:
            raise ConfigError(
                f"{source}:{number}: duplicate setting {key!r}, first set at line "
                f"{settings_seen[key]}"
            )
        settings_seen[key] = number
        try:
            setattr(config, key, _SETTINGS[key](value.strip()))
        except ValueError as exc:
            raise ConfigError(f"{source}:{number}: bad value for {key}: {exc}") from exc
    if config.window_start >= config.window_end:
        raise ConfigError(f"{source}: window start must precede window end")
    return config


def parse_bandwidth(value: str) -> Union[int, str]:
    """A HAC bandwidth setting: ``auto`` or a nonnegative integer lag."""
    if value.lower() == "auto":
        return "auto"
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"expected 'auto' or a nonnegative integer, got {value!r}")
    return int(value)


_FLAGS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _parse_date(value: str) -> date:
    """A date written ``YYYY-MM-DD``, the one form ``date.fromisoformat``
    reads on every supported Python (3.11 also reads ``19600101`` and ISO
    week dates, which 3.10 refuses)."""
    if not _ISO_DATE.fullmatch(value):
        raise ValueError(f"expected a date as YYYY-MM-DD, got {value!r}")
    return date.fromisoformat(value)


def _parse_flag(value: str) -> bool:
    if value.lower() not in _FLAGS:
        raise ValueError(f"expected one of {'/'.join(_FLAGS)}, got {value!r}")
    return _FLAGS[value.lower()]


# the parser of each setting's value, keyed by the setting and the
# ``RunConfig`` field it sets
_SETTINGS: dict[str, Callable[[str], object]] = {
    "window_start": _parse_date,
    "window_end": _parse_date,
    "hac_bandwidth": parse_bandwidth,
    "output_dir": Path,
    "cache_dir": Path,
    "endpoint": str,
    "strict_qc": _parse_flag,
}
