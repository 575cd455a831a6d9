"""Model profiles: coefficient sets, the profile registry, and data-file ingestion.

A profile bundles the fitted coefficient sets of one deployed model. Partial
profiles are legal: operations that need an absent set raise
:class:`~edgeperf.errors.MissingCoefficient` instead of guessing.

Every record type is read and written by one schema driven by its dataclass
fields and type hints: profile JSON, the measurement CSV, the planner's
config-table CSV and the fitters' JSON output.
"""

import csv
import functools
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import IO, Callable, Iterator, NamedTuple, Optional, Union
from typing import get_args, get_origin

from .errors import DuplicateId, InvariantViolation, ParseError, UnknownModel

Source = Union[str, Path, IO[str]]

PAD_MULTIPLE = 128


class Precision(str, Enum):
    FP16 = "fp16"
    W4A16 = "w4a16"


class Phase(str, Enum):
    PREFILL = "prefill"
    DECODE = "decode"


class Technique(str, Enum):
    """How a configuration row limits reasoning; planner.ConfigPoint's technique column."""

    BASE = "base"
    HARD_LIMIT = "hard_limit"
    SOFT_LIMIT = "soft_limit"
    NO_REASONING = "no_reasoning"
    DIRECT = "direct"
    BUDGET_AWARE = "budget_aware"


class EnergyUnit(str, Enum):
    JOULES_PER_TOKEN = "joules_per_token"
    FITTED = "fitted"


_LOG_BRANCH_REQUIRED = "log branch parameters required for finite threshold"


@dataclass(frozen=True)
class PrefillLatencyCoeffs:
    """Quadratic prefill-latency coefficients: a*I_pad^2 + b*I_pad + c seconds."""

    a: float  # seconds per token^2
    b: float  # seconds per token
    c: float  # seconds

    def issues(self) -> list[InvariantViolation]:
        out = []
        if not self.a > 0:
            out.append(InvariantViolation("prefill_latency.a", "a must be > 0"))
        if self.c < 0:
            out.append(InvariantViolation("prefill_latency.c", "c must be >= 0"))
        return out


@dataclass(frozen=True)
class DecodeLatencyCoeffs:
    """Linear time-between-tokens coefficients: TBT = m*context + n seconds."""

    m: float  # seconds per context token
    n: float  # seconds per output token

    # Context range over which TBT positivity is required by validation.
    MAX_CONTEXT = 8192

    def issues(self) -> list[InvariantViolation]:
        out = []
        if not self.n > 0:
            out.append(InvariantViolation("decode_latency.n", "n must be > 0"))
        elif self.n + self.m * self.MAX_CONTEXT <= 0:
            rule = f"TBT nonpositive within context range [1, {self.MAX_CONTEXT}]"
            out.append(InvariantViolation("decode_latency.m", rule))
        return out


@dataclass(frozen=True)
class PiecewisePowerModel:
    """Constant-then-logarithmic average power in watts.

    Below ``threshold`` tokens the power is the flat ``floor_watts``; at or
    beyond it the log branch ``log_alpha * log(x) + log_beta`` applies. An
    infinite threshold yields a constant-only model, in which case the log
    parameters may be omitted.
    """

    floor_watts: float
    # tokens; math.inf for constant-only models
    threshold: float = field(metadata={"unbounded": True})
    log_alpha: Optional[float] = None  # watts per log(token)
    log_beta: Optional[float] = None  # watts
    log10: bool = False  # natural log unless explicitly refitted in log10

    def issues(self) -> list[InvariantViolation]:
        out = []
        if not self.floor_watts > 0:
            out.append(InvariantViolation("power.floor_watts", "floor_watts must be > 0"))
        if self.threshold < 0:
            out.append(InvariantViolation("power.threshold", "threshold must be >= 0"))
        if math.isfinite(self.threshold) and (
            self.log_alpha is None or self.log_beta is None
        ):
            out.append(InvariantViolation("power.log_alpha", _LOG_BRANCH_REQUIRED))
        return out


@dataclass(frozen=True)
class PiecewiseEnergyModel:
    """Exponential-decay-then-logarithmic energy per token.

    Below ``threshold`` tokens: ``exp_A * exp(-exp_lambda * x) + exp_C``.
    At or beyond it: ``log_alpha * log(x) + log_beta``. The threshold may be
    infinite (decay-only) or zero (log-only). ``unit`` records whether the
    fitted values are declared to be joules per token; arithmetic that needs
    joules refuses models whose unit is merely "fitted".
    """

    # tokens; 0 = log-only, math.inf = decay-only
    threshold: float = field(metadata={"unbounded": True})
    unit: EnergyUnit = EnergyUnit.FITTED
    exp_A: Optional[float] = None
    exp_lambda: Optional[float] = None  # per token
    exp_C: Optional[float] = None
    log_alpha: Optional[float] = None
    log_beta: Optional[float] = None
    log10: bool = False

    def issues(self) -> list[InvariantViolation]:
        out = []
        if self.threshold < 0:
            out.append(InvariantViolation("energy.threshold", "threshold must be >= 0"))
        if self.threshold > 0:
            if self.exp_A is None or self.exp_lambda is None or self.exp_C is None:
                rule = "decay branch parameters required for threshold > 0"
                out.append(InvariantViolation("energy.exp_A", rule))
            else:
                if self.exp_lambda < 0:
                    out.append(InvariantViolation("energy.exp_lambda", "exp_lambda must be >= 0"))
                if self.exp_C < 0:
                    out.append(InvariantViolation("energy.exp_C", "exp_C must be >= 0"))
        if self.threshold < math.inf and (self.log_alpha is None or self.log_beta is None):
            out.append(InvariantViolation("energy.log_alpha", _LOG_BRANCH_REQUIRED))
        return out


@dataclass(frozen=True, kw_only=True)
class MeasurementRecord:
    """One raw benchmark row; the fields are the measurement CSV's columns, in order."""

    phase: Phase
    input_len: int  # tokens
    output_len: int = 0  # tokens, 0 for prefill rows
    latency: float = field(metadata={"key": "latency_s"})  # seconds
    power: Optional[float] = field(default=None, metadata={"key": "power_w"})  # watts
    energy: Optional[float] = field(default=None, metadata={"key": "energy_j"})  # joules

    def issues(self) -> list[InvariantViolation]:
        out = []
        if self.input_len < 1:
            out.append(InvariantViolation("measurement.input_len", "input_len must be >= 1"))
        if self.output_len < 0:
            out.append(InvariantViolation("measurement.output_len", "output_len must be >= 0"))
        if not self.latency > 0:
            out.append(InvariantViolation("measurement.latency", "latency must be > 0"))
        if self.power is not None and not self.power > 0:
            out.append(InvariantViolation("measurement.power", "power must be > 0 when present"))
        if self.energy is not None and not self.energy > 0:
            out.append(InvariantViolation("measurement.energy", "energy must be > 0 when present"))
        return out


@dataclass(frozen=True)
class ModelProfile:
    """A named model and whichever coefficient sets are published for it."""

    id: str
    param_count: float = field(metadata={"key": "param_b"})  # billions of parameters
    precision: Precision = Precision.FP16
    prefill_latency: Optional[PrefillLatencyCoeffs] = None
    decode_latency: Optional[DecodeLatencyCoeffs] = None
    prefill_power: Optional[PiecewisePowerModel] = None
    prefill_energy: Optional[PiecewiseEnergyModel] = None
    decode_power: Optional[PiecewisePowerModel] = None
    decode_energy: Optional[PiecewiseEnergyModel] = None

    def issues(self) -> list[InvariantViolation]:
        out = []
        if not self.id:
            out.append(InvariantViolation("profile.id", "id must be non-empty"))
        if not self.param_count > 0:
            out.append(InvariantViolation("profile.param_count", "param_count must be > 0"))
        for name in self.capabilities():
            out.extend(getattr(self, name).issues())
        return out

    def capabilities(self) -> list[str]:
        """Names of the coefficient sets this profile carries."""
        return [
            f.name
            for f in _schema(ModelProfile)
            if is_dataclass(f.kind) and getattr(self, f.name) is not None
        ]


class ProfileRegistry:
    """Immutable id-keyed collection of profiles."""

    def __init__(self, profiles: list[ModelProfile]):
        seen: dict[str, ModelProfile] = {}
        for profile in profiles:
            if profile.id in seen:
                raise DuplicateId(f"duplicate profile id {profile.id!r}")
            seen[profile.id] = profile
        self._profiles = MappingProxyType(dict(seen))

    def get(self, model_id: str) -> ModelProfile:
        try:
            return self._profiles[model_id]
        except KeyError:
            raise UnknownModel(model_id) from None

    def ids(self) -> list[str]:
        return sorted(self._profiles)

    def __iter__(self) -> Iterator[ModelProfile]:
        return iter(self._profiles.values())

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._profiles

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProfileRegistry):
            return NotImplemented
        return dict(self._profiles) == dict(other._profiles)


# ---------------------------------------------------------------------------
# Field-driven schema: one reader and one writer for every record type
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a field that must be given


class _Field(NamedTuple):
    name: str  # attribute name
    key: str  # JSON key and CSV column
    kind: type  # the annotated type; X for Optional[X]
    default: object  # what a missing key or an empty cell means, or _REQUIRED
    unbounded: bool  # may be +inf, spelled null or "inf" in JSON


@functools.cache
def _schema(cls) -> tuple[_Field, ...]:
    """The fields of a record dataclass, in declaration order.

    Field metadata may give the JSON key or CSV column (``key``) and let the
    field be +inf (``unbounded``); a missing unbounded value means +inf.
    ``Field.type`` is the annotated type itself, because no record module
    postpones its annotations (no ``from __future__ import annotations``).
    """
    out = []
    for f in fields(cls):
        kind = f.type
        if get_origin(kind) is Union:  # Optional[X]
            (kind,) = (arg for arg in get_args(kind) if arg is not type(None))
        unbounded = f.metadata.get("unbounded", False)
        default = math.inf if unbounded else _REQUIRED if f.default is MISSING else f.default
        out.append(_Field(f.name, f.metadata.get("key", f.name), kind, default, unbounded))
    return tuple(out)


def _source_text(source: Source) -> str:
    """All the text of a path or of an open text stream."""
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source, encoding="utf-8") as fh:
                return fh.read()
        return source.read()
    except FileNotFoundError:
        raise ParseError(f"no such file: {source}") from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read {source}: {reason}") from None


def _from_json(cls, obj, where: str):
    """A ``cls`` record from a JSON object; ``where`` names it in errors."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object")
    values = {}
    for f in _schema(cls):
        value = obj.get(f.key)
        if value is None or (f.unbounded and value == "inf"):
            if f.default is _REQUIRED:
                raise ParseError(f"{where}.{f.key} is required")
            values[f.name] = f.default
        else:
            values[f.name] = _json_value(f, value, where)
    return cls(**values)


def _json_value(f: _Field, value, where: str):
    """A present JSON value as the type of field ``f``."""
    kind = f.kind
    if kind is float:
        # A bool is no number, and an integer past the float range is not finite.
        if type(value) in (int, float):
            try:
                value = float(value)
            except OverflowError:
                value = math.nan
            if math.isfinite(value) or (f.unbounded and value == math.inf):
                return value
        raise ParseError(f"{where}.{f.key} must be a finite number")
    if is_dataclass(kind):
        return _from_json(kind, value, f"{where}.{f.key}")
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except (ValueError, TypeError):
            raise ParseError(f"{where}.{f.key}: unknown value {value!r}") from None
    if type(value) is not kind:  # a str or bool field takes only its own JSON type
        expected = "true or false" if kind is bool else "a string"
        raise ParseError(f"{where}.{f.key} must be {expected}")
    return value


def to_json(record) -> dict:
    """A record as a JSON object, keys in field order.

    None and False are left out, and an infinite unbounded value is null.
    """
    out = {}
    for f in _schema(type(record)):
        value = getattr(record, f.name)
        if value is None or value is False:
            continue
        if f.unbounded and math.isinf(value):
            value = None
        elif isinstance(value, Enum):
            value = value.value
        elif is_dataclass(value):
            value = to_json(value)
        out[f.key] = value
    return out


def _finite_cell(cell: str) -> float:
    """A CSV cell as a float; ValueError (a ParseError to the caller) unless finite."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


@functools.cache
def _cell_parser(kind) -> Callable[[str], object]:
    """How a CSV cell becomes a ``kind``: a finite float, an int, a str or an Enum member."""
    if kind is float:
        return _finite_cell
    if kind in (int, str):
        return kind
    members = {member.value: member for member in kind}  # a dict is faster than kind(cell)

    def parse(cell):
        try:
            return members[cell]
        except KeyError:
            raise ValueError(f"{cell!r} is not a valid {kind.__name__}") from None

    return parse


def read_rows(source: Source, cls, what: str) -> Iterator[tuple[int, object]]:
    """(line number, record) for each non-blank row of a CSV table of ``cls``.

    The header names the fields' columns in field order. Each cell is
    stripped and parsed by its field's type; an empty cell means the field's
    default. ``what`` names the table in errors. An InvariantViolation that a
    record raises when it is built is raised again with the row's line.
    """
    schema = _schema(cls)
    header = [f.key for f in schema]
    reader = csv.reader(_source_text(source).splitlines())
    first = next(reader, None)
    if first is None:
        raise ParseError(f"empty {what} (header required)")
    if [h.strip() for h in first] != header:
        raise ParseError(f"bad header {first!r}, expected {','.join(header)}", line=1)
    # A field without a default parses even an empty cell.
    columns = [(f.name, _cell_parser(f.kind), f.default is _REQUIRED) for f in schema]
    for lineno, row in enumerate(reader, start=2):
        cells = list(map(str.strip, row))
        if not any(cells):
            continue
        if len(cells) != len(columns):
            raise ParseError(f"expected {len(columns)} cells, got {len(cells)}", line=lineno)
        values = {}
        try:
            for (name, parse, required), cell in zip(columns, cells):
                if cell or required:
                    values[name] = parse(cell)
            record = cls(**values)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        except InvariantViolation as exc:  # a record that checks itself when built
            raise InvariantViolation(exc.field, exc.rule, line=lineno) from None
        yield lineno, record


# ---------------------------------------------------------------------------
# Profile file (JSON) ingestion and serialization
# ---------------------------------------------------------------------------

def load_profiles(source: Source) -> ProfileRegistry:
    """Parse a profile file into a registry, enforcing all invariants.

    ``source`` is a path or an open text stream. Raises :class:`ParseError`
    on malformed syntax or a value of the wrong type (numbers must be finite;
    only a threshold may be unbounded), :class:`DuplicateId` on a repeated
    id, and :class:`InvariantViolation` when a coefficient value breaks its
    type's rules.
    """
    text = _source_text(source)
    if text.strip() == "":
        return ProfileRegistry([])
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("profiles"), list):
        raise ParseError("profile file must be an object with a 'profiles' array")
    loaded = []
    for i, entry in enumerate(doc["profiles"]):
        profile = _from_json(ModelProfile, entry, f"profiles[{i}]")
        bad = profile.issues()
        if bad:
            raise bad[0]
        loaded.append(profile)
    return ProfileRegistry(loaded)


def serialize_profiles(registry: ProfileRegistry) -> str:
    """Serialize a registry back to profile-file JSON (round-trip stable)."""
    doc = {"profiles": [to_json(registry.get(i)) for i in registry.ids()]}
    return json.dumps(doc, indent=2)


def validate_profile(profile: ModelProfile) -> list[InvariantViolation]:
    """Full validation: type invariants plus positivity over I, O in [1, 4096].

    TBT positivity needs no grid: the decode latency invariant already
    requires it at contexts 0 and 8192, and TBT is linear in the context.

    Violations are returned, never raised; an empty list means the profile
    is sound over the checked domain.
    """
    # Imported here because energy and latency import this module.
    from .energy import piecewise_energy_value, piecewise_power_value
    from .latency import prefill_latency

    out = profile.issues()
    if out:
        return out

    grid = [1, 63, 64, 127, 128, 256, 384, 512, 800, 1024, 2048, 4095, 4096]
    checks = [  # (coefficient set, its value at a grid point, what a value <= 0 is)
        ("prefill_latency", lambda _, i: prefill_latency(profile, i), "latency at input_len"),
        ("prefill_power", piecewise_power_value, "watts at input_len"),
        # A decode position at the threshold is on the log branch (inclusive=False).
        ("decode_power", lambda m, o: piecewise_power_value(m, o, False), "watts at output_pos"),
        ("prefill_energy", piecewise_energy_value, "energy at input_len"),
    ]
    for name, value, what in checks:
        model = getattr(profile, name)
        if model is None:
            continue
        bad = next((x for x in grid if value(model, x) <= 0), None)
        if bad is not None:
            out.append(InvariantViolation(name, f"nonpositive {what}={bad}"))
    return out


# ---------------------------------------------------------------------------
# Measurement file (CSV) ingestion
# ---------------------------------------------------------------------------

def load_measurements(source: Source) -> list[MeasurementRecord]:
    """Parse the measurement CSV, a path or an open text stream, into validated records."""
    records = []
    for lineno, record in read_rows(source, MeasurementRecord, "measurement file"):
        bad = record.issues()
        if bad:
            raise InvariantViolation(bad[0].field, bad[0].rule, line=lineno)
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Built-in defaults
# ---------------------------------------------------------------------------

_default_registry: Optional[ProfileRegistry] = None


def builtin_profiles_path() -> Path:
    return Path(__file__).parent / "data" / "profiles.json"


def default_registry() -> ProfileRegistry:
    """Registry built from the packaged coefficient file (cached)."""
    global _default_registry
    if _default_registry is None:
        _default_registry = load_profiles(builtin_profiles_path())
    return _default_registry
