"""Model profiles: coefficient sets, the profile registry, and data-file ingestion.

A profile bundles the fitted coefficient sets of one deployed model. Partial
profiles are legal: operations that need an absent set raise
:class:`~edgeperf.errors.MissingCoefficient` instead of guessing.

Every record type is read and written by one schema driven by its dataclass
fields and type hints: profile JSON, the measurement CSV, the planner's
config-table CSV and the fitters' JSON output. A profile JSON object with a
key that its schema does not name is refused.

A :class:`ModelProfile` checks itself when it is built, and raises its first
violation; its coefficient sets are plain data that only a profile judges,
so a fitter may return a set that no profile would accept.

This is the lowest module: it imports no edgeperf module but ``errors``. So
it also holds everything that a profile's check and ``edgeperf validate``
compute with: ``padded_length`` and ``prefill_latency``, the piecewise power
and energy evaluators, and ``mape``. ``latency``, ``energy``, ``planner`` and
``fitting`` import those names from here, as the same objects.
"""

import csv
import io
import json
import math
import os
from collections import deque
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache, reduce
from itertools import islice, repeat
from operator import add
from pathlib import Path
from types import MappingProxyType
from typing import IO, Callable, Iterator, NamedTuple, Optional, Sequence, Union
from typing import get_args, get_origin

from .errors import DomainError, DuplicateId, InvariantViolation, LengthMismatch
from .errors import MissingCoefficient, ParseError, UnknownModel, ZeroActual

Source = Union[str, Path, IO[str]]

PAD_MULTIPLE = 128

# Every token count and position lies in [lo, 2**53], nan and +-inf excluded:
# each is an exact float there, and no closed form overflows on it. Each call
# checks a count where it enters, with one chained comparison.
_MAX_TOKENS = 2**53


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

    def _check(self, where: str) -> None:
        if not self.a > 0:
            raise InvariantViolation(f"{where}.a", "a must be > 0")
        if self.c < 0:
            raise InvariantViolation(f"{where}.c", "c must be >= 0")


@dataclass(frozen=True)
class DecodeLatencyCoeffs:
    """Linear time-between-tokens coefficients: TBT = m*context + n seconds."""

    m: float  # seconds per context token
    n: float  # seconds per output token

    # A profile's TBT must be positive at every context in [1, MAX_CONTEXT].
    MAX_CONTEXT = 8192

    def _check(self, where: str) -> None:
        if not self.n > 0:
            raise InvariantViolation(f"{where}.n", "n must be > 0")
        if self.n + self.m * self.MAX_CONTEXT <= 0:
            rule = f"TBT nonpositive within context range [1, {self.MAX_CONTEXT}]"
            raise InvariantViolation(f"{where}.m", rule)


@dataclass(frozen=True)
class PiecewisePowerModel:
    """Constant-then-logarithmic average power in watts.

    Below ``threshold`` tokens the power is the flat ``floor_watts``; at or
    beyond it the log branch ``log_alpha * ln x + log_beta`` applies. An
    infinite threshold yields a constant-only model, in which case the log
    parameters may be omitted.
    """

    floor_watts: float
    # tokens; math.inf for constant-only models
    threshold: float = field(metadata={"unbounded": True})
    log_alpha: Optional[float] = None  # watts per ln(token)
    log_beta: Optional[float] = None  # watts

    def _check(self, where: str) -> None:
        if not self.floor_watts > 0:
            raise InvariantViolation(f"{where}.floor_watts", "floor_watts must be > 0")
        if self.threshold < 0:
            raise InvariantViolation(f"{where}.threshold", "threshold must be >= 0")
        if math.isfinite(self.threshold) and (self.log_alpha is None or self.log_beta is None):
            raise InvariantViolation(f"{where}.log_alpha", _LOG_BRANCH_REQUIRED)


@dataclass(frozen=True)
class PiecewiseEnergyModel:
    """Exponential-decay-then-logarithmic energy per token.

    Below ``threshold`` tokens: ``exp_A * exp(-exp_lambda * x) + exp_C``.
    At or beyond it: ``log_alpha * ln x + log_beta``. The threshold may be
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

    def _check(self, where: str) -> None:
        if self.threshold < 0:
            raise InvariantViolation(f"{where}.threshold", "threshold must be >= 0")
        if self.threshold > 0:
            if self.exp_A is None or self.exp_lambda is None or self.exp_C is None:
                rule = "decay branch parameters required for threshold > 0"
                raise InvariantViolation(f"{where}.exp_A", rule)
            if self.exp_lambda < 0:
                raise InvariantViolation(f"{where}.exp_lambda", "exp_lambda must be >= 0")
            if self.exp_C < 0:
                raise InvariantViolation(f"{where}.exp_C", "exp_C must be >= 0")
        if self.threshold < math.inf and (self.log_alpha is None or self.log_beta is None):
            raise InvariantViolation(f"{where}.log_alpha", _LOG_BRANCH_REQUIRED)


@dataclass(frozen=True, kw_only=True, slots=True)
class MeasurementRecord:
    """One raw benchmark row; the fields are the measurement CSV's columns, in order."""

    phase: Phase
    input_len: int  # tokens
    output_len: int = 0  # tokens, 0 for prefill rows
    latency: float = field(metadata={"key": "latency_s"})  # seconds
    power: Optional[float] = field(default=None, metadata={"key": "power_w"})  # watts
    energy: Optional[float] = field(default=None, metadata={"key": "energy_j"})  # joules

    def __post_init__(self):
        if self.input_len < 1:
            raise InvariantViolation("measurement.input_len", "input_len must be >= 1")
        if self.input_len > _MAX_TOKENS:
            raise InvariantViolation("measurement.input_len", "input_len must be <= 2**53")
        if self.output_len < 0:
            raise InvariantViolation("measurement.output_len", "output_len must be >= 0")
        if self.output_len > _MAX_TOKENS:
            raise InvariantViolation("measurement.output_len", "output_len must be <= 2**53")
        if not self.latency > 0:
            raise InvariantViolation("measurement.latency", "latency must be > 0")
        if self.power is not None and not self.power > 0:
            raise InvariantViolation("measurement.power", "power must be > 0 when present")
        if self.energy is not None and not self.energy > 0:
            raise InvariantViolation("measurement.energy", "energy must be > 0 when present")


@dataclass(frozen=True)
class ModelProfile:
    """A named model and whichever coefficient sets are published for it.

    A profile checks itself when it is built and raises the first
    :class:`InvariantViolation` it finds: its ``id``, then ``param_count``,
    then each present coefficient set's rules in field order, each named by
    the profile field that holds the set (``decode_power.floor_watts``),
    then the numbers of ``param_count`` and of each present set, which must
    be finite (an ``unbounded`` field may also be +inf), then the
    positivity of its prefill latency, prefill and decode power and prefill
    energy at 13 grid points in [1, 4096]. A profile that exists passed all
    of them.
    """

    id: str
    param_count: float = field(metadata={"key": "param_b"})  # billions of parameters
    precision: Precision = Precision.FP16
    prefill_latency: Optional[PrefillLatencyCoeffs] = None
    decode_latency: Optional[DecodeLatencyCoeffs] = None
    prefill_power: Optional[PiecewisePowerModel] = None
    prefill_energy: Optional[PiecewiseEnergyModel] = None
    decode_power: Optional[PiecewisePowerModel] = None
    decode_energy: Optional[PiecewiseEnergyModel] = None

    def __post_init__(self):
        if not self.id:
            raise InvariantViolation("profile.id", "id must be non-empty")
        if not self.param_count > 0:
            raise InvariantViolation("profile.param_count", "param_count must be > 0")
        names = self.capabilities()
        for name in names:
            getattr(self, name)._check(name)
        _check_finite(self, "profile")
        for name in names:
            _check_finite(getattr(self, name), name)
        # TBT needs no grid: decode_latency's rule makes it positive at
        # contexts 0 and MAX_CONTEXT, and it is linear in the context.
        grid = [1, 63, 64, 127, 128, 256, 384, 512, 800, 1024, 2048, 4095, 4096]
        checks = [  # (coefficient set, its value at a grid point, what a value <= 0 is)
            ("prefill_latency", lambda _, i: prefill_latency(self, i), "latency at input_len"),
            ("prefill_power", piecewise_power_value, "watts at input_len"),
            # A decode position at the threshold is on the log branch (inclusive=False).
            ("decode_power", lambda m, o: piecewise_power_value(m, o, False), "watts at output_pos"),
            ("prefill_energy", piecewise_energy_value, "energy at input_len"),
        ]
        for name, value, what in checks:
            model = getattr(self, name)
            if model is None:
                continue
            bad = next((x for x in grid if value(model, x) <= 0), None)
            if bad is not None:
                raise InvariantViolation(name, f"nonpositive {what}={bad}")

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


@cache
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


def _admits(f: _Field, value) -> bool:
    """Whether float field ``f`` takes ``value``: finite as a float, or +inf where ``f`` is unbounded."""
    try:
        value = float(value)
    except OverflowError:  # an integer past the float range
        return False
    return math.isfinite(value) or (f.unbounded and value == math.inf)


def _check_finite(record, where: str) -> None:
    """Raise an InvariantViolation for the first present float field of ``record`` that ``_admits`` refuses."""
    for f in _schema(type(record)):
        value = getattr(record, f.name)
        if f.kind is float and value is not None and not _admits(f, value):
            rule = f"{f.name} must be finite" + (" or +inf" if f.unbounded else "")
            raise InvariantViolation(f"{where}.{f.name}", rule)


def _source_text(source: Source, newline: str | None = None) -> str:
    """All the text of a path, opened with ``newline`` as ``open`` takes it, or of an open text stream."""
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source, encoding="utf-8", newline=newline) as fh:
                return fh.read()
        return source.read()
    except FileNotFoundError:
        raise ParseError(f"no such file: {source}") from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read {source}: {reason}") from None


def _from_json(cls, obj, where: str):
    """A ``cls`` record from a JSON object; ``where`` names it in errors.

    A key that the schema does not name is refused, the first in document
    order, so a misspelt key cannot load as an absent set or a default.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object")
    schema = _schema(cls)
    keys = {f.key for f in schema}
    for key in obj:
        if key not in keys:
            raise ParseError(f"{where}: unknown key {key!r}")
    values = {}
    for f in schema:
        value = obj.get(f.key)
        if value is None or (f.unbounded and value == "inf"):
            if f.default is _REQUIRED:
                raise ParseError(f"{where}.{f.key} is required")
            values[f.name] = f.default
        else:
            values[f.name] = _json_value(f, value, where)
    return cls(**values)


def _json_value(f: _Field, value, where: str):
    """A present JSON value as the type of field ``f``: a float, a record, an Enum or a str."""
    kind = f.kind
    if kind is float:
        if type(value) in (int, float) and _admits(f, value):  # a bool is no number
            return float(value)
        raise ParseError(f"{where}.{f.key} must be a finite number")
    if is_dataclass(kind):
        return _from_json(kind, value, f"{where}.{f.key}")
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except (ValueError, TypeError):
            raise ParseError(f"{where}.{f.key}: unknown value {value!r}") from None
    if type(value) is not kind:  # a str field takes only a JSON string
        raise ParseError(f"{where}.{f.key} must be a string")
    return value


def to_json(record) -> dict:
    """A record as a JSON object, keys in field order.

    None is left out, and an infinite unbounded value is null.
    """
    out = {}
    for f in _schema(type(record)):
        value = getattr(record, f.name)
        if value is None:
            continue
        if f.unbounded and math.isinf(value):
            value = None
        elif isinstance(value, Enum):
            value = value.value
        elif is_dataclass(value):
            value = to_json(value)
        out[f.key] = value
    return out


@cache
def _column_parser(kind) -> Callable[[list[str]], list]:
    """How a column of cells becomes ``kind`` values, with one C-level map.

    A cell that ``float`` or ``int`` rejects, a non-finite float or an
    unknown Enum value raises ValueError, with ``float``'s or ``int``'s own
    message or one that names the first such cell.
    """
    if kind is str:
        return lambda cells: cells
    if kind is int:
        return lambda cells: list(map(int, cells))
    if kind is float:

        def column(cells):
            values = list(map(float, cells))
            if not all(map(math.isfinite, values)):
                cell = cells[list(map(math.isfinite, values)).index(False)]
                raise ValueError(f"non-finite value {cell!r}")
            return values

        return column
    members = {member.value: member for member in kind}  # a dict is faster than kind(cell)

    def column(cells):
        try:
            return list(map(members.__getitem__, cells))
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]!r} is not a valid {kind.__name__}") from None

    return column


# Rows per bulk pass; one chunk's cells are all the memory that a pass adds.
_CHUNK = 256


def _chunk(reader) -> tuple[list[list[str]], list[int], Optional[ParseError]]:
    """The next ``_CHUNK`` rows, the line before each, and csv's refusal of the next.

    Row ``i`` starts on line ``ends[i] + 1``, where ``ends[i]`` is the last
    line read before it; ``ends`` has one more entry, for the row after the
    chunk. csv refuses a cell past its field limit (and, before Python 3.11,
    a NUL byte); the rows before it are returned, so they are checked first.
    """
    rows, ends = [], [reader.line_num]
    try:
        for row in islice(reader, _CHUNK):
            rows.append(row)
            ends.append(reader.line_num)
    except csv.Error as exc:
        return rows, ends, ParseError(str(exc), line=ends[-1] + 1)
    return rows, ends, None


def _records(cls, columns, rows: list[list[str]]) -> list:
    """The records of ``rows``, built a column at a time.

    ``columns`` holds each field's slot store (its slot descriptor's
    ``__set__``), column parser and default (``_REQUIRED`` for none). A
    row of the wrong width or a cell that its parser refuses raises
    ValueError; an empty cell takes its field's default, or is parsed if
    the field has none. A record that refuses itself raises its
    InvariantViolation.
    """
    widths = set(map(len, rows)) - {len(columns)}
    if widths:
        raise ValueError(f"expected {len(columns)} cells, got {widths.pop()}")
    parsed = []
    for (_, parse, default), cells in zip(columns, zip(*rows)):
        cells = list(map(str.strip, cells))
        if default is _REQUIRED or "" not in cells:
            parsed.append(parse(cells))
        else:  # an empty cell takes the default, as an omitted keyword does
            present = iter(parse([cell for cell in cells if cell]))
            parsed.append([next(present) if cell else default for cell in cells])
    # Each column goes into its field's slot with one map, then every record
    # is checked in row order, so the first bad record raises first.
    records = list(map(object.__new__, repeat(cls, len(rows))))
    for (store, _, _), values in zip(columns, parsed):
        deque(map(store, records, values), 0)
    deque(map(cls.__post_init__, records), 0)
    return records


def _refused_chunk(cls, columns, rows: list[list[str]], ends: list[int]) -> list:
    """The records of a chunk that ``_records`` refused, or its first bad row's error.

    The blank rows are dropped and the rest get one more bulk pass. If that
    fails too, each row goes through ``_records`` alone, and the first that
    fails raises a ParseError, or its InvariantViolation, with its line; if
    none does, the chunk's own error is raised.
    """
    kept = [(row, end + 1) for row, end in zip(rows, ends) if any(map(str.strip, row))]
    try:
        return _records(cls, columns, [row for row, _ in kept])
    except (ValueError, InvariantViolation):
        for row, line in kept:
            try:
                _records(cls, columns, [row])
            except ValueError as exc:
                raise ParseError(str(exc), line=line) from None
            except InvariantViolation as exc:
                raise InvariantViolation(exc.field, exc.rule, line=line) from None
        raise


def read_rows(source: Source, cls, what: str) -> list:
    """The records of the non-blank rows of a CSV table of ``cls``.

    The header names the fields' columns in field order. Each cell is
    stripped and parsed by its field's type; an empty cell means the field's
    default. ``what`` names the table in errors, and each error names the
    physical line that its row starts on, so a quoted cell that spans lines
    counts each of them. An InvariantViolation that a record raises when it
    is built is raised again with the row's line. ``cls`` must be a
    frozen dataclass with ``slots=True`` that checks itself in
    ``__post_init__``.

    One builder makes every record: ``_records`` parses a chunk of
    ``_CHUNK`` rows a column at a time and stores each column into its
    field's slot through the slot descriptor, as the frozen ``__init__``
    would store it, without its frame. A chunk that it refuses drops its
    blank rows and gets one more pass; if that fails too, its rows go
    through ``_records`` one at a time, only to name the first bad row.
    A ``cls`` without slots or ``__post_init__`` raises TypeError.
    """
    if "__slots__" not in vars(cls) or not hasattr(cls, "__post_init__"):
        rule = "a frozen dataclass with slots=True that checks itself in __post_init__"
        raise TypeError(f"read_rows needs {rule}; {cls.__name__} is not")
    schema = _schema(cls)
    header = [f.key for f in schema]
    reader = csv.reader(io.StringIO(_source_text(source, newline=""), newline=""))
    try:
        first = next(reader, None)
    except csv.Error as exc:
        raise ParseError(str(exc), line=1) from None
    if first is None:
        raise ParseError(f"empty {what} (header required)")
    if [h.strip() for h in first] != header:
        raise ParseError(f"bad header {first!r}, expected {','.join(header)}", line=1)
    columns = [(vars(cls)[f.name].__set__, _column_parser(f.kind), f.default) for f in schema]
    records = []
    while True:
        rows, ends, refused = _chunk(reader)
        try:
            records += _records(cls, columns, rows)
        except (ValueError, InvariantViolation):
            records += _refused_chunk(cls, columns, rows, ends)
        if refused is not None:
            raise refused
        if len(rows) < _CHUNK:
            return records


# ---------------------------------------------------------------------------
# Profile file (JSON) ingestion and serialization
# ---------------------------------------------------------------------------

def load_profiles(source: Source) -> ProfileRegistry:
    """Parse a profile file into a registry.

    ``source`` is a path or an open text stream. Raises :class:`ParseError`
    on malformed syntax or a value of the wrong type (numbers must be finite;
    only a threshold may be unbounded), :class:`DuplicateId` on a repeated
    id, and the :class:`InvariantViolation` that a profile raises when it is
    built (see :class:`ModelProfile`). Each profile is parsed whole before it
    is built, so a ParseError anywhere in it comes before its violation.
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
    entries = enumerate(doc["profiles"])
    return ProfileRegistry([_from_json(ModelProfile, e, f"profiles[{i}]") for i, e in entries])


def serialize_profiles(registry: ProfileRegistry) -> str:
    """Serialize a registry back to profile-file JSON (round-trip stable)."""
    doc = {"profiles": [to_json(registry.get(i)) for i in registry.ids()]}
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# The evaluators that a profile's check runs, and the MAPE score `validate` reports
# ---------------------------------------------------------------------------

def padded_length(input_len: int) -> int:
    """Round the input length up to the hardware tile multiple (128)."""
    if not 1 <= input_len <= _MAX_TOKENS:
        raise DomainError("input_len must be in [1, 2**53]", got=input_len)
    return ((input_len + PAD_MULTIPLE - 1) // PAD_MULTIPLE) * PAD_MULTIPLE


def prefill_latency(profile: ModelProfile, input_len: int) -> float:
    """Seconds to process the prompt: a*I_pad^2 + b*I_pad + c."""
    coeffs = profile.prefill_latency
    if coeffs is None:
        raise MissingCoefficient(profile.id, "prefill_latency")
    ipad = padded_length(input_len)
    return coeffs.a * ipad * ipad + coeffs.b * ipad + coeffs.c


def piecewise_power_value(
    model: PiecewisePowerModel, x: float, inclusive: bool = True
) -> float:
    """Evaluate a constant/log power model at x tokens.

    ``inclusive`` controls whether x equal to the threshold falls on the
    constant branch (prefill convention) or the log branch (decode convention).
    """
    on_floor = x <= model.threshold if inclusive else x < model.threshold
    if on_floor:
        return model.floor_watts
    return model.log_alpha * math.log(x) + model.log_beta


def piecewise_energy_value(model: PiecewiseEnergyModel, x: float) -> float:
    """Evaluate an exp-decay/log energy-per-token model at x tokens."""
    if x <= model.threshold:
        return model.exp_A * math.exp(-model.exp_lambda * x) + model.exp_C
    return model.log_alpha * math.log(x) + model.log_beta


def _pairwise_sum(values: Sequence[float]) -> float:
    """The float64 sum that ``np.mean`` divides by n, bit for bit, without numpy.

    numpy's pairwise summation: a running sum below 8 values, eight
    interleaved running sums up to 128, and above that the sums of two
    halves split at n/2 rounded down to a multiple of 8. numpy adds the
    result to a 0.0 start, which drops the sign of a zero; starting every
    running sum at 0.0 does the same.
    """
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        tail = n - n % 8
        r = [reduce(add, values[j:tail:8], 0.0) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[tail:], head)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def mape(predictions: Sequence[float], actuals: Sequence[float]) -> float:
    """Mean absolute percentage error, as a percent."""
    if len(predictions) != len(actuals):
        raise LengthMismatch(
            f"{len(predictions)} predictions vs {len(actuals)} actuals"
        )
    if len(actuals) == 0:
        raise LengthMismatch("empty inputs")
    if any(a == 0 for a in actuals):
        raise ZeroActual("an actual value is zero; percentage error undefined")
    errors = [abs(p - a) / abs(a) for p, a in zip(predictions, actuals)]
    result = 100.0 * float(_pairwise_sum(errors) / len(errors))
    if not math.isfinite(result):
        raise DomainError(f"MAPE is {result}: a percentage error is not finite")
    return result


# ---------------------------------------------------------------------------
# Measurement file (CSV) ingestion
# ---------------------------------------------------------------------------

def load_measurements(source: Source) -> list[MeasurementRecord]:
    """Parse the measurement CSV, a path or an open text stream, into validated records."""
    return read_rows(source, MeasurementRecord, "measurement file")


# ---------------------------------------------------------------------------
# Built-in defaults
# ---------------------------------------------------------------------------

def builtin_profiles_path() -> Path:
    return Path(__file__).parent / "data" / "profiles.json"


@cache
def default_registry() -> ProfileRegistry:
    """Registry built from the packaged coefficient file (cached)."""
    return load_profiles(builtin_profiles_path())
