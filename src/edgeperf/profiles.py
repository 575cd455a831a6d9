"""Model profiles: coefficient sets, the profile registry, and data-file ingestion.

A profile bundles the fitted coefficient sets of one deployed model. Partial
profiles are legal: operations that need an absent set raise
:class:`~edgeperf.errors.MissingCoefficient` instead of guessing.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import IO, Iterator, Optional, Union

from .errors import DuplicateId, InvariantViolation, ParseError, UnknownModel

Source = Union[str, Path, IO[str]]

PAD_MULTIPLE = 128


class Precision(str, Enum):
    FP16 = "fp16"
    W4A16 = "w4a16"


class Phase(str, Enum):
    PREFILL = "prefill"
    DECODE = "decode"


class EnergyUnit(str, Enum):
    JOULES_PER_TOKEN = "joules_per_token"
    FITTED = "fitted"


@dataclass(frozen=True)
class Issue:
    """One validation finding: which field, which rule it breaks."""

    field: str
    rule: str

    def __str__(self):
        return f"{self.field}: {self.rule}"


@dataclass(frozen=True)
class PrefillLatencyCoeffs:
    """Quadratic prefill-latency coefficients: a*I_pad^2 + b*I_pad + c seconds."""

    a: float  # seconds per token^2
    b: float  # seconds per token
    c: float  # seconds

    def issues(self) -> list[Issue]:
        out = []
        if not self.a > 0:
            out.append(Issue("prefill_latency.a", "a must be > 0"))
        if self.c < 0:
            out.append(Issue("prefill_latency.c", "c must be >= 0"))
        return out


@dataclass(frozen=True)
class DecodeLatencyCoeffs:
    """Linear time-between-tokens coefficients: TBT = m*context + n seconds."""

    m: float  # seconds per context token
    n: float  # seconds per output token

    # Context range over which TBT positivity is required by validation.
    MAX_CONTEXT = 8192

    def issues(self) -> list[Issue]:
        out = []
        if not self.n > 0:
            out.append(Issue("decode_latency.n", "n must be > 0"))
        elif self.n + self.m * self.MAX_CONTEXT <= 0:
            out.append(
                Issue(
                    "decode_latency.m",
                    f"TBT nonpositive within context range [1, {self.MAX_CONTEXT}]",
                )
            )
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
    threshold: float  # tokens; math.inf for constant-only models
    log_alpha: Optional[float] = None  # watts per log(token)
    log_beta: Optional[float] = None  # watts
    log10: bool = False  # natural log unless explicitly refitted in log10

    def issues(self) -> list[Issue]:
        out = []
        if not self.floor_watts > 0:
            out.append(Issue("power.floor_watts", "floor_watts must be > 0"))
        if self.threshold < 0:
            out.append(Issue("power.threshold", "threshold must be >= 0"))
        if math.isfinite(self.threshold) and (
            self.log_alpha is None or self.log_beta is None
        ):
            out.append(
                Issue("power.log_alpha", "log branch parameters required for finite threshold")
            )
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

    threshold: float  # tokens; 0 = log-only, math.inf = decay-only
    exp_A: Optional[float] = None
    exp_lambda: Optional[float] = None  # per token
    exp_C: Optional[float] = None
    log_alpha: Optional[float] = None
    log_beta: Optional[float] = None
    unit: EnergyUnit = EnergyUnit.FITTED
    log10: bool = False

    def issues(self) -> list[Issue]:
        out = []
        if self.threshold < 0:
            out.append(Issue("energy.threshold", "threshold must be >= 0"))
        if self.threshold > 0:
            if self.exp_A is None or self.exp_lambda is None or self.exp_C is None:
                out.append(
                    Issue("energy.exp_A", "decay branch parameters required for threshold > 0")
                )
            else:
                if self.exp_lambda < 0:
                    out.append(Issue("energy.exp_lambda", "exp_lambda must be >= 0"))
                if self.exp_C < 0:
                    out.append(Issue("energy.exp_C", "exp_C must be >= 0"))
        if self.threshold < math.inf and (self.log_alpha is None or self.log_beta is None):
            out.append(
                Issue("energy.log_alpha", "log branch parameters required for finite threshold")
            )
        return out


@dataclass(frozen=True)
class MeasurementRecord:
    """One raw benchmark row."""

    phase: Phase
    input_len: int  # tokens
    output_len: int  # tokens, 0 for prefill rows
    latency: float  # seconds
    power: Optional[float] = None  # watts
    energy: Optional[float] = None  # joules

    def issues(self) -> list[Issue]:
        out = []
        if self.input_len < 1:
            out.append(Issue("measurement.input_len", "input_len must be >= 1"))
        if self.output_len < 0:
            out.append(Issue("measurement.output_len", "output_len must be >= 0"))
        if not self.latency > 0:
            out.append(Issue("measurement.latency", "latency must be > 0"))
        if self.power is not None and not self.power > 0:
            out.append(Issue("measurement.power", "power must be > 0 when present"))
        if self.energy is not None and not self.energy > 0:
            out.append(Issue("measurement.energy", "energy must be > 0 when present"))
        return out


@dataclass(frozen=True)
class ModelProfile:
    """A named model and whichever coefficient sets are published for it."""

    id: str
    param_count: float  # billions of parameters
    precision: Precision = Precision.FP16
    prefill_latency: Optional[PrefillLatencyCoeffs] = None
    decode_latency: Optional[DecodeLatencyCoeffs] = None
    prefill_power: Optional[PiecewisePowerModel] = None
    prefill_energy: Optional[PiecewiseEnergyModel] = None
    decode_power: Optional[PiecewisePowerModel] = None
    decode_energy: Optional[PiecewiseEnergyModel] = None

    _COEFF_FIELDS = (
        "prefill_latency",
        "decode_latency",
        "prefill_power",
        "prefill_energy",
        "decode_power",
        "decode_energy",
    )

    def issues(self) -> list[Issue]:
        out = []
        if not self.id:
            out.append(Issue("profile.id", "id must be non-empty"))
        if not self.param_count > 0:
            out.append(Issue("profile.param_count", "param_count must be > 0"))
        for name in self._COEFF_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out.extend(value.issues())
        return out

    def capabilities(self) -> list[str]:
        """Names of the coefficient sets this profile carries."""
        return [n for n in self._COEFF_FIELDS if getattr(self, n) is not None]


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


def get_profile(registry: ProfileRegistry, model_id: str) -> ModelProfile:
    """Look up a profile by id; raises :class:`UnknownModel` when absent."""
    return registry.get(model_id)


# ---------------------------------------------------------------------------
# Profile file (JSON) ingestion and serialization
# ---------------------------------------------------------------------------

def _read_text(source: Source) -> str:
    if hasattr(source, "read"):
        return source.read()
    # A plain string that looks like a document is treated as document text.
    if isinstance(source, str) and (
        source.lstrip().startswith(("{", "[")) or source.strip() == ""
    ):
        return source
    path = Path(source)
    if path.exists():
        return path.read_text(encoding="utf-8")
    raise ParseError(f"no such file: {source}")


def _require_number(obj: dict, key: str, where: str) -> float:
    if key not in obj:
        raise ParseError(f"{where}: missing required key {key!r}")
    value = obj[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where}: key {key!r} must be a number")
    return float(value)


def _optional_number(obj: dict, key: str) -> Optional[float]:
    value = obj.get(key)
    if value is None:
        return None
    return float(value)


def _parse_threshold(obj: dict, where: str) -> float:
    # null or "inf" both mean an unbounded first branch.
    value = obj.get("threshold")
    if value is None or value == "inf":
        return math.inf
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where}: threshold must be a number, null, or \"inf\"")
    return float(value)


def _parse_power(obj: dict, where: str) -> PiecewisePowerModel:
    return PiecewisePowerModel(
        floor_watts=_require_number(obj, "floor_watts", where),
        threshold=_parse_threshold(obj, where),
        log_alpha=_optional_number(obj, "log_alpha"),
        log_beta=_optional_number(obj, "log_beta"),
        log10=bool(obj.get("log10", False)),
    )


def _parse_energy(obj: dict, where: str) -> PiecewiseEnergyModel:
    unit = obj.get("unit", EnergyUnit.FITTED.value)
    try:
        unit = EnergyUnit(unit)
    except ValueError:
        raise ParseError(f"{where}: unknown energy unit {unit!r}") from None
    return PiecewiseEnergyModel(
        threshold=_parse_threshold(obj, where),
        exp_A=_optional_number(obj, "exp_A"),
        exp_lambda=_optional_number(obj, "exp_lambda"),
        exp_C=_optional_number(obj, "exp_C"),
        log_alpha=_optional_number(obj, "log_alpha"),
        log_beta=_optional_number(obj, "log_beta"),
        unit=unit,
        log10=bool(obj.get("log10", False)),
    )


def _parse_profile(obj: dict) -> ModelProfile:
    if not isinstance(obj, dict):
        raise ParseError("each profile entry must be an object")
    model_id = obj.get("id")
    if not isinstance(model_id, str) or not model_id:
        raise ParseError("profile entry: 'id' must be a non-empty string")
    where = f"profile {model_id!r}"
    try:
        precision = Precision(obj.get("precision", Precision.FP16.value))
    except ValueError:
        raise ParseError(f"{where}: unknown precision {obj.get('precision')!r}") from None

    def section(key):
        sec = obj.get(key)
        if sec is None:
            return None
        if not isinstance(sec, dict):
            raise ParseError(f"{where}: section {key!r} must be an object")
        return sec

    pl = section("prefill_latency")
    dl = section("decode_latency")
    profile = ModelProfile(
        id=model_id,
        param_count=_require_number(obj, "param_b", where),
        precision=precision,
        prefill_latency=None
        if pl is None
        else PrefillLatencyCoeffs(
            a=_require_number(pl, "a", where),
            b=_require_number(pl, "b", where),
            c=_require_number(pl, "c", where),
        ),
        decode_latency=None
        if dl is None
        else DecodeLatencyCoeffs(
            m=_require_number(dl, "m", where),
            n=_require_number(dl, "n", where),
        ),
        prefill_power=None
        if section("prefill_power") is None
        else _parse_power(section("prefill_power"), where),
        prefill_energy=None
        if section("prefill_energy") is None
        else _parse_energy(section("prefill_energy"), where),
        decode_power=None
        if section("decode_power") is None
        else _parse_power(section("decode_power"), where),
        decode_energy=None
        if section("decode_energy") is None
        else _parse_energy(section("decode_energy"), where),
    )
    bad = profile.issues()
    if bad:
        raise InvariantViolation(bad[0].field, bad[0].rule)
    return profile


def load_profiles(source: Source) -> ProfileRegistry:
    """Parse a profile file into a registry, enforcing all invariants.

    Raises :class:`ParseError` on malformed syntax, :class:`DuplicateId` on a
    repeated id, and :class:`InvariantViolation` when a coefficient value
    breaks its type's rules.
    """
    text = _read_text(source)
    if text.strip() == "":
        return ProfileRegistry([])
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, dict) or not isinstance(doc.get("profiles"), list):
        raise ParseError("profile file must be an object with a 'profiles' array")
    return ProfileRegistry([_parse_profile(entry) for entry in doc["profiles"]])


def _threshold_json(value: float):
    return None if math.isinf(value) else value


def _power_json(model: PiecewisePowerModel) -> dict:
    out = {"floor_watts": model.floor_watts, "threshold": _threshold_json(model.threshold)}
    if model.log_alpha is not None:
        out["log_alpha"] = model.log_alpha
    if model.log_beta is not None:
        out["log_beta"] = model.log_beta
    if model.log10:
        out["log10"] = True
    return out


def _energy_json(model: PiecewiseEnergyModel) -> dict:
    out = {"threshold": _threshold_json(model.threshold), "unit": model.unit.value}
    for key in ("exp_A", "exp_lambda", "exp_C", "log_alpha", "log_beta"):
        value = getattr(model, key)
        if value is not None:
            out[key] = value
    if model.log10:
        out["log10"] = True
    return out


def profile_to_json(profile: ModelProfile) -> dict:
    out: dict = {
        "id": profile.id,
        "param_b": profile.param_count,
        "precision": profile.precision.value,
    }
    if profile.prefill_latency is not None:
        c = profile.prefill_latency
        out["prefill_latency"] = {"a": c.a, "b": c.b, "c": c.c}
    if profile.decode_latency is not None:
        c = profile.decode_latency
        out["decode_latency"] = {"m": c.m, "n": c.n}
    if profile.prefill_power is not None:
        out["prefill_power"] = _power_json(profile.prefill_power)
    if profile.prefill_energy is not None:
        out["prefill_energy"] = _energy_json(profile.prefill_energy)
    if profile.decode_power is not None:
        out["decode_power"] = _power_json(profile.decode_power)
    if profile.decode_energy is not None:
        out["decode_energy"] = _energy_json(profile.decode_energy)
    return out


def serialize_profiles(registry: ProfileRegistry) -> str:
    """Serialize a registry back to profile-file JSON (round-trip stable)."""
    doc = {"profiles": [profile_to_json(registry.get(i)) for i in registry.ids()]}
    return json.dumps(doc, indent=2)


def validate_profile(profile: ModelProfile) -> list[Issue]:
    """Full validation: type invariants plus positivity over I, O in [1, 4096].

    Issues are returned, never raised; an empty list means the profile is
    sound over the checked domain.
    """
    from . import energy as energy_mod  # local import to avoid a cycle
    from . import latency as latency_mod

    out = profile.issues()
    if out:
        return out

    grid = [1, 63, 64, 127, 128, 256, 384, 512, 800, 1024, 2048, 4095, 4096]
    if profile.prefill_latency is not None:
        for i in grid:
            if latency_mod.prefill_latency(profile, i) <= 0:
                out.append(
                    Issue("prefill_latency", f"nonpositive latency at input_len={i}")
                )
                break
    if profile.decode_latency is not None:
        # TBT must stay positive across the widest context reachable in-domain.
        for ctx in (1, 4096, 8191):
            if latency_mod.tbt_value(profile.decode_latency, ctx) <= 0:
                out.append(Issue("decode_latency", f"TBT nonpositive at context {ctx}"))
                break
    if profile.prefill_power is not None:
        for i in grid:
            if energy_mod.piecewise_power_value(profile.prefill_power, i) <= 0:
                out.append(Issue("prefill_power", f"nonpositive watts at input_len={i}"))
                break
    if profile.decode_power is not None:
        for o in grid:
            if energy_mod.piecewise_power_value(profile.decode_power, o) <= 0:
                out.append(Issue("decode_power", f"nonpositive watts at output_pos={o}"))
                break
    if profile.prefill_energy is not None:
        for i in grid:
            if energy_mod.piecewise_energy_value(profile.prefill_energy, i) <= 0:
                out.append(Issue("prefill_energy", f"nonpositive energy at input_len={i}"))
                break
    return out


# ---------------------------------------------------------------------------
# Measurement file (CSV) ingestion
# ---------------------------------------------------------------------------

MEASUREMENT_HEADER = ["phase", "input_len", "output_len", "latency_s", "power_w", "energy_j"]


def load_measurements(source: Source) -> list[MeasurementRecord]:
    """Parse the measurement CSV schema into validated records."""
    text = _read_text_csv(source)
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty measurement file (header required)") from None
    if [h.strip() for h in header] != MEASUREMENT_HEADER:
        raise ParseError(
            f"bad header {header!r}, expected {','.join(MEASUREMENT_HEADER)}", line=1
        )
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != len(MEASUREMENT_HEADER):
            raise ParseError(f"expected {len(MEASUREMENT_HEADER)} cells, got {len(row)}", line=lineno)
        try:
            record = MeasurementRecord(
                phase=Phase(row[0].strip()),
                input_len=int(row[1]),
                output_len=int(row[2]) if row[2].strip() else 0,
                latency=_finite_cell(row[3]),
                power=_finite_cell(row[4]) if row[4].strip() else None,
                energy=_finite_cell(row[5]) if row[5].strip() else None,
            )
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        bad = record.issues()
        if bad:
            raise InvariantViolation(bad[0].field, f"{bad[0].rule} (line {lineno})")
        records.append(record)
    return records


def _finite_cell(cell: str) -> float:
    """A measurement cell as a float; ValueError (a ParseError to the caller) unless finite."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell.strip()!r}")
    return value


def _read_text_csv(source: Source) -> str:
    if hasattr(source, "read"):
        return source.read()
    if isinstance(source, str) and ("\n" in source or "," in source):
        return source
    path = Path(source)
    if path.exists():
        return path.read_text(encoding="utf-8")
    raise ParseError(f"no such file: {source}")


# ---------------------------------------------------------------------------
# Built-in defaults
# ---------------------------------------------------------------------------

_default_registry: Optional[ProfileRegistry] = None


def builtin_profiles_path() -> Path:
    return Path(resources.files("edgeperf").joinpath("data/profiles.json"))


def default_registry() -> ProfileRegistry:
    """Registry built from the packaged coefficient file (cached)."""
    global _default_registry
    if _default_registry is None:
        _default_registry = load_profiles(builtin_profiles_path())
    return _default_registry
