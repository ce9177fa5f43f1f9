"""Domain data model, scenarios, case-file ingestion, validation and case arithmetic.

A case is a single UTF-8 JSON document, and the dataclasses below are its
schema: each section's keys are a dataclass's field names, and a key left
out takes the default held on the dataclass (or, for devices and upkeep
prices, in the `DEFAULT_*` tables).  Required top-level keys: `loads`,
`wind`, `tariffs`; these three are laid out unlike their fields (see
`case_to_dict`).  Optional keys: `horizon`, `converters`, `storages`,
`carbon`, `dr`, `purchase_caps` (1.5x each carrier's peak load when absent),
`maintenance`, `chp`, `gas_kwh_per_m3`, `sources`.  Unknown keys are an error
so typos cannot silently change a study.

All powers are kW (gas as kW-equivalent thermal; `gas_kwh_per_m3` is the
conversion constant for callers holding volumetric data), energies kWh,
emission factors kg/kWh, prices currency per kWh or per kg.

Reading refuses a non-finite number (`NaN`, `Infinity`, `1e999`); beyond
that, construction never raises on bad numbers: `validate_case` returns a
report so partially-wrong cases can be inspected.  `require_valid` (run by
`load_case` and `dispatch.build_model`) raises `UnitError` on the first error.

The bundled scenarios and the case arithmetic that the build and `verify`
share (`chp_params`, `gt_gas_cap`, `gas_unit_reach`) live here, below both.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import NamedTuple

CARRIERS = ("electric", "gas", "heat")
CONVERTER_NAMES = ("P2G", "GT", "WHB", "GB")

# HiGHS reads a bound or right-hand side of this size as infinite
SOLVER_INFINITY = 1e20
# the largest |ratio| an extraction-mode corridor row may carry: HiGHS
# refuses 1e15, and from 6e10 on some bundled scenarios fail numerically
CHP_RATIO_LIMIT = 1e9

MECHANISM_NONE = "none"
MECHANISM_TRADITIONAL = "traditional"
MECHANISM_TIERED = "tiered"


class CaseError(Exception):
    """Base for case-document failures; `locator` points at the bad field."""

    def __init__(self, message: str, locator: str = ""):
        super().__init__(f"{locator}: {message}" if locator else message)
        self.locator = locator


class ParseError(CaseError):
    pass


class SchemaError(CaseError):
    pass


class UnitError(CaseError):
    pass


# -- domain types ------------------------------------------------------------


@dataclass(frozen=True)
class Horizon:
    periods: int = 24
    step_hours: float = 1.0


@dataclass(frozen=True)
class CarrierProfile:
    carrier: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class TariffProfile:
    electricity_price: tuple[float, ...]
    gas_price: tuple[float, ...]


@dataclass(frozen=True)
class ConverterParams:
    name: str
    capacity_kw: float
    efficiencies: dict[str, float]
    ramp_fraction: float = 0.2
    min_output_kw: float = 0.0


@dataclass(frozen=True)
class StorageParams:
    carrier: str
    capacity_kwh: float
    soc_min_frac: float = 0.1
    soc_max_frac: float = 0.9
    power_limit_fraction: float = 0.2
    charge_eff: float = 0.95
    discharge_eff: float = 0.95
    soc_initial_frac: float = 0.5


@dataclass(frozen=True)
class CarbonPolicy:
    mechanism: str = MECHANISM_TIERED
    sigma_e: float = 0.798
    sigma_h: float = 0.385
    sigma_gload: float = 0.180
    sigma_eh: float = 2.0
    lambda_base: float = 0.251
    alpha_growth: float = 0.25
    interval_d: float = 2000.0
    coal_quad: tuple[float, float, float] = (0.0, 0.9, 1.0e-4)
    gas_quad: tuple[float, float, float] = (0.0, 0.48, 8.0e-5)
    delta_gasload: float = 0.20
    theta_p2g: float = 0.2
    extra_tiers: int = 0


@dataclass(frozen=True)
class DrPolicy:
    shiftable_fraction: dict[str, float] = field(
        default_factory=lambda: {k: 0.10 for k in CARRIERS}
    )
    substitutable_fraction: dict[str, float] = field(
        default_factory=lambda: {k: 0.05 for k in CARRIERS}
    )
    mu_shift: float = 0.2
    mu_subst: float = 0.3
    satisfaction_min: float = 0.85
    # per-carrier (min, max) per-period adjustment; None = +/- that period's base
    shift_bounds: dict[str, tuple[float, float] | None] = field(
        default_factory=lambda: {k: None for k in CARRIERS}
    )
    subst_conversion: dict[str, float] = field(
        default_factory=lambda: {k: 1.0 for k in CARRIERS}
    )
    literal_eq2: bool = False
    shift_carriers: tuple[str, ...] = CARRIERS
    subst_carriers: tuple[str, ...] = CARRIERS


@dataclass(frozen=True)
class ChpOptions:
    extraction_mode: bool = False
    ratio_min: float = 2.0
    ratio_max: float = 3.0


@dataclass(frozen=True)
class CaseData:
    horizon: Horizon
    loads: dict[str, CarrierProfile]
    wind_profile: tuple[float, ...]
    wind_max_kw: float
    tariffs: TariffProfile
    converters: tuple[ConverterParams, ...]
    storages: tuple[StorageParams, ...]
    carbon: CarbonPolicy
    dr: DrPolicy
    purchase_caps: tuple[float, float]  # (electric, gas) kW
    maintenance: dict[str, float]
    chp: ChpOptions = ChpOptions()
    gas_kwh_per_m3: float = 10.0
    sources: dict[str, str] = field(default_factory=dict)

    def converter(self, name: str) -> ConverterParams | None:
        for conv in self.converters:
            if conv.name == name:
                return conv
        return None

    def storage(self, carrier: str) -> StorageParams | None:
        for sto in self.storages:
            if sto.carrier == carrier:
                return sto
        return None


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.errors


# -- scenarios -----------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One pricing/demand-response configuration.

    carbon_in_objective: whether the carbon trading cost is part of the
    minimized objective (it is always reported).  mechanism: how that cost
    is computed ("none", "traditional" single price or "tiered" escalating
    prices); any other raises ValueError.
    """

    id: str
    carbon_in_objective: bool
    mechanism: str
    dr_shift: bool
    dr_substitute: bool

    def __post_init__(self):
        if self.mechanism not in (MECHANISM_NONE, MECHANISM_TRADITIONAL, MECHANISM_TIERED):
            raise ValueError(f"scenario {self.id}: unknown mechanism {self.mechanism!r}")


SCENARIOS: dict[str, ScenarioSpec] = {
    "S1": ScenarioSpec("S1", False, MECHANISM_TIERED, False, False),
    "S2": ScenarioSpec("S2", True, MECHANISM_TRADITIONAL, False, False),
    "S3": ScenarioSpec("S3", True, MECHANISM_TIERED, False, False),
    "S4": ScenarioSpec("S4", True, MECHANISM_TIERED, True, False),
    "S5": ScenarioSpec("S5", True, MECHANISM_TIERED, True, True),
}
SCENARIO_IDS = tuple(SCENARIOS)


def as_scenario(scenario) -> ScenarioSpec:
    """Accept a ScenarioSpec or one of the bundled ids."""
    if isinstance(scenario, ScenarioSpec):
        return scenario
    try:
        return SCENARIOS[str(scenario)]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r} (bundled: {', '.join(SCENARIO_IDS)})"
        ) from None


def _policy(case: CaseData, scenario: ScenarioSpec):
    """The case's carbon policy priced by the scenario's mechanism."""
    if case.carbon.mechanism == scenario.mechanism:
        return case.carbon
    return replace(case.carbon, mechanism=scenario.mechanism)


# -- defaults ------------------------------------------------------------------

# Table-style device defaults: P2G 500 kW at 60%, GT 1000 kW gas input at
# 22% electric / 72% heat, WHB 600 kW at 80%, GB 800 kW at 82%, ramp 20%.
DEFAULT_CONVERTERS = (
    ConverterParams("P2G", 500.0, {"gas": 0.60}),
    ConverterParams("GT", 1000.0, {"electric": 0.22, "heat": 0.72}),
    ConverterParams("WHB", 600.0, {"heat": 0.80}),
    ConverterParams("GB", 800.0, {"heat": 0.82}),
)

DEFAULT_STORAGES = (
    StorageParams("electric", 450.0),
    StorageParams("heat", 500.0),
    StorageParams("gas", 300.0),
)

# per-kWh-output upkeep prices; storage entries charge per kWh of throughput
DEFAULT_MAINTENANCE = {
    "wind": 0.02,
    "P2G": 0.025,
    "GT": 0.03,
    "WHB": 0.015,
    "GB": 0.02,
    "storage_electric": 0.01,
    "storage_gas": 0.01,
    "storage_heat": 0.01,
}


def default_case_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "default_case.json")


# -- reading and writing case documents ---------------------------------------------


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError("missing required field", f"{path}.{key}" if path else key)
    return obj[key]


def _object(value, path: str, allowed=None) -> dict:
    """`value` must be a JSON object whose keys, if `allowed` is given, are among them."""
    if not isinstance(value, dict):
        raise SchemaError(f"expected an object, got {type(value).__name__}", path or "top level")
    if allowed is not None:
        unknown = sorted(set(value) - set(allowed))
        if unknown:
            raise SchemaError(f"unknown keys {unknown}", path or "top level")
    return value


def _number(value, path: str) -> float:
    """Every real number of a case document is read here, so this is the one finiteness check."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"expected a number, got {type(value).__name__}", path)
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"expected a finite number, got {number}", path)
    return number


def _floats(value, path: str, length: int | None = None) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise SchemaError(f"expected an array, got {type(value).__name__}", path)
    numbers = tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))
    if length is not None and len(numbers) != length:
        raise SchemaError(f"expected {length} numbers", path)
    return numbers


def _scalar(value, path: str, default):
    """Read a JSON scalar as the type of the field's default."""
    name = path.rsplit(".", 1)[-1]
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise SchemaError(f"{name} must be a boolean", path)
    elif isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{name} must be an integer", path)
    elif isinstance(default, str):
        if not isinstance(value, str):
            raise SchemaError(f"{name} must be a string", path)
    else:
        return _number(value, path)
    return value


def _map(value, path: str, keys, base: dict, read) -> dict:
    """A JSON object over `keys`, each entry read by `read` and laid over `base`."""
    _object(value, path, keys)
    return {**base, **{k: read(v, f"{path}.{k}") for k, v in value.items()}}


def _per_carrier(value, path: str, base: dict) -> dict[str, float]:
    """One number for every carrier, or a per-carrier map."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return dict.fromkeys(CARRIERS, _number(value, path))
    if not isinstance(value, dict):
        raise SchemaError("expected a number or per-carrier map", path)
    return _map(value, path, CARRIERS, base, _number)


def _bound_pair(value, path: str) -> tuple[float, float] | None:
    return None if value is None else _floats(value, path, 2)


def _carriers(value, path: str, base) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(c in CARRIERS for c in value):
        raise SchemaError(f"expected a subset of {list(CARRIERS)}", path)
    return tuple(value)


def _mechanism(value, path: str, base) -> str:
    if value not in (MECHANISM_NONE, MECHANISM_TRADITIONAL, MECHANISM_TIERED):
        raise SchemaError(f"unknown mechanism {value!r}", path)
    return value


def _sources(value, path: str, base) -> dict[str, str]:
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    ):
        raise SchemaError("sources must map field to provenance string", path)
    return dict(value)


def _items(cls, key: str, value, path: str, base_for) -> list:
    """A JSON array of `cls` records, each read over `base_for(name, locator)`
    where `name` is the record's string `key` field."""
    if not isinstance(value, list):
        raise SchemaError(f"expected an array, got {type(value).__name__}", path)
    out = []
    for i, item in enumerate(value):
        where = f"{path}[{i}]"
        name = _require(_object(item, where), key, where)
        if not isinstance(name, str):
            raise SchemaError(f"{key} must be a string", f"{where}.{key}")
        where = f"{path}[{name}]"
        out.append(_record(cls, item, where, base_for(name, where)))
    return out


def _converters(value, path: str, base) -> tuple[ConverterParams, ...]:
    """Entries override the default converter of their name; all four are kept."""
    by_name = {c.name: c for c in base}

    def base_for(name, where):
        if name not in by_name:
            raise SchemaError(f"unknown converter {name!r} (known: {CONVERTER_NAMES})", where)
        return by_name[name]

    read = _items(ConverterParams, "name", value, path, base_for)
    if len({c.name for c in read}) != len(read):
        raise SchemaError("duplicate converter entries", path)
    by_name.update((c.name, c) for c in read)
    return tuple(by_name[n] for n in CONVERTER_NAMES)


def _storages(value, path: str, base) -> tuple[StorageParams, ...]:
    """The listed storages only; a carrier without a default starts at 0 kWh."""
    by_carrier = {s.carrier: s for s in base}

    def base_for(carrier, where):
        return by_carrier.get(carrier, StorageParams(carrier, 0.0))

    return tuple(_items(StorageParams, "carrier", value, path, base_for))


# Fields that are not a scalar or a nested record, read as (value, locator, base value).
_FIELD_READERS = {
    (CaseData, "converters"): _converters,
    (CaseData, "storages"): _storages,
    (CaseData, "purchase_caps"): lambda v, path, base: _floats(v, path, 2),
    (CaseData, "maintenance"): lambda v, path, base: _map(v, path, base, base, _number),
    (CaseData, "sources"): _sources,
    (ConverterParams, "efficiencies"): lambda v, path, base: _map(v, path, CARRIERS, {}, _number),
    (CarbonPolicy, "mechanism"): _mechanism,
    (CarbonPolicy, "coal_quad"): lambda v, path, base: _floats(v, path, 3),
    (CarbonPolicy, "gas_quad"): lambda v, path, base: _floats(v, path, 3),
    (DrPolicy, "shiftable_fraction"): _per_carrier,
    (DrPolicy, "substitutable_fraction"): _per_carrier,
    (DrPolicy, "subst_conversion"): _per_carrier,
    (DrPolicy, "shift_bounds"): lambda v, path, base: _map(v, path, CARRIERS, base, _bound_pair),
    (DrPolicy, "shift_carriers"): _carriers,
    (DrPolicy, "subst_carriers"): _carriers,
}


def _record(cls, doc, path: str, base):
    """Read a `cls` dataclass from a JSON object laid over the record `base`.

    The keys are the field names.  An absent key keeps `base`'s value, and so
    does `null` for a field that is not a scalar.  Scalars are read as the
    type of `base`'s value, nested records by `_record` and the rest by
    `_FIELD_READERS`.
    """
    _object(doc, path, [f.name for f in fields(cls)])
    values = {}
    for name, value in doc.items():
        default = getattr(base, name)
        if value is None and not isinstance(default, (int, float, str)):
            continue
        where = f"{path}.{name}" if path else name
        if (cls, name) in _FIELD_READERS:
            values[name] = _FIELD_READERS[cls, name](value, where, default)
        elif is_dataclass(default):
            values[name] = _record(type(default), value, where, default)
        else:
            values[name] = _scalar(value, where, default)
    return replace(base, **values)


# The document's layout differs from CaseData's in three sections: `loads`
# maps carrier to its values, `wind` holds `profile` and `max_kw`, and
# `tariffs` names its arrays `electricity` and `gas`.
_DOC_KEYS = {f.name for f in fields(CaseData)} - {"wind_profile", "wind_max_kw"} | {"wind"}


def case_from_dict(doc: dict) -> CaseData:
    """Build a CaseData from a parsed JSON document, applying defaults."""
    _object(doc, "", _DOC_KEYS)
    loads_doc = _object(_require(doc, "loads", ""), "loads", CARRIERS)
    loads = {
        k: CarrierProfile(k, _floats(_require(loads_doc, k, "loads"), f"loads.{k}"))
        for k in CARRIERS
    }
    wind = _object(_require(doc, "wind", ""), "wind", ("profile", "max_kw"))
    tariffs = _object(_require(doc, "tariffs", ""), "tariffs", ("electricity", "gas"))
    base = CaseData(
        horizon=Horizon(),
        loads=loads,
        wind_profile=_floats(_require(wind, "profile", "wind"), "wind.profile"),
        wind_max_kw=_number(_require(wind, "max_kw", "wind"), "wind.max_kw"),
        tariffs=TariffProfile(
            _floats(_require(tariffs, "electricity", "tariffs"), "tariffs.electricity"),
            _floats(_require(tariffs, "gas", "tariffs"), "tariffs.gas"),
        ),
        converters=DEFAULT_CONVERTERS,
        storages=DEFAULT_STORAGES,
        carbon=CarbonPolicy(),
        dr=DrPolicy(),
        # without caps, each carrier may import 1.5x its peak load
        purchase_caps=(
            1.5 * max(loads["electric"].values, default=0.0),
            1.5 * max(loads["gas"].values, default=0.0),
        ),
        maintenance=dict(DEFAULT_MAINTENANCE),
    )
    rest = {k: v for k, v in doc.items() if k not in ("loads", "wind", "tariffs")}
    return _record(CaseData, rest, "", base)


def read_case(path: str) -> CaseData:
    """Read and default-fill a case file, without validating it.

    A file that cannot be opened or read, is not UTF-8 or is not JSON
    raises ParseError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}", path) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {exc.start} ({exc.reason})", path) from None
    except OSError as exc:
        raise ParseError(exc.strerror or str(exc), path) from None
    return case_from_dict(doc)


def require_valid(case: CaseData) -> CaseData:
    """`case` itself when `validate_case` finds no error; else UnitError at the first error."""
    report = validate_case(case)
    if report.errors:
        # each error starts with its locator; UnitError puts the first one back in front
        locator, _, first = report.errors[0].partition(": ")
        raise UnitError("; ".join([first, *report.errors[1:3]]), locator)
    return case


def load_case(path: str) -> CaseData:
    """Load, default-fill, and validate a case file."""
    return require_valid(read_case(path))


def _plain(value):
    """`value` as JSON holds it: records as objects, tuples as arrays."""
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return list(map(_plain, value))
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return _plain(vars(value))  # a case dataclass


def case_to_dict(case: CaseData) -> dict:
    """Inverse of case_from_dict: every field, in the document's layout."""
    doc = _plain(case)
    doc["loads"] = {k: profile["values"] for k, profile in doc["loads"].items()}
    doc["wind"] = {"profile": doc.pop("wind_profile"), "max_kw": doc.pop("wind_max_kw")}
    doc["tariffs"] = {
        "electricity": doc["tariffs"]["electricity_price"],
        "gas": doc["tariffs"]["gas_price"],
    }
    return doc


def case_hash(case: CaseData) -> str:
    blob = json.dumps(case_to_dict(case), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- validation ---------------------------------------------------------------


# the field that names a device in the document's lists (`_items`)
_DEVICE_KEY = {ConverterParams: "name", StorageParams: "carrier"}
# CaseData's names where the document lays a section out otherwise (`case_to_dict`);
# a load profile's values are the document's array itself
_DOC_NAMES = {"wind_profile": "wind.profile", "wind_max_kw": "wind.max_kw",
              "electricity_price": "electricity", "gas_price": "gas", "values": ""}


def _nonfinite(value, path, err) -> None:
    """Report each non-finite number in ``value``, the part of a case at ``path``.

    The walk goes over the dataclass tree as `_plain` does.  ``path`` is a
    chain of (parent, key) pairs that `_locator` formats only for a number
    that fails, so walking a valid case builds no string.  The common types
    are told apart by identity and an array of floats is summed at once,
    which keeps the walk of the full case at about the cost of the
    per-field rules.
    """
    is_map = isinstance(value, dict)
    for key, v in value.items() if is_map else enumerate(value):
        kind = type(v)
        if kind is str:
            continue
        if kind is float or isinstance(v, float):
            if not math.isfinite(v):
                # an array entry is reported at its array, as for a negative load
                err(f"{_locator((path, key))}: must be finite" if is_map
                    else f"{_locator(path)}: entry {key} must be finite")
        elif kind is tuple or kind is list:
            # floats with a finite sum are all finite
            if not (v and type(v[0]) is float and math.isfinite(sum(v))):
                _nonfinite(v, (path, key), err)
        elif kind is dict:
            _nonfinite(v, (path, key), err)
        elif is_dataclass(v):
            # a device in a list is its own key, named by `_locator`
            _nonfinite(vars(v), (path, key if is_map else v), err)


def _locator(path) -> str:
    """A chain of (parent, key) pairs from the case down, as the document's locator.

    For example ``carbon.lambda_base``, ``wind.profile`` or
    ``converters[GT].capacity_kw``.
    """
    parts = []
    while path is not None:
        path, key = path
        if isinstance(key, str):
            name = _DOC_NAMES.get(key, key)
            parts.append(f".{name}" if name else "")
        elif isinstance(key, int):
            parts.append(f"[{key}]")
        else:  # a device
            parts.append(f"[{getattr(key, _DEVICE_KEY[type(key)])}]")
    return "".join(reversed(parts)).lstrip(".")


def chp_params(case: CaseData):
    """Composite CHP figures: electric and useful-heat efficiency per unit gas."""
    gt = case.converter("GT")
    whb = case.converter("WHB")
    eps_e = gt.efficiencies.get("electric", 0.0) if gt else 0.0
    eps_h_raw = gt.efficiencies.get("heat", 0.0) if gt else 0.0
    whb_eff = whb.efficiencies.get("heat", 0.0) if whb else 0.0
    gt_cap = gt.capacity_kw if gt else 0.0
    whb_cap = whb.capacity_kw if whb else 0.0
    return gt, whb, eps_e, eps_h_raw * whb_eff, gt_cap, whb_cap


class GtCap(NamedTuple):
    """`gt_gas_cap`'s bound in kW of gas, the rows it stands for ("chp_ratio", "chp_whb_cap" or "") and why."""

    upper: float
    family: str = ""
    why: str = ""
    infeasible: bool = False  # below the GT's min_output_kw


def gt_gas_cap(case: CaseData) -> GtCap:
    """The upper bound `dispatch.build_model` gives a valid case's GT gas column.

    It is the GT's capacity (0 without a GT), except in fixed-ratio CHP
    mode: there the corridor rows ``a_lo * g <= 0``, ``a_hi * g <= 0`` and
    the WHB row ``eps_h * g <= whb_cap`` on the one gas column ``g`` are
    bounds, formed with the rows' float expressions.  A positive corridor
    coefficient holds g at 0, else a WHB too small for the GT's heat caps g
    at ``whb_cap / eps_h``.  ``why`` says so without dividing by ``eps_e``,
    which may be 0, and names ``min_output_kw`` when the bound is below it.
    """
    gt, whb, eps_e, eps_h, gt_cap, whb_cap = chp_params(case)
    lo, hi = case.chp.ratio_min, case.chp.ratio_max
    if not gt or case.chp.extraction_mode:
        return GtCap(gt_cap)
    if eps_e * lo + eps_h * -1.0 > 0 or eps_h + eps_e * -hi > 0:
        cap = GtCap(0.0, "chp_ratio", f"the GT's heat-to-power ratio (heat {eps_h:g} and electric {eps_e:g} "
                    f"per kW of gas) is outside the corridor [{lo:g}, {hi:g}], so it is forced off")
    elif whb and eps_h * gt_cap > whb_cap:
        upper = min(gt_cap, whb_cap / eps_h)
        cap = GtCap(upper, "chp_whb_cap", f"the WHB's {whb_cap:g} kW hold the GT to {upper:g} kW of gas")
    else:
        return GtCap(gt_cap)
    if cap.upper < gt.min_output_kw:
        return cap._replace(why=f"{cap.why}, but its min_output_kw is {gt.min_output_kw:g} kW", infeasible=True)
    return cap


def gas_unit_reach(case: CaseData) -> tuple[float, float, float]:
    """Largest output in one period of the GT (electric, useful heat) and of the gas boiler (heat).

    The GT reaches as far as the bound on its gas column (`gt_gas_cap`)
    lets it, so nowhere when held off.
    """
    _, whb, eps_e, eps_h, _, whb_cap = chp_params(case)
    upper = gt_gas_cap(case).upper
    gb = case.converter("GB")
    gt_heat = min(eps_h * upper, whb_cap) if whb else 0.0
    gb_heat = gb.efficiencies.get("heat", 0.0) * gb.capacity_kw if gb else 0.0
    return eps_e * upper, gt_heat, gb_heat


def validate_case(case: CaseData) -> ValidationReport:
    """Check every type invariant; returns a report instead of raising.

    Every number in the case must be finite, each reported at its locator
    in the document (``carbon.lambda_base: must be finite``; an array entry
    at its array), and the two counts must be ints.  Only a case that
    passes both reaches the per-field rules, so those see finite numbers;
    they are still written to fail for NaN (``not v >= 0``, never
    ``v < 0``).
    """
    rep = ValidationReport()
    err, warn = rep.errors.append, rep.warnings.append
    _nonfinite(vars(case), None, err)
    for name, count in (("horizon.periods", case.horizon.periods),
                        ("carbon.extra_tiers", case.carbon.extra_tiers)):
        if type(count) is not int:  # 4.0 and True are refused too
            err(f"{name}: must be an int (got {count!r})")
    if rep.errors:
        return rep
    T = case.horizon.periods

    if not T >= 1:
        err("horizon.periods: must be >= 1")
    if not case.horizon.step_hours > 0:
        err("horizon.step_hours: must be > 0")

    for k in CARRIERS:
        prof = case.loads.get(k)
        if prof is None:
            err(f"loads.{k}: missing carrier profile")
            continue
        if len(prof.values) != T:
            err(f"loads.{k}: length {len(prof.values)} != horizon.periods {T}")
        if not all(v >= 0 for v in prof.values):
            err(f"loads.{k}: negative load value")

    if len(case.wind_profile) != T:
        err(f"wind.profile: length {len(case.wind_profile)} != horizon.periods {T}")
    if not all(v >= 0 for v in case.wind_profile):
        err("wind.profile: negative value")
    if not case.wind_max_kw >= 0:
        err("wind.max_kw: must be >= 0")

    for name, prices in (
        ("tariffs.electricity", case.tariffs.electricity_price),
        ("tariffs.gas", case.tariffs.gas_price),
    ):
        if len(prices) != T:
            err(f"{name}: length {len(prices)} != horizon.periods {T}")
        if not all(p >= 0 for p in prices):
            err(f"{name}: negative price")

    seen_conv = set()
    for conv in case.converters:
        path = f"converters[{conv.name}]"
        if conv.name in seen_conv:
            err(f"{path}: duplicate converter")
        seen_conv.add(conv.name)
        if not conv.capacity_kw > 0:
            err(f"{path}.capacity_kw: must be > 0 (got {conv.capacity_kw})")
        for carrier, eff in conv.efficiencies.items():
            if not 0 < eff <= 1:
                err(f"{path}.efficiencies.{carrier}: must be in (0, 1] (got {eff})")
        if not 0 < conv.ramp_fraction <= 1:
            err(f"{path}.ramp_fraction: must be in (0, 1] (got {conv.ramp_fraction})")
        if not 0 <= conv.min_output_kw <= max(conv.capacity_kw, 0.0):
            err(f"{path}.min_output_kw: must be in [0, capacity]")

    seen_sto = set()
    for sto in case.storages:
        path = f"storages[{sto.carrier}]"
        if sto.carrier not in CARRIERS:
            err(f"{path}: unknown carrier")
        if sto.carrier in seen_sto:
            err(f"{path}: at most one storage per carrier")
        seen_sto.add(sto.carrier)
        if not sto.capacity_kwh > 0:
            err(f"{path}.capacity_kwh: must be > 0 (got {sto.capacity_kwh})")
        if not 0 <= sto.soc_min_frac < sto.soc_max_frac <= 1:
            err(f"{path}: soc bounds inverted or outside [0, 1]")
        elif not sto.soc_min_frac <= sto.soc_initial_frac <= sto.soc_max_frac:
            err(f"{path}.soc_initial_frac: outside [soc_min_frac, soc_max_frac]")
        if not 0 < sto.power_limit_fraction <= 1:
            err(f"{path}.power_limit_fraction: must be in (0, 1]")
        for fname in ("charge_eff", "discharge_eff"):
            v = getattr(sto, fname)
            if not 0 < v <= 1:
                err(f"{path}.{fname}: must be in (0, 1] (got {v})")

    cb = case.carbon
    if cb.mechanism not in (MECHANISM_NONE, MECHANISM_TRADITIONAL, MECHANISM_TIERED):
        err(f"carbon.mechanism: unknown {cb.mechanism!r}")
    if not cb.lambda_base >= 0:
        err("carbon.lambda_base: must be >= 0")
    if not cb.alpha_growth >= 0:
        err("carbon.alpha_growth: must be >= 0")
    if not cb.interval_d > 0:
        err("carbon.interval_d: must be > 0")
    if not cb.coal_quad[2] >= 0:
        err("carbon.coal_quad: quadratic coefficient must be >= 0 (convex)")
    if not cb.gas_quad[2] >= 0:
        err("carbon.gas_quad: quadratic coefficient must be >= 0 (convex)")
    for f in ("sigma_e", "sigma_h", "sigma_gload", "sigma_eh", "delta_gasload", "theta_p2g"):
        if not getattr(cb, f) >= 0:
            err(f"carbon.{f}: must be >= 0")
    if not cb.extra_tiers >= 0:
        err("carbon.extra_tiers: must be >= 0")
    # tangent cuts linearise each emission curve up to the most its argument
    # can take: the electric purchase cap, and at most the summed capacities
    # of the gas-fired units; HiGHS would drop a cut whose right-hand side
    # reached its infinity, and beyond that the cuts overflow
    gas_max = sum(conv.capacity_kw for conv in case.converters if conv.name in ("GT", "WHB", "GB"))
    for name, (a, b, c), x_max in (("coal_quad", cb.coal_quad, case.purchase_caps[0]),
                                   ("gas_quad", cb.gas_quad, gas_max)):
        if not abs(a) + abs(b) * x_max + c * x_max * x_max < SOLVER_INFINITY:
            err(f"carbon.{name}: the emission curve reaches {SOLVER_INFINITY:g} at {x_max:g} kW")

    dr = case.dr
    for k in CARRIERS:
        sf = dr.shiftable_fraction.get(k, 0.0)
        cf = dr.substitutable_fraction.get(k, 0.0)
        if not 0 <= sf <= 1:
            err(f"dr.shiftable_fraction.{k}: must be in [0, 1]")
        if not 0 <= cf <= 1:
            err(f"dr.substitutable_fraction.{k}: must be in [0, 1]")
        if sf + cf > 1:  # a NaN fraction fails the range test above
            err(f"dr.{k}: DR fractions exceed 1 ({sf} + {cf})")
        bounds = dr.shift_bounds.get(k)
        # the max bounds the load shifted in, which cannot be negative
        if bounds is not None and not bounds[1] >= 0:
            err(f"dr.shift_bounds.{k}: max must be >= 0")
        elif bounds is not None and not bounds[0] <= bounds[1]:
            err(f"dr.shift_bounds.{k}: min > max")
        if not dr.subst_conversion.get(k, 1.0) > 0:
            err(f"dr.subst_conversion.{k}: must be > 0")
    if not 0 <= dr.satisfaction_min <= 1:
        err("dr.satisfaction_min: must be in [0, 1]")
    if not (dr.mu_shift >= 0 and dr.mu_subst >= 0):
        err("dr: compensation coefficients must be >= 0")

    if not (case.purchase_caps[0] >= 0 and case.purchase_caps[1] >= 0):
        err("purchase_caps: must be >= 0")
    for k, v in case.maintenance.items():
        if not v >= 0:
            err(f"maintenance.{k}: must be >= 0")
    if not case.gas_kwh_per_m3 > 0:
        err("gas_kwh_per_m3: must be > 0")
    if not case.chp.ratio_min <= case.chp.ratio_max:
        err("chp: ratio_min > ratio_max")
    # the coefficient each extraction-mode corridor row puts on the GT's
    # electric output; in fixed-ratio mode the corridor is a bound, not a
    # matrix entry (`gt_gas_cap`)
    if case.converter("GT") and case.chp.extraction_mode:
        for name, coeff in (("ratio_min", case.chp.ratio_min), ("ratio_max", -case.chp.ratio_max)):
            if not abs(coeff) <= CHP_RATIO_LIMIT:
                err(f"chp.{name}: the heat-to-power corridor row takes the coefficient {coeff:g}, "
                    f"and HiGHS solves such rows reliably only up to {CHP_RATIO_LIMIT:g}")

    # warnings: legal but suspicious
    if not rep.errors and (cap := gt_gas_cap(case)).family == "chp_ratio":  # it decides valid cases only
        warn(f"chp: {cap.why}")
    if case.loads.get("electric") and len(case.wind_profile) == T and T > 0:
        el = case.loads["electric"].values
        if len(el) == T and all(w >= l for w, l in zip(case.wind_profile, el)):
            warn("wind.profile: forecast exceeds electric load in every period")
    return rep


def scale_profiles(case: CaseData, factors: dict[str, float]) -> CaseData:
    """New case with the load profiles of CARRIERS and the "wind" profile scaled by ``factors``; other keys raise."""
    known = (*CARRIERS, "wind")
    unknown = [key for key in factors if key not in known]
    if unknown:
        raise ValueError(f"unknown profile {unknown[0]!r}: known profiles are {', '.join(known)}")
    loads = {
        k: CarrierProfile(k, tuple(v * factors.get(k, 1.0) for v in case.loads[k].values))
        for k in CARRIERS
    }
    wind = tuple(v * factors.get("wind", 1.0) for v in case.wind_profile)
    return replace(case, loads=loads, wind_profile=wind)


def reduce_case(case: CaseData, factor: int = 2) -> CaseData:
    """Coarsen the horizon by averaging consecutive blocks of `factor` periods.

    Period count divides by `factor` and the step length multiplies by it,
    so total served energy is preserved.  Per-period device limits (ramps,
    storage power) keep their per-period meaning at the coarser step.
    """
    periods = case.horizon.periods
    if type(factor) is not int:  # 1.5 passes the divisibility test, and True is no factor
        raise ValueError(f"factor {factor!r}: need an int")
    if factor < 1 or periods % factor != 0:
        raise ValueError(f"factor {factor} does not divide {periods} periods")

    def block_mean(seq):
        return tuple(
            sum(seq[i * factor : (i + 1) * factor]) / factor
            for i in range(periods // factor)
        )

    loads = {k: CarrierProfile(k, block_mean(p.values)) for k, p in case.loads.items()}
    tariffs = TariffProfile(
        block_mean(case.tariffs.electricity_price),
        block_mean(case.tariffs.gas_price),
    )
    horizon = Horizon(periods // factor, case.horizon.step_hours * factor)
    return replace(
        case,
        horizon=horizon,
        loads=loads,
        wind_profile=block_mean(case.wind_profile),
        tariffs=tariffs,
    )
