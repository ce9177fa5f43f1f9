"""Case schema, validation catalog, serialization, and profile transforms."""

import copy
import json
import math
from dataclasses import fields, is_dataclass, replace

import pytest

from iesdispatch.dispatch import SCENARIO_IDS, DispatchOptions, build_model, run_all_scenarios
from iesdispatch.model_core import (
    CARRIERS,
    CHP_RATIO_LIMIT,
    CaseData,
    CarbonPolicy,
    CarrierProfile,
    ChpOptions,
    ConverterParams,
    DEFAULT_CONVERTERS,
    DrPolicy,
    Horizon,
    MECHANISM_TIERED,
    StorageParams,
    TariffProfile,
    SchemaError,
    UnitError,
    case_from_dict,
    case_hash,
    case_to_dict,
    chp_params,
    default_case_path,
    gas_unit_reach,
    load_case,
    reduce_case,
    require_valid,
    scale_profiles,
    validate_case,
)


def save_case(case: CaseData, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(case_to_dict(case), fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="module")
def case() -> CaseData:
    return load_case(default_case_path())


@pytest.fixture()
def doc(case) -> dict:
    return copy.deepcopy(case_to_dict(case))


# -- bundled case ---------------------------------------------------------------


def test_bundled_case_calibration(case):
    assert case.horizon.periods == 24
    assert case.horizon.step_hours == 1.0
    assert case.carbon.mechanism == MECHANISM_TIERED
    assert case.carbon.lambda_base == pytest.approx(0.251)
    assert case.carbon.alpha_growth == pytest.approx(0.25)
    assert case.carbon.interval_d == pytest.approx(2000.0)
    assert case.carbon.sigma_e == pytest.approx(0.798)
    assert set(case.loads) == set(CARRIERS)
    assert len(case.wind_profile) == 24
    assert validate_case(case).errors == []


def test_bundled_case_hash_stable(case):
    h = case_hash(case)
    assert h == case_hash(load_case(default_case_path()))
    assert len(h) == 16
    # any payload change moves the hash
    bumped = scale_profiles(case, {"electric": 1.0000001})
    assert case_hash(bumped) != h


# -- validation catalog ----------------------------------------------------------


def test_validate_rejects_negative_capacity(case):
    convs = tuple(
        replace(c, capacity_kw=-1.0) if c.name == "GT" else c for c in case.converters
    )
    report = validate_case(replace(case, converters=convs))
    assert any("converters[GT].capacity_kw" in e for e in report.errors)


def test_validate_rejects_inverted_soc_bounds(case):
    stor = tuple(
        replace(s, soc_min_frac=0.9, soc_max_frac=0.2) if s.carrier == "electric" else s
        for s in case.storages
    )
    report = validate_case(replace(case, storages=stor))
    assert any("storages[electric]" in e and "soc bounds" in e for e in report.errors)


def test_validate_rejects_dr_fractions_over_one(case):
    dr = replace(case.dr, shiftable_fraction={"electric": 1.5, "gas": 0.1, "heat": 0.1})
    report = validate_case(replace(case, dr=dr))
    assert any("must be in [0, 1]" in e for e in report.errors)
    assert any("DR fractions exceed 1" in e for e in report.errors)


@pytest.mark.parametrize("bounds, message", [((5.0, 1.0), "min > max"), ((-50.0, -10.0), "max must be >= 0")])
def test_validate_rejects_bad_shift_bounds(case, bounds, message):
    dr = replace(case.dr, shift_bounds={"electric": bounds, "gas": None, "heat": None})
    report = validate_case(replace(case, dr=dr))
    assert report.errors == [f"dr.shift_bounds.electric: {message}"]


def test_validate_warns_on_ratio_outside_bracket(case):
    narrowed = replace(case, chp=replace(case.chp, ratio_min=1.0, ratio_max=2.0))
    report = validate_case(narrowed)
    assert report.errors == []
    assert any("forced off" in w for w in report.warnings)


NAN = float("nan")


def _nan_load(c):
    values = (NAN, *c.loads["electric"].values[1:])
    return replace(c, loads={**c.loads, "electric": CarrierProfile("electric", values)})


# each of these once passed validation: its test was written ``v < 0``
@pytest.mark.parametrize("edit, locator", [
    (lambda c: _sub(c, "carbon", lambda_base=NAN), "carbon.lambda_base"),
    (lambda c: _sub(c, "carbon", alpha_growth=NAN), "carbon.alpha_growth"),
    (lambda c: _sub(c, "carbon", sigma_e=NAN), "carbon.sigma_e"),
    (lambda c: _sub(c, "carbon", coal_quad=(0.0, 0.9, NAN)), "carbon.coal_quad"),
    (lambda c: _sub(c, "dr", mu_shift=NAN), "dr.mu_shift"),
    (lambda c: _sub(c, "dr", subst_conversion={**c.dr.subst_conversion, "gas": NAN}),
     "dr.subst_conversion.gas"),
    (lambda c: _sub(c, "dr", shift_bounds={**c.dr.shift_bounds, "heat": (0.0, NAN)}),
     "dr.shift_bounds.heat"),
    (_nan_load, "loads.electric"),
    (lambda c: replace(c, wind_max_kw=NAN), "wind.max_kw"),
    (lambda c: replace(c, wind_profile=(NAN, *c.wind_profile[1:])), "wind.profile"),
    (lambda c: _sub(c, "tariffs", gas_price=(NAN, *c.tariffs.gas_price[1:])), "tariffs.gas"),
    (lambda c: replace(c, purchase_caps=(NAN, c.purchase_caps[1])), "purchase_caps"),
    (lambda c: replace(c, maintenance={**c.maintenance, "GT": NAN}), "maintenance.GT"),
], ids=["lambda_base", "alpha_growth", "sigma_e", "coal_quad", "mu_shift", "subst_conversion",
        "shift_bounds", "load", "wind_max_kw", "wind_profile", "gas_price", "purchase_caps",
        "maintenance"])
def test_validate_rejects_nan(case, edit, locator):
    bad = edit(case)
    assert [e.partition(": ")[0] for e in validate_case(bad).errors] == [locator]
    with pytest.raises(UnitError) as info:
        build_model(bad, "S5")
    assert info.value.locator == locator


# The document's names where it lays a section out unlike CaseData (case_to_dict)
DOC_NAMES = {"wind_profile": "wind.profile", "wind_max_kw": "wind.max_kw",
             "electricity_price": "electricity", "gas_price": "gas"}


def numeric_leaves(value, locator="", edit=lambda x: x):
    """(error prefix, edit) for each number of a case: every scalar and device
    field, and the first entry of each array and map.  ``edit(x)`` returns
    the case with that number set to x, and a non-finite x is reported with
    the prefix: ``carbon.lambda_base: must be finite`` or, for an array
    entry, ``loads.electric: entry 0 must be finite``."""
    if isinstance(value, (bool, str)) or value is None:
        return
    if isinstance(value, (int, float)):
        yield f"{locator}: must be finite", edit
    elif isinstance(value, CarrierProfile):  # the document's array itself
        yield from numeric_leaves(value.values, locator, lambda x: edit(replace(value, values=x)))
    elif is_dataclass(value):
        for f in fields(value):
            where = f"{locator}.{DOC_NAMES.get(f.name, f.name)}".lstrip(".")
            yield from numeric_leaves(getattr(value, f.name), where,
                                      lambda x, name=f.name: edit(replace(value, **{name: x})))
    elif isinstance(value, dict) and value:
        key = next(iter(value))
        yield from numeric_leaves(value[key], f"{locator}.{key}", lambda x: edit({**value, key: x}))
    elif isinstance(value, tuple) and is_dataclass(value[0]):  # devices, named as in the document
        for i, device in enumerate(value):
            label = device.name if isinstance(device, ConverterParams) else device.carrier
            yield from numeric_leaves(device, f"{locator}[{label}]",
                                      lambda x, i=i: edit((*value[:i], x, *value[i + 1:])))
    elif isinstance(value, tuple) and value and not isinstance(value[0], str):
        yield f"{locator}: entry 0 must be finite", lambda x: edit((x, *value[1:]))


LEAVES = [prefix for prefix, _ in numeric_leaves(load_case(default_case_path()))]
LEAF_IDS = [p.replace(": entry 0 must be finite", "[0]").replace(": must be finite", "") for p in LEAVES]


def test_leaves_cover_the_case(case):
    # every section with numbers, every device field, and the two int counts
    sections = {prefix.partition(".")[0].partition(":")[0].partition("[")[0] for prefix in LEAVES}
    assert sections == {"horizon", "loads", "wind", "tariffs", "converters", "storages", "carbon", "dr",
                        "purchase_caps", "maintenance", "chp", "gas_kwh_per_m3"}
    assert "horizon.periods: must be finite" in LEAVES and "carbon.extra_tiers: must be finite" in LEAVES
    assert sum(p.startswith("storages[") for p in LEAVES) == 7 * len(case.storages)
    assert len(LEAVES) == len(set(LEAVES))


@pytest.mark.parametrize("bad", [NAN, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("prefix", LEAVES, ids=LEAF_IDS)
def test_non_finite_number_is_refused_at_its_locator(case, prefix, bad):
    edit = dict(numeric_leaves(case))[prefix]
    with pytest.raises(UnitError) as info:
        require_valid(edit(bad))
    assert str(info.value).startswith(prefix)


@pytest.mark.parametrize("prefix", LEAVES, ids=LEAF_IDS)
def test_huge_number_ends_in_a_unit_error_or_a_row_per_scenario(case, prefix):
    # 1e300 is finite: the per-field rules refuse it, or every scenario ends
    # in a row status, as the failure contract asks, never in a traceback
    edit = dict(numeric_leaves(reduce_case(case, 4)))[prefix]
    huge = edit(1e300)
    try:
        require_valid(huge)
    except UnitError:
        return
    report = run_all_scenarios(huge, DispatchOptions(pwl_segments=4))
    assert [row.scenario_id for row in report.rows] == list(SCENARIO_IDS)


def test_emission_curves_must_stay_below_the_solver_infinity(case):
    # a cut's right-hand side is about -c x^2 at the envelope's last breakpoint
    capped = replace(case, purchase_caps=(1e13, case.purchase_caps[1]))
    assert validate_case(capped).errors == ["carbon.coal_quad: the emission curve reaches 1e+20 at 1e+13 kW"]
    gt = replace(case.converter("GT"), capacity_kw=1e13)
    big = replace(case, converters=tuple(gt if c.name == "GT" else c for c in case.converters))
    assert [e.partition(":")[0] for e in validate_case(big).errors] == ["carbon.gas_quad"]
    assert validate_case(replace(case, purchase_caps=(1e11, case.purchase_caps[1]))).errors == []


@pytest.mark.parametrize("extraction", [False, True], ids=["fixed-ratio", "extraction"])
def test_chp_corridor_coefficient_must_stay_below_the_large_matrix_value(case, extraction):
    # an extraction-mode corridor row carries a ratio as a matrix entry, and
    # HiGHS solves such rows reliably only up to CHP_RATIO_LIMIT (it refuses
    # one of 1e15 or more); in fixed-ratio mode the corridor is a bound of
    # the GT's gas column, so a huge ratio solves
    chp = replace(case.chp, extraction_mode=extraction)
    for field, value in (("ratio_max", 1e16), ("ratio_min", -1e16), ("ratio_max", 1e14), ("ratio_min", -1e14)):
        wide = replace(case, chp=replace(chp, **{field: value}))
        if not extraction:
            report = run_all_scenarios(wide)
            assert [row.status for row in report.rows] == ["optimal"] * len(SCENARIO_IDS)
            continue
        with pytest.raises(UnitError, match="heat-to-power corridor") as info:
            require_valid(wide)
        assert info.value.locator == f"chp.{field}"
    # the limit itself solves on both backends
    for backend in ("embedded", "scipy-milp"):
        for field, value in (("ratio_max", CHP_RATIO_LIMIT), ("ratio_min", -CHP_RATIO_LIMIT)):
            at_limit = replace(case, chp=replace(chp, **{field: value}))
            report = run_all_scenarios(at_limit, DispatchOptions(backend=backend))
            assert [row.status for row in report.rows] == ["optimal"] * len(SCENARIO_IDS), (backend, field)


def test_counts_must_be_ints(case):
    for bad in (24.0, True):
        report = validate_case(replace(case, horizon=replace(case.horizon, periods=bad)))
        assert report.errors == [f"horizon.periods: must be an int (got {bad!r})"]
    report = validate_case(replace(case, carbon=replace(case.carbon, extra_tiers=1.0)))
    assert report.errors == ["carbon.extra_tiers: must be an int (got 1.0)"]


# -- serialization ---------------------------------------------------------------


def test_round_trip_identity(case, tmp_path):
    path = str(tmp_path / "case.json")
    save_case(case, path)
    again = load_case(path)
    assert again == case
    assert case_hash(again) == case_hash(case)


def test_round_trip_through_dict(case):
    assert case_from_dict(case_to_dict(case)) == case


def test_schema_missing_field(doc):
    del doc["loads"]
    with pytest.raises(SchemaError, match="loads"):
        case_from_dict(doc)


def test_schema_unknown_key(doc):
    doc["mystery"] = 1
    with pytest.raises(SchemaError, match="mystery"):
        case_from_dict(doc)


def test_wrong_profile_length_caught_by_validation(doc):
    doc["loads"]["electric"] = doc["loads"]["electric"][:-1]
    report = validate_case(case_from_dict(doc))
    assert any("loads.electric" in e and "length" in e for e in report.errors)


def test_load_case_rejects_invalid_payload(tmp_path, doc):
    doc["converters"][1]["capacity_kw"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(UnitError):
        load_case(str(path))


# -- characterization: the document schema ------------------------------------------
#
# Each accepted document is the bundled case file with a few edits; it must
# parse to the expected CaseData and hash to the pinned value.  Each rejected
# document must raise SchemaError at the pinned locator.

_DROP = object()


def _edited(doc, edits):
    doc = copy.deepcopy(doc)
    for path, value in edits:
        if not path:
            return copy.deepcopy(value)
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        if value is _DROP:
            del target[last]
        else:
            target[last] = copy.deepcopy(value)
    return doc


def _sub(case, section, **changes):
    return replace(case, **{section: replace(getattr(case, section), **changes)})


@pytest.fixture(scope="module")
def raw_doc() -> dict:
    with open(default_case_path(), encoding="utf-8") as fh:
        return json.load(fh)


ACCEPTED = [
    ("bundled", [], lambda c: c, "5dec2cf0ee11e088"),
    ("horizon-absent", [(("horizon",), _DROP)], lambda c: c, "5dec2cf0ee11e088"),
    ("horizon-empty", [(("horizon",), {})], lambda c: c, "5dec2cf0ee11e088"),
    ("horizon-null", [(("horizon",), None)], lambda c: c, "5dec2cf0ee11e088"),
    ("horizon-int-step", [(("horizon",), {"step_hours": 2})],
     lambda c: replace(c, horizon=Horizon(24, 2.0)), "3e6d26490cb005f3"),
    ("horizon-periods", [(("horizon", "periods"), 12)],
     lambda c: replace(c, horizon=Horizon(12, 1.0)), "f40324fb903384fd"),
    ("loads-ints", [(("loads", "heat"), [700] * 24)],
     lambda c: replace(c, loads={**c.loads, "heat": CarrierProfile("heat", (700.0,) * 24)}),
     "ab93b762cd6adf19"),
    ("wind-max", [(("wind", "max_kw"), 900.5)], lambda c: replace(c, wind_max_kw=900.5), "90b8ead54348555d"),
    ("tariff-gas", [(("tariffs", "gas"), [0.4] * 24)],
     lambda c: _sub(c, "tariffs", gas_price=(0.4,) * 24), "60fb10294f5fb3e8"),
    ("carbon-empty", [(("carbon",), {})], lambda c: c, "5dec2cf0ee11e088"),
    ("carbon-int-sigma", [(("carbon",), {"sigma_e": 1})],
     lambda c: _sub(c, "carbon", sigma_e=1.0), "59fad1fa29f6a4f5"),
    ("carbon-mixed",
     [(("carbon",), {"mechanism": "traditional", "extra_tiers": 2,
                     "coal_quad": [1, 2, 0.5], "gas_quad": None})],
     lambda c: _sub(c, "carbon", mechanism="traditional", extra_tiers=2,
                    coal_quad=(1.0, 2.0, 0.5)),
     "35ec6c7773a95a01"),
    ("carbon-none", [(("carbon",), {"mechanism": "none", "interval_d": 1500})],
     lambda c: _sub(c, "carbon", mechanism="none", interval_d=1500.0), "8055a50da6e797b6"),
    ("dr-null", [(("dr",), None)], lambda c: replace(c, dr=DrPolicy()), "dd902f99b13aa8e1"),
    ("dr-absent", [(("dr",), _DROP)], lambda c: replace(c, dr=DrPolicy()), "dd902f99b13aa8e1"),
    ("dr-fractions",
     [(("dr", "shiftable_fraction"), 0), (("dr", "substitutable_fraction"), {"heat": 0.1}),
      (("dr", "subst_conversion"), {"gas": 2})],
     lambda c: _sub(c, "dr", shiftable_fraction={k: 0.0 for k in CARRIERS},
                    substitutable_fraction={"electric": 0.05, "gas": 0.05, "heat": 0.1},
                    subst_conversion={"electric": 1.0, "gas": 2.0, "heat": 1.0}),
     "114ff3c3affe669d"),
    ("dr-bounds",
     [(("dr", "shift_bounds"), {"heat": [-50, 50], "gas": None}),
      (("dr", "literal_eq2"), True), (("dr", "subst_carriers"), [])],
     lambda c: _sub(c, "dr", shift_bounds={"electric": None, "gas": None, "heat": (-50.0, 50.0)},
                    literal_eq2=True, subst_carriers=()),
     "747978c5f17f15c8"),
    ("dr-nulls",
     [(("dr", "shift_bounds"), None), (("dr", "shift_carriers"), None),
      (("dr", "shiftable_fraction"), None)],
     lambda c: _sub(c, "dr", shift_carriers=CARRIERS), "50b08d535e2b97a3"),
    ("chp", [(("chp",), {"extraction_mode": True, "ratio_min": 1})],
     lambda c: replace(c, chp=ChpOptions(True, 1.0, 3.0)), "c92310914681bada"),
    ("chp-null", [(("chp",), None)], lambda c: c, "5dec2cf0ee11e088"),
    ("converters-empty", [(("converters",), [])], lambda c: c, "5dec2cf0ee11e088"),
    ("converters-null", [(("converters",), None)], lambda c: c, "5dec2cf0ee11e088"),
    ("converters-edit",
     [(("converters",), [{"name": "GT", "capacity_kw": 900},
                         {"name": "GB", "efficiencies": {"heat": 0.9}, "min_output_kw": 10}])],
     lambda c: replace(c, converters=(
         c.converters[0],
         replace(c.converters[1], capacity_kw=900.0),
         c.converters[2],
         replace(c.converters[3], efficiencies={"heat": 0.9}, min_output_kw=10.0),
     )),
     "8c589d2c8e549537"),
    ("converters-null-eff",
     [(("converters",), [{"name": "P2G", "efficiencies": None, "ramp_fraction": 1}])],
     lambda c: replace(c, converters=(replace(c.converters[0], ramp_fraction=1.0),)
                       + c.converters[1:]),
     "f850e136b012f7d6"),
    ("storages-empty", [(("storages",), [])], lambda c: replace(c, storages=()), "197e67d36a4903f6"),
    ("storages-null", [(("storages",), None)], lambda c: c, "5dec2cf0ee11e088"),
    ("storages-one", [(("storages",), [{"carrier": "heat", "capacity_kwh": 100}])],
     lambda c: replace(c, storages=(StorageParams("heat", 100.0),)), "11942c7615e4a6ce"),
    ("storages-unknown-carrier", [(("storages",), [{"carrier": "steam"}])],
     lambda c: replace(c, storages=(StorageParams("steam", 0.0),)), "bc8d54cef25d997f"),
    ("caps-derived", [(("purchase_caps",), _DROP)],
     lambda c: replace(c, purchase_caps=(1.5 * 1064.0, 1.5 * 500.0)), "93d4f04714941d1f"),
    ("caps-null", [(("purchase_caps",), None)],
     lambda c: replace(c, purchase_caps=(1.5 * 1064.0, 1.5 * 500.0)), "93d4f04714941d1f"),
    ("caps", [(("purchase_caps",), [1000, 2000.5])],
     lambda c: replace(c, purchase_caps=(1000.0, 2000.5)), "88a37d6be0173f50"),
    ("maintenance", [(("maintenance",), {"GT": 0.05, "storage_heat": 0})],
     lambda c: replace(c, maintenance={**c.maintenance, "GT": 0.05, "storage_heat": 0.0}),
     "566e2406376ae52b"),
    ("maintenance-null", [(("maintenance",), None)], lambda c: c, "5dec2cf0ee11e088"),
    ("gas-kwh", [(("gas_kwh_per_m3",), 9)], lambda c: replace(c, gas_kwh_per_m3=9.0), "9e8cfabb9a5b23c7"),
    ("sources-empty", [(("sources",), {})], lambda c: replace(c, sources={}), "ec816a32674760e1"),
    ("sources-absent", [(("sources",), _DROP)], lambda c: replace(c, sources={}), "ec816a32674760e1"),
]


@pytest.mark.parametrize("edits, expect, pinned", [a[1:] for a in ACCEPTED],
                         ids=[a[0] for a in ACCEPTED])
def test_accepted_document(raw_doc, case, edits, expect, pinned):
    parsed = case_from_dict(_edited(raw_doc, edits))
    assert parsed == expect(case)
    assert case_hash(parsed) == pinned


REJECTED = [
    ("not-an-object", [((), [])], "top level", None),
    ("unknown-top-key", [(("mystery",), 1)], "top level", "mystery"),
    ("field-name-not-document-key", [(("wind_max_kw",), 850)], "top level", "wind_max_kw"),
    ("loads-missing", [(("loads",), _DROP)], "loads", "missing required field"),
    ("wind-missing", [(("wind",), _DROP)], "wind", "missing required field"),
    ("tariffs-missing", [(("tariffs",), _DROP)], "tariffs", "missing required field"),
    ("loads-array", [(("loads",), [])], "loads", None),
    ("loads-null", [(("loads",), None)], "loads", None),
    ("loads-carrier-missing", [(("loads", "heat"), _DROP)], "loads.heat", None),
    ("loads-unknown-carrier", [(("loads", "steam"), [1] * 24)], "loads", "steam"),
    ("loads-not-array", [(("loads", "electric"), "x")], "loads.electric", "expected an array"),
    ("loads-string-value", [(("loads", "electric", 3), "x")], "loads.electric[3]",
     "expected a number, got str"),
    ("loads-bool-value", [(("loads", "gas", 0), True)], "loads.gas[0]", "got bool"),
    # JSON readers take NaN, Infinity and 1e999 as floats; a case number must be finite
    ("loads-1e999", [(("loads", "electric", 0), json.loads("1e999"))], "loads.electric[0]",
     "expected a finite number, got inf"),
    ("carbon-lambda-nan", [(("carbon",), {"lambda_base": math.nan})], "carbon.lambda_base",
     "expected a finite number, got nan"),
    ("carbon-interval-infinity", [(("carbon",), {"interval_d": math.inf})], "carbon.interval_d",
     "expected a finite number, got inf"),
    ("dr-mu-nan", [(("dr", "mu_shift"), math.nan)], "dr.mu_shift", "expected a finite number"),
    ("dr-fraction-nan", [(("dr", "shiftable_fraction"), math.nan)], "dr.shiftable_fraction",
     "expected a finite number"),
    ("caps-integer-overflow", [(("purchase_caps",), [10**400, 1])], "purchase_caps[0]",
     "expected a finite number, got inf"),
    ("wind-number", [(("wind",), 5)], "wind", None),
    ("wind-profile-missing", [(("wind", "profile"), _DROP)], "wind.profile", None),
    ("wind-max-string", [(("wind", "max_kw"), "850")], "wind.max_kw", None),
    ("wind-unknown-key", [(("wind", "gust"), 1)], "wind", "gust"),
    ("wind-null-value", [(("wind", "profile", 0), None)], "wind.profile[0]", None),
    ("tariffs-array", [(("tariffs",), [])], "tariffs", None),
    ("tariffs-gas-missing", [(("tariffs", "gas"), _DROP)], "tariffs.gas", None),
    ("tariffs-string-value", [(("tariffs", "electricity", 2), "x")], "tariffs.electricity[2]", None),
    ("tariffs-unknown-key", [(("tariffs", "peak"), [])], "tariffs", "peak"),
    ("horizon-unknown-key", [(("horizon", "days"), 1)], "horizon", "days"),
    ("horizon-float-periods", [(("horizon", "periods"), 24.0)], "horizon.periods",
     "periods must be an integer"),
    ("horizon-bool-periods", [(("horizon", "periods"), True)], "horizon.periods", None),
    ("horizon-null-periods", [(("horizon", "periods"), None)], "horizon.periods", None),
    ("horizon-string-step", [(("horizon", "step_hours"), "1")], "horizon.step_hours",
     "expected a number, got str"),
    ("converters-object", [(("converters",), {})], "converters", None),
    ("converters-item-number", [(("converters",), [5])], "converters[0]", None),
    ("converters-item-null", [(("converters",), [None])], "converters[0]", None),
    ("converters-name-missing", [(("converters",), [{}])], "converters[0].name", None),
    ("converters-unknown-name", [(("converters",), [{"name": "XX"}])], "converters[XX]", None),
    ("converters-unknown-key", [(("converters",), [{"name": "GT", "cap": 1}])], "converters[GT]",
     "cap"),
    ("converters-eff-array", [(("converters",), [{"name": "GT", "efficiencies": [0.2]}])],
     "converters[GT].efficiencies", None),
    ("converters-eff-carrier", [(("converters",), [{"name": "GT", "efficiencies": {"steam": 1}}])],
     "converters[GT].efficiencies", "steam"),
    ("converters-eff-string", [(("converters",), [{"name": "GT", "efficiencies": {"heat": "x"}}])],
     "converters[GT].efficiencies.heat", None),
    ("converters-capacity-string", [(("converters",), [{"name": "GT", "capacity_kw": "big"}])],
     "converters[GT].capacity_kw", None),
    ("converters-ramp-null", [(("converters",), [{"name": "GT", "ramp_fraction": None}])],
     "converters[GT].ramp_fraction", None),
    ("converters-duplicate", [(("converters",), [{"name": "GT"}, {"name": "GT"}])],
     "converters", "duplicate"),
    ("storages-object", [(("storages",), {})], "storages", None),
    ("storages-item-null", [(("storages",), [None])], "storages[0]", None),
    ("storages-carrier-missing", [(("storages",), [{}])], "storages[0].carrier", None),
    ("storages-unknown-key", [(("storages",), [{"carrier": "heat", "size": 1}])],
     "storages[heat]", "size"),
    ("storages-bool-value", [(("storages",), [{"carrier": "heat", "soc_min_frac": True}])],
     "storages[heat].soc_min_frac", None),
    ("carbon-string", [(("carbon",), "x")], "carbon", None),
    ("carbon-unknown-key", [(("carbon",), {"bogus": 1})], "carbon", "bogus"),
    ("carbon-mechanism", [(("carbon",), {"mechanism": "cap"})], "carbon.mechanism",
     "unknown mechanism"),
    ("carbon-mechanism-null", [(("carbon",), {"mechanism": None})], "carbon.mechanism", None),
    ("carbon-sigma-string", [(("carbon",), {"sigma_e": "x"})], "carbon.sigma_e", None),
    ("carbon-sigma-bool", [(("carbon",), {"sigma_h": True})], "carbon.sigma_h", None),
    ("carbon-quad-short", [(("carbon",), {"coal_quad": [1, 2]})], "carbon.coal_quad", None),
    ("carbon-quad-number", [(("carbon",), {"coal_quad": 5})], "carbon.coal_quad", None),
    ("carbon-quad-string", [(("carbon",), {"gas_quad": [0, "x", 1]})], "carbon.gas_quad[1]", None),
    ("carbon-tiers-float", [(("carbon",), {"extra_tiers": 1.5})], "carbon.extra_tiers",
     "extra_tiers must be an integer"),
    ("carbon-tiers-bool", [(("carbon",), {"extra_tiers": True})], "carbon.extra_tiers", None),
    ("dr-string", [(("dr",), "x")], "dr", None),
    ("dr-unknown-key", [(("dr", "bogus"), 1)], "dr", "bogus"),
    ("dr-fraction-string", [(("dr", "shiftable_fraction"), "x")], "dr.shiftable_fraction", None),
    ("dr-fraction-bool", [(("dr", "shiftable_fraction"), True)], "dr.shiftable_fraction", None),
    ("dr-fraction-carrier", [(("dr", "shiftable_fraction"), {"steam": 0.1})],
     "dr.shiftable_fraction", "steam"),
    ("dr-fraction-value", [(("dr", "substitutable_fraction"), {"heat": "x"})],
     "dr.substitutable_fraction.heat", None),
    ("dr-conversion-array", [(("dr", "subst_conversion"), [1])], "dr.subst_conversion", None),
    ("dr-bounds-array", [(("dr", "shift_bounds"), [])], "dr.shift_bounds", None),
    ("dr-bounds-carrier", [(("dr", "shift_bounds"), {"steam": [0, 1]})], "dr.shift_bounds",
     "steam"),
    ("dr-bounds-short", [(("dr", "shift_bounds"), {"heat": [1]})], "dr.shift_bounds.heat", None),
    ("dr-bounds-number", [(("dr", "shift_bounds"), {"heat": 5})], "dr.shift_bounds.heat", None),
    ("dr-bounds-string", [(("dr", "shift_bounds"), {"heat": [0, "x"]})],
     "dr.shift_bounds.heat[1]", None),
    ("dr-carriers-unknown", [(("dr", "shift_carriers"), ["steam"])], "dr.shift_carriers",
     "expected a subset"),
    ("dr-carriers-string", [(("dr", "shift_carriers"), "electric")], "dr.shift_carriers", None),
    ("dr-carriers-number", [(("dr", "subst_carriers"), [1])], "dr.subst_carriers", None),
    ("dr-literal-int", [(("dr", "literal_eq2"), 1)], "dr.literal_eq2",
     "literal_eq2 must be a boolean"),
    ("dr-mu-null", [(("dr", "mu_shift"), None)], "dr.mu_shift", None),
    ("dr-satisfaction-string", [(("dr", "satisfaction_min"), "x")], "dr.satisfaction_min", None),
    ("chp-string", [(("chp",), "x")], "chp", None),
    ("chp-unknown-key", [(("chp",), {"bogus": 1})], "chp", "bogus"),
    ("chp-mode-string", [(("chp",), {"extraction_mode": "yes"})], "chp.extraction_mode",
     "extraction_mode must be a boolean"),
    ("chp-ratio-null", [(("chp",), {"ratio_min": None})], "chp.ratio_min", None),
    ("caps-short", [(("purchase_caps",), [1])], "purchase_caps", None),
    ("caps-number", [(("purchase_caps",), 5)], "purchase_caps", None),
    ("caps-string-value", [(("purchase_caps",), [1, "x"])], "purchase_caps[1]", None),
    ("maintenance-array", [(("maintenance",), [])], "maintenance", None),
    ("maintenance-unknown", [(("maintenance",), {"XX": 1})], "maintenance", "XX"),
    ("maintenance-string", [(("maintenance",), {"GT": "x"})], "maintenance.GT", None),
    ("sources-array", [(("sources",), [])], "sources", None),
    ("sources-number-value", [(("sources",), {"a": 1})], "sources", None),
    ("gas-kwh-string", [(("gas_kwh_per_m3",), "10")], "gas_kwh_per_m3", None),
    ("gas-kwh-null", [(("gas_kwh_per_m3",), None)], "gas_kwh_per_m3", None),
]


@pytest.mark.parametrize("edits, locator, message", [r[1:] for r in REJECTED],
                         ids=[r[0] for r in REJECTED])
def test_rejected_document(raw_doc, edits, locator, message):
    with pytest.raises(SchemaError) as info:
        case_from_dict(_edited(raw_doc, edits))
    assert info.value.locator == locator
    if message is not None:
        assert message in str(info.value)


# Each of these escaped the reader as a TypeError or AttributeError once.
@pytest.mark.parametrize(
    "edits, locator",
    [
        ([(("horizon",), 5)], "horizon"),
        ([(("carbon",), 3)], "carbon"),
        ([(("carbon",), [])], "carbon"),
        ([(("dr",), 2.5)], "dr"),
        ([(("chp",), True)], "chp"),
        ([(("converters",), [{"name": ["GT"]}])], "converters[0].name"),
        ([(("converters",), [{"name": 5}])], "converters[0].name"),
        ([(("storages",), [{"carrier": ["heat"]}])], "storages[0].carrier"),
        ([(("storages",), [{"carrier": 5}])], "storages[0].carrier"),
    ],
    ids=["horizon-number", "carbon-number", "carbon-array", "dr-number", "chp-bool",
         "converter-name-array", "converter-name-number", "storage-carrier-array",
         "storage-carrier-number"],
)
def test_malformed_section_is_a_schema_error(raw_doc, edits, locator):
    with pytest.raises(SchemaError) as info:
        case_from_dict(_edited(raw_doc, edits))
    assert info.value.locator == locator


# -- schema coverage ------------------------------------------------------------------
#
# One entry per field of every dataclass a case holds: edits to the
# `case_to_dict` form that give the field a value other than the bundled
# case's, where to read it back, and the value expected there.

_P24 = [7.5] * 24

COVERAGE = {
    (Horizon, "periods"): ([(("horizon", "periods"), 12)], lambda c: c.horizon.periods, 12),
    (Horizon, "step_hours"): (
        [(("horizon", "step_hours"), 0.5)], lambda c: c.horizon.step_hours, 0.5),
    # a profile's carrier is its key in `loads`
    (CarrierProfile, "carrier"): (
        [(("loads", "gas"), _P24)], lambda c: c.loads["gas"], CarrierProfile("gas", (7.5,) * 24)),
    (CarrierProfile, "values"): (
        [(("loads", "heat"), _P24)], lambda c: c.loads["heat"].values, (7.5,) * 24),
    (TariffProfile, "electricity_price"): (
        [(("tariffs", "electricity"), _P24)], lambda c: c.tariffs.electricity_price, (7.5,) * 24),
    (TariffProfile, "gas_price"): (
        [(("tariffs", "gas"), _P24)], lambda c: c.tariffs.gas_price, (7.5,) * 24),
    # an entry's name picks the converter it sets
    (ConverterParams, "name"): (
        [(("converters", 0, "name"), "GT"), (("converters", 1, "name"), "P2G")],
        lambda c: c.converter("GT"), ConverterParams("GT", 500.0, {"gas": 0.60})),
    (ConverterParams, "capacity_kw"): (
        [(("converters", 1, "capacity_kw"), 900.0)], lambda c: c.converter("GT").capacity_kw, 900.0),
    (ConverterParams, "efficiencies"): (
        [(("converters", 3, "efficiencies"), {"heat": 0.9})],
        lambda c: c.converter("GB").efficiencies, {"heat": 0.9}),
    (ConverterParams, "ramp_fraction"): (
        [(("converters", 2, "ramp_fraction"), 0.5)], lambda c: c.converter("WHB").ramp_fraction, 0.5),
    (ConverterParams, "min_output_kw"): (
        [(("converters", 1, "min_output_kw"), 50.0)], lambda c: c.converter("GT").min_output_kw, 50.0),
    (StorageParams, "carrier"): (
        [(("storages", 2, "carrier"), "steam")], lambda c: c.storages[2].carrier, "steam"),
    (StorageParams, "capacity_kwh"): (
        [(("storages", 0, "capacity_kwh"), 100.0)], lambda c: c.storages[0].capacity_kwh, 100.0),
    (StorageParams, "soc_min_frac"): (
        [(("storages", 0, "soc_min_frac"), 0.2)], lambda c: c.storages[0].soc_min_frac, 0.2),
    (StorageParams, "soc_max_frac"): (
        [(("storages", 0, "soc_max_frac"), 0.8)], lambda c: c.storages[0].soc_max_frac, 0.8),
    (StorageParams, "power_limit_fraction"): (
        [(("storages", 1, "power_limit_fraction"), 0.3)],
        lambda c: c.storages[1].power_limit_fraction, 0.3),
    (StorageParams, "charge_eff"): (
        [(("storages", 1, "charge_eff"), 0.9)], lambda c: c.storages[1].charge_eff, 0.9),
    (StorageParams, "discharge_eff"): (
        [(("storages", 1, "discharge_eff"), 0.9)], lambda c: c.storages[1].discharge_eff, 0.9),
    (StorageParams, "soc_initial_frac"): (
        [(("storages", 2, "soc_initial_frac"), 0.4)], lambda c: c.storages[2].soc_initial_frac, 0.4),
    (CarbonPolicy, "mechanism"): (
        [(("carbon", "mechanism"), "traditional")], lambda c: c.carbon.mechanism, "traditional"),
    (CarbonPolicy, "sigma_e"): ([(("carbon", "sigma_e"), 0.7)], lambda c: c.carbon.sigma_e, 0.7),
    (CarbonPolicy, "sigma_h"): ([(("carbon", "sigma_h"), 0.3)], lambda c: c.carbon.sigma_h, 0.3),
    (CarbonPolicy, "sigma_gload"): (
        [(("carbon", "sigma_gload"), 0.2)], lambda c: c.carbon.sigma_gload, 0.2),
    (CarbonPolicy, "sigma_eh"): ([(("carbon", "sigma_eh"), 1.5)], lambda c: c.carbon.sigma_eh, 1.5),
    (CarbonPolicy, "lambda_base"): (
        [(("carbon", "lambda_base"), 0.3)], lambda c: c.carbon.lambda_base, 0.3),
    (CarbonPolicy, "alpha_growth"): (
        [(("carbon", "alpha_growth"), 0.5)], lambda c: c.carbon.alpha_growth, 0.5),
    (CarbonPolicy, "interval_d"): (
        [(("carbon", "interval_d"), 1500.0)], lambda c: c.carbon.interval_d, 1500.0),
    (CarbonPolicy, "coal_quad"): (
        [(("carbon", "coal_quad"), [1.0, 0.8, 0.0])], lambda c: c.carbon.coal_quad, (1.0, 0.8, 0.0)),
    (CarbonPolicy, "gas_quad"): (
        [(("carbon", "gas_quad"), [1.0, 0.4, 0.0])], lambda c: c.carbon.gas_quad, (1.0, 0.4, 0.0)),
    (CarbonPolicy, "delta_gasload"): (
        [(("carbon", "delta_gasload"), 0.3)], lambda c: c.carbon.delta_gasload, 0.3),
    (CarbonPolicy, "theta_p2g"): (
        [(("carbon", "theta_p2g"), 0.4)], lambda c: c.carbon.theta_p2g, 0.4),
    (CarbonPolicy, "extra_tiers"): (
        [(("carbon", "extra_tiers"), 2)], lambda c: c.carbon.extra_tiers, 2),
    (DrPolicy, "shiftable_fraction"): (
        [(("dr", "shiftable_fraction", "gas"), 0.2)],
        lambda c: c.dr.shiftable_fraction, {"electric": 0.1, "gas": 0.2, "heat": 0.1}),
    (DrPolicy, "substitutable_fraction"): (
        [(("dr", "substitutable_fraction"), 0.2)],
        lambda c: c.dr.substitutable_fraction, {k: 0.2 for k in CARRIERS}),
    (DrPolicy, "mu_shift"): ([(("dr", "mu_shift"), 0.5)], lambda c: c.dr.mu_shift, 0.5),
    (DrPolicy, "mu_subst"): ([(("dr", "mu_subst"), 0.5)], lambda c: c.dr.mu_subst, 0.5),
    (DrPolicy, "satisfaction_min"): (
        [(("dr", "satisfaction_min"), 0.9)], lambda c: c.dr.satisfaction_min, 0.9),
    (DrPolicy, "shift_bounds"): (
        [(("dr", "shift_bounds", "heat"), [-40.0, 60.0])],
        lambda c: c.dr.shift_bounds, {"electric": None, "gas": None, "heat": (-40.0, 60.0)}),
    (DrPolicy, "subst_conversion"): (
        [(("dr", "subst_conversion", "heat"), 0.8)],
        lambda c: c.dr.subst_conversion, {"electric": 1.0, "gas": 1.0, "heat": 0.8}),
    (DrPolicy, "literal_eq2"): ([(("dr", "literal_eq2"), True)], lambda c: c.dr.literal_eq2, True),
    (DrPolicy, "shift_carriers"): (
        [(("dr", "shift_carriers"), ["gas"])], lambda c: c.dr.shift_carriers, ("gas",)),
    (DrPolicy, "subst_carriers"): (
        [(("dr", "subst_carriers"), ["heat"])], lambda c: c.dr.subst_carriers, ("heat",)),
    (ChpOptions, "extraction_mode"): (
        [(("chp", "extraction_mode"), True)], lambda c: c.chp.extraction_mode, True),
    (ChpOptions, "ratio_min"): ([(("chp", "ratio_min"), 1.5)], lambda c: c.chp.ratio_min, 1.5),
    (ChpOptions, "ratio_max"): ([(("chp", "ratio_max"), 3.5)], lambda c: c.chp.ratio_max, 3.5),
    (CaseData, "horizon"): (
        [(("horizon",), {"periods": 12, "step_hours": 2.0})], lambda c: c.horizon, Horizon(12, 2.0)),
    (CaseData, "loads"): (
        [(("loads",), {k: _P24 for k in CARRIERS})],
        lambda c: c.loads, {k: CarrierProfile(k, (7.5,) * 24) for k in CARRIERS}),
    (CaseData, "wind_profile"): ([(("wind", "profile"), _P24)], lambda c: c.wind_profile, (7.5,) * 24),
    (CaseData, "wind_max_kw"): ([(("wind", "max_kw"), 900.0)], lambda c: c.wind_max_kw, 900.0),
    (CaseData, "tariffs"): (
        [(("tariffs",), {"electricity": _P24, "gas": _P24})],
        lambda c: c.tariffs, TariffProfile((7.5,) * 24, (7.5,) * 24)),
    (CaseData, "converters"): (
        [(("converters",), [{"name": "WHB", "capacity_kw": 700.0}])], lambda c: c.converters,
        tuple(replace(d, capacity_kw=700.0) if d.name == "WHB" else d for d in DEFAULT_CONVERTERS)),
    (CaseData, "storages"): ([(("storages",), [])], lambda c: c.storages, ()),
    (CaseData, "carbon"): (
        [(("carbon",), {"mechanism": "none"})], lambda c: c.carbon, CarbonPolicy(mechanism="none")),
    (CaseData, "dr"): ([(("dr",), {})], lambda c: c.dr, DrPolicy()),
    (CaseData, "purchase_caps"): (
        [(("purchase_caps",), [1000.0, 2000.0])], lambda c: c.purchase_caps, (1000.0, 2000.0)),
    (CaseData, "maintenance"): (
        [(("maintenance", "wind"), 0.05)], lambda c: c.maintenance["wind"], 0.05),
    (CaseData, "chp"): (
        [(("chp",), {"extraction_mode": True})], lambda c: c.chp, ChpOptions(extraction_mode=True)),
    (CaseData, "gas_kwh_per_m3"): (
        [(("gas_kwh_per_m3",), 9.5)], lambda c: c.gas_kwh_per_m3, 9.5),
    (CaseData, "sources"): ([(("sources",), {"loads": "metered"})], lambda c: c.sources,
                            {"loads": "metered"}),
}


def _record_types(value, found):
    """Every dataclass type reachable from `value`."""
    if is_dataclass(value):
        found.add(type(value))
        for f in fields(value):
            _record_types(getattr(value, f.name), found)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _record_types(item, found)
    elif isinstance(value, dict):
        for item in value.values():
            _record_types(item, found)
    return found


def test_coverage_lists_every_case_field(case):
    want = {(cls, f.name) for cls in _record_types(case, set()) for f in fields(cls)}
    assert set(COVERAGE) == want


@pytest.mark.parametrize("key", list(COVERAGE), ids=[f"{c.__name__}.{f}" for c, f in COVERAGE])
def test_every_field_is_read_written_and_hashed(case, doc, key):
    edits, read_back, expected = COVERAGE[key]
    parsed = case_from_dict(_edited(doc, edits))
    assert read_back(parsed) == expected
    again = case_from_dict(case_to_dict(parsed))
    assert again == parsed
    assert case_hash(again) == case_hash(parsed) != case_hash(case)


# -- transforms ------------------------------------------------------------------


def test_reduce_case_averages_and_conserves_energy(case):
    red = reduce_case(case, 2)
    assert red.horizon.periods == 12
    assert red.horizon.step_hours == 2.0
    for carrier in CARRIERS:
        orig = case.loads[carrier].values
        assert red.loads[carrier].values[0] == pytest.approx((orig[0] + orig[1]) / 2)
        assert sum(red.loads[carrier].values) * red.horizon.step_hours == pytest.approx(
            sum(orig) * case.horizon.step_hours
        )
    assert red.wind_profile[0] == pytest.approx(
        (case.wind_profile[0] + case.wind_profile[1]) / 2
    )
    assert validate_case(red).errors == []


def test_reduce_case_rejects_nondivisor(case):
    with pytest.raises(ValueError, match="does not divide"):
        reduce_case(case, 5)


@pytest.mark.parametrize("factor", [1.5, 2.0, True])
def test_reduce_case_refuses_a_factor_that_is_no_int(case, factor):
    # 24 % 1.5 == 0, so 1.5 once passed the divisibility test and failed in a slice
    with pytest.raises(ValueError, match=f"factor {factor!r}: need an int"):
        reduce_case(case, factor)


def test_scale_profiles(case):
    scaled = scale_profiles(case, {"electric": 2.0, "wind": 0.5})
    assert scaled.loads["electric"].values[0] == pytest.approx(
        2.0 * case.loads["electric"].values[0]
    )
    assert scaled.loads["gas"].values == case.loads["gas"].values
    assert scaled.wind_profile[3] == pytest.approx(0.5 * case.wind_profile[3])
    assert case_hash(scaled) != case_hash(case)


def test_scale_profiles_refuses_an_unknown_key(case):
    # a misspelt key would otherwise scale nothing and return the case as it was
    for factors, key in (({"electrik": 2.0, "Wind": 0.0}, "electrik"), ({"gas": 1.1, "Wind": 0.0}, "Wind")):
        with pytest.raises(ValueError, match=f"unknown profile '{key}': known profiles are electric, gas, heat, wind"):
            scale_profiles(case, factors)
    every = scale_profiles(case, {"electric": 1.05, "gas": 0.95, "heat": 1.1, "wind": 0.9})
    assert case_hash(every) != case_hash(case)


# -- case arithmetic shared by the build and verification ------------------------


def _devices(case, *converters, **chp) -> CaseData:
    """The case with only ``converters`` and the CHP options changed by ``chp``."""
    return replace(case, converters=converters, chp=replace(case.chp, **chp))


GB = ConverterParams("GB", 800.0, {"heat": 0.9})
WHB = ConverterParams("WHB", 400.0, {"heat": 0.9})


def test_chp_params_by_hand(case):
    gt = ConverterParams("GT", 800.0, {"electric": 0.3, "heat": 0.5})
    # useful heat per kW of gas is the GT's heat share after the WHB: 0.5 * 0.9
    assert chp_params(_devices(case, gt, WHB, GB)) == (gt, WHB, 0.3, 0.45, 800.0, 400.0)
    # no WHB recovers no heat; no GT has no efficiencies and no capacity
    assert chp_params(_devices(case, gt, GB)) == (gt, None, 0.3, 0.0, 800.0, 0.0)
    assert chp_params(_devices(case, WHB, GB)) == (None, WHB, 0.0, 0.0, 0.0, 400.0)


def test_gas_unit_reach_by_hand(case):
    # heat-to-power 0.45 / 0.3 = 1.5 lies below the corridor [2, 3]: in
    # fixed-ratio mode the GT is held off and only the boiler's 0.9 * 800 reaches
    off = ConverterParams("GT", 800.0, {"electric": 0.3, "heat": 0.5})
    assert gas_unit_reach(_devices(case, off, WHB, GB, ratio_min=2.0, ratio_max=3.0)) == (0.0, 0.0, 720.0)
    # in extraction mode the corridor is rows, not a bound: the GT reaches its capacity
    assert gas_unit_reach(_devices(case, off, WHB, GB, extraction_mode=True)) == (240.0, 360.0, 720.0)
    # 1000 kW of gas at 0.25 electric and 0.6 * 0.9 = 0.54 heat (ratio 2.16) would give
    # 540 kW of heat, but the WHB takes 400: the heat stops there
    gt = ConverterParams("GT", 1000.0, {"electric": 0.25, "heat": 0.6})
    assert gas_unit_reach(_devices(case, gt, WHB, GB, extraction_mode=True)) == (250.0, 400.0, 720.0)
    # in fixed-ratio mode the WHB caps the gas column at 400 / 0.54 kW, so the
    # electric output stops at 0.25 of that too
    electric, heat, boiler = gas_unit_reach(_devices(case, gt, WHB, GB, ratio_min=2.0, ratio_max=3.0))
    assert (electric, heat, boiler) == (pytest.approx(250.0 * 400.0 / 540.0), pytest.approx(400.0), 720.0)
    # no boiler and no GT reach nothing
    assert gas_unit_reach(_devices(case, WHB)) == (0.0, 0.0, 0.0)

