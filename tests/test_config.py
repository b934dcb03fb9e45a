import dataclasses
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skybroker.config import (
    DEFAULT_FORMATION_FACTORS,
    CapabilityRanges,
    CompositionConfig,
    ConfigurationError,
    EnergyModelConfig,
    ScenarioLimits,
    Seeds,
    load_config_file,
    mix64,
    unit_draw,
)
from skybroker.domain import Formation
from skybroker.harness import ExperimentConfig, run_experiment

from conftest import WORKLOADS, reference_mix64


def formation_table(vee_first_sector):
    """A config-file formation table of ones, but for VEE's first sector."""
    table = {f.value: [1.0] * 8 for f in Formation}
    table[Formation.VEE.value][0] = vee_first_sector
    return table


class TestMix64:
    def test_pinned_values(self):
        # frozen reference values: changing the mixer silently would change
        # every seeded draw in the simulator
        assert mix64(0) == 16294208416658607535
        assert mix64(1, 2, 3) == 17106668304135283436
        assert mix64(2**63, 17) == mix64(2**63, 17)

    @given(
        st.lists(
            st.one_of(st.integers(-(2**80), 2**80), st.booleans(), st.floats(-(2.0**80), 2.0**80)),
            max_size=6,
        )
    )
    @example([-1])
    @example([2**64 + 5, -(2**70)])
    @example([2.75, -2.75, True])
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_that_masks_each_part(self, parts):
        """Adding a part whole and masking the sum gives the value of masking
        the part first, for negative and wide ints, bools and truncated floats."""
        assert mix64(*parts) == reference_mix64(*parts)
        assert unit_draw(*parts) == reference_mix64(*parts) / float(1 << 64)

    def test_unit_draw_range(self):
        draws = [unit_draw(5, i) for i in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6

    def test_seed_streams_differ(self):
        seeds = Seeds.from_master(3)
        assert len({seeds.wind, seeds.congestion, seeds.voting}) == 3
        assert seeds == Seeds.from_master(3)


class TestEnergyConfigValidation:
    def test_formation_table_must_cover_all_formations(self):
        table = {f: (1.0,) * 8 for f in Formation}
        del table[Formation.COLUMN]
        with pytest.raises(ConfigurationError, match="missing"):
            EnergyModelConfig(formation_factors=table)

    def test_formation_rows_must_cover_all_sectors(self):
        table = {f: (1.0,) * 8 for f in Formation}
        table[Formation.VEE] = (1.0,) * 7
        with pytest.raises(ConfigurationError, match="sectors"):
            EnergyModelConfig(formation_factors=table)

    def test_factors_must_be_positive(self):
        table = {f: (1.0,) * 8 for f in Formation}
        table[Formation.VEE] = (0.0,) + (1.0,) * 7
        with pytest.raises(ConfigurationError, match="positive"):
            EnergyModelConfig(formation_factors=table)
        with pytest.raises(ConfigurationError):
            EnergyModelConfig(position_factors=())
        with pytest.raises(ConfigurationError):
            EnergyModelConfig(charge_rate_w=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("wind_max_speed", -0.5, "energy config wind_max_speed must be non-negative, got -0.5"),
            ("wind_slice_s", 0.0, "energy config wind_slice_s must be at least 1, got 0.0"),
            ("wind_slice_s", -600.0, "energy config wind_slice_s must be at least 1, got -600.0"),
            ("non_partner_price_per_kwh", 0.0, "non_partner_price_per_kwh must be positive"),
            ("non_partner_price_per_kwh", -0.3, "non_partner_price_per_kwh must be positive"),
            ("et_flexible_factor", 0.0, r"energy config et_flexible_factor must be in \(0, 1000\], got 0.0"),
            ("et_flexible_factor", -1.0, r"energy config et_flexible_factor must be in \(0, 1000\], got -1.0"),
            ("et_dynamic_factor", -1.3, r"energy config et_dynamic_factor must be in \(0, 1000\], got -1.3"),
            ("position_factors", [math.nan, 1.0], "energy config position_factors must be a finite float, got nan"),
            ("position_factors", [1.0, math.inf], "energy config position_factors must be a finite float, got inf"),
            ("formation_factors", formation_table(math.nan), r"config formation_factors\[vee\] must be a finite float"),
            ("formation_factors", formation_table(math.inf), r"config formation_factors\[vee\] must be a finite float"),
        ],
    )
    def test_out_of_range_values_fail_fast_from_a_config_file(self, tmp_path, field, value, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"energy": {field: value}}))
        with pytest.raises(ConfigurationError, match=message):
            load_config_file(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ((True,) * 8, "must be a finite float, got True"),
            ((10**400,) + (1.0,) * 7, "must be a finite float, got 1000"),
            ((1.0,) * 7 + (0,), "must be positive, got 0"),
            (1.0, "must be a tuple, got 1.0"),
        ],
        ids=["bool", "beyond_float", "zero", "scalar"],
    )
    def test_formation_rows_refuse_what_the_field_rules_refuse(self, row, message):
        table = {f: (1.0,) * 8 for f in Formation}
        table[Formation.VEE] = row
        with pytest.raises(ConfigurationError) as refused:
            EnergyModelConfig(formation_factors=table)
        assert str(refused.value).startswith(f"energy config formation_factors[vee] {message}")

    @pytest.mark.parametrize(
        "table, message",
        [
            (3, "energy config formation_factors must be a mapping of formations, got 3"),
            (
                {**DEFAULT_FORMATION_FACTORS, "bogus": "x"},
                "energy config formation_factors has keys that are not formations: ['bogus']",
            ),
        ],
        ids=["not_a_mapping", "unknown_key"],
    )
    def test_formation_table_refused_in_one_line(self, table, message):
        with pytest.raises(ConfigurationError) as refused:
            EnergyModelConfig(formation_factors=table)
        assert str(refused.value) == message

    def test_zero_wind_is_allowed(self):
        assert EnergyModelConfig(wind_max_speed=0.0).wind_max_speed == 0.0

    def test_position_factor_clamps_to_last_slot(self):
        cfg = EnergyModelConfig(position_factors=(1.2, 1.0, 0.9))
        assert cfg.position_factor(0) == 1.2
        assert cfg.position_factor(2) == 0.9
        assert cfg.position_factor(99) == 0.9

    def test_default_table_gives_every_formation_a_best_sector(self):
        cfg = EnergyModelConfig()
        winners = set()
        for sector in range(8):
            best = min(Formation, key=lambda f: (cfg.formation_factors[f][sector], list(Formation).index(f)))
            winners.add(best)
        assert winners == set(Formation)


class TestCompositionConfigValidation:
    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            CompositionConfig(progress_weight=1.0)
        with pytest.raises(ConfigurationError):
            CompositionConfig(arrival_window_s=-1)
        with pytest.raises(ConfigurationError):
            CompositionConfig(opportunistic_charge_threshold=1.5)


SECTIONS = {
    "energy": EnergyModelConfig,
    "composition": CompositionConfig,
    "experiment": ExperimentConfig,
    "limits": ScenarioLimits,
    "ranges": CapabilityRanges,
}


def numeric_fields():
    """(section, field) for every config field whose default is a number or a
    tuple of numbers."""
    for section, cls in SECTIONS.items():
        for f in dataclasses.fields(cls):
            values = f.default if isinstance(f.default, tuple) else (f.default,)
            if values and all(type(v) in (int, float) for v in values):
                yield section, f


class TestFieldRules:
    @pytest.mark.parametrize("section, f", list(numeric_fields()), ids=lambda v: getattr(v, "name", v))
    def test_every_numeric_field_refuses_bad_values_in_one_line(self, section, f, tmp_path):
        """Through the constructor and, for the file sections, through a
        config file: NaN, +-inf, a bool, a string, a 401-digit int and None
        (unless the field is optional), a fraction for an int field, and a
        scalar for a tuple field each end in a one-line error naming the
        section and the field. A numeric field with no rule fails here."""
        many = isinstance(f.default, tuple)
        bad_values = [math.nan, math.inf, -math.inf, True, "12", 10**400]
        if "None" not in str(f.type):
            bad_values.append(None)
        if type(f.default[0] if many else f.default) is int:
            bad_values.append(2.5)
        path = tmp_path / "cfg.json"
        cases = [((bad,) if many else bad, [bad] if many else bad) for bad in bad_values]
        if many:
            cases.append((f.default[0], f.default[0]))
        for given, written in cases:
            with pytest.raises(ConfigurationError) as refused:
                SECTIONS[section](**{f.name: given})
            messages = [str(refused.value)]
            if section in ("energy", "composition"):
                path.write_text(json.dumps({section: {f.name: written}}))
                with pytest.raises(ConfigurationError) as refused:
                    load_config_file(path)
                messages.append(str(refused.value))
            for message in messages:
                assert message.startswith(f"{section} config {f.name} must be "), message
                assert "\n" not in message

    def test_an_int_given_for_a_float_field_stays_an_int(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"energy": {"charge_rate_w": 200}, "composition": {"arrival_window_s": 900}}))
        energy, composition = load_config_file(path)
        config = dataclasses.asdict(ExperimentConfig(k_values=(50,), energy=energy, composition=composition))
        kept = [config["energy"]["charge_rate_w"], config["composition"]["arrival_window_s"], config["k_values"][0]]
        assert kept == [200, 900, 50]
        assert [type(v) for v in kept] == [int, int, int]

    @pytest.mark.parametrize("field, value", [("strategies", "density"), ("voting_methods", "irv")])
    def test_a_bare_string_is_not_a_list_of_names(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^experiment config {field} must be a tuple, got '{value}'$"):
            ExperimentConfig(**{field: value})

    def test_range_errors_name_the_rule_and_the_value(self):
        with pytest.raises(ConfigurationError, match=r"^composition config progress_weight must be in \[0, 1\), got 1\.0$"):
            CompositionConfig(progress_weight=1.0)
        with pytest.raises(ConfigurationError, match=r"^experiment config k_values must be in \[0, 100\), got -1$"):
            ExperimentConfig(k_values=(50.0, -1))


class TestPhysicalBounds:
    @pytest.mark.parametrize(
        "section, name, value",
        [("energy", "charge_rate_w", 1e-320), ("energy", "exogenous_service_s", 1e308),
         ("composition", "operating_cost_per_km", 1e308), ("energy", "wind_slice_s", 5e-324),
         ("energy", "et_flexible_factor", 1e308), ("energy", "et_dynamic_factor", 1e308)],
    )
    def test_values_that_overflow_a_request_are_refused_in_one_line(self, section, name, value):
        """Each passed its old rule, then overflowed inside a request with an
        error that named no field."""
        with pytest.raises(ConfigurationError) as refused:
            SECTIONS[section](**{name: value})
        message = str(refused.value)
        assert message.startswith(f"{section} config {name} must be ") and "\n" not in message

    def test_the_bounds_themselves_run_to_finite_outputs(self):
        cfg = ExperimentConfig(
            seed=1,
            **WORKLOADS["smoke"].config,
            energy=EnergyModelConfig(
                charge_rate_w=1, exogenous_service_s=86400, wind_slice_s=1, et_flexible_factor=1000, et_dynamic_factor=1000
            ),
            composition=CompositionConfig(operating_cost_per_km=1000),
        )
        rows = run_experiment(cfg).rows
        assert rows
        numbers = [v for row in rows for v in row if isinstance(v, float)]
        assert all(math.isfinite(v) for v in numbers)


# Int fields that only size the run: the network's nodes, the providers, the
# requests and the region paths searched. At 10**6 they make the run long, not
# wrong, so they are not tried there.
SIZES = {"synthetic_nodes", "n_providers", "n_requests", "t_paths"}


def extreme_values(f):
    """The extreme values to try for a ruled numeric field: the bounds its
    rule's text names (0 for positive and non-negative), and 5e-324 and 1e308
    for a float field. An int field tries each bound and the int above it, and
    10**6 outside SIZES."""
    text, _ = f.metadata["rule"]
    bounds = [float(b) for b in re.findall(r"\d+(?:\.\d+)?(?:e[+-]?\d+)?", text)]
    if not bounds and "positive" in text:
        bounds = [0.0]
    if type(f.default[0] if isinstance(f.default, tuple) else f.default) is int:
        return [n for b in bounds for n in (int(b), int(b) + 1)] + ([] if f.name in SIZES else [10**6])
    return [5e-324, 1e308, *bounds]


class TestExtremeValues:
    @pytest.mark.parametrize("section, f", list(numeric_fields()), ids=lambda v: getattr(v, "name", v))
    def test_each_extreme_is_refused_in_one_line_or_runs_finite(self, section, f):
        """The smoke config with the field at each of its extreme_values (every
        entry, for a tuple field) is either refused when it is built, with a
        one-line error naming the field, or runs to finite floats in every row."""
        smoke = {"seed": 1, **WORKLOADS["smoke"].config}
        for value in extreme_values(f):
            given = (value,) * len(f.default) if isinstance(f.default, tuple) else value
            try:
                if section == "experiment":
                    cfg = ExperimentConfig(**{**smoke, f.name: given})
                else:
                    cfg = ExperimentConfig(**smoke, **{section: SECTIONS[section](**{f.name: given})})
            except ConfigurationError as refused:
                message = str(refused)
                assert message.startswith(f"{section} config ") and f.name in message and "\n" not in message, message
                continue
            numbers = [v for row in run_experiment(cfg).rows for v in row if isinstance(v, float)]
            assert all(math.isfinite(v) for v in numbers), (f.name, value)


class TestConfigFile:
    def test_load_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "energy": {
                        "charge_rate_w": 200.0,
                        "formation_factors": {f.value: [1.0] * 8 for f in Formation},
                    },
                    "composition": {"progress_weight": 0.4},
                }
            )
        )
        energy, composition = load_config_file(path)
        assert energy.charge_rate_w == 200.0
        assert energy.formation_factors[Formation.COLUMN][4] == 1.0
        assert composition.progress_weight == 0.4

    @pytest.mark.parametrize("text", ["[]", "3", '"energy"', "null"])
    def test_a_file_that_is_not_a_json_object_refused(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="^config file must hold a JSON object$"):
            load_config_file(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"energy": {"warp_drive": 1}}))
        with pytest.raises(ConfigurationError, match="unknown energy config keys"):
            load_config_file(path)
        path.write_text(json.dumps({"turbo": {}}))
        with pytest.raises(ConfigurationError, match="unknown config sections"):
            load_config_file(path)

    @pytest.mark.parametrize(
        "energy, field",
        [
            ({"position_factors": "1234"}, "position_factors"),
            ({"position_factors": "abc"}, "position_factors"),
            ({"position_factors": {"a": 1}}, "position_factors"),
            ({"position_factors": [True, 1, 1, 1, 1]}, "position_factors"),
            ({"position_factors": ["1.0"]}, "position_factors"),
            ({"position_factors": [[1.0]]}, "position_factors"),
            ({"formation_factors": {"bogus": [1.0] * 8}}, "formation_factors[bogus]"),
            ({"formation_factors": [[1.0] * 8] * 5}, "formation_factors"),
            ({"formation_factors": {**formation_table(1.0), "vee": [1.0] * 7 + [False]}}, "formation_factors[vee]"),
            ({"formation_factors": {**formation_table(1.0), "column": "11111111"}}, "formation_factors[column]"),
        ],
        ids=[
            "digit_string",
            "string",
            "object",
            "bool_entry",
            "numeric_string_entry",
            "nested_array",
            "unknown_formation",
            "formation_array",
            "formation_bool_entry",
            "formation_string_row",
        ],
    )
    def test_malformed_factor_tables_are_refused_naming_the_field(self, tmp_path, energy, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"energy": energy}))
        with pytest.raises(ConfigurationError) as refused:
            load_config_file(path)
        message = str(refused.value)
        assert message.startswith(f"energy config {field} ")
        assert "\n" not in message

    def test_factor_tables_take_ints_as_floats(self, tmp_path):
        path = tmp_path / "cfg.json"
        table = {f.value: [1] * 8 for f in Formation}
        path.write_text(json.dumps({"energy": {"position_factors": [1, 0.9], "formation_factors": table}}))
        energy, _ = load_config_file(path)
        assert energy.position_factors == (1.0, 0.9)
        assert energy.formation_factors[Formation.VEE] == (1.0,) * 8
        assert all(type(v) is float for v in energy.position_factors + energy.formation_factors[Formation.VEE])
