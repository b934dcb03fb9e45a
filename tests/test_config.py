import json
import math

import pytest

from skybroker.config import (
    CompositionConfig,
    ConfigurationError,
    EnergyModelConfig,
    Seeds,
    load_config_file,
    mix64,
    unit_draw,
)
from skybroker.domain import Formation


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
            ("wind_max_speed", -0.5, "wind_max_speed must be non-negative and wind_slice_s positive"),
            ("wind_slice_s", 0.0, "wind_max_speed must be non-negative and wind_slice_s positive"),
            ("wind_slice_s", -600.0, "wind_max_speed must be non-negative and wind_slice_s positive"),
            ("non_partner_price_per_kwh", 0.0, "non_partner_price_per_kwh must be positive"),
            ("non_partner_price_per_kwh", -0.3, "non_partner_price_per_kwh must be positive"),
            ("et_flexible_factor", 0.0, "execution-time factors must be positive"),
            ("et_flexible_factor", -1.0, "execution-time factors must be positive"),
            ("et_dynamic_factor", -1.3, "execution-time factors must be positive"),
            ("position_factors", [math.nan, 1.0], "position factors must be positive and finite"),
            ("position_factors", [1.0, math.inf], "position factors must be positive and finite"),
            ("formation_factors", formation_table(math.nan), "formation factors must be positive and finite"),
            ("formation_factors", formation_table(math.inf), "formation factors must be positive and finite"),
        ],
    )
    def test_out_of_range_values_fail_fast_from_a_config_file(self, tmp_path, field, value, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"energy": {field: value}}))
        with pytest.raises(ConfigurationError, match=message):
            load_config_file(path)

    def test_zero_wind_is_allowed(self):
        assert EnergyModelConfig(wind_max_speed=0.0).wind_max_speed == 0.0

    def test_position_factor_clamps_to_last_slot(self):
        cfg = EnergyModelConfig(position_factors=(1.2, 1.0, 0.9))
        assert cfg.position_factor(0) == 1.2
        assert cfg.position_factor(2) == 0.9
        assert cfg.position_factor(99) == 0.9
        with pytest.raises(ValueError):
            cfg.position_factor(-1)

    def test_default_table_gives_every_formation_a_best_sector(self):
        cfg = EnergyModelConfig()
        winners = set()
        for sector in range(8):
            best = min(Formation, key=lambda f: (cfg.formation_factor(f, sector), list(Formation).index(f)))
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
        assert energy.formation_factor(Formation.COLUMN, 4) == 1.0
        assert composition.progress_weight == 0.4

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"energy": {"warp_drive": 1}}))
        with pytest.raises(ConfigurationError, match="unknown energy config keys"):
            load_config_file(path)
        path.write_text(json.dumps({"turbo": {}}))
        with pytest.raises(ConfigurationError, match="unknown config sections"):
            load_config_file(path)
