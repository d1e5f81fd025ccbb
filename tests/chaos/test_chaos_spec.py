"""ScenarioSpec: validation, JSON round-trips, digests, the library."""

import json
import math
from pathlib import Path

import pytest

from repro.chaos import (
    BUILTIN_SCENARIOS,
    CapacityBlackout,
    ColdStartSpike,
    Injection,
    NetworkDegradation,
    PreemptionStorm,
    PriceSurge,
    ScenarioSpec,
    WarningDisruption,
    builtin_scenario,
    list_builtin,
    load_scenario,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestValidation:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty window"):
            PreemptionStorm(start=100.0, end=100.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="negative start"):
            CapacityBlackout(start=-1.0, end=100.0)

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="hit_prob"):
            PreemptionStorm(start=0.0, end=10.0, hit_prob=1.5)
        with pytest.raises(ValueError, match="correlation"):
            PreemptionStorm(start=0.0, end=10.0, correlation=-0.1)
        with pytest.raises(ValueError, match="suppress_prob"):
            WarningDisruption(start=0.0, end=10.0, suppress_prob=2.0)

    def test_severity_must_be_positive(self):
        with pytest.raises(ValueError, match="severity"):
            PreemptionStorm(start=0.0, end=10.0, severity=0.0)

    def test_cold_start_factor_floor(self):
        with pytest.raises(ValueError, match="factor"):
            ColdStartSpike(start=0.0, end=10.0, factor=0.5)

    def test_price_multiplier_positive(self):
        with pytest.raises(ValueError, match="multiplier"):
            PriceSurge(start=0.0, end=10.0, multiplier=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cold_start_factor_rejected(self, bad):
        # NaN used to pass the `factor < 1.0` floor check.
        with pytest.raises(ValueError, match="cold-start factor"):
            ColdStartSpike(start=0.0, end=10.0, factor=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_price_multiplier_rejected(self, bad):
        with pytest.raises(ValueError, match="price multiplier"):
            PriceSurge(start=0.0, end=10.0, multiplier=bad)

    def test_network_extra_rtt_positive(self):
        with pytest.raises(ValueError, match="extra_rtt"):
            NetworkDegradation(start=0.0, end=10.0, extra_rtt=0.0)

    def test_scenario_needs_name_and_injections(self):
        storm = PreemptionStorm(start=0.0, end=10.0)
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec(name="", injections=(storm,))
        with pytest.raises(ValueError, match="no injections"):
            ScenarioSpec(name="x", injections=())
        with pytest.raises(TypeError):
            ScenarioSpec(name="x", injections=("not an injection",))

    def test_active_at_is_half_open(self):
        storm = PreemptionStorm(start=10.0, end=20.0)
        assert not storm.active_at(9.9)
        assert storm.active_at(10.0)
        assert storm.active_at(19.9)
        assert not storm.active_at(20.0)
        assert storm.duration == 10.0


class TestSerialisation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown injection kind"):
            Injection.from_dict({"kind": "meteor_strike", "start": 0, "end": 1})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            Injection.from_dict(
                {"kind": "price_surge", "start": 0, "end": 1, "velocity": 9}
            )

    def test_zone_lists_become_tuples(self):
        injection = Injection.from_dict(
            {
                "kind": "capacity_blackout",
                "start": 0.0,
                "end": 60.0,
                "zones": ["z1", "z2"],
                "residual_capacity": 1,
            }
        )
        assert injection.zones == ("z1", "z2")

    @pytest.mark.parametrize("name", list(BUILTIN_SCENARIOS))
    def test_builtin_round_trip(self, name):
        scenario = builtin_scenario(name)
        restored = ScenarioSpec.from_json(scenario.to_json())
        assert restored == scenario
        assert restored.digest() == scenario.digest()

    def test_digest_changes_with_content(self):
        a = ScenarioSpec("s", (PriceSurge(start=0.0, end=10.0),))
        b = ScenarioSpec("s", (PriceSurge(start=0.0, end=10.0, multiplier=9.0),))
        assert a.digest() != b.digest()
        assert a.digest() == ScenarioSpec("s", (PriceSurge(start=0.0, end=10.0),)).digest()

    def test_save_load(self, tmp_path):
        scenario = builtin_scenario("kitchen-sink")
        path = tmp_path / "s.json"
        scenario.save(path)
        assert ScenarioSpec.load(path) == scenario

    def test_windows_and_of_kind(self):
        scenario = builtin_scenario("cold-start-storm")
        assert len(scenario.windows()) == 2
        assert scenario.last_end == max(end for _, end in scenario.windows())
        assert len(scenario.of_kind("cold_start_spike")) == 1
        assert scenario.of_kind("price_surge") == []


class TestLibrary:
    def test_bundled_files_match_builders(self):
        """configs/scenarios/*.json are generated from the builders; the
        two forms must never drift."""
        directory = REPO_ROOT / "configs" / "scenarios"
        files = sorted(p.stem for p in directory.glob("*.json"))
        assert files == sorted(list_builtin())
        for name in list_builtin():
            on_disk = ScenarioSpec.load(directory / f"{name}.json")
            assert on_disk == builtin_scenario(name), name
            assert on_disk.digest() == builtin_scenario(name).digest()

    def test_builders_return_fresh_objects(self):
        assert builtin_scenario("price-surge") is not builtin_scenario("price-surge")

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            builtin_scenario("nope")

    def test_load_scenario_by_name_and_path(self, tmp_path):
        assert load_scenario("price-surge") == builtin_scenario("price-surge")
        path = tmp_path / "custom.json"
        builtin_scenario("price-surge").save(path)
        assert load_scenario(str(path)) == builtin_scenario("price-surge")
        with pytest.raises(FileNotFoundError):
            load_scenario(str(tmp_path / "missing.json"))
        with pytest.raises(ValueError, match="unknown scenario"):
            load_scenario("not-a-scenario-or-path")

    def test_every_builtin_json_is_canonical(self):
        """Files on disk are exactly ``to_json() + newline``."""
        directory = REPO_ROOT / "configs" / "scenarios"
        for name in list_builtin():
            text = (directory / f"{name}.json").read_text()
            assert text == builtin_scenario(name).to_json() + "\n", name
            # And valid standalone JSON with the expected identity.
            assert json.loads(text)["name"] == name
