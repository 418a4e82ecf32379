from __future__ import annotations

import dataclasses
import string
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from twinroute.channel import BlockageClass, ChannelParams
from twinroute.config import (
    PredictionConfig,
    VehicleClassSpec,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    read_yaml,
    save_config,
    validate_config,
)
from twinroute.model import Strategy

REPO = Path(__file__).resolve().parent.parent


def test_defaults_validate_clean():
    report = validate_config(default_config())
    assert report.ok, str(report)


def paths(report):
    return [path for path, _ in report.violations]


def test_trivial_valid_config():
    assert validate_config(default_config(dt=0.1, duration=60.0)).ok


def test_zero_dt_reported():
    report = validate_config(default_config(dt=0.0))
    assert not report.ok
    assert "dt" in paths(report)


def test_out_of_range_fraction_reported():
    report = validate_config(default_config(connected_fraction=1.3))
    assert "connected_fraction" in paths(report)


def test_validation_is_pure():
    cfg = default_config(dt=0.0, connected_fraction=-2.0)
    assert validate_config(cfg) == validate_config(cfg)


@pytest.mark.parametrize(
    "intersection, gap, path",
    [
        (dict(arm_length=2.0**510), 7.0, "intersection.arm_length"),
        (dict(lane_width=2.0**509, lane_count=3), 7.0, "intersection.arm_length"),
        # the quotient form compares a lane count past any float exactly
        (dict(lane_count=10**400), 7.0, "intersection.arm_length"),
        (dict(arm_length=100.0, lane_count=1, lane_width=3.5), 1.035e-7, "mobility.min_gap"),
        (dict(arm_length=1.0e140), 2.0e131, None),
        (dict(arm_length=100.0, lane_count=1, lane_width=3.5), 1.036e-7, None),
    ],
)
def test_generated_coordinates_stay_bounded_and_a_gap_apart(intersection, gap, path):
    cfg = default_config()
    cfg = dataclasses.replace(
        cfg,
        intersection=dataclasses.replace(cfg.intersection, **intersection),
        mobility=dataclasses.replace(cfg.mobility, min_gap=gap),
    )
    assert paths(validate_config(cfg)) == ([] if path is None else [path])


def test_horizon_below_interval_reported():
    cfg = default_config()
    cfg = dataclasses.replace(
        cfg, prediction=dataclasses.replace(cfg.prediction, horizon=0.5, interval=1.0)
    )
    assert "prediction.horizon" in paths(validate_config(cfg))


@pytest.mark.parametrize(
    "changes, path, message",
    [
        (
            dict(classes=(BlockageClass(None, 2.0, 68.0), BlockageClass(None, 2.0, 84.0))),
            "channel.classes[0].max_blockers",
            "only the last class may be unbounded",
        ),
        (dict(atmospheric_db_per_km=-1.0), "channel.atmospheric_db_per_km", "must be >= 0"),
        (dict(max_range_m=0.0), "channel.max_range_m", "must be > 0"),
    ],
    ids=["unbounded-before-last", "negative-atmospheric", "zero-range"],
)
def test_channel_problems_are_reported_under_channel(changes, path, message):
    cfg = default_config()
    cfg = dataclasses.replace(cfg, channel=dataclasses.replace(cfg.channel, **changes))
    assert validate_config(cfg).violations == ((path, message),)


def test_update_interval_below_dt_reported():
    report = validate_config(default_config(conventional_update_interval=0.01))
    assert "conventional_update_interval" in paths(report)


def test_roundtrip_through_file(tmp_path):
    cfg = default_config(seed=42, vehicle_count=7, strategy=Strategy.PREDICTIVE)
    path = tmp_path / "scenario.yaml"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_roundtrip_preserves_every_field(tmp_path):
    cfg = default_config()
    assert config_from_dict(config_to_dict(cfg)) == cfg


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
words = st.text(alphabet=string.ascii_letters + string.digits + " -_./", max_size=12)
blockage_classes = st.builds(
    BlockageClass, st.none() | st.integers(min_value=0, max_value=50), finite, finite
)
vehicle_classes = st.builds(VehicleClassSpec, words, finite, finite, finite, finite, finite)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63),
    dt=st.sampled_from([0.05, 0.1, 0.25, 0.5]),
    count=st.integers(min_value=1, max_value=60),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    latency=st.floats(min_value=0.0, max_value=3.0),
    max_hops=st.none() | st.integers(min_value=1, max_value=20),
    command=st.none() | st.lists(words, max_size=4).map(tuple),
    classes=st.lists(blockage_classes, max_size=5).map(tuple),
    mix=st.lists(vehicle_classes, max_size=4).map(tuple),
)
def test_roundtrip_random_configs(
    seed, dt, count, fraction, latency, max_hops, command, classes, mix
):
    cfg = default_config(
        seed=seed,
        dt=dt,
        vehicle_count=count,
        connected_fraction=fraction,
        latency_delta=latency,
        max_hops=max_hops,
        prediction=PredictionConfig(learned_command=command),
        channel=ChannelParams(classes=classes),
        vehicle_mix=mix,
    )
    dumped = yaml.safe_dump(config_to_dict(cfg))
    assert config_from_dict(yaml.safe_load(dumped)) == cfg


def test_digests_pinned():
    assert default_config().digest() == "1738251e069e906d"
    assert load_config(REPO / "configs" / "intersection.yaml").digest() == "ca0f76a03c3b725d"


@pytest.mark.parametrize(
    "text, plain",
    [
        ("dt: 1e-1\n", "dt: 0.1\n"),
        ("dt: .5e-1\n", "dt: 0.05\n"),
        ("duration: 6E1\n", "duration: 60.0\n"),
        ("channel:\n  max_range_m: +1.2e+2\n", "channel:\n  max_range_m: 120.0\n"),
        ("link_budget_db: 1.3e2\n", "link_budget_db: 130.0\n"),
    ],
)
def test_exponent_floats_load_as_their_plain_form(tmp_path, text, plain):
    a, b = tmp_path / "a.yaml", tmp_path / "b.yaml"
    a.write_text(text, encoding="utf-8")
    b.write_text(plain, encoding="utf-8")
    assert load_config(a) == load_config(b)
    assert load_config(a).digest() == load_config(b).digest()


@pytest.mark.parametrize(
    "scalar, value",
    [
        ("1e-9", 1e-9),
        ("6.02E23", 6.02e23),
        ("-1.5e3", -1500.0),
        ("1.e5", 100000.0),
        # a quoted scalar, and text that is not a number, stay strings
        ("'1e-9'", "1e-9"),
        ("1e", "1e"),
        ("v1e3", "v1e3"),
        ("1_0e3", "1_0e3"),
        # forms the YAML 1.1 resolver reads are read as before
        ("1.5", 1.5),
        ("12", 12),
        ("0x1A", 26),
        ("0x1e3", 0x1E3),
        ("1.0e-9", 1e-9),
        (".inf", float("inf")),
    ],
)
def test_read_yaml_reads_yaml_1_2_exponent_floats(tmp_path, scalar, value):
    path = tmp_path / "v.yaml"
    path.write_text(f"v: {scalar}\n", encoding="utf-8")
    got = read_yaml(path)["v"]
    assert type(got) is type(value) and got == value
    plain = yaml.safe_load(f"v: {scalar}\n")["v"]
    if not isinstance(plain, str):
        assert type(plain) is type(got) and plain == got


def test_missing_keys_fall_back_to_defaults():
    cfg = config_from_dict({"channel": {"max_range_m": 90.0}})
    assert cfg.channel.max_range_m == 90.0
    assert cfg.channel.classes == default_config().channel.classes
    tail = config_from_dict({"channel": {"classes": [{"rho": 2.0, "gamma": 70.0}]}})
    assert tail.channel.classes[0].max_blockers is None


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValueError, match="vehicle_cout"):
        config_from_dict({"vehicle_cout": 10})


def test_unknown_nested_key_rejected():
    with pytest.raises(ValueError, match="prediction.horizont"):
        config_from_dict({"prediction": {"horizont": 3.0}})


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="strategy"):
        config_from_dict({"strategy": "psychic"})


def test_digest_stable_and_sensitive():
    a = default_config(seed=1)
    assert a.digest() == default_config(seed=1).digest()
    assert a.digest() != default_config(seed=2).digest()


def test_channel_classes_parse_from_file(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(
        "channel:\n"
        "  classes:\n"
        "    - {max_blockers: 0, rho: 2.0, gamma: 70.0}\n"
        "    - {max_blockers: null, rho: 2.0, gamma: 90.0}\n",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert len(cfg.channel.classes) == 2
    assert cfg.channel.classes[0].gamma == 70.0
    assert cfg.channel.classes[1].max_blockers is None


def test_bad_vehicle_mix_reported():
    cfg = default_config()
    mix = (dataclasses.replace(cfg.vehicle_mix[0], antenna_height=99.0),)
    report = validate_config(dataclasses.replace(cfg, vehicle_mix=mix))
    assert any("antenna_height" in p for p in paths(report))
