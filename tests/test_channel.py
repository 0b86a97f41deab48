import json
import math
import re

import numpy as np
import pytest

from irssec.channel import (ChannelSet, ScenarioError, amplitude_from_loss_db,
                            draw_rician, generate_channels, load_scenario,
                            multi_user_scenario, parse_power_w, path_loss_db,
                            scenario_from_dict, scenario_to_dict,
                            two_user_scenario, upa_response)

# 30 + 22*log10(30), evaluated at 30 significant digits.
PL_30M_22 = 62.4966676038325736
# sqrt(10^(-L(50)/10)) with L(50) = 30 + 37.5*log10(50).
H2_AMP_TABLE1 = 2.06267707544249177e-5


def test_path_loss_reference_distance():
    assert path_loss_db(1, 2.2, 30, 1) == pytest.approx(30.0, abs=1e-12)


def test_path_loss_one_decade_adds_10a():
    assert path_loss_db(10, 2.2, 30, 1) == pytest.approx(52.0, abs=1e-12)


def test_path_loss_frozen_value():
    assert path_loss_db(30, 2.2, 30, 1) == pytest.approx(PL_30M_22, abs=1e-9)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss_db(0.0, 2.2, 30, 1)
    with pytest.raises(ValueError):
        path_loss_db(-3.0, 2.2, 30, 1)


def test_parse_power_units():
    assert parse_power_w("-80 dBm") == pytest.approx(1e-11, rel=1e-12)
    assert parse_power_w("0dBm") == pytest.approx(1e-3, rel=1e-12)
    assert parse_power_w("10 dB") == pytest.approx(10.0, rel=1e-12)
    assert parse_power_w(0.25) == 0.25
    assert parse_power_w("0.5") == 0.5
    assert parse_power_w(np.int64(3)) == 3.0 and type(parse_power_w(np.int64(3))) is float
    assert parse_power_w(np.float32(0.5)) == 0.5
    for bad in (object(), True, False, np.bool_(True)):
        with pytest.raises(ScenarioError, match="cannot parse power value"):
            parse_power_w(bad)


def test_upa_single_element():
    v = upa_response(1.3, 0.4, 1, 1, 0.5)
    assert v.shape == (1,)
    assert v[0] == pytest.approx(1.0)


def test_upa_zero_phase_argument():
    # sin(phi)*sin(omega) = 0 and cos(omega) = 0: all entries 1/sqrt(2)
    v = upa_response(0.0, np.pi / 2, 2, 1, 0.5)
    assert np.allclose(v, 1 / np.sqrt(2))


def test_upa_matches_termwise_evaluation():
    phi, omega, s = np.pi / 4, np.pi / 3, 0.5
    v = upa_response(phi, omega, 2, 2, s)
    expected = []
    for iy in (0, 1):
        for iz in (0, 1):
            arg = 2 * np.pi * s * (iy * math.sin(phi) * math.sin(omega)
                                   + iz * math.cos(omega))
            expected.append(np.exp(1j * arg) / 2.0)
    assert np.allclose(v, expected, atol=1e-14)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_upa_unit_norm_random_angles(rng):
    for _ in range(20):
        phi, omega = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
        ny, nz = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        v = upa_response(phi, omega, ny, nz, 0.37)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_rician_pure_los_limit(rng):
    los = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    out = draw_rician(los, 1e12, rng)
    assert np.array_equal(out, los)


def test_rician_pure_nlos_variance():
    rng = np.random.default_rng(123)
    los = np.ones(4)
    samples = np.stack([draw_rician(los, 0.0, rng) for _ in range(25_000)])
    var = np.mean(np.abs(samples) ** 2)
    assert abs(var - 1.0) < 0.05


def test_rician_deterministic_for_fixed_seed():
    los = np.ones(6)
    a = draw_rician(los, 10.0, np.random.default_rng(42))
    b = draw_rician(los, 10.0, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_rician_rejects_negative_kappa(rng):
    with pytest.raises(ValueError):
        draw_rician(np.ones(2), -0.1, rng)


def test_table1_direct_amplitude_pure_los():
    config = two_user_scenario(d1=20.0, rician_kappa=1e12, seed=0)
    ch = generate_channels(config)
    assert abs(ch.h[1]) == pytest.approx(H2_AMP_TABLE1, rel=1e-9)
    # AP-user-1 distance follows the tabulated sqrt(30^2 + d1^2), not |30 - d1|
    l1 = path_loss_db(math.sqrt(900 + 400), 3.75, 30, 1)
    assert abs(ch.h[0]) == pytest.approx(amplitude_from_loss_db(l1), rel=1e-9)


def test_generate_channels_deterministic():
    config = two_user_scenario(seed=9)
    a = generate_channels(config)
    b = generate_channels(config)
    assert np.array_equal(a.g, b.g)
    assert np.array_equal(a.m, b.m)
    assert np.array_equal(a.h, b.h)


def test_direct_channels_independent_of_surface_size():
    small = generate_channels(multi_user_scenario(n_users=4, n_y=2, n_z=1, seed=5))
    large = generate_channels(multi_user_scenario(n_users=4, n_y=6, n_z=5, seed=5))
    assert np.array_equal(small.h, large.h)


def test_override_distance_drives_irs_user2_amplitude():
    config = two_user_scenario(d1=20.0, rician_kappa=1e12)
    ch = generate_channels(config)
    amp = amplitude_from_loss_db(path_loss_db(40.0, 2.2, 30, 1))
    # per-element unit LoS power: every entry of m_2 carries the full amplitude
    assert np.allclose(np.abs(ch.m[1]), amp, rtol=1e-12)


def test_entry_power_matches_path_loss():
    # mean per-entry power equals 10^(-L/10) at any Rician factor
    config = two_user_scenario(d1=20.0, rician_kappa=10.0, n_y=5, n_z=2)
    rng = np.random.default_rng(77)
    acc = []
    for _ in range(1000):
        acc.append(np.abs(generate_channels(config, rng).g) ** 2)
    mean_power = float(np.mean(acc))
    expected = 10 ** (-path_loss_db(30.0, 2.2, 30, 1) / 10)
    assert mean_power == pytest.approx(expected, rel=0.05)


def test_pure_los_is_seed_independent():
    a = generate_channels(two_user_scenario(rician_kappa=1e12, seed=1))
    b = generate_channels(two_user_scenario(rician_kappa=1e12, seed=2))
    assert np.allclose(a.g, b.g)
    assert np.allclose(a.m, b.m)
    assert np.allclose(a.h, b.h)


def test_scenario_json_roundtrip(tmp_path):
    config = two_user_scenario(d1=30.0, seed=4)
    data = scenario_to_dict(config)
    data["noise_powers_w"] = ["-80 dBm", "-80 dBm"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    loaded = load_scenario(path)
    assert loaded.noise_powers_w == pytest.approx([1e-11, 1e-11])
    assert loaded.n_elements == config.n_elements
    ch_a, ch_b = generate_channels(config), generate_channels(loaded)
    assert np.allclose(ch_a.g, ch_b.g)


def test_scenario_rejects_unknown_fields():
    data = scenario_to_dict(two_user_scenario())
    data["bogus"] = 1
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_malformed_scenario_values_raise_scenario_error():
    with pytest.raises(ScenarioError, match="cannot parse power"):
        parse_power_w("abc")
    with pytest.raises(ScenarioError, match="cannot parse power"):
        parse_power_w("x dBm")
    data = scenario_to_dict(two_user_scenario())
    data["total_power_w"] = "abc"
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)
    # an angle override gives both angles or neither
    for link in ("ap_irs", "irs_user"):
        for angle in ("elevation_rad", "azimuth_rad"):
            data = scenario_to_dict(two_user_scenario())
            ov = data["distance_overrides"]
            entry = ov["ap_irs"] if link == "ap_irs" else ov["irs_user"][1]
            del entry[angle]
            config = scenario_from_dict(data)
            with pytest.raises(ScenarioError, match="without the other angle"):
                generate_channels(config)


def test_non_finite_powers_raise_scenario_error():
    cases = (("total_power_w", "nan"), ("total_power_w", math.nan),
             ("total_power_w", "inf"), ("noise_powers_w", ["-80 dBm", "nan"]),
             ("noise_powers_w", [math.nan, 1e-11]))
    for field, value in cases:
        data = scenario_to_dict(two_user_scenario())
        data[field] = value
        with pytest.raises(ScenarioError, match="finite and positive"):
            scenario_from_dict(data)


def test_unusable_scenario_scalars_raise_scenario_error_naming_the_field():
    nan, inf = math.nan, math.inf
    cases = {
        "rician_kappa": (nan, -1.0),
        "element_spacing_over_wavelength": (nan, inf, 0.0, -0.5),
        "pathloss_exponent_direct": (nan, inf, -inf),
        "pathloss_exponent_irs": (nan, inf, -inf),
        "reference_loss_db": (nan, inf, -inf),
        "reference_distance_m": (nan, inf, 0.0, -1.0),
    }
    for name, values in cases.items():
        for value in values:
            data = scenario_to_dict(two_user_scenario())
            data[name] = value
            with pytest.raises(ScenarioError, match=name):
                scenario_from_dict(data)
    # an infinite Rician factor is the pure LoS channel
    data = scenario_to_dict(two_user_scenario())
    data["rician_kappa"] = inf
    los = generate_channels(scenario_from_dict(data))
    assert np.array_equal(los.m, generate_channels(two_user_scenario(rician_kappa=1e12)).m)


SCALAR_FIELDS = ("rician_kappa", "element_spacing_over_wavelength", "pathloss_exponent_direct",
                 "pathloss_exponent_irs", "reference_loss_db", "reference_distance_m")


def test_non_integer_seed_raises_scenario_error_naming_the_field():
    for value in ("x", 1.5, None, [3], True):
        data = scenario_to_dict(two_user_scenario())
        data["seed"] = value
        with pytest.raises(ScenarioError, match="seed"):
            scenario_from_dict(data)
    # an integral value, given as a float or a numeric string, is the integer
    data = scenario_to_dict(two_user_scenario())
    for value in (4.0, "4"):
        data["seed"] = value
        assert scenario_from_dict(data).seed == 4


def test_fractional_surface_size_raises_scenario_error_naming_the_field():
    for name in ("n_y", "n_z"):
        for value in (2.5, "2.5", "abc", math.inf, True):
            data = scenario_to_dict(two_user_scenario())
            data[name] = value
            with pytest.raises(ScenarioError, match=name):
                scenario_from_dict(data)
    data = scenario_to_dict(two_user_scenario(n_y=5, n_z=2))
    data.update(n_y=5.0, n_z="2")
    config = scenario_from_dict(data)
    assert (config.n_y, config.n_z) == (5, 2) and isinstance(config.n_y, int)
    assert np.array_equal(generate_channels(config).m,
                          generate_channels(two_user_scenario(n_y=5, n_z=2)).m)


def test_scalar_fields_read_numeric_strings_and_name_the_field_otherwise():
    # one rule for every scalar field: numeric strings are numbers, as for
    # powers and overrides
    ref = generate_channels(two_user_scenario())
    for name in SCALAR_FIELDS:
        data = scenario_to_dict(two_user_scenario())
        data[name] = str(data[name])
        got = generate_channels(scenario_from_dict(data))
        assert np.array_equal(got.g, ref.g) and np.array_equal(got.m, ref.m)
        assert np.array_equal(got.h, ref.h)
        for value in ("abc", None, [1.0], False):
            data[name] = value
            with pytest.raises(ScenarioError, match=name):
                scenario_from_dict(data)


def test_non_numeric_overrides_raise_scenario_error_naming_the_field():
    cases = {
        "ap_irs.distance_m": lambda ov: ov["ap_irs"].update(distance_m="abc"),
        "ap_irs.azimuth_rad": lambda ov: ov["ap_irs"].update(azimuth_rad=None),
        "ap_user_m[1]": lambda ov: ov["ap_user_m"].__setitem__(1, "abc"),
        "irs_user[0].distance_m": lambda ov: ov["irs_user"][0].update(distance_m="nan"),
        "irs_user[1].elevation_rad": lambda ov: ov["irs_user"][1].update(elevation_rad=[1.0]),
    }
    for name, edit in cases.items():
        data = scenario_to_dict(two_user_scenario())
        edit(data["distance_overrides"])
        config = scenario_from_dict(data)
        with pytest.raises(ScenarioError, match=re.escape(name)):
            generate_channels(config)
    # numeric strings are numbers
    data = scenario_to_dict(two_user_scenario())
    data["distance_overrides"]["ap_user_m"][1] = "50"
    assert np.array_equal(generate_channels(scenario_from_dict(data)).h,
                          generate_channels(two_user_scenario()).h)


def test_malformed_positions_raise_scenario_error_naming_the_field():
    nan, inf = math.nan, math.inf
    user2 = [30.0, 0.0, -10.0]
    cases = (("ap_position", "ap_position", [0.0, 0.0]),
             ("ap_position", "ap_position", [0.0, 0.0, inf]),
             ("irs_position", "irs_position", [30.0, 0.0, 30.0, 1.0]),
             ("irs_position", "irs_position", "abc"),
             ("user_positions[0]", "user_positions", [[0.0, 0.0, nan], user2]),
             ("user_positions[1]", "user_positions", [[0.0, 0.0, 20.0], [30.0, "x", -10.0]]))
    for name, field, value in cases:
        for overrides in (True, False):
            data = scenario_to_dict(two_user_scenario())
            data[field] = value
            if not overrides:
                data["distance_overrides"] = None
            with pytest.raises(ScenarioError, match=re.escape(name)):
                scenario_from_dict(data)


def test_malformed_override_containers_raise_scenario_error_naming_the_field():
    ov = scenario_to_dict(two_user_scenario())["distance_overrides"]
    cases = (("distance_overrides", 5), ("distance_overrides", [1]),
             ("ap_irs", dict(ov, ap_irs=[30.0])), ("ap_user_m", dict(ov, ap_user_m={"a": 1})),
             ("irs_user", dict(ov, irs_user="ab")),
             ("irs_user[1]", dict(ov, irs_user=[ov["irs_user"][0], 5])))
    for name, value in cases:
        data = scenario_to_dict(two_user_scenario())
        data["distance_overrides"] = value
        config = scenario_from_dict(data)
        with pytest.raises(ScenarioError, match=re.escape(f"override {name} must be")):
            generate_channels(config)
    # null containers and entries leave the links to the coordinates
    data["distance_overrides"] = None
    plain = generate_channels(scenario_from_dict(data))
    data["distance_overrides"] = dict(ov, ap_irs=None, ap_user_m=None, irs_user=[None, None])
    nulls = generate_channels(scenario_from_dict(data))
    assert np.array_equal(nulls.m, plain.m) and np.array_equal(nulls.h, plain.h)


def test_scenario_requires_two_users():
    data = scenario_to_dict(two_user_scenario())
    data["user_positions"] = data["user_positions"][:1]
    data["noise_powers_w"] = data["noise_powers_w"][:1]
    with pytest.raises(ScenarioError):
        scenario_from_dict(data)


def test_with_confidential_user_reorders():
    ch = generate_channels(multi_user_scenario(n_users=3, seed=2))
    swapped = ch.with_confidential_user(2)
    assert swapped.h[0] == ch.h[2]
    assert swapped.h[1] == ch.h[0]
    assert np.array_equal(swapped.m[0], ch.m[2])
    assert np.array_equal(swapped.g, ch.g)


def test_channelset_validates_shapes():
    with pytest.raises(ValueError):
        ChannelSet(g=np.ones(3), m=np.ones((2, 2)), h=np.ones(2), sigma2=np.ones(2))
    with pytest.raises(ValueError):
        ChannelSet(g=np.ones(2), m=np.ones((2, 2)), h=np.ones(2), sigma2=np.array([1.0, 0.0]))
    # the confidential user needs an eavesdropper: with one user a region
    # sweep ended in max() of an empty sequence
    for k in (0, 1):
        with pytest.raises(ValueError, match="at least two users"):
            ChannelSet(g=np.ones(2), m=np.ones((k, 2)), h=np.ones(k), sigma2=np.ones(k))
    # a NaN noise power passes a test for <= 0; unchecked, it and any
    # non-finite entry reach the solver as a numerical breakdown
    for sigma2 in ([math.nan, 1e-11], [math.inf, 1e-11]):
        with pytest.raises(ValueError, match="noise powers"):
            ChannelSet(g=np.ones(2), m=np.ones((2, 2)), h=np.ones(2), sigma2=sigma2)
    for field in ("g", "m", "h"):
        for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
            data = {"g": np.ones(2, complex), "m": np.ones((2, 2), complex),
                    "h": np.ones(2, complex)}
            data[field].flat[-1] = bad
            with pytest.raises(ValueError, match="finite"):
                ChannelSet(**data, sigma2=np.ones(2))
