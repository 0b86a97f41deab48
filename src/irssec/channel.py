"""Propagation model: path loss, planar-array steering, Rician fading, scenarios.

All powers are handled internally in linear watts. dBm/dB strings are accepted
only at the configuration boundary (e.g. ``"-80 dBm"`` for a noise power).
Channel draws are deterministic for a fixed ``numpy.random.Generator`` state.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

# Rician factors at or above this value short-circuit to the pure LoS channel.
PURE_LOS_KAPPA = 1e12


class ScenarioError(ValueError):
    """Inconsistent or unusable scenario configuration."""


def parse_power_w(value) -> float:
    """Parse a power given in watts or as a string with a dBm/dB suffix.

    ``"-80 dBm"`` -> 1e-11 W, ``"0 dB"`` -> 1 W (dB is read as dBW).
    Plain numbers, numpy scalars included, pass through as watts; a boolean
    is no power.
    """
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        text = value.strip().lower().replace(" ", "")
        try:
            if text.endswith("dbm"):
                return 10.0 ** ((float(text[:-3]) - 30.0) / 10.0)
            if text.endswith("dbw"):
                return 10.0 ** (float(text[:-3]) / 10.0)
            if text.endswith("db"):
                return 10.0 ** (float(text[:-2]) / 10.0)
            return float(text)
        except ValueError:
            pass
    raise ScenarioError(f"cannot parse power value {value!r}")


def path_loss_db(d: float, a: float, l0: float = 30.0, d0: float = 1.0) -> float:
    """Log-distance path loss L(d) = l0 + 10*a*log10(d/d0) in dB."""
    if d <= 0 or d0 <= 0:
        raise ValueError(f"distances must be positive, got d={d}, d0={d0}")
    return l0 + 10.0 * a * math.log10(d / d0)


def amplitude_from_loss_db(loss_db: float) -> float:
    """Field amplitude scale sqrt(10^(-L/10)) for a path loss in dB."""
    return 10.0 ** (-loss_db / 20.0)


def upa_response(phi: float, omega: float, n_y: int, n_z: int,
                 spacing_ratio: float = 0.5) -> np.ndarray:
    """Steering vector of an n_y-by-n_z planar array in the yz-plane.

    The entry for grid index (iy, iz), iy = 0..n_y-1 and iz = 0..n_z-1, is
    exp(j*2*pi*spacing_ratio*(iy*sin(phi)*sin(omega) + iz*cos(omega))) / sqrt(N),
    where phi is the azimuth and omega the elevation of the ray; the first
    element is the phase reference. The vector has unit Euclidean norm; iz
    varies fastest.
    """
    if n_y < 1 or n_z < 1:
        raise ValueError("array dimensions must be >= 1")
    iy = np.arange(n_y)
    iz = np.arange(n_z)
    phase = 2.0 * np.pi * spacing_ratio * (
        iy[:, None] * math.sin(phi) * math.sin(omega) + iz[None, :] * math.cos(omega)
    )
    n_t = n_y * n_z
    return (np.exp(1j * phase) / math.sqrt(n_t)).reshape(n_t)


def draw_rician(los: np.ndarray, kappa: float, rng: np.random.Generator) -> np.ndarray:
    """Rician fade sqrt(k/(1+k))*los + sqrt(1/(1+k))*w with w ~ CN(0, I).

    kappa >= PURE_LOS_KAPPA returns the LoS component exactly (and consumes no
    randomness, so the pure-LoS limit is seed independent).
    """
    if kappa < 0:
        raise ValueError("Rician factor must be nonnegative")
    los = np.asarray(los, dtype=complex)
    if kappa >= PURE_LOS_KAPPA:
        return los.copy()
    w = (rng.standard_normal(los.shape) + 1j * rng.standard_normal(los.shape)) / math.sqrt(2.0)
    return math.sqrt(kappa / (1.0 + kappa)) * los + math.sqrt(1.0 / (1.0 + kappa)) * w


@dataclass
class ScenarioConfig:
    """Geometry and radio parameters of one simulation scenario.

    ``user_positions[0]`` is always the confidential-service user. Distances
    and LoS angles are derived from the coordinates unless ``distance_overrides``
    supplies them explicitly (used to reproduce tabulated setups whose stated
    link distances differ from the raw coordinate geometry).
    """

    ap_position: np.ndarray
    irs_position: np.ndarray
    user_positions: list
    n_y: int
    n_z: int
    noise_powers_w: list
    total_power_w: float
    element_spacing_over_wavelength: float = 0.5
    rician_kappa: float = 10.0
    pathloss_exponent_direct: float = 3.75
    pathloss_exponent_irs: float = 2.2
    reference_loss_db: float = 30.0
    reference_distance_m: float = 1.0
    seed: int = 0
    distance_overrides: dict | None = None

    def __post_init__(self):
        self.ap_position = _position(self.ap_position, "ap_position")
        self.irs_position = _position(self.irs_position, "irs_position")
        self.user_positions = [_position(p, f"user_positions[{k}]")
                               for k, p in enumerate(_sequence(self.user_positions,
                                                               "user_positions"))]
        if len(self.user_positions) < 2:
            raise ScenarioError("need at least 2 users (user 1 plus eavesdroppers)")
        self.noise_powers_w = [parse_power_w(p)
                               for p in _sequence(self.noise_powers_w, "noise_powers_w")]
        if len(self.noise_powers_w) != len(self.user_positions):
            raise ScenarioError("one noise power per user is required")
        if not all(0 < s < math.inf for s in self.noise_powers_w):
            raise ScenarioError("noise powers must be finite and positive")
        self.total_power_w = parse_power_w(self.total_power_w)
        if not 0 < self.total_power_w < math.inf:
            raise ScenarioError("total power must be finite and positive")
        for name in ("n_y", "n_z", "seed"):
            setattr(self, name, _integer(getattr(self, name), name))
        if self.n_y < 1 or self.n_z < 1:
            raise ScenarioError("IRS grid dimensions must be >= 1")
        if self.seed < 0:
            raise ScenarioError(f"seed must be nonnegative, got {self.seed}")
        for name in ("element_spacing_over_wavelength", "rician_kappa", "pathloss_exponent_direct",
                     "pathloss_exponent_irs", "reference_loss_db", "reference_distance_m"):
            setattr(self, name, _number(getattr(self, name), name))
        if not self.rician_kappa >= 0:  # NaN fails too; inf is the pure LoS channel
            raise ScenarioError("rician_kappa must be nonnegative")
        for name in ("element_spacing_over_wavelength", "reference_distance_m"):
            if not 0 < getattr(self, name) < math.inf:
                raise ScenarioError(f"{name} must be finite and positive")
        for name in ("pathloss_exponent_direct", "pathloss_exponent_irs", "reference_loss_db"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name} must be finite")

    @property
    def n_elements(self) -> int:
        return self.n_y * self.n_z

    @property
    def n_users(self) -> int:
        return len(self.user_positions)


@dataclass
class ChannelSet:
    """One fading block: every propagation quantity the optimizer needs.

    g       complex (N,)  AP -> IRS
    m       complex (K, N), row k is the IRS -> user-k vector (used as m_k^H)
    h       complex (K,)  AP -> user-k direct channels
    sigma2  float (K,)    per-user noise powers in watts
    """

    g: np.ndarray
    m: np.ndarray
    h: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=complex).reshape(-1)
        self.m = np.atleast_2d(np.asarray(self.m, dtype=complex))
        self.h = np.asarray(self.h, dtype=complex).reshape(-1)
        self.sigma2 = np.asarray(self.sigma2, dtype=float).reshape(-1)
        if self.m.shape != (self.h.size, self.g.size):
            raise ValueError(f"inconsistent shapes: m {self.m.shape}, g {self.g.shape}, h {self.h.shape}")
        if self.sigma2.size != self.h.size:
            raise ValueError("one noise power per user is required")
        if self.h.size < 2:
            raise ValueError("at least two users are required, one of them an eavesdropper")
        if not all(np.isfinite(arr).all() for arr in (self.g, self.m, self.h)):
            raise ValueError("channel entries must be finite")
        if not np.all((self.sigma2 > 0) & (self.sigma2 < np.inf)):
            raise ValueError("noise powers must be finite and strictly positive")

    @property
    def n(self) -> int:
        return self.g.size

    @property
    def k(self) -> int:
        return self.h.size

    def with_confidential_user(self, index: int) -> "ChannelSet":
        """Reorder users so that user ``index`` becomes the confidential user."""
        order = [index] + [j for j in range(self.k) if j != index]
        return ChannelSet(self.g.copy(), self.m[order].copy(),
                          self.h[order].copy(), self.sigma2[order].copy())


def _number(value, name: str) -> float:
    """A scenario number as a float, numeric strings included (booleans are
    not numbers); ScenarioError naming the field otherwise."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ScenarioError(f"{name} must be a number, got {value!r}")


def _integer(value, name: str) -> int:
    """A scenario integer: an int, or a number or numeric string with an
    integral value; ScenarioError naming the field otherwise."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    out = _number(value, name)
    if not out.is_integer():
        raise ScenarioError(f"{name} must be an integer, got {value!r}")
    return int(out)


def _position(value, name: str) -> np.ndarray:
    """A position as three finite floats; ScenarioError naming the field otherwise."""
    out = [_number(x, name) for x in value] if isinstance(value, (list, tuple, np.ndarray)) else []
    if len(out) != 3 or not all(map(math.isfinite, out)):
        raise ScenarioError(f"{name} must be three finite numbers, got {value!r}")
    return np.array(out)


def _sequence(value, name: str):
    """A scenario list field as given (a list, tuple or array); ScenarioError
    naming the field otherwise."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ScenarioError(f"{name} must be a list, got {value!r}")
    return value


def _override_entry(value, kind: type, name: str):
    """An override object (kind dict) or list, empty if null; ScenarioError otherwise."""
    if value is not None and not isinstance(value, kind):
        raise ScenarioError(f"override {name} must be {'an object' if kind is dict else 'a list'}"
                            f" or null, got {value!r}")
    return kind() if value is None else value


def _override_float(value, name: str) -> float:
    """An override value as a finite float; ScenarioError naming the field
    otherwise."""
    out = _number(value, f"override {name}")
    if not math.isfinite(out):
        raise ScenarioError(f"override {name} must be a finite number, got {value!r}")
    return out


def _link(entry: dict, name: str, origin: np.ndarray, target: np.ndarray):
    """(distance, azimuth, elevation) of the ray from origin to target in the
    global frame, unless the override entry gives the distance or both angles
    (one angle alone is an error).

    Elevation is measured from the +z axis; azimuth in the xy-plane from +x.
    """
    given = [key for key in ("azimuth_rad", "elevation_rad") if key in entry]
    if len(given) == 1:
        raise ScenarioError(f"angle override {entry} gives {given[0]} without the other angle")
    u = target - origin
    d = float(np.linalg.norm(u))
    if given:
        angles = tuple(_override_float(entry[key], f"{name}.{key}") for key in given)
    elif d > 0:
        u = u / d
        angles = (math.atan2(u[1], u[0]), math.acos(np.clip(u[2], -1.0, 1.0)))
    else:
        raise ScenarioError("coincident terminals give an undefined ray")
    if entry.get("distance_m") is not None:
        d = _override_float(entry["distance_m"], f"{name}.distance_m")
    return (d,) + angles


def _link_geometry(config: ScenarioConfig) -> dict:
    """Distances and LoS angles for every link, honoring overrides."""
    ov = _override_entry(config.distance_overrides, dict, "distance_overrides")
    ap_user = _override_entry(ov.get("ap_user_m"), list, "ap_user_m")
    irs_user = _override_entry(ov.get("irs_user"), list, "irs_user")
    out = {"ap_irs": _link(_override_entry(ov.get("ap_irs"), dict, "ap_irs"), "ap_irs",
                           config.irs_position, config.ap_position),
           "ap_user": [], "irs_user": []}
    for k, pos in enumerate(config.user_positions):
        d = ap_user[k] if k < len(ap_user) else None
        out["ap_user"].append(float(np.linalg.norm(pos - config.ap_position)) if d is None
                              else _override_float(d, f"ap_user_m[{k}]"))
        entry = _override_entry(irs_user[k] if k < len(irs_user) else None, dict,
                                f"irs_user[{k}]")
        out["irs_user"].append(_link(entry, f"irs_user[{k}]", config.irs_position, pos))

    for name, d in [("ap_irs", out["ap_irs"][0])] + [(f"ap_user{k}", out["ap_user"][k]) for k in range(config.n_users)] \
            + [(f"irs_user{k}", out["irs_user"][k][0]) for k in range(config.n_users)]:
        if d <= 0:
            raise ScenarioError(f"link {name} has non-positive distance {d}")
    return out


def generate_channels(config: ScenarioConfig, rng: np.random.Generator | None = None) -> ChannelSet:
    """Draw one fading block for the configured scenario.

    Each link amplitude is sqrt(10^(-L(d)/10)) applied to a Rician draw. The
    AP-IRS link uses the receive steering vector as its LoS component, the
    IRS-user links use the transmit steering vector, and the direct AP-user
    links use LoS component 1. Steering-vector LoS components are rescaled to
    per-element unit power (sqrt(N) times the unit-norm steering vector) so
    that every link entry has mean power 10^(-L/10) at any Rician factor,
    matching the unit-variance scattered part. Draw order is fixed: h_1..h_K
    first, then g, then m_1..m_K. The direct channels consume a
    surface-size-independent amount of randomness, so regenerating with the
    same seed and a different element count keeps the direct channels
    identical.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    geo = _link_geometry(config)
    kappa = config.rician_kappa
    s = config.element_spacing_over_wavelength
    l0, d0 = config.reference_loss_db, config.reference_distance_m

    h = np.empty(config.n_users, dtype=complex)
    for k in range(config.n_users):
        amp = amplitude_from_loss_db(
            path_loss_db(geo["ap_user"][k], config.pathloss_exponent_direct, l0, d0))
        h[k] = amp * draw_rician(np.ones(1), kappa, rng)[0]

    unit_power = math.sqrt(config.n_elements)
    d_ai, phi_ai, omega_ai = geo["ap_irs"]
    amp_g = amplitude_from_loss_db(path_loss_db(d_ai, config.pathloss_exponent_irs, l0, d0))
    los_g = unit_power * upa_response(phi_ai, omega_ai, config.n_y, config.n_z, s)
    g = amp_g * draw_rician(los_g, kappa, rng)

    m_rows = []
    for k in range(config.n_users):
        d_iu, phi, omega = geo["irs_user"][k]
        amp = amplitude_from_loss_db(path_loss_db(d_iu, config.pathloss_exponent_irs, l0, d0))
        los = unit_power * upa_response(phi, omega, config.n_y, config.n_z, s)
        m_rows.append(amp * draw_rician(los, kappa, rng))

    return ChannelSet(g=g, m=np.vstack(m_rows), h=h, sigma2=np.array(config.noise_powers_w))


def _ground_user(d: float) -> tuple:
    """(position, AP distance, IRS link) of a tabulated ground user at a
    horizontal offset of d m from the AP."""
    # Quadrant-aware arctangent keeps d = 30 finite: phi -> pi/2 - pi/4.
    return ([0.0, 0.0, d], math.sqrt(30.0 ** 2 + d ** 2),
            {"distance_m": math.sqrt(30.0 ** 2 + (30.0 - d) ** 2),
             "azimuth_rad": math.atan2(30.0, 30.0 - d) - math.pi / 4.0,
             "elevation_rad": math.pi / 2.0})


def _tabulated_layout(users: list, noise: str, **settings) -> ScenarioConfig:
    """AP at (0,0,30) and IRS at (30,0,30) with the tabulated AP-IRS link,
    and `users` as (position, AP distance, IRS link), installed as overrides."""
    overrides = {
        "ap_irs": {"distance_m": 30.0, "azimuth_rad": -math.pi / 4.0, "elevation_rad": math.pi / 2.0},
        "ap_user_m": [u[1] for u in users],
        "irs_user": [u[2] for u in users],
    }
    return ScenarioConfig(
        ap_position=[0.0, 0.0, 30.0], irs_position=[30.0, 0.0, 30.0],
        user_positions=[u[0] for u in users], noise_powers_w=[noise] * len(users),
        distance_overrides=overrides, **settings)


def two_user_scenario(d1: float = 20.0, n_y: int = 5, n_z: int = 2,
                      rician_kappa: float = 10.0, total_power_w: float = 1.0,
                      noise: str = "-80 dBm", seed: int = 0) -> ScenarioConfig:
    """Two-user benchmark layout: AP at (0,0,30), IRS at (30,0,30), user 2 at
    (30,0,-10), user 1 at (0,0,d1), with the tabulated link distances and LoS
    angles installed as overrides (the table treats d1 as a horizontal offset
    from the AP, which differs from the raw coordinates for the direct link).
    """
    user2 = ([30.0, 0.0, -10.0], 50.0,
             {"distance_m": 40.0, "azimuth_rad": math.pi / 4.0, "elevation_rad": math.pi / 2.0})
    return _tabulated_layout([_ground_user(d1), user2], noise, n_y=n_y, n_z=n_z,
                             total_power_w=total_power_w, rician_kappa=rician_kappa, seed=seed)


def multi_user_scenario(n_users: int = 4, n_y: int = 5, n_z: int = 2,
                        rician_kappa: float = 10.0, total_power_w: float = 1.0,
                        noise: str = "-80 dBm", seed: int = 0) -> ScenarioConfig:
    """Multi-user layout: user k sits at a horizontal ground offset of 10k m
    from the AP (AP and IRS as in the two-user layout). Link distances follow
    the same pattern as the two-user table with d1 -> 10k.
    """
    return _tabulated_layout([_ground_user(10.0 * k) for k in range(1, n_users + 1)], noise,
                             n_y=n_y, n_z=n_z, total_power_w=total_power_w,
                             rician_kappa=rician_kappa, seed=seed)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    unknown = set(data) - {f.name for f in fields(ScenarioConfig)}
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
    try:
        return ScenarioConfig(**data)
    except TypeError as exc:
        raise ScenarioError(str(exc)) from exc


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Every field in declaration order, arrays as lists."""
    data = {f.name: getattr(config, f.name) for f in fields(config)}
    data.update(ap_position=config.ap_position.tolist(), irs_position=config.irs_position.tolist(),
                user_positions=[p.tolist() for p in config.user_positions],
                noise_powers_w=list(config.noise_powers_w))
    return data


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario from a JSON file (field names as in ScenarioConfig)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario JSON must be an object")
    return scenario_from_dict(data)
