"""Property tests of the input boundary: any float either resolves or is rejected.

Every float a user can hand over -- NaN, +-inf, zero, subnormal, huge --
must end in a resolved configuration with finite angular parameters, or in
``ValidationError`` (from ``parse_config``) or ``ValueError`` (from
``DriveParams``), never in another exception.
"""

import math
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rabsim import cli  # noqa: E402
from rabsim.cli import SCENARIOS, ScenarioConfig, ValidationError, parse_config  # noqa: E402
from rabsim.models import DriveParams, GateKind, PerturbativeRegimeWarning  # noqa: E402

any_float = st.floats(allow_nan=True, allow_infinity=True)
# Mostly usable values, so that one bad field among good ones is drawn often.
field = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324, 1.7e308]),
    st.floats(min_value=1e-3, max_value=1e12),
    any_float,
)


def _finite_params(params: DriveParams) -> bool:
    return (0.0 < params.omega_m < math.inf and 0.0 < params.omega < math.inf
            and 0.0 <= params.v < math.inf and 0.0 <= params.gamma < math.inf)


@settings(max_examples=300, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS), omega_m=field, ratio=field,
       gamma=field, v=st.none() | field, gate=st.sampled_from(["cz", "cnot"]))
def test_parse_config_resolves_or_rejects(scenario, omega_m, ratio, gamma, v, gate):
    argv = [scenario, f"--gate={gate}", f"--omega-m-mhz={omega_m!r}",
            f"--omega-ratio={ratio!r}", f"--gamma-khz={gamma!r}"]
    if v is not None:
        argv.append(f"--v-over-om={v!r}")
    try:
        config = parse_config(argv)
    except ValidationError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbativeRegimeWarning)
        assert _finite_params(config.drive_params())


@settings(max_examples=300, deadline=None)
@given(v_min=field, v_max=field, w_min=field, w_max=field)
def test_heatmap_extent_resolves_or_rejects(v_min, v_max, w_min, w_max):
    config = ScenarioConfig(scenario="heatmap", v_min=v_min, v_max=v_max,
                            w_min=w_min, w_max=w_max, out="heat.csv")
    try:
        cli._validate(config)
    except ValidationError:
        return
    assert all(math.isfinite(x) for x in (v_min, v_max, w_min, w_max))
    assert 0.0 < v_min < v_max and 0.0 < w_min < w_max


@settings(max_examples=300, deadline=None)
@given(omega_m=field, omega=field, v=field, gamma=field)
def test_drive_params_constructs_or_raises_value_error(omega_m, omega, v, gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbativeRegimeWarning)
        try:
            params = DriveParams(omega_m=omega_m, omega=omega, v=v, gamma=gamma)
        except ValueError:
            return
    assert _finite_params(params)


@settings(max_examples=300, deadline=None)
@given(omega_m=field, ratio=field, gamma=field, gate=st.sampled_from(GateKind))
def test_from_ratio_constructs_or_raises_value_error(omega_m, ratio, gamma, gate):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PerturbativeRegimeWarning)
        try:
            params = DriveParams.from_ratio(omega_m, ratio, gamma=gamma, gate=gate)
        except ValueError:
            return
    assert _finite_params(params)


@pytest.mark.parametrize("name", ["omega_m", "omega", "v", "gamma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_each_non_finite_field_is_rejected(name, bad):
    fields = {"omega_m": 1.0, "omega": 7.5, "v": 15.0, "gamma": 0.0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        DriveParams(**fields)
