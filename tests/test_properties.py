"""Property tests of the input boundary and of the block-wise propagation.

Every float a user can hand over -- NaN, +-inf, zero, subnormal, huge --
must end in a resolved configuration with finite angular parameters, or in
``ValidationError`` (from ``parse_config``) or ``ValueError`` (from
``DriveParams``), never in another exception.

Splitting a run into the invariant blocks of its generator must give the
same samples as propagating every coordinate at once, and as the
step-by-step RK4 reference, for any sparse generator with the glide symmetry
of the drive, real (as on the real coordinates of density matrices) or
complex (as for states); the run keeps the generator's dtype.
"""

import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rabsim import cli, dynamics  # noqa: E402
from rabsim.dynamics import TimeGrid  # noqa: E402
from rabsim.cli import SCENARIOS, ScenarioConfig, ValidationError, parse_config  # noqa: E402
from rabsim.models import DriveParams, GateKind, PerturbativeRegimeWarning  # noqa: E402
from conftest import reference_blocks, rk4_run, unsplit_core  # noqa: E402

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


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(4, 12), batch=st.sampled_from([(), (1,), (3,)]),
       n_rows=st.integers(1, 4), fill=st.floats(0.05, 0.4), steps=st.integers(1, 60),
       real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_block_split_matches_the_unsplit_run(dim, batch, n_rows, fill, steps, real, seed):
    rng = np.random.default_rng(seed)

    def sparse(shape, fraction):
        values = rng.standard_normal(shape)
        if not real:
            values = values + 1j * rng.standard_normal(shape)
        return 0.5 * values * (rng.random(shape) < fraction)

    # Each batch entry of A0 has its own pattern; rows may be empty.  A0
    # couples only coordinates of equal parity and A1 only coordinates of
    # opposite parity, as the drive's glide symmetry requires.
    parity = rng.choice([-1.0, 1.0], dim)
    same = parity[:, np.newaxis] == parity
    a0, a1 = sparse(batch + (dim, dim), fill) * same, sparse((dim, dim), fill) * ~same
    rows0 = sparse(batch + (n_rows, dim), 0.3)
    # 20 steps per drive period: windows end in either half of a period, on
    # a half-period node, or short of the first period.
    omega = 2.0 * math.pi
    grid = TimeGrid(0.05 * steps, omega, 20, 5)
    blocks = dynamics._blocks(a0, a1, rows0)
    assert [block.tolist() for block in blocks] == reference_blocks(a0, a1, rows0)
    covered = np.concatenate([np.zeros(0, dtype=int), *blocks])
    assert len(set(covered.tolist())) == len(covered)

    times, out = dynamics._stroboscopic_run(a0, a1, parity, rows0, grid)
    whole = unsplit_core(a0, a1, parity, rows0, grid)
    assert (grid.n_steps, grid.delta) == (steps, 0.0)
    assert np.array_equal(times, grid.dt * grid.sample_steps)
    assert out.dtype == whole.dtype == (np.float64 if real else np.complex128)
    scale = max(1.0, np.max(np.abs(whole)))
    assert np.max(np.abs(out - whole)) <= 1e-12 * scale

    def rhs(t, rows):
        return rows @ np.swapaxes(a0 + math.cos(omega * t) * a1, -1, -2)

    _, reference = rk4_run(rhs, rows0, grid, hermitize=False)
    assert np.max(np.abs(out - reference)) <= 1e-10 * scale
