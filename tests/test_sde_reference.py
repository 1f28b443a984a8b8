"""The one Euler/Milstein step against the two hand-written SDE loops.

``_ref_evolve_psi_sde`` and ``_ref_psi_sde_block`` are the steppers as
they were before the step was written once in ``_sde_stepper``: a scalar
loop with the step as one plain expression, and a block kernel that
runs the same expression as one ufunc per operation into reused
buffers.  The library's steppers must give the same bits, the same
projection counts and the same failure time.
"""

import cmath
import math

import numpy as np
import pytest

from loewnerkit import herglotz as hg
from loewnerkit import stochastic as st

SPECS = [
    hg.CayleyLinear(),
    hg.Cayley(),
    hg.ConstantImaginary(),
    hg.Automorphism(1.0, 0.5),
    hg.Exponential(),
    hg.Taylor([1.0, 0.3 - 0.2j, 0.1j]),
]
SCHEMES = ("euler", "milstein")
KS = (0.7, 3.0, 30.0)

# a start near the circle, so the steppers project some steps
Z0 = 0.97 * cmath.exp(2j)
DT = 0.01
N_STEPS = 80

# ---------------------------------------------------------------- reference


def _ref_evolve_psi_sde(spec, k, z0, path, scheme):
    """(values, projections) of the scalar loop; DiskEscapeError as the
    library raises it."""
    k = float(k)
    dt = path.dt
    k2h = 0.5 * k * k
    psi = complex(z0)
    values = [psi]
    projections = 0
    for db in path.increments().tolist():
        drift = -k2h * psi + spec._bp_field(psi)
        step = drift * dt - 1j * k * psi * db
        if scheme == "milstein":
            step = step - k2h * psi * (db * db - dt)
        psi = psi + step
        r = abs(psi)
        if not r < 1.0:
            if not math.isfinite(r):
                st._raise_non_finite(scheme, len(values) * dt)
            psi *= (1.0 - 1e-12) / r
            projections += 1
        values.append(psi)
    return np.asarray(values), projections


def _ref_psi_sde_block(spec, k, psi0, paths, dt, scheme, record_cols=None):
    """(final_state, snapshots, projections) of the buffered block kernel."""
    k = float(k)
    k2h = 0.5 * k * k
    ik = 1j * k
    n_paths, n_cols = paths.shape
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim == 0:
        psi = np.full(n_paths, complex(psi0))
    else:
        psi = psi0.copy()
    drift = np.empty_like(psi)
    step = np.empty_like(psi)
    noise = np.empty_like(psi)
    r = np.empty(psi.shape)
    mask = np.empty(psi.shape, dtype=bool)
    increment = np.empty(n_paths)
    db = increment[:, None] if psi.ndim == 2 else increment
    dbsq = np.empty(db.shape)
    milstein = scheme == "milstein"
    snapshots = {}
    projections = 0
    for j in range(n_cols - 1):
        np.subtract(paths[:, j + 1], paths[:, j], out=increment)
        np.multiply(-k2h, psi, out=drift)
        np.add(drift, spec._bp_field(psi), out=drift)
        np.multiply(drift, dt, out=step)
        np.multiply(ik, psi, out=noise)
        np.multiply(noise, db, out=noise)
        np.subtract(step, noise, out=step)
        if milstein:
            np.multiply(db, db, out=dbsq)
            np.subtract(dbsq, dt, out=dbsq)
            np.multiply(k2h, psi, out=noise)
            np.multiply(noise, dbsq, out=noise)
            np.subtract(step, noise, out=step)
        np.add(psi, step, out=psi)
        np.abs(psi, out=r)
        np.greater_equal(r, 1.0, out=mask)
        if mask.any():
            projections += int(np.count_nonzero(mask))
            psi[mask] *= (1.0 - 1e-12) / r[mask]
        if record_cols is not None and (j + 1) in record_cols:
            snapshots[j + 1] = psi.copy()
    if not np.isfinite(psi).all():
        st._raise_non_finite(scheme, (n_cols - 1) * dt)
    return psi, snapshots, projections


def _bits(x):
    return np.asarray(x, dtype=complex).tobytes()


def _assert_same_block(got, want):
    assert _bits(got[0]) == _bits(want[0])
    assert sorted(got[1]) == sorted(want[1])
    for col in want[1]:
        assert _bits(got[1][col]) == _bits(want[1][col]), col
    assert got[2] == want[2]


# ---------------------------------------------------------------- scalar


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_scalar_stepper_matches_reference(spec, scheme):
    projected = 0
    for k in KS:
        for seed in range(4):
            path = st.sample_brownian(seed, DT, N_STEPS)
            traj = st.evolve_psi_sde(spec, k, Z0, path, scheme=scheme)
            values, projections = _ref_evolve_psi_sde(spec, k, Z0, path,
                                                      scheme)
            assert _bits(traj.values) == _bits(values), (k, seed)
            assert traj.stats["projections"] == projections, (k, seed)
            projected += projections
    assert projected > 0


# ---------------------------------------------------------------- blocks


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_block_kernel_matches_reference(spec, scheme):
    rows = st._path_rows(11, 0, 9, DT, N_STEPS)
    cols = {1, 37, N_STEPS}
    # one start for every path, then a start per path
    starts = Z0 * np.exp(0.1j * np.arange(len(rows)))
    projected = 0
    for k in KS:
        for psi0 in (Z0, starts):
            got = st._psi_sde_block(spec, k, psi0, rows, DT, scheme,
                                    record_cols=cols)
            want = _ref_psi_sde_block(spec, k, psi0, rows, DT, scheme,
                                      record_cols=cols)
            assert got[0].shape == (len(rows),)
            _assert_same_block(got, want)
            projected += want[2]
    assert projected > 0


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_circle_block_matches_reference(spec, scheme):
    # the backward residual's block: a point and its 16-point circle as the
    # 17 columns of each path, snapshots at two inner columns
    z, radius = 0.2 + 0.1j, 0.1
    angles = 2.0 * math.pi * np.arange(16) / 16
    start = np.concatenate(([z], z + radius * np.exp(1j * angles)))
    rows = st._path_rows(3, 0, 5, 0.005, 60)
    psi0 = np.broadcast_to(start, (len(rows), 17))
    for k in KS:
        got = st._psi_sde_block(spec, k, psi0, rows, 0.005, scheme,
                                record_cols={29, 31})
        want = _ref_psi_sde_block(spec, k, psi0, rows, 0.005, scheme,
                                  record_cols={29, 31})
        assert got[0].shape == (5, 17)
        _assert_same_block(got, want)


# ---------------------------------------------------------------- failure


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_non_finite_state_fails_at_the_same_time(spec, scheme):
    rows = st._path_rows(0, 0, 4, DT, 10)
    # an infinite path value at column 6 makes the sixth step's state
    # NaN; k = 1e200 overflows k^2, so the first step's state is not finite
    broken = rows.copy()
    broken[:, 6] = math.inf
    for k, block in ((3.0, broken), (1e200, rows)):
        path = st.BrownianPath(dt=DT, values=block[0], seed=0)
        with pytest.raises(st.DiskEscapeError) as want:
            _ref_evolve_psi_sde(spec, k, 0.2, path, scheme)
        with pytest.raises(st.DiskEscapeError) as got:
            st.evolve_psi_sde(spec, k, 0.2, path, scheme=scheme)
        assert got.value.t_reached == want.value.t_reached
        assert str(got.value) == str(want.value)
        with pytest.raises(st.DiskEscapeError) as want:
            _ref_psi_sde_block(spec, k, 0.2, block, DT, scheme)
        with pytest.raises(st.DiskEscapeError) as got:
            st._psi_sde_block(spec, k, 0.2, block, DT, scheme)
        assert got.value.t_reached == want.value.t_reached
        assert str(got.value) == str(want.value)
