"""The one Euler/Milstein step against hand-written SDE loops.

``_ref_evolve_psi_sde`` and ``_ref_psi_sde_block`` take the step in its
multiplicative form psi c + b(psi) dt, with the multiplier c of the
increment db: a scalar loop with the step as one plain expression, and
a block loop that runs one ufunc per operation, one step at a time
(``_ref_block_steps``, which yields every state on its way).  Both walk
path values B, and the library's block kernel is fed the same
``np.diff`` of B.  The library's steppers must give the same bits, the
same projection counts and the same failure time.
``_ref_backward_residual`` builds the backward residual from one pass
of the block loop, which the library's three legs must match bit for
bit.

``_additive_evolve_psi_sde`` and ``_additive_psi_sde_block`` are the
steppers in the additive form psi + (-k^2/2 psi + b(psi)) dt - ik psi db
[- k^2/2 psi (db^2 - dt)], which the library used before.  The two forms
are equal in exact arithmetic; the library must stay within 1e-14 of
the additive loops with the same projection counts.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

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
# largest distance allowed from the additive form
ADDITIVE_TOL = 1e-14

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
        if scheme == "milstein":
            c = complex(1.0 - db * db * k2h, db * -k)
        else:
            c = complex(1.0 - k2h * dt, db * -k)
        psi = psi * c + spec._bp_field(psi) * dt
        r = abs(psi)
        if not r < 1.0:
            if not math.isfinite(r):
                st._raise_non_finite(scheme, len(values) * dt)
            psi *= (1.0 - 1e-12) / r
            projections += 1
        values.append(psi)
    return np.asarray(values), projections


def _ref_block_steps(spec, k, psi0, increments, dt, scheme):
    """The one-pass loop: (state, projections so far) after each step,
    one ufunc per operation.  The state is updated in place, so a caller
    that keeps one copies it."""
    k = float(k)
    k2h = 0.5 * k * k
    n_paths = len(increments)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim == 0:
        psi = np.full(n_paths, complex(psi0))
    else:
        psi = psi0.copy()
    drift = np.empty_like(psi)
    r = np.empty(psi.shape)
    mask = np.empty(psi.shape, dtype=bool)
    c = np.empty(n_paths, dtype=complex)
    c_rows = c[:, None] if psi.ndim == 2 else c
    projections = 0
    for increment in increments.T:
        np.multiply(increment, -k, out=c.imag)
        if scheme == "milstein":
            np.multiply(increment, increment, out=c.real)
            np.multiply(c.real, k2h, out=c.real)
            np.subtract(1.0, c.real, out=c.real)
        else:
            c.real = 1.0 - k2h * dt
        np.multiply(spec._bp_field(psi), dt, out=drift)
        np.multiply(psi, c_rows, out=psi)
        np.add(psi, drift, out=psi)
        np.abs(psi, out=r)
        np.greater_equal(r, 1.0, out=mask)
        if mask.any():
            projections += int(np.count_nonzero(mask))
            psi[mask] *= (1.0 - 1e-12) / r[mask]
        yield psi, projections


def _ref_psi_sde_block(spec, k, psi0, paths, dt, scheme):
    """(final_state, projections) of the one-pass loop over the
    increments of the path values B."""
    for psi, projections in _ref_block_steps(
            spec, k, psi0, np.diff(paths, axis=1), dt, scheme):
        pass
    if not np.isfinite(psi).all():
        st._raise_non_finite(scheme, (paths.shape[1] - 1) * dt)
    return psi, projections


def _additive_evolve_psi_sde(spec, k, z0, path, scheme):
    """(values, projections) of the scalar loop in the additive form."""
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
            psi *= (1.0 - 1e-12) / r
            projections += 1
        values.append(psi)
    return np.asarray(values), projections


def _additive_psi_sde_block(spec, k, psi0, paths, dt, scheme):
    """(final_state, projections) in the additive form."""
    k = float(k)
    k2h = 0.5 * k * k
    psi = np.array(np.broadcast_to(psi0, (len(paths),) + np.shape(psi0)[1:]),
                   dtype=complex)
    B = paths if psi.ndim == 1 else paths[:, :, None]
    projections = 0
    for j in range(paths.shape[1] - 1):
        db = B[:, j + 1] - B[:, j]
        step = (-k2h * psi + spec._bp_field(psi)) * dt - 1j * k * psi * db
        if scheme == "milstein":
            step = step - k2h * psi * (db * db - dt)
        psi = psi + step
        r = np.abs(psi)
        mask = r >= 1.0
        projections += int(np.count_nonzero(mask))
        psi[mask] *= (1.0 - 1e-12) / r[mask]
    return psi, projections


def _positions(seed, n_paths, dt, n_steps):
    """Path values B of paths 0..n_paths-1 of root ``seed``, one row each,
    as the scalar loop walks them."""
    return np.cumsum(st._path_rows(seed, 0, n_paths, dt, n_steps), axis=1)


def _kernel(spec, k, psi0, paths, dt, scheme):
    """The library's block kernel on the increments of the path values."""
    return st._psi_sde_block(spec, k, psi0, np.diff(paths, axis=1), dt,
                             scheme)


def _bits(x):
    return np.asarray(x, dtype=complex).tobytes()


def _assert_same_block(got, want):
    assert _bits(got[0]) == _bits(want[0])
    assert got[1] == want[1]


def _assert_near_block(got, want):
    assert np.max(np.abs(got[0] - want[0])) <= ADDITIVE_TOL
    assert got[1] == want[1]


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
            values, projections = _additive_evolve_psi_sde(spec, k, Z0, path,
                                                           scheme)
            assert np.max(np.abs(traj.values - values)) <= ADDITIVE_TOL
            assert traj.stats["projections"] == projections, (k, seed)
            projected += projections
    assert projected > 0


# ---------------------------------------------------------------- blocks


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_block_kernel_matches_reference(spec, scheme):
    rows = _positions(11, 9, DT, N_STEPS)
    # one start for every path, then a start per path
    starts = Z0 * np.exp(0.1j * np.arange(len(rows)))
    projected = 0
    for k in KS:
        for psi0 in (Z0, starts):
            # the run over each prefix of the path: 1, 37 and all steps
            for col in (1, 37, N_STEPS):
                prefix = rows[:, :col + 1]
                got = _kernel(spec, k, psi0, prefix, DT, scheme)
                want = _ref_psi_sde_block(spec, k, psi0, prefix, DT, scheme)
                assert got[0].shape == (len(rows),)
                _assert_same_block(got, want)
                _assert_near_block(got, _additive_psi_sde_block(
                    spec, k, psi0, prefix, DT, scheme))
            projected += want[1]
    assert projected > 0


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_circle_block_matches_reference(spec, scheme):
    # the backward residual's block: a point and its 16-point circle as the
    # 17 columns of each path, run to two inner columns and to the end
    z, radius = 0.2 + 0.1j, 0.1
    angles = 2.0 * math.pi * np.arange(16) / 16
    start = np.concatenate(([z], z + radius * np.exp(1j * angles)))
    rows = _positions(3, 5, 0.005, 60)
    psi0 = np.broadcast_to(start, (len(rows), 17))
    projected = 0
    for k in KS:
        for col in (29, 31, 60):
            prefix = rows[:, :col + 1]
            got = _kernel(spec, k, psi0, prefix, 0.005, scheme)
            want = _ref_psi_sde_block(spec, k, psi0, prefix, 0.005, scheme)
            assert got[0].shape == (5, 17)
            _assert_same_block(got, want)
            _assert_near_block(got, _additive_psi_sde_block(
                spec, k, psi0, prefix, 0.005, scheme))
        projected += want[1]
    # the largest k carries circle points out of the disk
    assert projected > 0


# ---------------------------------------------------------------- chunks


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("circle", [False, True], ids=["point", "circle"])
# below and above one tile of rows copied at a time
@pytest.mark.parametrize("n_paths", [9, 1100])
def test_chunk_width_changes_no_bit(n_paths, circle, scheme, monkeypatch):
    n_steps = 100
    rows = _positions(8, n_paths, DT, n_steps)
    increments = np.diff(rows, axis=1)
    if circle:
        # a point near the circle and 16 points around it, as 17 columns
        z = 0.9 * cmath.exp(2j)
        ring = z + 0.05 * np.exp(2j * math.pi * np.arange(16) / 16)
        psi0 = np.broadcast_to(np.concatenate(([z], ring)), (n_paths, 17))
    else:
        psi0 = Z0 * np.exp(0.1j * np.arange(n_paths))
    cols = (10, 20, 50, 99, n_steps)
    # one step per chunk, the default chunk, a chunk edge at the end of
    # every prefix but 99, and a width that divides none of them
    runs = []
    for chunk_values in (1, st._CHUNK_VALUES, 10 * n_paths, 7 * n_paths):
        monkeypatch.setattr(st, "_CHUNK_VALUES", chunk_values)
        prefixes = [_kernel(hg.Cayley(), 3.0, psi0, rows[:, :col + 1], DT,
                            scheme) for col in cols]
        # legs between the same columns, each from the state the last
        # returned, as the backward residual runs them
        psi, projections, first = psi0, 0, 0
        for col, prefix in zip(cols, prefixes):
            psi, n = st._psi_sde_block(hg.Cayley(), 3.0, psi,
                                       increments[:, first:col], DT, scheme,
                                       first * DT)
            projections += n
            _assert_same_block((psi, projections), prefix)
            first = col
        runs.append(prefixes)
    assert runs[0][-1][1] > 0
    for got in runs[1:]:
        for prefix, want in zip(got, runs[0]):
            _assert_same_block(prefix, want)


@settings(max_examples=60, deadline=None)
@given(spec=hs.sampled_from(SPECS), scheme=hs.sampled_from(SCHEMES),
       k=hs.floats(-30.0, 30.0), radius=hs.floats(0.9, 0.999),
       angle=hs.floats(0.0, 2.0 * math.pi), seed=hs.integers(0, 2**32 - 1),
       n_steps=hs.integers(1, 60), dt=hs.sampled_from([1e-3, 0.01, 0.05]))
def test_block_kernel_agrees_with_scalar_stepper(spec, scheme, k, radius,
                                                 angle, seed, n_steps, dt):
    z0 = radius * cmath.exp(1j * angle)
    rows = _positions(seed, 3, dt, n_steps)
    psi, projections = _kernel(spec, k, z0, rows, dt, scheme)
    want = 0
    for i, row in enumerate(rows):
        path = st.BrownianPath(dt=dt, values=row, seed=seed)
        traj = st.evolve_psi_sde(spec, k, z0, path, scheme=scheme)
        assert abs(psi[i] - traj.values[-1]) <= 1e-13
        want += traj.stats["projections"]
    assert projections == want


# ---------------------------------------------------------------- backward


def _ref_backward_residual(spec, k, f, t, z, n_samples, seed, dt, h):
    """backward_equation_residual with all 17 columns stepped in one pass
    of the reference loop to t + h, the point read at t - h and t + h
    and the circle at t.  One block of paths."""
    n_plus, dt_used = st._step_grid(t + h, dt)
    col_minus = round((t - h) / dt_used)
    col_mid = round(t / dt_used)
    radius = st._FIT_RADIUS * (1.0 - abs(z))
    P = st._FIT_POINTS
    angles = 2.0 * math.pi * np.arange(P) / P
    start = np.broadcast_to(
        np.concatenate(([z], z + radius * np.exp(1j * angles))),
        (n_samples, P + 1))
    weights = (hg._generator_value(spec, 0.5 * k * k, z) / (P * radius)
               * np.exp(-1j * angles)
               - k * k * z * z / (P * radius ** 2) * np.exp(-2j * angles))
    increments = st._path_rows(seed, 0, n_samples, dt_used, n_plus)[:, 1:]
    states = {0: start.copy()}
    for j, (psi, _) in enumerate(_ref_block_steps(
            spec, k, start, increments, dt_used, "milstein"), 1):
        if j in (col_minus, col_mid, n_plus):
            states[j] = psi.copy()
    du = (st._apply_f(f, states[n_plus][:, 0])
          - st._apply_f(f, states[col_minus][:, 0])) / (2.0 * h)
    est = st._mc_estimate([du - st._apply_f(f, states[col_mid][:, 1:])
                           @ weights])
    return abs(est.mean), est.std_error


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_backward_residual_legs_match_one_pass(spec):
    # the residual's three legs (all columns to t - h, on to t, the point
    # alone on to t + h) give the bits of one pass through t + h; t == h
    # makes the first leg empty, and dt = 0.003 does not divide t
    for k in (0.7, 3.0):
        for t, h, dt in ((0.3, 0.05, 0.01), (0.02, 0.02, 0.005),
                         (0.1, 0.01, 0.003)):
            for f in (lambda w: w, lambda w: w * w):
                got = st.backward_equation_residual(spec, k, f, t, 0.2 + 0.1j,
                                                    12, seed=4, dt=dt, h=h)
                want = _ref_backward_residual(spec, k, f, t, 0.2 + 0.1j, 12,
                                              4, dt, h)
                assert got == want, (k, t, h, dt)


# ---------------------------------------------------------------- failure


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_non_finite_state_fails_at_the_same_time(spec, scheme):
    rows = _positions(0, 4, DT, 10)
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
            _kernel(spec, k, 0.2, block, DT, scheme)
        assert got.value.t_reached == want.value.t_reached
        assert str(got.value) == str(want.value)


def _check_one_non_finite_path(spec, scheme, psi0, monkeypatch):
    rows = _positions(11, 9, DT, N_STEPS)
    # one infinite value in one path: that path's states are NaN from the
    # sixth step on, while the other paths keep being projected
    rows[4, 6] = math.inf
    with pytest.raises(st.DiskEscapeError) as want:
        _ref_psi_sde_block(spec, 3.0, psi0, rows, DT, scheme)
    with pytest.raises(st.DiskEscapeError) as got:
        _kernel(spec, 3.0, psi0, rows, DT, scheme)
    assert got.value.t_reached == want.value.t_reached
    assert str(got.value) == str(want.value)
    # the states and projection counts behind the error, after 5, 6, 40
    # and all steps
    monkeypatch.setattr(st, "_raise_non_finite", lambda scheme, t: None)
    for col in (5, 6, 40, N_STEPS):
        want = _ref_psi_sde_block(spec, 3.0, psi0, rows[:, :col + 1], DT,
                                  scheme)
        got = _kernel(spec, 3.0, psi0, rows[:, :col + 1], DT, scheme)
        _assert_same_block(got, want)
    finite = np.isfinite(want[0]).reshape(len(rows), -1).all(axis=1)
    assert finite.tolist() == [i != 4 for i in range(len(rows))]
    assert np.isnan(want[0][4]).all()
    assert want[1] > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_one_non_finite_path_leaves_the_others_stepping(spec, scheme,
                                                        monkeypatch):
    _check_one_non_finite_path(spec, scheme, Z0, monkeypatch)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text_form())
def test_one_non_finite_circle_leaves_the_others_stepping(spec, scheme,
                                                          monkeypatch):
    # the backward residual's 2-d state: a point and 16 around it per path
    ring = Z0 + 0.02 * np.exp(2j * math.pi * np.arange(16) / 16)
    psi0 = np.broadcast_to(np.concatenate(([Z0], ring)), (9, 17))
    _check_one_non_finite_path(spec, scheme, psi0, monkeypatch)
