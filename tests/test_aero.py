"""Aerodynamic force models and amplitude-dependent structural laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtahs.aero import (
    AMPLITUDE_RATIO_FLOOR,
    AeroParams,
    CoupledSeMatrices,
    heave_acceleration,
    linear_se_force,
    vortex_force,
)

P_REF = AeroParams(
    rho=1.25,
    U=9.1,
    D=0.175,
    Y1=6.5,
    Y2=-2.194,
    eps=0.5,
    CL_tilde=-0.022,
    omega_vs=0.4477,
    psi=-0.0128,
)


class TestLinearSeForce:
    def test_zero_state(self):
        assert linear_se_force(0.0, 0.0, P_REF) == 0.0

    def test_reference_value(self):
        # 0.5 * 1.25 * 9.1^2 * 0.35 * 6.5 * 0.1 / 9.1
        assert abs(linear_se_force(0.0, 0.1, P_REF) - 1.2939) <= 1e-4

    def test_wind_speed_scaling(self):
        # Both bracket terms divide by U, so the 0.5*rho*U^2 prefactor
        # leaves a net linear dependence on U.
        f1 = linear_se_force(0.003, 0.05, P_REF)
        p2 = AeroParams(
            rho=P_REF.rho, U=2 * P_REF.U, D=P_REF.D, Y1=P_REF.Y1, Y2=P_REF.Y2
        )
        f2 = linear_se_force(0.003, 0.05, p2)
        assert f2 == pytest.approx(2.0 * f1, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        h1=st.floats(-1, 1),
        v1=st.floats(-10, 10),
        h2=st.floats(-1, 1),
        v2=st.floats(-10, 10),
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
    )
    def test_joint_linearity(self, h1, v1, h2, v2, a, b):
        lhs = linear_se_force(a * h1 + b * h2, a * v1 + b * v2, P_REF)
        rhs = a * linear_se_force(h1, v1, P_REF) + b * linear_se_force(h2, v2, P_REF)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestNonlinearVortexForce:
    def test_zero_state_shedding_term(self):
        f = vortex_force(P_REF)(0.0, 0.0, 0.0)
        assert abs(f - 2.550e-3) <= 1e-5

    def test_reduces_to_linear_in_h_over_d_form(self):
        p = AeroParams(
            rho=1.25, U=9.1, D=0.175, Y1=6.5, Y2=-2.194, eps=0.0, CL_tilde=0.0
        )
        h, v = 0.012, -0.3
        expect = p.dyn_pressure_2d * (p.Y1 * v / p.U + p.Y2 * h / p.D)
        assert vortex_force(p)(7.7, h, v) == pytest.approx(expect, rel=1e-12)

    def test_velocity_bracket_even_in_h(self):
        p = AeroParams(rho=1.25, U=9.1, D=0.175, Y1=6.5, Y2=0.0, eps=0.5, CL_tilde=0.0)
        v = 0.2
        f_plus = vortex_force(p)(0.0, p.D, v)
        f_minus = vortex_force(p)(0.0, -p.D, v)
        assert f_plus == pytest.approx(f_minus, rel=1e-12)
        # at |h| = D the saturation bracket equals 1 - eps
        expect = p.dyn_pressure_2d * p.Y1 * (1.0 - p.eps) * v / p.U
        assert f_plus == pytest.approx(expect, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        h1=st.floats(-0.5, 0.5),
        v1=st.floats(-5, 5),
        h2=st.floats(-0.5, 0.5),
        v2=st.floats(-5, 5),
        a=st.floats(-2, 2),
        b=st.floats(-2, 2),
    )
    def test_linear_when_nonlinear_terms_vanish(self, h1, v1, h2, v2, a, b):
        p = AeroParams(rho=1.25, U=9.1, D=0.175, Y1=6.5, Y2=-2.194, eps=0.0, CL_tilde=0.0)
        force = vortex_force(p)
        lhs = force(1.0, a * h1 + b * h2, a * v1 + b * v2)
        rhs = a * force(1.0, h1, v1) + b * force(1.0, h2, v2)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# The amplitude law's a, xi(a) and om(a), read from its one kernel.
def instantaneous_amplitude(h, v, om):
    return heave_acceleration(1.0, om, 0.175)(h, v, 0.0, law=True)[0]


def amplitude_dep_damping(a, D):
    return heave_acceleration(1.0, 1.0, D)(a, 0.0, 0.0, law=True)[2]


def amplitude_dep_frequency(a, D, om0):
    return heave_acceleration(1.0, om0, D)(a, 0.0, 0.0, law=True)[3]


class TestInstantaneousAmplitude:
    def test_zero(self):
        assert instantaneous_amplitude(0.0, 0.0, 17.64) == 0.0

    def test_velocity_free(self):
        assert instantaneous_amplitude(0.01, 0.0, 17.64) == 0.01

    def test_three_four_five(self):
        om = 17.64
        assert instantaneous_amplitude(0.03, 0.04 * om, om) == pytest.approx(0.05, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        h=st.floats(-10, 10),
        v=st.floats(-100, 100),
        c=st.floats(-5, 5),
    )
    def test_norm_properties(self, h, v, c):
        om = 17.64
        a = instantaneous_amplitude(h, v, om)
        assert a >= 0.0
        # v / om underflows to zero for subnormal v
        assert (a == 0.0) == (h == 0.0 and v / om == 0.0)
        scaled = instantaneous_amplitude(c * h, c * v, om)
        assert scaled == pytest.approx(abs(c) * a, rel=1e-12, abs=1e-300)


class TestAmplitudeDepDamping:
    def test_reference_value_at_unit_ratio(self):
        # 2a/D = 1: 1.247e-4 + 3.65e-3 + 1.264e-2
        D = 0.175
        assert abs(amplitude_dep_damping(D / 2.0, D) - 0.0164147) <= 1e-7

    def test_minimum_by_grid_scan(self):
        # Dense scan over the unclamped region locates the analytic
        # minimum 2*sqrt(c1*c3) + c2 at s = sqrt(c1/c3).
        D = 0.175
        s = np.logspace(-3, 0.5, 200_001)
        vals = np.array([amplitude_dep_damping(si * D / 2.0, D) for si in s])
        i = np.argmin(vals)
        assert abs(vals[i] - 6.161e-3) <= 1e-6
        assert abs(s[i] - 0.09933) <= 1e-3

    def test_clamp_region_constant(self):
        D = 0.175
        a_clamp = AMPLITUDE_RATIO_FLOOR * D / 2.0
        v0 = amplitude_dep_damping(a_clamp, D)
        assert amplitude_dep_damping(a_clamp / 3.0, D) == v0
        assert amplitude_dep_damping(0.0, D) == v0

    def test_always_positive(self):
        D = 0.175
        for a in np.linspace(0.0, 5 * D, 1000):
            assert amplitude_dep_damping(a, D) > 0.0

    def test_convex_on_unclamped_region(self):
        D = 0.175
        s = np.linspace(2e-3, 2.0, 5001)
        v = np.array([amplitude_dep_damping(si * D / 2.0, D) for si in s])
        second = v[:-2] - 2 * v[1:-1] + v[2:]
        assert np.all(second >= -1e-15)


class TestAmplitudeDepFrequency:
    def test_zero_amplitude(self):
        assert amplitude_dep_frequency(0.0, 0.175, 17.64) == 17.64

    def test_at_one_height(self):
        assert amplitude_dep_frequency(0.175, 0.175, 17.64) == pytest.approx(
            0.8 * 17.64, rel=1e-12
        )

    def test_clamp_floor(self):
        D, om0 = 0.175, 17.64
        assert amplitude_dep_frequency(5 * D, D, om0) == pytest.approx(0.01 * om0)
        assert amplitude_dep_frequency(50 * D, D, om0) == pytest.approx(0.01 * om0)

    def test_monotone_nonincreasing(self):
        D, om0 = 0.175, 17.64
        vals = [amplitude_dep_frequency(a, D, om0) for a in np.linspace(0, 6 * D, 500)]
        assert all(b <= a for a, b in zip(vals[:-1], vals[1:]))


class TestCoupledSeForce:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CoupledSeMatrices(E_d=np.eye(3), E_s=np.eye(2))
        with pytest.raises(ValueError):
            CoupledSeMatrices(E_d=np.full((2, 2), np.inf), E_s=np.eye(2))


def test_aero_params_validation():
    with pytest.raises(ValueError):
        AeroParams(rho=0.0, U=9.1, D=0.175)
    with pytest.raises(ValueError):
        AeroParams(rho=1.25, U=-1.0, D=0.175)
    with pytest.raises(ValueError):
        AeroParams(rho=1.25, U=9.1, D=0.0)
