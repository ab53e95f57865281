"""Spec-layer tests: frozen dataclasses and their validation."""

import pytest

from repro.pde import (
    BoundarySpec,
    CycleSpec,
    ProblemSpec,
    SmootherSpec,
    StencilSpec,
)


class TestStencilSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown stencil kind"):
            StencilSpec(kind="magic")

    def test_anisotropic_requires_axis_coeffs(self):
        with pytest.raises(ValueError, match="axis_coeffs"):
            StencilSpec(kind="anisotropic")
        spec = StencilSpec.anisotropic((1.0, 10.0, 1.0))
        assert spec.axis_coeffs == (1.0, 10.0, 1.0)

    def test_hashable(self):
        assert len({StencilSpec.poisson(), StencilSpec.poisson(),
                    StencilSpec.variable("k")}) == 2


class TestBoundarySpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown boundary kind"):
            BoundarySpec(kind="reflecting")

    def test_homogeneous_strips_value(self):
        bc = BoundarySpec.dirichlet(3.0)
        assert bc.homogeneous().value == 0.0
        assert bc.homogeneous().kind == "dirichlet"
        # already-homogeneous specs come back as-is
        bc0 = BoundarySpec.dirichlet()
        assert bc0.homogeneous() is bc0


class TestSmootherSpec:
    def test_weight_validated(self):
        with pytest.raises(ValueError, match="weight"):
            SmootherSpec.jacobi(weight=0.0)
        with pytest.raises(ValueError, match="weight"):
            SmootherSpec.jacobi(weight=1.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown smoother kind"):
            SmootherSpec(kind="sor")


class TestCycleSpec:
    def test_gamma(self):
        assert CycleSpec.v().gamma == 1
        assert CycleSpec.w().gamma == 2
        assert CycleSpec.fmg().gamma == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown cycle kind"):
            CycleSpec(kind="F")
        with pytest.raises(ValueError, match="smoothing sweep"):
            CycleSpec(kind="V", npre=0, npost=0)
        with pytest.raises(ValueError, match="coarse_sweeps"):
            CycleSpec(kind="V", coarse_sweeps=0)


class TestProblemSpec:
    def _spec(self, **kw):
        base = dict(name="p", ndim=3,
                    stencil=StencilSpec.poisson(),
                    boundary=BoundarySpec.dirichlet(),
                    smoother=SmootherSpec.jacobi(),
                    cycle=CycleSpec.v())
        base.update(kw)
        return ProblemSpec(**base)

    def test_validation(self):
        with pytest.raises(ValueError, match="ndim"):
            self._spec(ndim=0)
        with pytest.raises(ValueError, match="sigma"):
            self._spec(sigma=-1.0)
