"""Exact Gaussian-form fundamental solutions for 1-D variable-coefficient
diffusion-type equations, Cauchy solving by kernel quadrature, and the
associated Burgers-type equation via Cole–Hopf linearization."""

from .coefficients import (CoefficientSet, expand_profile, from_config, profile,
                           tau_sigma)
from .characteristic import (CharacteristicSolution, solve_characteristic,
                             wronskian_residual)
from .riccati import (FundamentalRiccati, FundamentalValues, RiccatiState,
                      RiccatiTrajectory, asymptotics, fundamental,
                      gamma0_quadrature_form, integrate_direct, invert,
                      superpose)
from .kernel import (ClosedFormKernel, GridField, HeatKernel, InitialData,
                     QuadSpec, TruncationWarning, asymptotic_kernel,
                     closed_form, diffusion_residual, expectation, make_kernel,
                     normalization, solve_ivp, transform_solve)
from .burgers import (BatemanWave, BurgersProblem, TravelingWave,
                      TravelingWaveSpec, burgers_residual, cole_hopf,
                      integrate_profile_direct, solve_burgers_ivp,
                      traveling_wave)
from .oracle import FDSpec, fd_burgers, fd_diffusion
from .errors import (BlowUpError, DomainError, IntegrationError,
                     QuadratureError, SingularityError, StabilityError)

__version__ = "0.1.0"
