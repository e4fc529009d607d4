"""Numerical verification of extrinsic geometry for submanifolds of the
Riemannian products S^n x R and H^n x R.

The package evaluates user-defined or gallery immersions with forward-mode
jets of order 2, or 3 where a check reads a derivative of the mean curvature,
the Christoffels or alpha, and 4 for the normal Laplacian of H, builds
per-point frames and second-fundamental-form data, and reports residuals of
the structural identities that characterize biconservative and biharmonic
submanifolds with parallel mean curvature.
"""

__version__ = "0.1.0"

from .ambient import ProductSpace, curvature, inner, membership_residual
from .errors import (
    ChartError,
    EngineError,
    InvalidFrame,
    IrregularPoint,
    NullFrame,
    SceneError,
    StencilError,
)
from .immersion import Chart, analyze_point, evaluate_jet
from .jets import Jet2, VecJet2, fd_gradient, jet_const, jet_var

__all__ = [
    "__version__",
    "ProductSpace",
    "inner",
    "membership_residual",
    "curvature",
    "Chart",
    "analyze_point",
    "evaluate_jet",
    "Jet2",
    "VecJet2",
    "jet_var",
    "jet_const",
    "fd_gradient",
    "EngineError",
    "IrregularPoint",
    "NullFrame",
    "StencilError",
    "InvalidFrame",
    "ChartError",
    "SceneError",
]
