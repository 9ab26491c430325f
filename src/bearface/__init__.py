"""Desk-scale expressive robot face toolkit.

A hardware-free implementation of a bear-like robot head's software stack:
ten-axis expression synthesis with continuous intensity, viseme-based
visual speech with expression blending, a multiple-kernel expression
recognizer with one-vs-one voting, and the recognition-to-imitation loop.
"""

from .dof import ALL_DOFS, Dof, Pose, Trajectory
from .expressions import (
    CLASS_ORDER,
    Expression,
    ExpressionTemplate,
    Mode,
    TemplateSet,
    ear_oscillation,
    load_templates,
    pose_for,
    trajectory,
)
from .imitation import ImitationSession, vote_to_intensity
from .kernels import AutoRbf, PolyKernel, RbfKernel
from .lipsync import MouthFrames, force_labial_closure, render_timeline
from .mkl import BinaryMklSolution, train_binary_mkl
from .multiclass import (
    MulticlassModel,
    VoteResult,
    classify,
    cross_validate,
    decision_values,
    train_multiclass,
)
from .pca import PcaModel, fit_pca, pca_project
from .servo import ServoCalibration, default_calibration, to_servo_commands
from .svm import solve_svm_dual
from .visemes import (
    PhonemeSegment,
    VisemeTable,
    load_viseme_table,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_DOFS",
    "AutoRbf",
    "BinaryMklSolution",
    "CLASS_ORDER",
    "Dof",
    "Expression",
    "ExpressionTemplate",
    "ImitationSession",
    "Mode",
    "MouthFrames",
    "MulticlassModel",
    "PcaModel",
    "PhonemeSegment",
    "PolyKernel",
    "Pose",
    "RbfKernel",
    "ServoCalibration",
    "TemplateSet",
    "Trajectory",
    "VisemeTable",
    "VoteResult",
    "classify",
    "cross_validate",
    "decision_values",
    "default_calibration",
    "ear_oscillation",
    "fit_pca",
    "force_labial_closure",
    "load_templates",
    "load_viseme_table",
    "pca_project",
    "pose_for",
    "render_timeline",
    "solve_svm_dual",
    "to_servo_commands",
    "train_binary_mkl",
    "train_multiclass",
    "trajectory",
    "vote_to_intensity",
]
