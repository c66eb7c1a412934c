"""Exception types shared across the toolkit, and its one bound check."""

import math


class CopyDetError(Exception):
    """Base class for all toolkit errors."""


class ZeroVector(CopyDetError):
    """A vector with (near-)zero L2 norm where a direction is required."""


class DimMismatch(CopyDetError):
    """Operands declare incompatible vector dimensions."""


class ShapeMismatch(CopyDetError):
    """Arrays that must agree in shape do not: parameters and gradients, or a
    training batch's rows, its labels and the bank's width."""


class FormatError(CopyDetError):
    """A file does not conform to the expected binary or text format."""


class EmptyBatch(CopyDetError):
    """A training batch with no elements."""


class EmptyGroundTruth(CopyDetError):
    """Evaluation requested against a ground truth with no positive pairs."""


class NonFiniteValue(CopyDetError):
    """A computation produced NaN or infinity, as a diverging training step does."""


def check_at_least(name: str, value, low) -> None:
    """Raise ValueError ``{name} must be >= {low}, got {value}`` unless
    ``value`` is a finite number of at least ``low``; NaN and inf fail."""
    if not low <= value < math.inf:
        raise ValueError(f"{name} must be >= {low}, got {value}")
