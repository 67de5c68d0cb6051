"""Dimensionality-inference rules used by the translator (paper §4.4).

The rules follow the paper's prose:

* For basic (primary) operations, equal input dimensions translate into an
  element-by-element operation; if the dimensions differ, the lower-
  dimensional input is logically replicated and the output takes the
  dimensions of the larger input.
* Non-linear operations have a single input that determines the output
  dimensions.
* For group operations, the output dimension is determined by the grouping
  axis constant: the contracted axis disappears and, when the two operands
  have *different* shapes, their remaining axes are outer-combined — this is
  what makes ``sigma(mo * in, 2)`` with ``mo`` of ``[5][10]`` and ``in`` of
  ``[2][10]`` produce a ``[5][2]`` output.
"""

from __future__ import annotations

from repro.exceptions import DimensionError

Dims = tuple[int, ...]


def element_count(dims: Dims) -> int:
    """Number of scalar elements in a value of dimensions ``dims`` (1 for a scalar)."""
    count = 1
    for d in dims:
        count *= d
    return count


def broadcast_primary(left: Dims, right: Dims) -> Dims:
    """Output dimensions of an element-wise primary operation."""
    if left == right:
        return left
    if not left:
        return right
    if not right:
        return left
    # The lower-dimensional operand is logically replicated along the leading
    # axes of the larger operand, so it must match a suffix of the larger one.
    if len(left) < len(right):
        small, large = left, right
    elif len(right) < len(left):
        small, large = right, left
    else:
        raise DimensionError(
            f"primary operation on incompatible shapes {list(left)} and {list(right)}; "
            "use a group operation to contract differing axes"
        )
    if large[len(large) - len(small):] != small:
        raise DimensionError(
            f"cannot replicate shape {list(small)} against {list(large)}: "
            "the smaller shape must match a suffix of the larger shape"
        )
    return large


def nonlinear(operand: Dims) -> Dims:
    """Output dimensions of a non-linear operation."""
    return operand


def group_single(operand: Dims, axis: int) -> Dims:
    """Output dimensions of a group operation over a single operand."""
    _check_axis(operand, axis)
    return operand[: axis - 1] + operand[axis:]


def group_fused(left: Dims, right: Dims, axis: int) -> Dims:
    """Output dimensions of a group operation fused with a binary inner op."""
    if not left or not right:
        # One operand is a scalar: the reduction happens over the other.
        operand = left or right
        return group_single(operand, axis)
    _check_axis(left, axis)
    _check_axis(right, axis)
    if left[axis - 1] != right[axis - 1]:
        raise DimensionError(
            f"group axis {axis} has extent {left[axis - 1]} on one operand and "
            f"{right[axis - 1]} on the other"
        )
    if left == right:
        return group_single(left, axis)
    left_rest = left[: axis - 1] + left[axis:]
    right_rest = right[: axis - 1] + right[axis:]
    return left_rest + right_rest


def gather(source: Dims, index: Dims) -> Dims:
    """Output dimensions of selecting one row of ``source``."""
    if index not in ((), (1,)):
        raise DimensionError(f"gather index must be a scalar, got shape {list(index)}")
    if len(source) < 1:
        raise DimensionError("cannot gather from a scalar")
    return source[1:]


def merge(operand: Dims) -> Dims:
    """Merging across threads preserves the operand dimensions."""
    return operand


def _check_axis(dims: Dims, axis: int) -> None:
    if axis < 1:
        raise DimensionError("group axis is 1-based and must be >= 1")
    if axis > len(dims):
        raise DimensionError(
            f"group axis {axis} exceeds operand rank {len(dims)} (shape {list(dims)})"
        )
