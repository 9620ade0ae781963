"""The scalar libm forms that chan3d's kernels replaced with numpy's array forms.

``per_element`` applies a ``math`` function (``log10``, ``exp``, ``pow``,
``atan2``, ``acos``, ...) to each element of broadcast arrays, one Python
float at a time, as the kernels did before they called ``np.log10``,
``np.exp``, ``np.power``, ``np.arctan2`` and ``np.arccos`` on whole arrays.
numpy's forms round differently from libm in a few percent of elements;
``ulp_distance`` measures by how much, and ``tests/test_geom.py`` bounds it
at one unit in the last place over the inputs the kernels see.
"""
import numpy as np


def per_element(f, *arrays) -> np.ndarray:
    """The scalar function f over each element of the broadcast float arrays."""
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))
    values = map(f, *(a.ravel().tolist() for a in args))
    return np.fromiter(values, float, args[0].size).reshape(args[0].shape)


def ulp_distance(a, b) -> np.ndarray:
    """The number of doubles from a to b, elementwise (0 when equal, -0.0 == 0.0)."""
    bits = [np.asarray(x, dtype=float).view(np.int64) for x in (a, b)]
    # Negative doubles order backwards as integers: reflect them below zero.
    ordered = [np.where(i < 0, np.iinfo(np.int64).min - i, i) for i in bits]
    return np.abs(ordered[0] - ordered[1])
