"""The base jet that the Mok pairing and the lifts read from their caller.

``jet(M, p)`` is the metric and the Christoffel symbols of the chart M at the
points p (..., dim), built as a caller that holds neither would build them.
"""

from framelift.geometry import christoffel, metric_eval


def jet(M, p):
    """(g, Gamma) of the chart M at the points p."""
    return metric_eval(M, p), christoffel(M, p)
