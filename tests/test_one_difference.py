"""One central difference: every two-point quotient of the package is one of its
difference kernels.

A quotient ``(f(p + h v) - f(p - h v)) / (2.0 * h)`` written out in a function
is a second home of the central difference, with its own stencil and its own
rounding.  The scan below finds every function in ``src/framelift`` that
divides a difference by twice a step (``2.0 * h`` or ``2 * h``, h a name).
Only the kernels in ``KERNELS`` remain: the chart-direction and directional
differences of ``geometry`` and the frame-tangent difference ``frame_diff``.
"""

import ast
from pathlib import Path

from scan import SRC, functions

KERNELS = {"geometry.central_diff", "geometry._difference", "frames.frame_diff"}


def _twice_a_step(node: ast.AST) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Constant) and node.left.value == 2
            and isinstance(node.right, ast.Name))


def two_point_quotients(src: Path = SRC) -> set[str]:
    """``module.function`` (``module.Class.method``) of every top-level function or method
    of the package with a difference divided by twice a step, nested functions included."""
    return {f"{stem}.{name}" for stem, name, fn, _ in functions(src) if any(
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and _twice_a_step(node.right)
        and any(isinstance(sub, ast.Sub) for sub in ast.walk(node.left)) for node in ast.walk(fn))}


def test_every_two_point_quotient_is_a_kernel():
    extra = sorted(two_point_quotients() - KERNELS)
    assert not extra, "these functions difference by hand; call a difference kernel: " + ", ".join(extra)


def test_every_kernel_is_still_a_quotient():
    assert KERNELS <= two_point_quotients()


def test_the_scan_sees_a_hand_rolled_quotient(tmp_path):
    (tmp_path / "m.py").write_text('''
def plain(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)

def sliced(E, R, h, i):
    return ((E + h * R) - (E - h * R))[..., i] / (2 * h)

def nested(f, x, step):
    def rate(v):
        return v * (f(x + step) - f(x - step)) / (2.0 * step)
    return rate

class Chart:
    def rate(self, a, b, h):
        return (a - b) / (2.0 * h)

def angle(mu):
    return (mu[0] - mu[1]) / (2.0 * np.pi)

def mean(a, b, h):
    return (a + b) / (2.0 * h)
''')
    assert two_point_quotients(tmp_path) == {"m.plain", "m.sliced", "m.nested", "m.Chart.rate"}
