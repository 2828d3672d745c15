"""Finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import VerificationError
from .tensor import Tensor


@dataclass
class GradCheckReport:
    max_rel_error: float
    per_param: dict[str, float] = field(default_factory=dict)
    n_elements: int = 0
    # each parameter's flat analytic gradient, and the central difference
    # the pass rule judged for each of its elements
    analytic: dict[str, np.ndarray] = field(default_factory=dict)
    numeric: dict[str, np.ndarray] = field(default_factory=dict)

    def norm_error(self, names) -> float:
        """||a - n|| / max(||a||, ||n||) over the named parameters' elements:
        the margin the per-element pass rule does not show.  One partial
        that is exactly zero reads as an error of 1 element-wise, but adds
        only its rounding noise here."""
        a = np.concatenate([self.analytic[k] for k in names])
        n = np.concatenate([self.numeric[k] for k in names])
        scale = max(np.linalg.norm(a), np.linalg.norm(n))
        if not np.isfinite(scale):
            return np.inf
        return float(np.linalg.norm(a - n) / scale) if scale > 0.0 else 0.0

    def worst(self) -> str:
        if not self.per_param:
            return "(no parameters)"
        name = max(self.per_param, key=self.per_param.get)
        return f"{name}: {self.per_param[name]:.3e}"


def _eval_scalar(fn) -> tuple[float, Tensor]:
    out = fn()
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise VerificationError("grad_check: function must return a scalar Tensor")
    return out.item(), out


def _element_error(fn, flat: np.ndarray, i: int, analytic: float,
                   eps: float) -> tuple[float, float]:
    """Relative error of one analytic partial above the rounding slack, and
    the central difference it was judged against.

    The quotient (f(x+h) - f(x-h)) / 2h carries its two evaluations'
    rounding errors e+ and e- as (e+ - e-) / 2h.  A scalar reduced from
    many terms is accurate to a few units in its last place, not one:
    besides its final rounding, the last reductions it passes through (for
    the training loss the log-sum-exp, the subtraction of the picked logit
    and the batch mean) each round at about |f|.  Four unit roundoffs of
    eps_mach / 2 give |e| <= 2 * eps_mach * |f|, so the quotient is off by
    at most c * eps_mach * max|f| / h with c = 2.  That slack is subtracted
    before dividing, so a partial near zero is judged by its error above
    rounding noise instead of against a fixed denominator floor.  h is the
    step actually representable at x.  An element with no finite quotient
    to judge by (h lost in rounding, or a non-finite value) fails as inf.
    """
    orig = flat[i]
    up_x, down_x = orig + eps, orig - eps
    h = 0.5 * (up_x - down_x)
    if not (h > 0.0 and np.isfinite(h)):
        return np.inf, np.inf
    flat[i] = up_x
    up, _ = _eval_scalar(fn)
    flat[i] = down_x
    down, _ = _eval_scalar(fn)
    flat[i] = orig
    if not np.isfinite([up, down, analytic]).all():
        return np.inf, np.inf
    numeric = (up - down) / (2.0 * h)
    scale = max(abs(analytic), abs(numeric))
    if scale == 0.0:
        return 0.0, numeric
    slack = 2.0 * np.finfo(np.float64).eps * max(abs(up), abs(down)) / h
    return max(abs(analytic - numeric) - slack, 0.0) / scale, numeric


def grad_check(fn, params: dict[str, Tensor], eps: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients of ``fn()`` against central differences.

    ``fn`` must rebuild its graph on every call and depend on ``params``
    only through their ``data`` buffers.  Two baseline evaluations must
    agree bitwise, otherwise the function is non-deterministic and the
    check refuses to run.

    An element with any error above rounding slack at step ``eps`` is
    checked once more at ``eps / 10`` and reports the smaller error: a ReLU
    kink or a hard-window edge within one step of the point spoils only one
    of the two steps, while a wrong backward fails both.
    """
    base1, out = _eval_scalar(fn)
    base2, _ = _eval_scalar(fn)
    if base1 != base2 or not np.isfinite(base1):
        raise VerificationError(
            f"grad_check: non-deterministic or non-finite function "
            f"(baselines {base1!r} vs {base2!r})")

    for p in params.values():
        p.grad = None
    out.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        for name, p in params.items()
    }

    per_param: dict[str, float] = {}
    numeric: dict[str, np.ndarray] = {}
    for name, p in params.items():
        flat, a = p.data.reshape(-1), analytic[name]
        numeric[name] = np.empty(flat.size)
        worst = 0.0
        for i in range(flat.size):
            judged = _element_error(fn, flat, i, a[i], eps)
            if judged[0] > 0.0:
                judged = min(judged, _element_error(fn, flat, i, a[i], eps / 10.0),
                             key=lambda r: r[0])
            worst = max(worst, judged[0])
            numeric[name][i] = judged[1]
        per_param[name] = worst
    max_err = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(max_rel_error=max_err, per_param=per_param,
                           n_elements=sum(a.size for a in analytic.values()),
                           analytic=analytic, numeric=numeric)
