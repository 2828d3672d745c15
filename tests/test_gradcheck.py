"""The finite-difference verifier itself."""

import sys

import numpy as np
import pytest

import tada.dla
import tada.tensor
from helpers import tsum
from reference import pool_exponents
from tada.cli import gradcheck_setup, small_gradcheck_config
from tada.errors import VerificationError
from tada.gradcheck import grad_check
from tada.tensor import Tensor, _node, add, mul, relu


def test_quadratic_gradient_is_near_exact():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    rep = grad_check(lambda: tsum(mul(p, p)), {"p": p})
    # analytic gradient 2p = [2, 4]; central differences are exact for
    # quadratics up to roundoff
    assert rep.max_rel_error < 1e-9
    np.testing.assert_allclose(p.grad, [2.0, 4.0])


def test_report_bookkeeping():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    q = Tensor(np.array([[3.0]]), requires_grad=True)
    rep = grad_check(lambda: add(tsum(mul(p, p)), tsum(mul(q, q))), {"p": p, "q": q})
    assert set(rep.per_param) == {"p", "q"}
    assert rep.n_elements == 3
    assert rep.max_rel_error == max(rep.per_param.values())
    assert rep.analytic.keys() == rep.numeric.keys() == rep.per_param.keys()
    np.testing.assert_array_equal(rep.analytic["q"], [6.0])
    assert sum(a.size for a in rep.numeric.values()) == rep.n_elements
    assert 0.0 <= rep.norm_error(["p", "q"]) < 1e-9
    name = rep.worst().split(":")[0]
    assert name in {"p", "q"}


def test_dead_relu_region_passes():
    p = Tensor(np.array([-1.0, -2.0]), requires_grad=True)
    rep = grad_check(lambda: tsum(relu(p)), {"p": p})
    assert rep.max_rel_error == 0.0


def test_rounding_noise_on_a_tiny_gradient_passes():
    # f is about 1e3, so each evaluation carries rounding near 1e-13 and the
    # central difference carries noise near 1e-8, far above the 1e-10 slope
    p = Tensor(np.array([0.3, -0.7]), requires_grad=True)
    rep = grad_check(lambda: add(tsum(mul(p, 1e-10)), 1e3), {"p": p})
    assert rep.max_rel_error < 1e-6
    # the norm-wise figure still shows that noise, which the slack hides
    assert rep.norm_error(["p"]) > 1e-3


def scaled_cube(p, delta):
    """sum(p^3), whose backward returns (1 + delta) times the true gradient."""
    return _node(np.sum(p.data ** 3), (p,), lambda g: (g * (1.0 + delta) * 3.0 * p.data ** 2,))


@pytest.mark.parametrize("delta, low, high", [(1e-3, 0.99e-3, 1.01e-3), (0.0, 0.0, 1e-8)])
def test_norm_error_reads_a_scaled_gradient(delta, low, high):
    # the partial at 0 is exactly zero while its central difference is
    # eps^2: element-wise, a relative error of 1 whatever delta is
    p = Tensor(np.array([0.0, 0.7, -1.3, 2.0]), requires_grad=True)
    rep = grad_check(lambda: scaled_cube(p, delta), {"p": p})
    assert rep.analytic["p"][0] == 0.0 and rep.numeric["p"][0] != 0.0
    assert low <= rep.norm_error(["p"]) <= high


def test_kink_within_one_step_is_rechecked_at_a_tenth_of_it():
    # relu's kink lies 0.4 steps below the point: the eps difference
    # straddles it, the eps / 10 difference does not
    p = Tensor(np.array([4e-6, 1.0]), requires_grad=True)
    rep = grad_check(lambda: tsum(relu(p)), {"p": p}, eps=1e-5)
    assert rep.max_rel_error < 1e-9


def test_params_restored_after_check():
    p = Tensor(np.array([0.5, -0.25]), requires_grad=True)
    before = p.data.copy()
    grad_check(lambda: tsum(mul(p, p)), {"p": p})
    np.testing.assert_array_equal(p.data, before)


def test_nondeterministic_function_refused():
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = {"n": 0}

    def noisy():
        state["n"] += 1
        return tsum(mul(p, float(state["n"])))

    with pytest.raises(VerificationError, match="non-deterministic"):
        grad_check(noisy, {"p": p})


def test_non_finite_function_refused():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(VerificationError):
        grad_check(lambda: tsum(mul(p, np.inf)), {"p": p})


def test_non_scalar_output_refused():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(VerificationError, match="scalar"):
        grad_check(lambda: mul(p, p), {"p": p})


def zero_gradient(p, value=lambda x: (x * x).sum()):
    """A scalar function of ``p`` whose backward wrongly returns zeros."""
    def forward():
        return Tensor(value(p.data), requires_grad=True, parents=(p,),
                      backward=lambda g: (np.zeros_like(p.data),))
    return forward


def test_detects_a_wrong_gradient():
    # a deliberately broken backward: report must flag a large error
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    rep = grad_check(zero_gradient(p), {"p": p})
    assert rep.max_rel_error > 0.99


@pytest.mark.parametrize("eps", [0.0, np.nan, 1e-300, np.inf, -np.inf])
def test_a_step_that_moves_nothing_fails_every_element(eps):
    # a step that is 0, NaN, infinite or lost in rounding at x gives no
    # difference quotient, so neither a wrong nor a right gradient is shown
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    assert grad_check(zero_gradient(p), {"p": p}, eps=eps).max_rel_error == np.inf
    assert grad_check(lambda: tsum(mul(p, p)), {"p": p}, eps=eps).max_rel_error == np.inf


def test_a_non_finite_evaluation_beside_the_point_fails():
    # finite at x and above it, NaN below it: the wrong gradient must not pass
    p = Tensor(np.array([1.0]), requires_grad=True)
    fn = zero_gradient(p, lambda x: x[0] ** 2 if x[0] >= 1.0 else np.nan)
    assert grad_check(fn, {"p": p}).max_rel_error == np.inf


# engine mutants --------------------------------------------------------------

def _with_backward(op, fault):
    """``op`` whose nodes route their backward through ``fault(inner, g, args, out)``."""
    def mutated(*args, **kwargs):
        out = op(*args, **kwargs)
        if out._backward is not None:
            inner = out._backward
            out._backward = lambda g: fault(inner, g, args, out)
        return out
    return mutated


def _gather_assigning(inner, g, args, out):
    # assignment keeps one of several duplicate indices' contributions
    x, index = args[0], np.asarray(args[1])
    buf = np.zeros(x.shape)
    buf[index % x.shape[0]] = g
    return (buf,)


def _radius_gradient_dropped(inner, g, args, out):
    # the radius gradient the pool forms, lost
    return inner(g)[:2] + (None,) * (len(out._parents) - 2)


def _pool_normalizer_dropped(inner, g, args, out):
    # the backward of sum_t e G V / sum_t e G with the normalizer held
    # constant: add back the terms its gradient contributes
    S, G = args[0].data, args[1]
    e, den, _, _ = pool_exponents(S, G)
    b = np.divide(g * out.data, den, out=np.zeros_like(den), where=den > 0.0)
    grads = list(inner(g))
    grads[0] = grads[0] + e * np.einsum("bhld,bldt->bhlt", b, G)
    if len(grads) == 3:         # the radii's share, through dG / dr = G (1 - G) / tau
        grads[2] = grads[2] + np.einsum("bhld,bhlt,bldt->d", b, e, G * (1.0 - G)) / args[4]
    return tuple(grads)


def _gate_slope_wrong(inner, g, args, out):
    # the radius gradient with G in place of its slope G (1 - G) = tau dG / dr:
    # add the difference G^2, outside the underflow-redo rows
    S, G, V = args[0].data, args[1], args[2].data
    e, den, _, _ = pool_exponents(S, G)
    a = np.divide(g, den, out=np.zeros_like(den), where=den > 0.0)
    grads = list(inner(g))
    if len(grads) == 3:
        extra = np.einsum("bhld,bhlt,bldt->d", a, e, G * G * V) \
            - np.einsum("bhld,bhlt,bldt->d", a * out.data, e, G * G)
        grads[2] = grads[2] + extra / args[4]
    return tuple(grads)


def _observation_radius_gradient_dropped(inner, g, args, out):
    return (inner(g)[0],) + (None,) * (len(out._parents) - 1)


def _observation_terms(args):
    """W = e G, the normalizers and the (B, N, D) one-hot features of an
    observation pool's inputs, from the reference exponents of the block
    layout whose feature-d row gates only d's observations."""
    S, G, feat, D = args[0].data, args[1], args[2], args[4]
    P = (feat[..., None] == np.arange(D)).astype(np.float64)
    e, den, _, _ = pool_exponents(S, G[:, :, None] * P.transpose(0, 2, 1)[:, None])
    return e * G[:, None], den, P


def _per_feature(g_s, factor, feat, D):
    """sum over b, h, l and each feature's observations of g_s * factor."""
    per_obs = (g_s.sum(axis=1) * factor).sum(axis=1)
    return np.bincount(feat.reshape(-1), weights=per_obs.reshape(-1), minlength=D)


def _observation_normalizer_dropped(inner, g, args, out):
    # the observation pool's backward with the normalizer held constant
    W, den, P = _observation_terms(args)
    b = np.divide(g * out.data, den, out=np.zeros_like(den), where=den > 0.0)
    grads = list(inner(g))
    extra = W * np.matmul(b, P.transpose(0, 2, 1)[:, None])
    grads[0] = grads[0] + extra
    if len(grads) == 2:         # the radii's share, through dG / dr = G (1 - G) / tau
        grads[1] = grads[1] + _per_feature(extra, 1.0 - args[1], args[2], args[4]) / args[6]
    return tuple(grads)


def _observation_gate_slope_wrong(inner, g, args, out):
    # G in place of the slope G (1 - G): sum g_S / tau in place of sum g_S (1 - G) / tau
    grads = list(inner(g))
    if len(grads) == 2:
        grads[1] = grads[1] + _per_feature(grads[0], args[1], args[2], args[4]) / args[6]
    return tuple(grads)


# name: (op, fault, the DLA kernel the batch is forced onto, or None)
MUTANTS = {
    "relu-zeroed": ("relu", lambda inner, g, args, out: (np.zeros_like(g),), None),
    "mul-flipped": ("mul", lambda inner, g, args, out: (-inner(g)[0], inner(g)[1]), None),
    "softmax-gate-dropped": ("gated_attention_pool", _radius_gradient_dropped, "block"),
    "segment-softmax-uncentered": ("segment_softmax",
                                   lambda inner, g, args, out: (g * out.data,), None),
    "pool-normalizer-dropped": ("gated_attention_pool", _pool_normalizer_dropped, "block"),
    "gate-slope-wrong": ("gated_attention_pool", _gate_slope_wrong, "block"),
    "observation-softmax-gate-dropped": ("observation_pool",
                                         _observation_radius_gradient_dropped, "observation"),
    "observation-pool-normalizer-dropped": ("observation_pool",
                                            _observation_normalizer_dropped, "observation"),
    "observation-gate-slope-wrong": ("observation_pool", _observation_gate_slope_wrong,
                                     "observation"),
    "gather-assigns": ("gather", _gather_assigning, None),
    "matmul-scaled": ("matmul",
                      lambda inner, g, args, out: tuple(None if x is None else x * (1 + 1e-3)
                                                        for x in inner(g)), None),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_end_to_end_check_fails_every_engine_mutant(mutant, monkeypatch):
    name, fault, kernel = MUTANTS[mutant]
    if kernel is not None:
        monkeypatch.setattr(tada.dla, "pools_by_observation",
                            lambda *sizes: kernel == "observation")
    original = getattr(tada.tensor, name)
    mutated = _with_backward(original, fault)
    for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "tada"]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutated)
    model, preps = gradcheck_setup(small_gradcheck_config())
    rep = grad_check(lambda: model.batch_loss(preps), model.params, eps=3e-5)
    assert rep.max_rel_error > 1e-4, rep.worst()
