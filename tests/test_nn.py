"""MLP forward/backward, decoupled softmax, Adam and init tests."""

import numpy as np
import pytest

from slicesim.nn import Adam, Mlp, MlpSpec, decoupled_softmax


def zero_net(spec):
    ws = [np.zeros((fin, fout)) for fin, fout in zip(spec.layer_sizes, spec.layer_sizes[1:])]
    bs = [np.zeros(fout) for fout in spec.layer_sizes[1:]]
    return Mlp(spec, ws, bs)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_zero_net_linear_head_outputs_zero():
    net = zero_net(MlpSpec((4, 3), head="linear"))
    assert np.array_equal(net.forward(np.ones((1, 4))), np.zeros((1, 3)))


def test_identity_layer_passthrough():
    spec = MlpSpec((3, 3), head="linear")
    net = Mlp(spec, [np.eye(3)], [np.zeros(3)])
    x = np.array([[0.3, -1.2, 4.5]])
    assert np.allclose(net.forward(x), x)


def test_softmax_head_analytic_block():
    spec = MlpSpec((3, 3), head="softmax_blocks", block_size=3)
    net = Mlp(spec, [np.eye(3)], [np.zeros(3)])
    y = net.forward(np.array([[np.log(2.0), 0.0, 0.0]]))
    assert y[0] == pytest.approx([0.5, 0.25, 0.25])


def test_forward_batch_matches_single():
    rng = np.random.default_rng(0)
    net = Mlp.init(rng, MlpSpec((5, 8, 4), head="sigmoid"))
    xs = rng.normal(size=(6, 5))
    batch = net.forward(xs)
    for i in range(6):
        assert np.allclose(batch[i], net.forward(xs[i:i + 1])[0])


def test_forward_is_pure():
    rng = np.random.default_rng(1)
    net = Mlp.init(rng, MlpSpec((4, 6, 3), head="linear"))
    x = rng.normal(size=(3, 4))
    assert np.array_equal(net.forward(x), net.forward(x))


def test_forward_rejects_bad_dimension():
    net = zero_net(MlpSpec((4, 2)))
    with pytest.raises(ValueError):
        net.forward(np.ones((1, 5)))
    with pytest.raises(ValueError):  # no batch axis
        net.forward(np.ones(4))


# ---------------------------------------------------------------------------
# decoupled softmax
# ---------------------------------------------------------------------------


def test_softmax_symmetric_block():
    assert decoupled_softmax(np.zeros(3), 3) == pytest.approx([1 / 3] * 3)


def test_softmax_extreme_logits_stable():
    y = decoupled_softmax(np.array([1000.0, 0.0, 0.0]), 3)
    assert np.isfinite(y).all()
    assert y == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)


def test_softmax_blocks_are_independent():
    a = np.array([0.3, -1.0, 0.5, 2.0, 1.0, -0.5])
    b = a.copy()
    b[3:] = b[3:][::-1]  # permute second block only
    ya, yb = decoupled_softmax(a, 3), decoupled_softmax(b, 3)
    assert np.array_equal(ya[:3], yb[:3])


def test_softmax_blocks_always_on_simplex():
    rng = np.random.default_rng(2)
    for _ in range(20):
        scale = 10.0 ** rng.integers(-3, 7)
        raw = rng.normal(size=12) * scale
        y = decoupled_softmax(raw, 3)
        sums = y.reshape(4, 3).sum(axis=1)
        assert np.all(y >= 0)
        assert np.allclose(sums, 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_zero_output_gradient_gives_zero_param_gradients():
    rng = np.random.default_rng(3)
    net = Mlp.init(rng, MlpSpec((4, 6, 3), head="softmax_blocks", block_size=3))
    y, cache = net.forward_cached(rng.normal(size=(2, 4)))
    grads, gx = net.backward(cache, np.zeros_like(y))
    assert all(np.all(g == 0) for g in grads)
    assert np.all(gx == 0)


def test_single_linear_layer_quadratic_gradient():
    # L = (w x + b - t)^2  =>  dL/dw = 2 (w x + b - t) x
    w, b, x, t = 0.7, -0.2, 1.3, 2.0
    net = Mlp(MlpSpec((1, 1)), [np.array([[w]])], [np.array([b])])
    y, cache = net.forward_cached(np.array([[x]]))
    grads, _ = net.backward(cache, np.array([[2 * (y[0, 0] - t)]]))
    resid = w * x + b - t
    assert grads[0][0, 0] == pytest.approx(2 * resid * x)
    assert grads[1][0] == pytest.approx(2 * resid)


def rel_err(a, n):
    return abs(a - n) / max(abs(a), abs(n), 1e-6)


def test_backward_matches_finite_differences():
    # random small nets, all heads; loss = sum(v * y); central differences
    rng = np.random.default_rng(1234)
    heads = ["linear", "sigmoid", "softmax_blocks"]
    h = 1e-5
    for trial in range(100):
        head = heads[trial % 3]
        d_in = int(rng.integers(2, 7))
        hidden = [int(rng.integers(3, 33)) for _ in range(int(rng.integers(0, 3)))]
        d_out = 6 if head == "softmax_blocks" else int(rng.integers(1, 7))
        spec = MlpSpec((d_in, *hidden, d_out), head=head,
                       block_size=3 if head == "softmax_blocks" else 0)
        net = Mlp.init(rng, spec)
        x = rng.normal(size=(2, d_in))
        v = rng.normal(size=(2, d_out))

        def loss():
            return float((net.forward(x) * v).sum())

        _, cache = net.forward_cached(x)
        grads, gx = net.backward(cache, v)
        params = net.parameters()
        for _ in range(6):  # probe random parameter coordinates
            pi = int(rng.integers(len(params)))
            idx = tuple(int(rng.integers(s)) for s in params[pi].shape)
            keep = params[pi][idx]
            params[pi][idx] = keep + h
            up = loss()
            params[pi][idx] = keep - h
            dn = loss()
            params[pi][idx] = keep
            numeric = (up - dn) / (2 * h)
            analytic = grads[pi][idx]
            assert rel_err(analytic, numeric) < 1e-4 or abs(analytic - numeric) < 1e-7
        for _ in range(2):  # probe input coordinates too
            r, c = int(rng.integers(2)), int(rng.integers(d_in))
            keep = x[r, c]
            x[r, c] = keep + h
            up = loss()
            x[r, c] = keep - h
            dn = loss()
            x[r, c] = keep
            numeric = (up - dn) / (2 * h)
            assert rel_err(gx[r, c], numeric) < 1e-4 or abs(gx[r, c] - numeric) < 1e-7


def test_backward_sums_over_batch():
    rng = np.random.default_rng(5)
    net = Mlp.init(rng, MlpSpec((3, 4, 2)))
    xs = rng.normal(size=(4, 3))
    v = rng.normal(size=(4, 2))
    _, cache = net.forward_cached(xs)
    grads_all, _ = net.backward(cache, v)
    accum = [np.zeros_like(g) for g in grads_all]
    for i in range(4):
        _, ci = net.forward_cached(xs[i:i + 1])
        gi, _ = net.backward(ci, v[i:i + 1])
        for a, g in zip(accum, gi):
            a += g
    for a, g in zip(accum, grads_all):
        assert np.allclose(a, g)


# ---------------------------------------------------------------------------
# member axis
# ---------------------------------------------------------------------------


def test_stack_matches_its_members_bit_for_bit():
    rng = np.random.default_rng(7)
    for head in ("linear", "sigmoid", "softmax_blocks"):
        spec = MlpSpec((5, 8, 7, 6), head=head, block_size=3 if head == "softmax_blocks" else 0)
        nets = [Mlp.init(rng, spec) for _ in range(3)]
        stack = Mlp.stack(nets)
        x, v = rng.normal(size=(3, 4, 5)), rng.normal(size=(3, 4, 6))
        y, cache = stack.forward_cached(x)
        grad = np.empty_like(stack.flat)
        grads, gx = stack.backward(cache, v, out=Mlp.from_flat(spec, grad))
        assert all(np.shares_memory(g, grad) for g in grads)
        for e, net in enumerate(nets):
            ye, ce = net.forward_cached(x[e])
            ge, gxe = net.backward(ce, v[e])
            assert np.array_equal(y[e], ye) and np.array_equal(gx[e], gxe)
            for g, g_e in zip(grads, ge):
                assert np.array_equal(g[e], g_e)
            assert np.array_equal(stack.logits(x[:, :1])[e], net.logits(x[e, :1]))


def test_parameters_are_views_of_the_flat_array():
    net = Mlp.stack([Mlp.init(np.random.default_rng(i), MlpSpec((3, 4, 2))) for i in range(2)])
    net.member(1).weights[0][0, 0] = 5.0
    assert net.flat[1, 0] == 5.0 and net.weights[0][1, 0, 0] == 5.0
    net.flat[0] = 0.0
    assert all(np.all(p[0] == 0) for p in net.parameters())
    assert net.param_count() == 3 * 4 + 4 + 4 * 2 + 2


def test_stack_rejects_inputs_without_the_member_axis():
    net = Mlp.stack([Mlp.init(np.random.default_rng(i), MlpSpec((3, 2))) for i in range(2)])
    with pytest.raises(ValueError):
        net.forward(np.ones(3))
    with pytest.raises(ValueError):
        net.forward(np.ones((3, 4, 3)))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    p = np.array([1.0, -2.0])
    opt = Adam(p, lr=0.01)
    opt.step(p, np.zeros(2))
    assert np.array_equal(p, [1.0, -2.0])


def test_adam_first_step_sign_scaled():
    p = np.array([1.0, 1.0])
    opt = Adam(p, lr=0.01)
    opt.step(p, np.array([0.5, -3.0]))
    # bias-corrected first step moves by ~lr in the gradient direction
    assert p == pytest.approx([1.0 - 0.01, 1.0 + 0.01], rel=1e-6)


def test_adam_deterministic():
    def run():
        p = np.full(3, 0.5)
        opt = Adam(p, lr=0.003)
        for i in range(10):
            opt.step(p, np.array([0.1 * i, -0.2, 0.05]))
        return p

    assert np.array_equal(run(), run())


def test_adam_zero_lr_is_identity():
    rng = np.random.default_rng(6)
    p = rng.normal(size=(3, 2))
    keep = p.copy()
    opt = Adam(p, lr=0.0)
    for _ in range(5):
        opt.step(p, rng.normal(size=(3, 2)))
    assert np.array_equal(p, keep)


def test_adam_matches_textbook_update_bit_for_bit():
    rng = np.random.default_rng(8)
    p = rng.normal(size=(2, 5))
    ref = p.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    opt = Adam(p, lr=0.01)
    for t in range(1, 6):
        g = rng.normal(size=p.shape)
        opt.step(p, g)
        c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * np.square(g)
        ref -= 0.01 * (m / c1) / (np.sqrt(v / c2) + 1e-8)
        assert np.array_equal(p, ref)


def test_adam_rejects_non_finite_gradient():
    p = np.ones(2)
    opt = Adam(p, lr=0.01)
    with pytest.raises(FloatingPointError):
        opt.step(p, np.array([np.nan, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", [0, 3, 6, 11])
def test_adam_rejects_a_non_finite_entry_anywhere_and_changes_nothing(bad, position):
    p = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    opt = Adam(p, lr=0.01)
    opt.step(p, np.full((3, 4), 0.5))  # non-zero moments to keep
    keep = p.copy(), opt.m.copy(), opt.v.copy()
    grad = np.full((3, 4), 0.25)
    grad.flat[position] = bad
    with pytest.raises(FloatingPointError):
        opt.step(p, grad)
    assert opt.t == 1
    for now, before in zip((p, opt.m, opt.v), keep):
        assert np.array_equal(now, before)


def test_adam_steps_on_a_finite_gradient_whose_sum_overflows():
    p = np.zeros(2)
    opt = Adam(p, lr=0.01)
    grad = np.array([1e308, 1e308])
    with np.errstate(over="ignore"):  # the sum, and v's square, overflow to inf
        assert not np.isfinite(grad.sum())
        opt.step(p, grad)
    assert opt.t == 1 and np.array_equal(opt.m, grad * (1.0 - 0.9))


def test_adam_rejects_gradient_of_another_shape():
    # a per-member gradient must not broadcast over a stack of members
    p = np.ones((3, 4))
    opt = Adam(p, lr=0.01)
    with pytest.raises(ValueError):
        opt.step(p, np.ones(4))
    assert np.array_equal(p, np.ones((3, 4))) and opt.t == 0


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------


def test_init_deterministic_under_seed():
    spec = MlpSpec((6, 8, 3))
    a = Mlp.init(np.random.default_rng(42), spec)
    b = Mlp.init(np.random.default_rng(42), spec)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)


def test_init_zero_biases_and_glorot_bounds():
    spec = MlpSpec((6, 8, 3))
    net = Mlp.init(np.random.default_rng(0), spec)
    for b in net.biases:
        assert np.all(b == 0)
    for w, fin, fout in zip(net.weights, spec.layer_sizes, spec.layer_sizes[1:]):
        lim = np.sqrt(6.0 / (fin + fout))
        assert np.all(np.abs(w) <= lim)


def test_param_count():
    net = zero_net(MlpSpec((4, 8, 3)))
    assert net.param_count() == 4 * 8 + 8 + 8 * 3 + 3


def test_copy_is_deep():
    net = Mlp.init(np.random.default_rng(2), MlpSpec((3, 3)))
    dup = net.copy()
    dup.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]
