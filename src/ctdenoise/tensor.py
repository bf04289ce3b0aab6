"""numpy-backed dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small. Every operation computes its result
eagerly and records a closure that maps the output gradient back to the
input gradients; ``Tensor.backward()`` then walks the recorded graph once
in reverse topological order, freeing it as it goes; inside ``no_grad()``
nothing is recorded.
``Tensor`` defines no arithmetic operators: every op is a function in this
module taking ``Tensor`` operands. ``add``, ``sub`` and ``mul`` broadcast
as numpy does (the positional embeddings' add needs it), and only float32/float64
data is allowed: float32 is the compute default, float64 exists for
finite-difference gradient checking.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(ValueError):
    """NaN or inf in an image entering ``decompose``, a model output or a
    metric's input. No op in this module raises it: ops pass them through."""


def _as_array(data):
    if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
        return np.ascontiguousarray(data)
    # lists, scalars and integer arrays default to float32
    return np.ascontiguousarray(data, dtype=DEFAULT_DTYPE)


class Tensor:
    """N-d row-major array, optionally tracked for gradients.

    A trainable parameter is a leaf made with ``requires_grad=True``.
    Tensors are immutable once created; only the optimizer writes into
    parameter data in place. ``backward`` populates ``grad`` on leaves only
    (tensors no op produced, such as parameters and inputs), where it
    accumulates across graphs until ``zero_grad``; op results keep
    ``grad`` None. A recorded graph is single-use: ``backward`` frees it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self):
        """The underlying array (not a copy; treat as read-only)."""
        return self.data

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.item())

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-mode accumulation from a scalar root.

        The walk frees each op node once it has passed it: the node drops
        its parents and its closure's saved arrays, and a later walk
        through it raises RuntimeError. Leaves keep their gradients, so a
        fresh forward and backward without zeroing doubles them.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        # popping drops the walk's reference to each node once it is passed
        flowing = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = flowing.pop(id(node), None)
            if node._backward is None:
                # only leaves keep a gradient; an intermediate's lives in
                # `flowing` until its closure has consumed it
                if g is None:
                    continue
                if node.grad is None:
                    node.grad = g.copy()
                else:
                    node.grad += g
                continue
            if g is not None:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if pg is None or not parent.requires_grad:
                        continue
                    key = id(parent)
                    if key in flowing:
                        flowing[key] = flowing[key] + pg
                    else:
                        flowing[key] = pg
            # release the closure's saved arrays; a later walk through here raises
            node._parents, node._backward = (), _freed

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}{flag})"


# -- graph plumbing ----------------------------------------------------

_grad_enabled = True


@contextmanager
def no_grad():
    """Record no graph inside the block.

    Ops still compute their results, but return tensors that do not
    require grad and hold no parents or backward closures, so inputs and
    intermediates are freed as soon as nothing else references them.
    Blocks nest; the previous state is restored on exit, also on error.
    """
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _freed(g):
    raise RuntimeError("backward() through a graph that an earlier backward() freed; "
                       "run the forward pass again")


def _records(parents):
    """Whether an op on ``parents`` records a graph node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _result(arr, parents, backward):
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.grad = None
    out.requires_grad = _records(parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(g, shape):
    """Sum a gradient down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise and linear algebra ------------------------------------


def add(a, b):
    try:
        arr = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _result(arr, (a, b), backward)


def sub(a, b):
    try:
        arr = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: cannot broadcast {a.shape} with {b.shape}") from None

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _result(arr, (a, b), backward)


def neg(a):
    def backward(g):
        return (-g,)

    return _result(-a.data, (a,), backward)


def mul(a, b):
    try:
        arr = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast {a.shape} with {b.shape}") from None

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _result(arr, (a, b), backward)


def matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} @ {b.shape}")
    arr = a.data @ b.data

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _result(arr, (a, b), backward)


def linear(x, weight, bias, slope=None):
    """Token-wise affine map x[..., c_in] @ weight[c_in, c_out] + bias, one
    graph node.

    ``x`` has rank >= 2 and ``bias`` shape (c_out,). With a ``slope`` in
    (0, 1) the result is ``leaky_relu(add(matmul(x, weight), bias), slope)``
    bit for bit, gradients included, but the bias and the activation are
    applied in place and no pre-bias or pre-activation map is kept.
    """
    if x.ndim < 2 or weight.ndim != 2:
        raise ShapeError(
            f"linear needs x of rank >= 2 and a 2-d weight, got {x.shape} @ {weight.shape}")
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear: inner dimensions disagree, {x.shape} @ {weight.shape}")
    if bias.shape != weight.shape[1:]:
        raise ShapeError(f"linear bias must have shape ({weight.shape[1]},), got {bias.shape}")
    arr = x.data @ weight.data
    arr += bias.data
    if slope is not None:
        _check_slope(slope)
        s = arr.dtype.type(slope)
        _leaky_relu_(arr, s)

    def backward(g):
        if slope is not None:
            g = _leaky_relu_grad(g, arr, s)
        gx = gw = gb = None
        if x.requires_grad:
            gx = _unbroadcast(g @ weight.data.T, x.data.shape)
        if weight.requires_grad:
            gw = _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, weight.data.shape)
        if bias.requires_grad:
            gb = _unbroadcast(g, bias.data.shape)
        return gx, gw, gb

    return _result(arr, (x, weight, bias), backward)


def reshape(a, shape):
    try:
        arr = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from None

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _result(arr, (a,), backward)


def transpose(a, axes):
    axes = tuple(axes)
    arr = np.ascontiguousarray(a.data.transpose(axes))
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _result(arr, (a,), backward)


def tsum(a, axis=None, keepdims=False):
    arr = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape),)

    return _result(np.asarray(arr), (a,), backward)


def tmean(a, axis=None, keepdims=False):
    arr = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else a.data.shape[axis]
    inv = 1.0 / n

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g * inv, a.data.shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg * inv, a.data.shape),)

    return _result(np.asarray(arr), (a,), backward)


def concat(tensors, axis):
    tensors = tuple(tensors)
    base = tensors[0].ndim
    for t in tensors[1:]:
        if t.ndim != base:
            raise ShapeError(f"concat: mixed ranks {[t.shape for t in tensors]}")
    arr = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _result(arr, tensors, backward)


# -- nonlinearities -----------------------------------------------------


def _check_slope(slope):
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must lie in (0,1), got {slope}")


# elements per chunk of an in-place leaky ReLU: 256 KiB of float32 scratch
_ACT_CHUNK = 2**16


def _leaky_relu_(a, s):
    """Leaky ReLU with slope ``s`` (a scalar of ``a``'s dtype) written into
    the contiguous array ``a``, one chunk at a time through one chunk of
    scratch. Bit for bit the out-of-place form: max(x, x * s)."""
    flat = a.reshape(-1)
    t = np.empty(min(flat.size, _ACT_CHUNK), dtype=a.dtype)
    for i in range(0, flat.size, _ACT_CHUNK):
        c = flat[i : i + _ACT_CHUNK]
        u = t[: c.size]
        np.multiply(c, s, out=u)
        np.maximum(c, u, out=c)


def _leaky_relu_grad(g, v, s):
    """``g * where(v > 0, 1, s)`` bit for bit, without a masked select;
    ``v`` is the input of the leaky ReLU, or its output: for 0 < s < 1 the
    two are positive at the same places."""
    # 0 * (1 - s) + s is s, and fl(fl(1 - s) + s) is 1 for every s in (0, 1)
    # (1 - s is exact for s >= 1/2; below, its rounding error is at most
    # half an ulp of 1, so the sum rounds back to 1)
    f = (v > 0).astype(v.dtype)
    f *= 1 - s
    f += s
    # g may be another parent's gradient too (add hands both the same
    # array), so the product goes into f, unless g's dtype is wider
    return np.multiply(g, f, out=f if g.dtype == f.dtype else None)


def leaky_relu(x, slope=0.2):
    _check_slope(slope)
    # for 0 < slope < 1 this equals where(x > 0, x, x * slope) bit for bit,
    # signed zeros, NaN, inf and subnormals included
    s = x.data.dtype.type(slope)
    arr = x.data * s
    np.maximum(x.data, arr, out=arr)

    def backward(g):
        return (_leaky_relu_grad(g, x.data, s),)

    return _result(arr, (x,), backward)


def _softmax_into(x, out, axis):
    """Write softmax(x) along ``axis`` into ``out``, which may be ``x``."""
    # one buffer for shift, exp and normalisation
    np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_grad(p, g, axis):
    """Input gradient of a softmax with output ``p`` and output gradient ``g``."""
    return p * (g - (g * p).sum(axis=axis, keepdims=True))


def softmax(x, axis=-1):
    out = _softmax_into(x.data, np.empty_like(x.data), axis)

    def backward(g):
        return (_softmax_grad(out, g, axis),)

    return _result(out, (x,), backward)


# -- structured ops -----------------------------------------------------

# query rows per attention block: 4 heads x 128 rows x 1024 keys of float32
# scores is 2 MiB, against 16 MiB for all 1024 rows at once
_ATTENTION_ROWS = 128

# im2col elements per conv2d band without a graph: 1 MiB of float32. Bands
# this large keep the output bit for bit, since OpenBLAS's sgemm takes
# another path for much smaller products (a quarter of this changes bits)
_CONV_COLS = 2**18


def attention(q, k, v, n_heads):
    """Multi-head scaled dot-product attention, one graph node.

    ``q`` is (B, N, C) and ``k``, ``v`` are (B, M, C); the channels split
    into ``n_heads`` heads of C / n_heads, and the result is (B, N, C)
    with the heads side by side. With a graph, softmax(q k^T / sqrt(d)) v
    runs over all N query rows at once and the (B, h, N, M) probabilities
    are kept for the backward pass, which repeats the arithmetic of the
    reshape/transpose/matmul/mul/softmax chain. Under ``no_grad()`` it runs
    over blocks of at most ``_ATTENTION_ROWS`` query rows, so only one
    block of scores exists at a time. The blocks split N evenly, so none
    has a single row unless N does; numpy would send a one-row product to
    gemv instead of gemm. Whether a block product then matches the
    unblocked one bit for bit is up to the BLAS kernels: OpenBLAS 0.3.31
    keeps it for heads of 16 or more channels.
    """
    if q.ndim != 3 or k.ndim != 3 or v.shape != k.shape:
        raise ShapeError(
            f"attention needs (B, N, C) queries and equal (B, M, C) keys and "
            f"values, got {q.shape}, {k.shape}, {v.shape}"
        )
    B, N, C = q.shape
    M = k.shape[1]
    if k.shape[0] != B or k.shape[2] != C:
        raise ShapeError(f"attention: keys {k.shape} do not match queries {q.shape}")
    if C % n_heads != 0:
        raise ShapeError(f"{C} channels do not split into {n_heads} heads")
    h, d = n_heads, C // n_heads
    scale = q.data.dtype.type(1.0 / math.sqrt(d))
    qh = np.ascontiguousarray(q.data.reshape(B, N, h, d).transpose(0, 2, 1, 3))
    kh = np.ascontiguousarray(k.data.reshape(B, M, h, d).transpose(0, 2, 3, 1))
    vh = np.ascontiguousarray(v.data.reshape(B, M, h, d).transpose(0, 2, 1, 3))

    # with a graph the probabilities backward reads are all kept anyway, so
    # one block computes them; without one, a buffer for the largest block
    # is reused
    keep = _records((q, k, v))
    n_blocks = 1 if keep else -(-N // _ATTENTION_ROWS)
    bounds = [N * b // n_blocks for b in range(n_blocks + 1)]
    probs = np.empty((B, h, -(-N // n_blocks), M), dtype=qh.dtype)
    out = np.empty((B, N, h, d), dtype=qh.dtype)
    for i, j in zip(bounds[:-1], bounds[1:]):
        s = probs[:, :, : j - i]
        np.matmul(qh[:, :, i:j], kh, out=s)
        s *= scale
        _softmax_into(s, s, axis=-1)
        np.matmul(s, vh, out=out[:, i:j].transpose(0, 2, 1, 3))

    def backward(g):
        gctx = np.ascontiguousarray(g.reshape(B, N, h, d).transpose(0, 2, 1, 3))
        gq = gk = gv = None
        if v.requires_grad:
            gvh = np.swapaxes(probs, -1, -2) @ gctx
            gv = np.ascontiguousarray(gvh.transpose(0, 2, 1, 3)).reshape(B, M, C)
        if q.requires_grad or k.requires_grad:
            gs = _softmax_grad(probs, gctx @ np.swapaxes(vh, -1, -2), axis=-1)
            gs *= scale
            if q.requires_grad:
                gqh = gs @ np.swapaxes(kh, -1, -2)
                gq = np.ascontiguousarray(gqh.transpose(0, 2, 1, 3)).reshape(B, N, C)
            if k.requires_grad:
                gkh = np.swapaxes(qh, -1, -2) @ gs
                gk = np.ascontiguousarray(gkh.transpose(0, 3, 1, 2)).reshape(B, M, C)
        return gq, gk, gv

    return _result(out.reshape(B, N, C), (q, k, v), backward)


def conv2d(x, weight, bias, stride=1, slope=None):
    """2-d cross-correlation with "same" zero padding.

    ``x`` is (B, Cin, H, W), ``weight`` (Cout, Cin, k, k) with odd k,
    ``bias`` (Cout,). Same padding of k//2 per side gives output spatial
    extents ceil(H/stride), so stride 2 exactly halves even inputs. With a
    ``slope`` in (0, 1) the result is ``leaky_relu(conv2d(...), slope)``
    bit for bit, gradients included, but the activation is applied in
    place and no pre-activation map is kept.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d needs 4-d input/weight, got {x.shape} and {weight.shape}")
    B, C, H, W = x.shape
    Cout, Cw, kh, kw = weight.shape
    if kh != kw:
        raise ShapeError(f"conv2d kernels must be square, got {weight.shape}")
    k = kh
    if k % 2 == 0:
        raise ValueError(f"conv2d kernel size must be odd, got {k}")
    if C != Cw:
        raise ShapeError(
            f"conv2d channel mismatch: input {tuple(x.shape)} expects weight with "
            f"Cin={C}, got weight {tuple(weight.shape)}"
        )
    if bias.shape != (Cout,):
        raise ShapeError(f"conv2d bias must have shape ({Cout},), got {bias.shape}")
    if not (isinstance(stride, (int, np.integer)) and stride >= 1):
        raise ValueError(f"stride must be a positive int, got {stride}")
    if slope is not None:
        _check_slope(slope)
        s = x.data.dtype.type(slope)

    pad = k // 2
    Hp, Wp = H + 2 * pad, W + 2 * pad
    Ho, Wo = -(-H // stride), -(-W // stride)
    K = C * k * k
    wmat = weight.data.reshape(Cout, K)
    # each band of output rows gets a zero-padded channels-last copy of the
    # input rows it reads, then k*k strided slice copies into (B, rows, Wo,
    # C, k, k) columns and one GEMM. K stays ordered (C, kh, kw) like the
    # weights: another order changes the GEMM's float32 rounding, and the
    # 2000-step overfit gate is sensitive to that. With a graph, backward
    # reads all columns, so one band makes them; without one, a buffer for
    # the largest band is reused. The bands split Ho evenly, as in
    # ``attention``, so none is much smaller than the others. A leaky ReLU
    # acts on each band's product before it is written out.
    keep = _records((x, weight, bias))
    n_bands = 1 if keep else -(-Ho // max(1, _CONV_COLS // (B * Wo * K)))
    bounds = [Ho * b // n_bands for b in range(n_bands + 1)]
    rows = -(-Ho // n_bands)
    cols = np.empty((B, rows, Wo, C, k, k), dtype=x.data.dtype)
    # flat, so that each band's product is one contiguous block
    prod = np.empty(B * rows * Wo * Cout, dtype=x.data.dtype)
    arr = np.empty((B, Cout, Ho, Wo), dtype=x.data.dtype)
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        n = r1 - r0
        # padded input rows [top, top + span) feed output rows [r0, r1)
        top, span = r0 * stride, (n - 1) * stride + k
        lo, hi = max(top, pad), min(top + span, pad + H)
        xh = np.zeros((B, span, Wp, C), dtype=x.data.dtype)
        rows_in = x.data[:, :, lo - pad : hi - pad].transpose(0, 2, 3, 1)
        xh[:, lo - top : hi - top, pad : pad + W] = rows_in
        band = cols[:, :n]
        for i in range(k):
            for j in range(k):
                band[..., i, j] = xh[:, i : i + stride * n : stride, j : j + stride * Wo : stride]
        del xh
        out = prod[: B * n * Wo * Cout].reshape(B, n * Wo, Cout)
        np.matmul(band.reshape(B, n * Wo, K), wmat.T, out=out)
        out += bias.data
        if slope is not None:
            _leaky_relu_(out, s)
        arr[:, :, r0:r1] = out.reshape(B, n, Wo, Cout).transpose(0, 3, 1, 2)

    def backward(g):
        nonlocal cols
        if slope is not None:
            g = _leaky_relu_grad(g, arr, s)
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(B, Ho * Wo, Cout)
        gx = gw = gb = None
        if weight.requires_grad:
            # a recorded graph made one band, so ``cols`` holds every row
            gw = np.tensordot(gmat, cols.reshape(B, Ho * Wo, K), axes=([0, 1], [0, 1]))
            gw = gw.reshape(weight.data.shape)
        # a graph is walked once, so the columns go before their gradient
        # of the same size is made
        cols = None
        if bias.requires_grad:
            gb = g.sum(axis=(0, 2, 3))
        if x.requires_grad:
            gcols = (gmat @ wmat).reshape(B, Ho, Wo, C, k, k)
            # the (i, j) loop order fixes each input pixel's summation order
            gxh = np.zeros((B, Hp, Wp, C), dtype=g.dtype)
            for i in range(k):
                for j in range(k):
                    gxh[:, i : i + stride * Ho : stride, j : j + stride * Wo : stride] += (
                        gcols[..., i, j]
                    )
            gx = np.ascontiguousarray(gxh[:, pad : pad + H, pad : pad + W].transpose(0, 3, 1, 2))
        return gx, gw, gb

    return _result(arr, (x, weight, bias), backward)


def _shuffle_data(d, r):
    B, C, H, W = d.shape
    out = d.reshape(B, C // (r * r), r, r, H, W).transpose(0, 1, 4, 2, 5, 3)
    return np.ascontiguousarray(out).reshape(B, C // (r * r), H * r, W * r)


def _unshuffle_data(d, r):
    B, C, H, W = d.shape
    out = d.reshape(B, C, H // r, r, W // r, r).transpose(0, 1, 3, 5, 2, 4)
    return np.ascontiguousarray(out).reshape(B, C * r * r, H // r, W // r)


def pixel_shuffle(x, r):
    """Depth to space: (B, C, H, W) -> (B, C/r^2, rH, rW).

    Input channel c lands at output channel c // r^2, spatial offset
    ((c % r^2) // r, c % r) inside each r x r cell. Exact inverse of
    ``pixel_unshuffle``.
    """
    if x.ndim != 4:
        raise ShapeError(f"pixel_shuffle needs a 4-d tensor, got {x.shape}")
    B, C, H, W = x.shape
    if r < 1 or C % (r * r) != 0:
        raise ShapeError(f"pixel_shuffle: C={C} is not divisible by r^2 with r={r}")
    arr = _shuffle_data(x.data, r)

    def backward(g):
        return (_unshuffle_data(g, r),)

    return _result(arr, (x,), backward)


def pixel_unshuffle(x, r):
    """Space to depth: (B, C, H, W) -> (B, C*r^2, H/r, W/r)."""
    if x.ndim != 4:
        raise ShapeError(f"pixel_unshuffle needs a 4-d tensor, got {x.shape}")
    B, C, H, W = x.shape
    if r < 1 or H % r != 0 or W % r != 0:
        raise ShapeError(
            f"pixel_unshuffle: spatial dims ({H},{W}) are not divisible by r={r}"
        )
    arr = _unshuffle_data(x.data, r)

    def backward(g):
        return (_shuffle_data(g, r),)

    return _result(arr, (x,), backward)
