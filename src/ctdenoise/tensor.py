"""numpy-backed dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small. Every operation computes its result
eagerly and records a closure that maps the output gradient back to the
input gradients; ``Tensor.backward()`` then walks the recorded graph once
in reverse topological order; inside ``no_grad()`` nothing is recorded.
Broadcasting is supported only where the network needs it (bias adds,
scalar scaling), and only float32/float64 data is allowed: float32 is the
compute default, float64 exists for finite-difference gradient checking.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

DEFAULT_DTYPE = np.float32

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(ValueError):
    """An operation met NaN or infinite input it cannot handle."""


def _as_array(data, dtype):
    if dtype is not None:
        return np.ascontiguousarray(data, dtype=dtype)
    if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
        return np.ascontiguousarray(data)
    # lists, scalars and integer arrays default to float32
    return np.ascontiguousarray(data, dtype=DEFAULT_DTYPE)


class Tensor:
    """N-d row-major array, optionally tracked for gradients.

    Tensors are immutable once created; only the optimizer writes into
    parameter data in place. ``grad`` is populated by ``backward`` and
    accumulates across calls until ``zero_grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
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

    def detach(self):
        """Same data, cut loose from the graph."""
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-mode accumulation from a scalar root.

        Each call propagates a fresh unit seed, so calling backward twice
        without zeroing doubles the accumulated gradients.
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

        # per-call gradient table keeps repeated backward passes independent
        flowing = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node.grad is None:
                node.grad = g.copy()
            else:
                node.grad += g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in flowing:
                    flowing[key] = flowing[key] + pg
                else:
                    flowing[key] = pg

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported; multiply by a reciprocal")
        return mul(self, 1.0 / other)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}{flag})"


class Parameter:
    """A named trainable tensor; names place it in checkpoints."""

    __slots__ = ("value", "name")

    def __init__(self, value, name=""):
        self.value = value if isinstance(value, Tensor) else Tensor(value)
        self.value.requires_grad = True
        self.name = name

    @property
    def data(self):
        return self.value.data

    @property
    def grad(self):
        return self.value.grad

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self):
        self.value.zero_grad()

    def __repr__(self):
        return f"Parameter({self.name or '<unnamed>'}, shape={tuple(self.shape)})"


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


def _result(arr, parents, backward):
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.grad = None
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
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


def _coerce_operand(a, like):
    if isinstance(a, Tensor):
        return a
    return Tensor(np.asarray(a, dtype=like.data.dtype))


# -- elementwise and linear algebra ------------------------------------


def add(a, b):
    b = _coerce_operand(b, a)
    try:
        arr = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}") from None

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _result(arr, (a, b), backward)


def sub(a, b):
    b = _coerce_operand(b, a)
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
    b = _coerce_operand(b, a)
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


def linear(x, weight, bias):
    """Token-wise affine map: x[..., c_in] @ weight[c_in, c_out] + bias."""
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(
            f"linear: input dim {x.shape} does not match weight {weight.shape}"
        )
    return add(matmul(x, weight), bias)


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


def leaky_relu(x, slope=0.2):
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must lie in (0,1), got {slope}")
    pos = x.data > 0
    arr = np.where(pos, x.data, x.data * x.data.dtype.type(slope))

    def backward(g):
        one = x.data.dtype.type(1.0)
        s = x.data.dtype.type(slope)
        return (g * np.where(pos, one, s),)

    return _result(arr, (x,), backward)


def softmax(x, axis=-1):
    if not np.isfinite(x.data).all():
        raise NonFiniteError("softmax: input contains NaN or infinite values")
    # one buffer for shift, exp and normalisation; x.data is left untouched
    out = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _result(out, (x,), backward)


# -- structured ops -----------------------------------------------------


def conv2d(x, weight, bias, stride=1, padding="same"):
    """2-d cross-correlation with "same" zero padding.

    ``x`` is (B, Cin, H, W), ``weight`` (Cout, Cin, k, k) with odd k,
    ``bias`` (Cout,). Same padding of k//2 per side gives output spatial
    extents ceil(H/stride), so stride 2 exactly halves even inputs.
    """
    if padding != "same":
        raise ValueError(f"only 'same' padding is supported, got {padding!r}")
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

    pad = k // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Hp, Wp = xp.shape[2], xp.shape[3]
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    Ho, Wo = windows.shape[2], windows.shape[3]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
        B, Ho * Wo, C * k * k
    )
    wmat = weight.data.reshape(Cout, C * k * k)
    out = cols @ wmat.T + bias.data
    arr = np.ascontiguousarray(out.reshape(B, Ho, Wo, Cout).transpose(0, 3, 1, 2))

    def backward(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(B, Ho * Wo, Cout)
        gx = gw = gb = None
        if weight.requires_grad:
            gw = np.tensordot(gmat, cols, axes=([0, 1], [0, 1])).reshape(weight.data.shape)
        if bias.requires_grad:
            gb = g.sum(axis=(0, 2, 3))
        if x.requires_grad:
            gcols = (gmat @ wmat).reshape(B, Ho, Wo, C, k, k)
            gxp = np.zeros((B, C, Hp, Wp), dtype=g.dtype)
            for i in range(k):
                for j in range(k):
                    gxp[:, :, i : i + stride * Ho : stride, j : j + stride * Wo : stride] += (
                        gcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                    )
            gx = np.ascontiguousarray(gxp[:, :, pad : pad + H, pad : pad + W])
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
