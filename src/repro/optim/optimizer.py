"""Optimizers over :class:`~repro.nn.params.ParamStruct` with explicit state.

State is a plain dict created by ``init_state`` and threaded through
``step`` by the caller — never hidden inside the optimizer object.  This
matters for the reproduction: WeiPipe shards optimizer state by *layer
owner* (each worker keeps the fp32 state only for the layer it updates,
Section 3 "Update pass"), FSDP shards it by *flat chunk*, and pipeline
baselines keep it per *stage*.  All three just pass different subsets of
(params, grads, state) triples to the same optimizer.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..nn.params import ParamStruct

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "map_opt_state",
    "clone_opt_state",
]


#: elements per :meth:`Adam.step` block: four operands and two scratch
#: arrays of it fit a 1-2 MiB L2 in fp32 and fp64.
_BLOCK = 1 << 15


def map_opt_state(state, fn):
    """Structurally transform every :class:`ParamStruct` leaf of an
    optimizer state.

    States are plain (possibly nested) dicts — e.g. Adam's ``{"m", "v",
    "t"}`` or :class:`~repro.optim.mixed.MasterWeightOptimizer`'s
    ``{"master", "inner": {...}}`` — so elastic snapshots, checkpoints
    and FSDP re-sharding all need the same recursion: apply ``fn`` to
    tensor leaves, keep scalars (step counters) as-is.
    """
    if isinstance(state, ParamStruct):
        return fn(state)
    if isinstance(state, dict):
        return {k: map_opt_state(v, fn) for k, v in state.items()}
    return state


def clone_opt_state(state):
    """Deep-copy an optimizer state (tensor leaves cloned, scalars kept)."""
    return map_opt_state(state, lambda ps: ps.clone())


class Optimizer:
    """Interface: stateless object + explicit per-params state dict."""

    #: base learning rate; concrete optimizers set this in __init__.
    lr: float = 0.0
    _base_lr: float = 0.0

    def init_state(self, params: ParamStruct) -> Dict:
        raise NotImplementedError

    def step(self, params: ParamStruct, grads: ParamStruct, state: Dict) -> None:
        """Update ``params`` in place from ``grads``."""
        raise NotImplementedError

    def set_lr_scale(self, scale: float) -> None:
        """Apply a schedule multiplier to the base learning rate.

        Idempotent per call: always scales the *base* lr captured at
        construction, never the previously scaled value.
        """
        self.lr = self._base_lr * scale


class SGD(Optimizer):
    """SGD with optional (classical) momentum and L2 weight decay."""

    def __init__(self, lr: float, momentum: float = 0.0, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = self._base_lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay

    def init_state(self, params: ParamStruct) -> Dict:
        if self.momentum == 0.0:
            return {}
        return {"velocity": params.zeros_like()}

    def step(self, params: ParamStruct, grads: ParamStruct, state: Dict) -> None:
        for name in params.keys():
            g = grads[name]
            if self.weight_decay:
                g = g + self.weight_decay * params[name]
            if self.momentum:
                v = state["velocity"][name]
                v *= self.momentum
                v += g
                g = v
            params[name] -= self.lr * g


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        lr: float,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = self._base_lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay

    def init_state(self, params: ParamStruct) -> Dict:
        return {
            "m": params.zeros_like(),
            "v": params.zeros_like(),
            "t": 0,
        }

    def _decay_into_grad(self) -> bool:
        return True  # Adam: L2 goes through the moments

    def step(self, params: ParamStruct, grads: ParamStruct, state: Dict) -> None:
        """The textbook update — ``m = b1 m + (1-b1) g``,
        ``v = b2 v + (1-b2) g^2``, ``p -= lr (m/bc1) / (sqrt(v/bc2) + eps)``
        — with every operation and its order kept, so the result is
        bit-identical to the one-temporary-per-operation form, but run
        block by block over the flattened tensors: a block's four
        operands and the two scratch arrays stay in cache for its
        fourteen passes instead of streaming each tensor through memory
        fourteen times."""
        state["t"] += 1
        t = state["t"]
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        decay_grad = bool(self.weight_decay) and self._decay_into_grad()
        decay_update = bool(self.weight_decay) and not decay_grad
        scratch: Dict[np.dtype, tuple] = {}

        def pair(dtype) -> tuple:
            if dtype not in scratch:
                scratch[dtype] = (np.empty(_BLOCK, dtype), np.empty(_BLOCK, dtype))
            return scratch[dtype]

        for name in params.keys():
            whole = params[name], state["m"][name], state["v"][name]
            # views for the contiguous tensors every strategy holds; any
            # other layout is copied here and written back below.
            p_all, m_all, v_all = flat = [x.reshape(-1) for x in whole]
            g_all = grads[name].reshape(-1)
            # gradient-side terms carry the wider of the two dtypes (fp64
            # grads onto an fp32 master copy), update-side terms p's own.
            wide = pair(np.result_type(g_all, p_all))
            own = pair(p_all.dtype)
            for i in range(0, p_all.size, _BLOCK):
                j = i + _BLOCK
                p, m, v, g = p_all[i:j], m_all[i:j], v_all[i:j], g_all[i:j]
                a, b = wide[0][:p.size], wide[1][:p.size]
                if decay_grad:
                    np.multiply(p, self.weight_decay, out=b)
                    g = np.add(g, b, out=b)
                m *= self.beta1
                np.multiply(g, 1.0 - self.beta1, out=a)
                m += a
                v *= self.beta2
                np.square(g, out=a)
                a *= 1.0 - self.beta2
                v += a
                a, b = own[0][:p.size], own[1][:p.size]
                np.divide(v, bc2, out=a)
                np.sqrt(a, out=a)
                a += self.eps
                np.divide(m, bc1, out=b)
                b /= a
                if decay_update:
                    np.multiply(p, self.weight_decay, out=a)
                    b += a
                b *= self.lr
                p -= b
            for x, x_flat in zip(whole, flat):
                if not x.flags.c_contiguous:
                    x[...] = x_flat.reshape(x.shape)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""

    def _decay_into_grad(self) -> bool:
        return False
