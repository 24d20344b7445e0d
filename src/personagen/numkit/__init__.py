"""Reverse-mode differentiation core, optimizer, and recurrent primitives."""

from .gru import GruParams, bigru_encode, gru_cell, gru_sequence
from .layers import Affine, Module, TanhMlp, uniform_param, zero_param
from .optim import AdamState, adam_step, clip_global_norm
from .tensor import (
    Factors,
    RowGrad,
    Tape,
    Tensor,
    add,
    additive_attention_weights,
    as_tensor,
    backward,
    concat,
    cross_entropy,
    dot_attention_weights,
    exp,
    lookup,
    matmul,
    mean,
    mul,
    scale,
    sigmoid_cross_entropy,
    softmax_cross_entropy,
    softplus,
    sub,
    sum_,
    zeros,
)
