"""Computed work counts: floating-point operations and operand bytes.

These come from layer shapes, not from measurement. A GEMM of an (m, k)
matrix with a (k, n) one counts 2*m*k*n FLOPs and reads and writes
8*(m*k + k*n + m*n) bytes, since every kernel accumulates in float64. Bias
adds, activations and normalizations are left out, and cache behaviour is
ignored, so bytes are a lower bound on traffic.
"""

from __future__ import annotations

from gridlander.dqn import QNET_LAYOUT
from gridlander.vital import MODALITIES, VitalConfig


def _gemm(m: int, k: int, n: int) -> tuple[int, int]:
    return 2 * m * k * n, 8 * (m * k + k * n + m * n)


def _add(acc: dict, family: str, work: tuple[int, int]) -> None:
    flops, nbytes = acc.get(family, (0, 0))
    acc[family] = (flops + work[0], nbytes + work[1])


def detector_work(cfg: VitalConfig) -> dict[str, tuple[int, int]]:
    """(FLOPs, bytes) of one detector forward pass per kernel family:
    ``conv`` (stems), ``attention`` (projections, scores, context) and
    ``dense`` (encoder FFN and heads)."""
    acc: dict = {}
    for _ in MODALITIES:
        side, c_in = cfg.image_size, 1
        for c_out in cfg.stem_channels:
            hw = side * side
            _add(acc, "conv", _gemm(c_out, c_in * 9, hw))  # conv1, 3x3
            _add(acc, "conv", _gemm(c_out, c_out * 9, hw))  # conv2, 3x3
            _add(acc, "conv", _gemm(c_out, c_in, hw))  # residual, 1x1
            side, c_in = side // 2, c_out
        _add(acc, "conv", _gemm(cfg.embed_dim, c_in * 9, side * side))  # final, 3x3
    t, d, f = cfg.token_count, cfg.token_dim, cfg.ffn_hidden
    dh = d // cfg.heads
    for _ in range(cfg.encoder_layers):
        for _ in range(4):  # q, k, v and output projections
            _add(acc, "attention", _gemm(t, d, d))
        for _ in range(cfg.heads):
            _add(acc, "attention", _gemm(t, dh, t))  # scores
            _add(acc, "attention", _gemm(t, t, dh))  # context
        _add(acc, "dense", _gemm(t, d, f))
        _add(acc, "dense", _gemm(t, f, d))
    for out_dim in (1, 4):  # objectness and box heads on the class token
        _add(acc, "dense", _gemm(1, d, d))
        _add(acc, "dense", _gemm(1, d, out_dim))
    return acc


def qnet_forward_flops(batch: int = 1) -> int:
    return sum(_gemm(batch, i, o)[0] for i, o in QNET_LAYOUT)


def td_update_flops(batch: int = 32) -> int:
    """Online forward + target forward + backward (weight and input
    gradients, each a forward-sized GEMM) for one TD update."""
    return 4 * qnet_forward_flops(batch)
