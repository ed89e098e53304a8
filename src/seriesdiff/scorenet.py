"""Conditional noise-prediction network, hand-differentiated, with its trainer.

The network maps a corrupted window x_t, a discrete step t, and an optional
(industry, board) condition to a prediction of the noise that produced x_t.
Architecture: the window is projected to a hidden width, then passed through
residual blocks; each block adds linear projections of a sinusoidal time
embedding and of the condition encoding to its input before a two-layer
bottleneck, and a final linear head maps back to window length.  The
condition encoding concatenates a learned industry embedding refined by a
three-layer MLP with a fixed board one-hot; the NULL condition is the
all-zero vector, which is what classifier-free guidance trains against.

Everything is plain float64 numpy.  Parameters live in one flat vector with a
named layout so the whole model can be checkpointed, finite-difference
checked, and updated by a vector optimizer without any framework.  Forward
and backward passes are written out explicitly; the backward pass is verified
against central differences in the test suite.  Results are bitwise
reproducible for a given parameter vector and rng seed, and tested equal
under one and two OpenBLAS threads: no weight-gradient product reduces over
more than 256 rows.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataio import _read_json, _replacing
from .errors import DataError, NumericError, ParameterError, check_finite_rows
from .schedules import NoiseSchedule

__all__ = [
    "ScoreNetConfig",
    "ConditionVector",
    "ScoreNetworkParams",
    "TrainConfig",
    "TrainResult",
    "time_embedding",
    "encode_condition",
    "init_params",
    "predict_eps",
    "predict_eps_vjp",
    "condition_dropout",
    "dsm_residual_loss",
    "dsm_loss",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
]

logger = logging.getLogger(__name__)

CHECKPOINT_FORMAT_VERSION = 1

_TIME_FREQ_BASE = 10000.0


@dataclass(frozen=True)
class ScoreNetConfig:
    """Shapes and activation of the noise-prediction network.

    input_len : window length L.
    width : hidden width of the residual trunk.
    blocks : number of residual blocks.
    time_dim : sinusoidal time-embedding dimension (even).
    embed_dim : industry embedding dimension E; the condition vector has
        length E + n_boards.
    cond_hidden : hidden width of the condition MLP.
    activation : "silu" (default; smooth, so gradient checks are exact to
        finite-difference accuracy) or "relu".
    """

    input_len: int
    width: int = 64
    blocks: int = 4
    time_dim: int = 32
    embed_dim: int = 16
    cond_hidden: int = 128
    n_industries: int = 124
    n_boards: int = 5
    activation: str = "silu"

    def __post_init__(self) -> None:
        for name in ("input_len", "width", "blocks", "time_dim", "embed_dim",
                     "cond_hidden", "n_industries", "n_boards"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ParameterError(f"{name} must be a positive integer, got {v!r}")
        if self.time_dim % 2 != 0:
            raise ParameterError(f"time_dim must be even, got {self.time_dim}")
        if self.activation not in ("silu", "relu"):
            raise ParameterError(f"unknown activation {self.activation!r}")

    @property
    def cond_dim(self) -> int:
        return self.embed_dim + self.n_boards


@dataclass(frozen=True)
class ConditionVector:
    """An encoded (industry, board) condition; ids None on the NULL condition.

    ``encoded`` belongs to the parameters that made it (see
    ``encode_condition``) and is what ``predict_eps`` feeds the trunk.
    """

    industry_id: int | None
    board_id: int | None
    encoded: np.ndarray

    @property
    def is_null(self) -> bool:
        return self.industry_id is None


def _param_layout(cfg: ScoreNetConfig) -> list[tuple[str, tuple[int, ...]]]:
    layout: list[tuple[str, tuple[int, ...]]] = [
        ("embed", (cfg.n_industries, cfg.embed_dim)),
        ("cond_w1", (cfg.cond_hidden, cfg.embed_dim)),
        ("cond_b1", (cfg.cond_hidden,)),
        ("cond_w2", (cfg.cond_hidden, cfg.cond_hidden)),
        ("cond_b2", (cfg.cond_hidden,)),
        ("cond_w3", (cfg.embed_dim, cfg.cond_hidden)),
        ("cond_b3", (cfg.embed_dim,)),
        ("in_w", (cfg.width, cfg.input_len)),
        ("in_b", (cfg.width,)),
    ]
    for i in range(cfg.blocks):
        layout += [
            (f"blk{i}_time_w", (cfg.width, cfg.time_dim)),
            (f"blk{i}_cond_w", (cfg.width, cfg.cond_dim)),
            (f"blk{i}_w1", (cfg.width, cfg.width)),
            (f"blk{i}_b1", (cfg.width,)),
            (f"blk{i}_w2", (cfg.width, cfg.width)),
            (f"blk{i}_b2", (cfg.width,)),
        ]
    layout += [
        ("out_w", (cfg.input_len, cfg.width)),
        ("out_b", (cfg.input_len,)),
    ]
    return layout


@dataclass
class ScoreNetworkParams:
    """Flat float64 parameter vector plus named views defined by the config."""

    config: ScoreNetConfig
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        offsets: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        pos = 0
        for name, shape in _param_layout(self.config):
            size = math.prod(shape)
            offsets[name] = (pos, pos + size, shape)
            pos += size
        if values.ndim != 1 or values.shape[0] != pos:
            raise ParameterError(
                f"parameter vector has {values.shape} entries, layout needs {pos}"
            )
        self.values = values
        self._offsets = offsets

    @property
    def n_params(self) -> int:
        return int(self.values.shape[0])

    def view(self, name: str) -> np.ndarray:
        """Named slice of the flat vector, reshaped; shares memory."""
        try:
            lo, hi, shape = self._offsets[name]
        except KeyError:
            raise ParameterError(f"unknown parameter name {name!r}") from None
        return self.values[lo:hi].reshape(shape)

    def names(self) -> list[str]:
        return list(self._offsets)

    def with_values(self, values: np.ndarray) -> "ScoreNetworkParams":
        return ScoreNetworkParams(config=self.config, values=values)


def init_params(cfg: ScoreNetConfig, rng: np.random.Generator) -> ScoreNetworkParams:
    """Random initialization: 1/sqrt(fan_in) weights, zero biases.

    The second matrix of every residual block and the output head start at
    zero, so a fresh network is the identity-to-zero map and early training
    cannot blow up the residual trunk.  Draw order follows the parameter
    layout, making initialization a pure function of the rng state.
    """
    chunks: list[np.ndarray] = []
    for name, shape in _param_layout(cfg):
        size = math.prod(shape)
        if name == "embed":
            chunks.append(0.1 * rng.standard_normal(size))
        elif len(shape) == 1 or name == "out_w" or name.startswith("blk") and name.endswith("_w2"):
            chunks.append(np.zeros(size))
        else:
            fan_in = shape[-1]
            chunks.append(rng.standard_normal(size) / math.sqrt(fan_in))
    return ScoreNetworkParams(config=cfg, values=np.concatenate(chunks))


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "silu":
        sig = 0.5 * (1.0 + np.tanh(0.5 * z))
        return z * sig
    return np.maximum(z, 0.0)


def _act_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "silu":
        sig = 0.5 * (1.0 + np.tanh(0.5 * z))
        return sig * (1.0 + z * (1.0 - sig))
    return (z > 0.0).astype(np.float64)


def time_embedding(t: int | np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal embedding of the step index.

    Frequencies fall geometrically from 1 to 1/10000, interleaved as
    [sin(t f_0), cos(t f_0), sin(t f_1), cos(t f_1), ...].  At t = 0 every
    sine entry is 0 and every cosine entry is 1.  Accepts a scalar (returns
    shape (dim,)) or a vector of steps (returns (len(t), dim)).
    """
    if dim < 2 or dim % 2 != 0:
        raise ParameterError(f"embedding dim must be even and >= 2, got {dim}")
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if t_arr.ndim != 1:
        raise ParameterError("t must be a scalar or 1-D array")
    half = dim // 2
    freqs = _TIME_FREQ_BASE ** (-np.arange(half, dtype=np.float64) / half)
    ang = t_arr[:, None] * freqs[None, :]
    out = np.empty((t_arr.shape[0], dim), dtype=np.float64)
    out[:, 0::2] = np.sin(ang)
    out[:, 1::2] = np.cos(ang)
    return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def encode_condition(
    industry_id: int | None, board_id: int | None, params: ScoreNetworkParams
) -> ConditionVector:
    """Encode an (industry, board) pair, or the NULL condition if both are None.

    The encoding concatenates the MLP-refined industry embedding with a board
    one-hot.  NULL encodes as the all-zero vector; a partially-None pair is
    rejected because the network was never trained on one.  The encoding
    belongs to ``params``: it is what ``predict_eps`` feeds the trunk, so it
    must be used with the parameters that made it.
    """
    if (industry_id is None) != (board_id is None):
        raise ParameterError("a condition needs an industry and a board: give both "
                             "(--industry with --board) or neither")
    ids = None if industry_id is None else (industry_id, board_id)
    cenc, _ = _encode_batch(params, *_condition_arrays([ids], params.config))
    return ConditionVector(industry_id, board_id, cenc[0])


def _encode_batch(
    params: ScoreNetworkParams, iid: np.ndarray, bid: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Condition encodings of a batch and the MLP activations behind them.

    iid/bid use -1 for the NULL condition, which encodes as the zero vector.
    The MLP runs on the conditioned rows only (zero rows if all are NULL);
    its activations come back as (rows, mask, e, a1, h1, a2, h2).
    """
    cfg = params.config
    kind = cfg.activation
    mask = iid >= 0
    rows = iid[mask]
    e = params.view("embed")[rows]
    a1 = e @ params.view("cond_w1").T + params.view("cond_b1")
    h1 = _act(a1, kind)
    a2 = h1 @ params.view("cond_w2").T + params.view("cond_b2")
    h2 = _act(a2, kind)
    cenc = np.zeros((iid.shape[0], cfg.cond_dim), dtype=np.float64)
    cenc[mask, : cfg.embed_dim] = h2 @ params.view("cond_w3").T + params.view("cond_b3")
    cenc[mask, cfg.embed_dim + bid[mask]] = 1.0
    return cenc, (rows, mask, e, a1, h1, a2, h2)


def _forward(
    params: ScoreNetworkParams, x: np.ndarray, t: np.ndarray, cenc: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Batched forward pass; x (..., L), t (...), cenc (..., cond_dim) encodings,
    with leading axes (B,) or (n_tiles, _TILE).

    Returns the output and the activations ``_backward`` reads:
    (x, temb, cenc, [(z, a1, v) per block], h) with h the last trunk state.
    """
    cfg = params.config
    kind = cfg.activation
    temb = time_embedding(t.ravel(), cfg.time_dim).reshape(t.shape + (cfg.time_dim,))
    h = x @ params.view("in_w").T + params.view("in_b")
    blocks = []
    for i in range(cfg.blocks):
        z = h + temb @ params.view(f"blk{i}_time_w").T + cenc @ params.view(f"blk{i}_cond_w").T
        a1 = z @ params.view(f"blk{i}_w1").T + params.view(f"blk{i}_b1")
        v = _act(a1, kind)
        h = h + v @ params.view(f"blk{i}_w2").T + params.view(f"blk{i}_b2")
        blocks.append((z, a1, v))
    out = h @ params.view("out_w").T + params.view("out_b")
    return out, (x, temb, cenc, blocks, h)


def _dense_grad(g, w: str, b: str | None, d: np.ndarray, a: np.ndarray) -> None:
    """Add a dense layer's gradients, given its input rows ``a`` and output cotangent ``d``.

    ``d.T @ a`` is summed as 256-row products in row order, because OpenBLAS
    rounds a longer reduction differently under one and two threads.
    ``b`` is None for a layer without a bias.
    """
    for lo in range(0, len(d), 256):
        g(w)[...] += d[lo : lo + 256].T @ a[lo : lo + 256]
    if b is not None:
        g(b)[...] += d.sum(axis=0)


def _backward(
    params: ScoreNetworkParams, acts: tuple, mlp: tuple, dout: np.ndarray
) -> np.ndarray:
    """Reverse-mode gradient of <dout, output> with respect to the flat vector.

    ``acts`` comes from ``_forward`` and ``mlp`` from the ``_encode_batch``
    that made its encodings.
    """
    cfg = params.config
    kind = cfg.activation
    grad = np.zeros_like(params.values)
    g = params.with_values(grad).view  # views write into grad
    x, temb, cenc, blocks, h = acts

    _dense_grad(g, "out_w", "out_b", dout, h)
    dh = dout @ params.view("out_w")
    dcenc = np.zeros_like(cenc)
    for i in reversed(range(cfg.blocks)):
        z, a1, v = blocks[i]
        _dense_grad(g, f"blk{i}_w2", f"blk{i}_b2", dh, v)
        dv = dh @ params.view(f"blk{i}_w2")
        da1 = dv * _act_grad(a1, kind)
        _dense_grad(g, f"blk{i}_w1", f"blk{i}_b1", da1, z)
        dz = da1 @ params.view(f"blk{i}_w1")
        _dense_grad(g, f"blk{i}_time_w", None, dz, temb)
        _dense_grad(g, f"blk{i}_cond_w", None, dz, cenc)
        dcenc += dz @ params.view(f"blk{i}_cond_w")
        dh = dh + dz
    _dense_grad(g, "in_w", "in_b", dh, x)

    rows, mask, e, a1, h1, a2, h2 = mlp
    dh3 = dcenc[mask, : cfg.embed_dim]
    _dense_grad(g, "cond_w3", "cond_b3", dh3, h2)
    da2 = (dh3 @ params.view("cond_w3")) * _act_grad(a2, kind)
    _dense_grad(g, "cond_w2", "cond_b2", da2, h1)
    da1 = (da2 @ params.view("cond_w2")) * _act_grad(a1, kind)
    _dense_grad(g, "cond_w1", "cond_b1", da1, e)
    de = da1 @ params.view("cond_w1")
    np.add.at(g("embed"), rows, de)
    return grad


def _rows(params: ScoreNetworkParams, t: int, *windows: np.ndarray) -> list[np.ndarray]:
    """Each (L,) window or (B, L) batch as (B, L) floats, after checking its shape and t."""
    L = params.config.input_len
    rows = [np.asarray(w, dtype=np.float64) for w in windows]
    for r in rows:
        if r.ndim not in (1, 2) or r.shape[-1] != L:
            raise ParameterError(f"window shape {r.shape} does not match input_len {L}")
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    return [r.reshape(-1, L) for r in rows]


# OpenBLAS rounds a row of a matrix product differently as the row count
# changes, but rounds a row of an 8-row product the same in any slot and
# beside any neighbours; so inference runs each row in a zero-padded 8-row tile.
_TILE = 8


def _tiles(a: np.ndarray) -> np.ndarray:
    """The rows of ``a`` zero-padded to whole tiles, as (n_tiles, _TILE, ...)."""
    padded = np.pad(a, [(0, -len(a) % _TILE)] + [(0, 0)] * (a.ndim - 1))
    return padded.reshape((len(padded) // _TILE, _TILE) + a.shape[1:])


def predict_eps(
    params: ScoreNetworkParams,
    x_t: np.ndarray,
    t: int,
    cond: ConditionVector | None | Sequence[ConditionVector | None] = None,
) -> np.ndarray:
    """Predicted noise for corrupted windows at step t (None = NULL condition).

    ``x_t`` is one (L,) window with one condition, or a (B, L) batch with a
    sequence of B conditions; row i does not depend on the other rows.  The
    trunk reads each ``cond.encoded`` as given.  The implied score is
    -predict_eps(...) / sqrt(1 - alpha_bar_t).
    """
    single = np.ndim(x_t) == 1
    (x,) = _rows(params, t, x_t)
    conds = [cond] if single else cond
    if not isinstance(conds, Sequence) or len(conds) != len(x):
        raise ParameterError(f"{len(x)} windows need a sequence of {len(x)} conditions")
    cond_dim = params.config.cond_dim
    enc = [np.zeros(cond_dim) if c is None else c.encoded for c in conds]
    if any(e.shape != (cond_dim,) for e in enc):
        raise ParameterError(f"a condition encoding is not of shape ({cond_dim},)")
    cenc = np.array(enc).reshape(len(x), cond_dim)
    tiled = _forward(params, _tiles(x), _tiles(np.full(len(x), t)), _tiles(cenc))[0]
    out = tiled.reshape(-1, x.shape[1])[: len(x)]
    check_finite_rows(out, f"network output at t={t}")
    return out[0] if single else out


def predict_eps_vjp(
    params: ScoreNetworkParams,
    x_t: np.ndarray,
    t: int,
    cond: ConditionVector | None,
    cotangent: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Prediction plus gradient of <cotangent, prediction> w.r.t. the flat vector.

    This is the building block the finite-difference tests drive directly.
    The condition is encoded again from its ids, since the gradient reaches
    the condition MLP.  The window runs in a NULL-padded tile, as in ``predict_eps``.
    """
    if np.ndim(x_t) != 1:
        raise ParameterError(f"predict_eps_vjp takes one window, got shape {np.shape(x_t)}")
    x, cot = (_tiles(r)[0] for r in _rows(params, t, x_t, cotangent))
    ids = None if cond is None or cond.is_null else (cond.industry_id, cond.board_id)
    pad = [None] * (_TILE - 1)
    cenc, mlp = _encode_batch(params, *_condition_arrays([ids] + pad, params.config))
    out, acts = _forward(params, x, _tiles(np.array([t]))[0], cenc)
    return out[0], _backward(params, acts, mlp, cot)


def condition_dropout(
    iid: np.ndarray, bid: np.ndarray, p_uncond: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Replace each condition by NULL (-1) independently with probability p_uncond.

    One uniform is drawn per batch element in order, so the rng stream
    consumed here is a pure function of the batch size.
    """
    if not 0.0 <= p_uncond < 1.0:
        raise ParameterError(f"p_uncond must lie in [0, 1), got {p_uncond}")
    u = rng.random(iid.shape[0])
    drop = u < p_uncond
    iid = np.where(drop, -1, iid)
    bid = np.where(drop, -1, bid)
    return iid, bid


def dsm_residual_loss(
    pred_eps: np.ndarray, true_eps: np.ndarray, weights: np.ndarray
) -> float:
    """Weighted squared-residual loss, mean over the batch of w * ||pred - true||^2.

    Zero exactly when the prediction equals the drawn noise.
    """
    pred_eps = np.asarray(pred_eps, dtype=np.float64)
    true_eps = np.asarray(true_eps, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if pred_eps.shape != true_eps.shape or weights.shape[0] != pred_eps.shape[0]:
        raise ParameterError("batch shapes disagree")
    r = pred_eps - true_eps
    per_sample = (r * r).sum(axis=-1)
    return float(np.mean(weights * per_sample))


def _condition_arrays(
    conditions: Sequence[tuple[int, int] | None], cfg: ScoreNetConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Checked industry and board id arrays, -1 for NULL; the only id validator."""
    iid = np.empty(len(conditions), dtype=np.int64)
    bid = np.empty(len(conditions), dtype=np.int64)
    for n, c in enumerate(conditions):
        if c is None:
            iid[n], bid[n] = -1, -1
            continue
        industry, board = c
        if not 0 <= industry < cfg.n_industries:
            raise ParameterError(
                f"industry_id {industry} outside [0, {cfg.n_industries}) at position {n}"
            )
        if not 0 <= board < cfg.n_boards:
            raise ParameterError(
                f"board_id {board} outside [0, {cfg.n_boards}) at position {n}"
            )
        iid[n], bid[n] = industry, board
    return iid, bid


def dsm_loss(
    params: ScoreNetworkParams,
    windows: np.ndarray,
    conditions: Sequence[tuple[int, int] | None],
    schedule: NoiseSchedule,
    rng: np.random.Generator,
    weighting: str = "elbo",
    p_uncond: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Denoising score-matching loss and its parameter gradient on one batch.

    Per element: draw t uniform on [1, T], corrupt the clean window with fresh
    noise, and penalize w_t * ||predicted noise - drawn noise||^2, averaged
    over the batch.  ``weighting`` "elbo" uses w_t = 1 - alpha_bar_t, "unit"
    uses 1.  Conditions are dropped to NULL with probability ``p_uncond``.
    The rng stream is consumed in a fixed order (steps, noise, dropout), so
    the loss is a deterministic function of (params, batch, rng state); the
    finite-difference tests rely on that.
    """
    if weighting not in ("elbo", "unit"):
        raise ParameterError(f"unknown weighting {weighting!r}")
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2:
        raise ParameterError("windows must be a (batch, length) array")
    B, L = windows.shape
    if L != params.config.input_len:
        raise ParameterError(
            f"window length {L} does not match input_len {params.config.input_len}"
        )
    if len(conditions) != B:
        raise ParameterError("conditions must match the batch size")
    iid, bid = _condition_arrays(conditions, params.config)

    t = rng.integers(1, schedule.T + 1, size=B)
    eps = rng.standard_normal((B, L))
    iid, bid = condition_dropout(iid, bid, p_uncond, rng)

    ab = schedule.alpha_bar[t - 1]
    x_t = np.sqrt(ab)[:, None] * windows + np.sqrt(1.0 - ab)[:, None] * eps
    cenc, mlp = _encode_batch(params, iid, bid)
    pred, acts = _forward(params, x_t, t, cenc)
    w = (1.0 - ab) if weighting == "elbo" else np.ones(B)
    loss = dsm_residual_loss(pred, eps, w)
    dout = (2.0 / B) * w[:, None] * (pred - eps)
    grad = _backward(params, acts, mlp, dout)
    return loss, grad


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings for the denoising trainer."""

    epochs: int
    batch_size: int = 64
    learning_rate: float = 1e-3
    p_uncond: float = 0.1
    weighting: str = "elbo"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (self.learning_rate > 0.0 and math.isfinite(self.learning_rate)):
            raise ParameterError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.p_uncond < 1.0:
            raise ParameterError(f"p_uncond must lie in [0, 1), got {self.p_uncond}")
        if self.weighting not in ("elbo", "unit"):
            raise ParameterError(f"unknown weighting {self.weighting!r}")


@dataclass(frozen=True)
class TrainResult:
    params: ScoreNetworkParams
    epoch_losses: list[float]


def train(
    windows: np.ndarray,
    conditions: Sequence[tuple[int, int] | None],
    schedule: NoiseSchedule,
    config: TrainConfig,
    net_config: ScoreNetConfig | None = None,
) -> TrainResult:
    """Fit the network by minibatch Adam on the denoising loss.

    Deterministic for a given config: one generator seeded with
    ``config.seed`` drives initialization, epoch shuffles, and every batch
    draw in a fixed order.  Zero epochs returns the untouched random
    initialization.  Divergence (non-finite loss) raises NumericError.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2 or windows.shape[0] < 1:
        raise ParameterError("windows must be a non-empty (n, length) array")
    N, L = windows.shape
    if len(conditions) != N:
        raise ParameterError("conditions must match the number of windows")
    if net_config is None:
        net_config = ScoreNetConfig(input_len=L)
    elif net_config.input_len != L:
        raise ParameterError(
            f"net input_len {net_config.input_len} does not match window length {L}"
        )

    rng = np.random.default_rng(config.seed)
    params = init_params(net_config, rng)
    values = params.values.copy()

    # Hand-rolled Adam; the parameter set is one flat vector so the state is too.
    m = np.zeros_like(values)
    v = np.zeros_like(values)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    step = 0

    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(N)
        seen = 0
        weighted = 0.0
        for start in range(0, N, config.batch_size):
            batch_idx = perm[start : start + config.batch_size]
            batch_conditions = [conditions[i] for i in batch_idx]
            loss, grad = dsm_loss(
                params.with_values(values),
                windows[batch_idx],
                batch_conditions,
                schedule,
                rng,
                weighting=config.weighting,
                p_uncond=config.p_uncond,
            )
            if not (math.isfinite(loss) and np.all(np.isfinite(grad))):
                raise NumericError(
                    f"training diverged at epoch {epoch}, batch {start // config.batch_size}"
                )
            step += 1
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad * grad
            m_hat = m / (1.0 - beta1**step)
            v_hat = v / (1.0 - beta2**step)
            values = values - config.learning_rate * m_hat / (np.sqrt(v_hat) + adam_eps)
            weighted += loss * batch_idx.shape[0]
            seen += batch_idx.shape[0]
        epoch_loss = weighted / seen
        epoch_losses.append(epoch_loss)
        logger.info("epoch %d/%d dsm loss %.6f", epoch + 1, config.epochs, epoch_loss)
    return TrainResult(params=params.with_values(values), epoch_losses=epoch_losses)


def save_checkpoint(
    params: ScoreNetworkParams, path: str | Path, meta: dict | None = None
) -> None:
    """Write the parameter vector as versioned JSON with per-array shape headers.

    The file is replaced whole: a failed write leaves the old file intact.
    """
    arrays = {}
    for name in params.names():
        arr = params.view(name)
        arrays[name] = {"shape": list(arr.shape), "data": arr.ravel().tolist()}
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": "scorenet",
        "config": asdict(params.config),
        "arrays": arrays,
        "meta": meta or {},
    }
    with _replacing(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def _read_checkpoint(path: str | Path) -> dict:
    payload = _read_json(path, "checkpoint")
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"checkpoint {path} has format_version {version!r}, "
            f"expected {CHECKPOINT_FORMAT_VERSION}"
        )
    return payload


def load_checkpoint(path: str | Path) -> ScoreNetworkParams:
    """Rebuild parameters from ``save_checkpoint`` output, verifying every array.

    An unreadable file, a malformed config, or an array off the layout or not
    holding its shape's count of finite numbers is a DataError.
    """
    payload = _read_checkpoint(path)
    try:
        cfg = ScoreNetConfig(**payload["config"])
    except (KeyError, TypeError, ParameterError) as exc:
        raise DataError(f"checkpoint {path} has a malformed config: {exc}") from exc
    arrays = payload.get("arrays")
    arrays = arrays if isinstance(arrays, dict) else {}  # anything else holds no array
    layout = _param_layout(cfg)
    expected = {name for name, _ in layout}
    if set(arrays) != expected:
        missing = sorted(expected - set(arrays))
        extra = sorted(set(arrays) - expected)
        # name a few of each, so a foreign file cannot flood the message
        raise DataError(
            f"checkpoint {path} arrays do not match the layout: "
            f"{len(missing)} missing (first {missing[:5]}), "
            f"{len(extra)} unexpected (first {extra[:5]})"
        )
    chunks = []
    for name, shape in layout:
        try:
            data = np.array(arrays[name]["data"], dtype=np.float64)
            ok = arrays[name]["shape"] == list(shape) and data.shape == (math.prod(shape),)
        except (KeyError, TypeError, ValueError, OverflowError):
            ok = False
        if not (ok and np.all(np.isfinite(data))):
            raise DataError(f"checkpoint {path} array {name!r} is not {list(shape)} finite numbers")
        chunks.append(data)
    return ScoreNetworkParams(config=cfg, values=np.concatenate(chunks))


def read_checkpoint_meta(path: str | Path) -> dict:
    """The free-form metadata object stored alongside the arrays."""
    meta = _read_checkpoint(path).get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path} metadata is not a JSON object")
    return meta
