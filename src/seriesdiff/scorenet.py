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
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataio import _read_json, _replacing
from .errors import (DataError, NumericError, ParameterError, _shown, check_array,
                     check_finite_rows, check_int, check_real)
from .schedules import NoiseSchedule

__all__ = [
    "ScoreNetConfig",
    "ScoreNetworkParams",
    "TrainConfig",
    "TrainResult",
    "time_embedding",
    "init_params",
    "predict_eps",
    "predict_eps_vjp",
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
    embed_dim : industry embedding dimension E; the condition encoding has
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
                     "cond_hidden", "n_industries", "n_boards"):  # ints, since asdict saves them
            object.__setattr__(self, name, check_int(getattr(self, name), name, 1))
        if self.time_dim % 2 != 0:
            raise ParameterError(f"time_dim must be even, got {self.time_dim}")
        if self.activation not in ("silu", "relu"):
            raise ParameterError(f"unknown activation {self.activation!r}")

    @property
    def cond_dim(self) -> int:
        return self.embed_dim + self.n_boards


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
        layout = _param_layout(self.config)
        ends = list(accumulate(math.prod(shape) for _, shape in layout))
        self.values = values = check_array(self.values, "values", ndim=(1,), last=ends[-1])
        self._views = {name: values[lo:hi].reshape(shape)  # cut once, sharing values' memory
                       for (name, shape), lo, hi in zip(layout, [0, *ends], ends)}

    @property
    def n_params(self) -> int:
        return int(self.values.shape[0])

    def view(self, name: str) -> np.ndarray:
        """Named slice of the flat vector, reshaped; shares memory."""
        try:
            return self._views[name]
        except KeyError:
            raise ParameterError(f"unknown parameter name {name!r}") from None

    def names(self) -> list[str]:
        return list(self._views)

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


def _act(z: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray | None]:
    if kind == "silu":
        sig = 0.5 * (1.0 + np.tanh(0.5 * z))
        return z * sig, sig
    return np.maximum(z, 0.0), None


def _act_grad(z: np.ndarray, sig: np.ndarray | None) -> np.ndarray:
    if sig is not None:
        return sig * (1.0 + z * (1.0 - sig))
    return (z > 0.0).astype(np.float64)


def time_embedding(t: int | np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal embedding of the step index.

    Frequencies fall geometrically from 1 to 1/10000, interleaved as
    [sin(t f_0), cos(t f_0), sin(t f_1), cos(t f_1), ...].  At t = 0 every
    sine entry is 0 and every cosine entry is 1.  Accepts a scalar (returns
    shape (dim,)) or a vector of steps (returns (len(t), dim)).
    """
    if check_int(dim, "dim", 2) % 2 != 0:
        raise ParameterError(f"embedding dim must be even, got {dim}")
    t = check_array(t, "t", ndim=(0, 1))
    half = dim // 2
    freqs = _TIME_FREQ_BASE ** (-np.arange(half, dtype=np.float64) / half)
    ang = np.atleast_1d(t)[:, None] * freqs[None, :]
    out = np.empty((ang.shape[0], dim), dtype=np.float64)
    out[:, 0::2] = np.sin(ang)
    out[:, 1::2] = np.cos(ang)
    return out[0] if t.ndim == 0 else out


def _encode_batch(
    params: ScoreNetworkParams, iid: np.ndarray, bid: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Condition encodings of a batch and the MLP activations behind them.

    iid/bid use -1 for the NULL condition, which encodes as the zero vector.
    The MLP runs on the conditioned rows only (zero rows if all are NULL);
    its activations come back as (rows, mask, e, a1, s1, h1, a2, s2, h2), s the sigmoids.
    """
    cfg = params.config
    kind = cfg.activation
    mask = iid >= 0
    rows = iid[mask]
    e = params.view("embed")[rows]
    a1 = e @ params.view("cond_w1").T + params.view("cond_b1")
    h1, s1 = _act(a1, kind)
    a2 = h1 @ params.view("cond_w2").T + params.view("cond_b2")
    h2, s2 = _act(a2, kind)
    cenc = np.zeros((iid.shape[0], cfg.cond_dim), dtype=np.float64)
    cenc[mask, : cfg.embed_dim] = h2 @ params.view("cond_w3").T + params.view("cond_b3")
    cenc[mask, cfg.embed_dim + bid[mask]] = 1.0
    return cenc, (rows, mask, e, a1, s1, h1, a2, s2, h2)


def _forward(
    params: ScoreNetworkParams, x: np.ndarray, t: int | np.ndarray, cterms: list, keep: bool = True
) -> tuple[np.ndarray, tuple]:
    """Batched forward pass; x (..., L) and ``_cond_terms`` cterms with leading axes
    (B,) or (n_tiles, _TILE), and t (B,) steps or one step, embedded on one tile for every tile.

    Returns the output and the activations ``_backward`` reads:
    (x, temb, [(z, a1, s, v) per block, or None without ``keep``], h), h the last trunk state.
    """
    temb = time_embedding(np.full(_TILE, t) if np.ndim(t) == 0 else t, params.config.time_dim)
    h = x @ params.view("in_w").T + params.view("in_b")
    blocks = []
    for i, cterm in enumerate(cterms):
        z = h + temb @ params.view(f"blk{i}_time_w").T + cterm
        a1 = z @ params.view(f"blk{i}_w1").T + params.view(f"blk{i}_b1")
        v, s = _act(a1, params.config.activation)
        h = h + v @ params.view(f"blk{i}_w2").T + params.view(f"blk{i}_b2")
        blocks.append((z, a1, s, v) if keep else None)
    out = h @ params.view("out_w").T + params.view("out_b")
    return out, (x, temb, blocks, h)


def _cond_terms(params: ScoreNetworkParams, cenc: np.ndarray) -> list[np.ndarray]:
    return [cenc @ params.view(f"blk{i}_cond_w").T for i in range(params.config.blocks)]


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
    params: ScoreNetworkParams, acts: tuple, cenc: np.ndarray, mlp: tuple, dout: np.ndarray
) -> np.ndarray:
    """Reverse-mode gradient of <dout, output> with respect to the flat vector.

    ``acts`` comes from ``_forward``, and ``cenc`` and ``mlp`` from the
    ``_encode_batch`` that made its condition terms.
    """
    cfg = params.config
    grad = np.zeros_like(params.values)
    g = params.with_values(grad).view  # views write into grad
    x, temb, blocks, h = acts

    _dense_grad(g, "out_w", "out_b", dout, h)
    dh = dout @ params.view("out_w")
    dcenc = np.zeros_like(cenc)
    for i in reversed(range(cfg.blocks)):
        z, a1, s, v = blocks[i]
        _dense_grad(g, f"blk{i}_w2", f"blk{i}_b2", dh, v)
        dv = dh @ params.view(f"blk{i}_w2")
        da1 = dv * _act_grad(a1, s)
        _dense_grad(g, f"blk{i}_w1", f"blk{i}_b1", da1, z)
        dz = da1 @ params.view(f"blk{i}_w1")
        _dense_grad(g, f"blk{i}_time_w", None, dz, temb)
        _dense_grad(g, f"blk{i}_cond_w", None, dz, cenc)
        dcenc += dz @ params.view(f"blk{i}_cond_w")
        dh = dh + dz
    _dense_grad(g, "in_w", "in_b", dh, x)

    rows, mask, e, a1, s1, h1, a2, s2, h2 = mlp
    dh3 = dcenc[mask, : cfg.embed_dim]
    _dense_grad(g, "cond_w3", "cond_b3", dh3, h2)
    da2 = (dh3 @ params.view("cond_w3")) * _act_grad(a2, s2)
    _dense_grad(g, "cond_w2", "cond_b2", da2, h1)
    da1 = (da2 @ params.view("cond_w2")) * _act_grad(a1, s1)
    _dense_grad(g, "cond_w1", "cond_b1", da1, e)
    de = da1 @ params.view("cond_w1")
    np.add.at(g("embed"), rows, de)
    return grad


# OpenBLAS rounds a row of a matrix product differently as the row count
# changes, but rounds a row of an 8-row product the same in any slot and
# beside any neighbours; so inference runs each row in a zero-padded 8-row tile.
_TILE = 8


def _tiles(a: np.ndarray) -> np.ndarray:
    """The rows of ``a`` and zero rows up to whole tiles, as (n_tiles, _TILE, ...)."""
    padded = np.concatenate([a, np.zeros((-len(a) % _TILE,) + a.shape[1:])])
    return padded.reshape((-1, _TILE) + a.shape[1:])


class _CheckedIds:
    """Conditions ``_condition_arrays`` has checked, as their (2, n) (industry, board) ids."""

    def __init__(self, ids: np.ndarray):
        self.ids = ids

    def __len__(self) -> int:
        return self.ids.shape[1]


class _Prepared(_CheckedIds):
    """Checked ids made ready for many ``predict_eps`` calls: each block's term on their tiles."""

    def __init__(self, params: ScoreNetworkParams, ids: np.ndarray):
        super().__init__(ids)
        iid, bid = ids
        cenc = np.zeros((len(self), params.config.cond_dim))  # NULL rows stay zero
        for n in np.flatnonzero(iid >= 0):  # one at a time: a many-row encoding rounds differently
            cenc[n] = _encode_batch(params, iid[n : n + 1], bid[n : n + 1])[0][0]
        self.terms = _cond_terms(params, _tiles(cenc))


def predict_eps(
    params: ScoreNetworkParams,
    x_t: np.ndarray,
    t: int,
    cond: tuple[int, int] | None | Sequence[tuple[int, int] | None] = None,
) -> np.ndarray:
    """Predicted noise for corrupted windows at step t (None = NULL condition).

    ``x_t`` is one (L,) window with one (industry_id, board_id) condition, or
    a (B, L) batch with B conditions or their ``_Prepared`` value; row i does
    not depend on the other rows.  The implied score is
    -predict_eps(...) / sqrt(1 - alpha_bar_t).
    """
    x = check_array(x_t, "x_t", ndim=(1, 2), last=params.config.input_len)
    check_int(t, "t", 1)
    single, x = x.ndim == 1, np.atleast_2d(x)
    prep = [cond] if single else cond
    ids = _condition_arrays(prep, params.config, len(x))
    prep = prep if isinstance(prep, _Prepared) else _Prepared(params, ids)
    out = _forward(params, _tiles(x), t, prep.terms, keep=False)[0].reshape(-1, x.shape[1])[: len(x)]
    check_finite_rows(out, f"network output at t={t}")
    return out[0] if single else out


def predict_eps_vjp(
    params: ScoreNetworkParams,
    x_t: np.ndarray,
    t: int,
    cond: tuple[int, int] | None,
    cotangent: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Prediction plus gradient of <cotangent, prediction> w.r.t. the flat vector.

    This is the building block the finite-difference tests drive directly; the
    gradient reaches the condition MLP.  The (L,) window and cotangent run in a
    NULL-padded tile as in ``predict_eps``.
    """
    x = check_array(x_t, "x_t", ndim=(1,), last=params.config.input_len)
    cot = check_array(cotangent, "cotangent", like=("x_t", x))
    check_int(t, "t", 1)
    x, cot = _tiles(x[None])[0], _tiles(cot[None])[0]
    conds = [cond] + [None] * (_TILE - 1)
    cenc, mlp = _encode_batch(params, *_condition_arrays(conds, params.config, _TILE))
    out, acts = _forward(params, x, t, _cond_terms(params, cenc))
    return out[0], _backward(params, acts, cenc, mlp, cot)


def _condition_arrays(
    conditions: Sequence[tuple[int, int] | None] | _CheckedIds, cfg: ScoreNetConfig, rows: int
) -> np.ndarray:
    """Checked (2, ``rows``) industry and board ids of ``rows`` conditions, -1 for NULL: the one
    owner of the count rule and of the id rule, which a ``_CheckedIds`` value has passed already."""
    try:
        n = len(conditions)
    except TypeError:
        n = "no sequence"
    if n != rows:
        raise ParameterError(f"{rows} windows need {rows} conditions, got {n}")
    if isinstance(conditions, _CheckedIds):
        return conditions.ids
    ids = np.full((2, rows), -1, dtype=np.int64)  # -1: the NULL condition
    for n, c in enumerate(conditions):
        if c is None:
            continue
        try:
            industry, board = c
        except (TypeError, ValueError):
            shown = _shown(c, repr)
            raise ParameterError(f"condition {shown} at position {n} is not a pair") from None
        ids[:, n] = (check_int(industry, "industry_id", 0, cfg.n_industries, f" at position {n}"),
                     check_int(board, "board_id", 0, cfg.n_boards, f" at position {n}"))
    return ids


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
    uses 1.  Each condition is dropped to NULL with probability ``p_uncond``,
    in [0, 1), by one uniform draw.  The rng stream is consumed in a fixed
    order (steps, noise, dropout), so the loss is a deterministic function of
    (params, batch, rng state); the finite-difference tests rely on that.
    """
    if weighting not in ("elbo", "unit"):
        raise ParameterError(f"unknown weighting {weighting!r}")
    p_uncond = check_real(p_uncond, "p_uncond", 0, 1)
    windows = check_array(windows, "windows", ndim=(2,), nonempty=True,
                          last=params.config.input_len, finite=True)
    B, L = windows.shape
    iid, bid = _condition_arrays(conditions, params.config, B)

    t = rng.integers(1, schedule.T + 1, size=B)
    eps = rng.standard_normal((B, L))
    drop = rng.random(B) < p_uncond
    iid, bid = np.where(drop, -1, iid), np.where(drop, -1, bid)

    ab = schedule.alpha_bar[t - 1]
    x_t = np.sqrt(ab)[:, None] * windows + np.sqrt(1.0 - ab)[:, None] * eps
    cenc, mlp = _encode_batch(params, iid, bid)
    pred, acts = _forward(params, x_t, t, _cond_terms(params, cenc))
    w = (1.0 - ab) if weighting == "elbo" else np.ones(B)
    r = pred - eps
    loss = float(np.mean(w * (r * r).sum(axis=-1)))
    dout = (2.0 / B) * w[:, None] * r
    return loss, _backward(params, acts, cenc, mlp, dout)


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
        check_int(self.epochs, "epochs", 0)
        check_int(self.batch_size, "batch_size", 1)
        check_int(self.seed, "seed", 0)
        check_real(self.learning_rate, "learning_rate", 0, open_low=True)
        check_real(self.p_uncond, "p_uncond", 0, 1)
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
    net_config: ScoreNetConfig,
) -> TrainResult:
    """Fit the network by minibatch Adam on the denoising loss.

    Deterministic for a given config: one generator seeded with
    ``config.seed`` drives initialization, epoch shuffles, and every batch
    draw in a fixed order.  Zero epochs returns the untouched random
    initialization.  Divergence (non-finite loss) raises NumericError.
    """
    windows = check_array(windows, "windows", ndim=(2,), nonempty=True, last=net_config.input_len,
                          finite=True)
    N = len(windows)
    ids = _condition_arrays(conditions, net_config, N)  # checked once, a bad id named by index

    rng = np.random.default_rng(config.seed)
    params = init_params(net_config, rng)

    # Hand-rolled Adam on the flat vector, in place: its two moments and two scratch vectors.
    m, v, num, den = np.zeros((4, params.n_params))
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    step = 0

    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        perm = rng.permutation(N)
        weighted = 0.0
        for start in range(0, N, config.batch_size):
            batch_idx = perm[start : start + config.batch_size]
            loss, grad = dsm_loss(params, windows[batch_idx], _CheckedIds(ids[:, batch_idx]),
                                  schedule, rng, weighting=config.weighting,
                                  p_uncond=config.p_uncond)
            if not (math.isfinite(loss) and np.all(np.isfinite(grad))):
                raise NumericError(
                    f"training diverged at epoch {epoch}, batch {start // config.batch_size}"
                )
            step += 1
            # in the textbook order, so the bytes match it: (lr (m / c1)) / (sqrt(v / c2) + eps)
            m *= beta1
            m += np.multiply(1.0 - beta1, grad, out=num)
            v *= beta2
            v += np.multiply(np.multiply(1.0 - beta2, grad, out=den), grad, out=den)
            np.multiply(config.learning_rate, np.divide(m, 1.0 - beta1**step, out=num), out=num)
            np.add(np.sqrt(np.divide(v, 1.0 - beta2**step, out=den), out=den), adam_eps, out=den)
            params.values -= np.divide(num, den, out=num)
            weighted += loss * batch_idx.shape[0]
        epoch_loss = weighted / N
        epoch_losses.append(epoch_loss)
        logger.info("epoch %d/%d dsm loss %.6f", epoch + 1, config.epochs, epoch_loss)
    return TrainResult(params=params, epoch_losses=epoch_losses)


def save_checkpoint(
    params: ScoreNetworkParams, path: str | Path, meta: dict | None = None
) -> None:
    """Write the parameter vector as versioned JSON with per-array shape headers.

    The file is replaced whole: a failed write leaves the old file intact.
    """
    arrays = {name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
              for name, arr in params._views.items()}
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
            data = check_array(arrays[name]["data"], name, finite=True, error=DataError)
            ok = arrays[name]["shape"] == list(shape) and data.shape == (math.prod(shape),)
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            raise DataError(f"checkpoint {path} array {name!r} is not {list(shape)} finite numbers")
        chunks.append(data)
    return ScoreNetworkParams(config=cfg, values=np.concatenate(chunks))


def read_checkpoint_meta(path: str | Path) -> dict:
    """The free-form metadata object stored alongside the arrays."""
    meta = _read_checkpoint(path).get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path} metadata is not a JSON object")
    return meta
