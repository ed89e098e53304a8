"""Network forward/backward, conditioning, the DSM objective, and training."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seriesdiff import (
    DataError,
    NumericError,
    ParameterError,
    ScoreNetConfig,
    TrainConfig,
    dsm_loss,
    encode_condition,
    init_params,
    load_checkpoint,
    make_linear_schedule,
    predict_eps,
    save_checkpoint,
    time_embedding,
    train,
)
from seriesdiff.scorenet import (
    _Prepared,
    condition_dropout,
    dsm_residual_loss,
    predict_eps_vjp,
    read_checkpoint_meta,
)

TINY = ScoreNetConfig(
    input_len=2, width=4, blocks=1, time_dim=2, embed_dim=2,
    cond_hidden=3, n_industries=3,
)


def test_time_embedding_structure():
    emb = time_embedding(0, 6)
    # interleaved sin/cos of t=0: sin terms 0, cos terms 1
    assert np.allclose(emb[0::2], 0.0, atol=0)
    assert np.allclose(emb[1::2], 1.0, atol=0)
    emb7 = time_embedding(7, 6)
    assert emb7.shape == (6,)
    assert emb7[0] == pytest.approx(np.sin(7.0), abs=1e-15)
    assert emb7[1] == pytest.approx(np.cos(7.0), abs=1e-15)
    batch = time_embedding(np.array([0, 7]), 6)
    assert batch.shape == (2, 6)
    assert np.array_equal(batch[0], emb)
    assert np.array_equal(batch[1], emb7)
    with pytest.raises(ParameterError):
        time_embedding(1, 5)  # dim must be even


def test_init_is_deterministic_and_zero_output():
    p1 = init_params(TINY, np.random.default_rng(0))
    p2 = init_params(TINY, np.random.default_rng(0))
    assert np.array_equal(p1.values, p2.values)
    # residual second matrices and the head start at zero: output is zero
    x = np.array([0.3, -1.1])
    assert np.array_equal(predict_eps(p1, x, 3), np.zeros(2))
    cond = encode_condition(1, 2, p1)
    assert np.array_equal(predict_eps(p1, x, 3, cond), np.zeros(2))


def test_param_layout_contiguous_named_views():
    params = init_params(TINY, np.random.default_rng(1))
    total = sum(int(np.prod(params.view(n).shape)) for n in params.names())
    assert total == params.n_params == params.values.size
    # a view writes through to the flat vector slice it was cut from
    name = params.names()[0]
    view = params.view(name)
    assert view.base is params.values or view.base is not None
    with pytest.raises(ParameterError):
        params.view("nonexistent")
    with pytest.raises(ParameterError):
        params.with_values(np.zeros(params.n_params + 1))


def test_encode_condition_contract():
    params = init_params(TINY, np.random.default_rng(2))
    cond = encode_condition(2, 4, params)
    assert not cond.is_null
    assert cond.encoded.shape == (TINY.cond_dim,)
    again = encode_condition(2, 4, params)
    assert np.array_equal(cond.encoded, again.encoded)
    null = encode_condition(None, None, params)
    assert null.is_null
    assert np.array_equal(null.encoded, np.zeros(TINY.cond_dim))
    with pytest.raises(ParameterError):
        encode_condition(1, None, params)
    with pytest.raises(ParameterError):
        encode_condition(None, 1, params)
    with pytest.raises(ParameterError):
        encode_condition(3, 0, params)  # industry out of range (n_industries=3)
    with pytest.raises(ParameterError):
        encode_condition(0, 5, params)  # board out of range


@pytest.mark.parametrize("ids", [(1.9, 0), (1, 0.0), (True, 0), (0, np.True_), ("1", 0)])
def test_condition_ids_must_be_integers(ids):
    params = init_params(TINY, np.random.default_rng(2))
    with pytest.raises(ParameterError, match="is not an integer at position 0"):
        encode_condition(*ids, params)
    sch = make_linear_schedule(5, 1e-3, 0.2)
    with pytest.raises(ParameterError, match="is not an integer at position 1"):
        dsm_loss(params, np.zeros((2, 2)), [None, ids], sch, np.random.default_rng(0))
    with pytest.raises(ParameterError, match="is not an integer at position"):
        train(np.zeros((2, 2)), [(0, 0), ids], sch, TrainConfig(epochs=1), TINY)
    # numpy integers are ids too
    assert encode_condition(np.int64(1), np.int32(0), params).industry_id == 1


def test_train_names_a_bad_condition_by_its_index_before_the_first_batch():
    # with batch size 4 the bad id sits in some shuffled batch; the message names its index
    conditions = [(0, 0)] * 9 + [(1.5, 0)]
    sch = make_linear_schedule(5, 1e-3, 0.2)
    with pytest.raises(ParameterError, match=r"^industry_id 1\.5 is not an integer at position 9$"):
        train(np.zeros((10, 2)), conditions, sch, TrainConfig(epochs=1, batch_size=4), TINY)


@pytest.mark.parametrize("condition", [5, (1,), (1, 0, 2), "a"])
def test_a_condition_that_is_not_a_pair_is_named_by_its_position(condition):
    params = init_params(TINY, np.random.default_rng(2))
    sch = make_linear_schedule(5, 1e-3, 0.2)
    with pytest.raises(ParameterError, match=r"^condition .* at position 1 is not a pair$"):
        dsm_loss(params, np.zeros((2, 2)), [None, condition], sch, np.random.default_rng(0))


def test_distinct_conditions_distinct_predictions():
    cfg = ScoreNetConfig(
        input_len=4, width=8, blocks=2, time_dim=4, embed_dim=4,
        cond_hidden=6, n_industries=5,
    )
    rng = np.random.default_rng(3)
    params = init_params(cfg, rng)
    # nudge the trunk off the zero function so conditioning can show through
    params = params.with_values(params.values + 0.05 * rng.standard_normal(params.n_params))
    x = rng.standard_normal(4)
    a = predict_eps(params, x, 2, encode_condition(0, 0, params))
    b = predict_eps(params, x, 2, encode_condition(4, 1, params))
    c = predict_eps(params, x, 2, None)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dsm_gradient_matches_finite_differences():
    for activation in ("silu", "relu"):
        sch = make_linear_schedule(7, 1e-3, 0.3)
        rng = np.random.default_rng(4)
        params = init_params(replace(TINY, activation=activation), rng)
        params = params.with_values(params.values + 0.1 * rng.standard_normal(params.n_params))
        windows = rng.standard_normal((5, 2))
        conds = [(0, 0), None, (2, 3), (1, 1), None]

        seed = 99
        _, grad = dsm_loss(params, windows, conds, sch, np.random.default_rng(seed),
                           weighting="elbo", p_uncond=0.4)

        def f(v: np.ndarray) -> float:
            # identical rng stream per evaluation: same t, noise, dropout draws
            loss, _ = dsm_loss(params.with_values(v), windows, conds, sch,
                               np.random.default_rng(seed), weighting="elbo", p_uncond=0.4)
            return loss

        h = 1e-6
        base = params.values
        fd = np.empty_like(grad)
        for i in range(base.size):
            up, dn = base.copy(), base.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (f(up) - f(dn)) / (2.0 * h)
        denom = max(1.0, float(np.max(np.abs(fd))))
        assert float(np.max(np.abs(grad - fd))) / denom < 1e-6, activation


def test_vjp_matches_finite_differences():
    rng = np.random.default_rng(5)
    params = init_params(TINY, rng)
    params = params.with_values(params.values + 0.1 * rng.standard_normal(params.n_params))
    x = rng.standard_normal(2)
    cot = rng.standard_normal(2)
    for ids in [(1, 0), (None, None)]:
        cond = encode_condition(*ids, params)
        out, grad = predict_eps_vjp(params, x, 3, cond, cot)
        assert np.array_equal(out, predict_eps(params, x, 3, cond))

        def f(v: np.ndarray) -> float:
            p = params.with_values(v)
            return float(cot @ predict_eps(p, x, 3, encode_condition(*ids, p)))

        h = 1e-6
        base = params.values
        fd = np.empty_like(grad)
        for i in range(base.size):
            up, dn = base.copy(), base.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (f(up) - f(dn)) / (2.0 * h)
        denom = max(1.0, float(np.max(np.abs(fd))))
        assert float(np.max(np.abs(grad - fd))) / denom < 1e-6


def test_predict_eps_reads_the_given_encoding():
    rng = np.random.default_rng(16)
    params = init_params(TINY, rng)
    params = params.with_values(params.values + 0.1 * rng.standard_normal(params.n_params))
    x = rng.standard_normal(2)
    cond = encode_condition(1, 0, params)
    zeroed = replace(cond, encoded=np.zeros(TINY.cond_dim))
    assert np.array_equal(predict_eps(params, x, 3, zeroed), predict_eps(params, x, 3, None))
    assert not np.array_equal(predict_eps(params, x, 3, cond), predict_eps(params, x, 3, None))
    with pytest.raises(ParameterError):
        predict_eps(params, x, 3, replace(cond, encoded=np.zeros(TINY.cond_dim + 1)))


def test_dsm_loss_all_null_batch_leaves_condition_gradient_zero():
    sch = make_linear_schedule(7, 1e-3, 0.3)
    rng = np.random.default_rng(17)
    params = init_params(TINY, rng)
    params = params.with_values(params.values + 0.1 * rng.standard_normal(params.n_params))
    loss, grad = dsm_loss(params, rng.standard_normal((4, 2)), [None] * 4, sch, rng)
    assert np.isfinite(loss)
    grads = params.with_values(grad)
    cond_names = ["embed"] + [n for n in grads.names() if n.startswith("cond_")]
    for name in cond_names:
        assert np.all(grads.view(name) == 0.0), name
    assert np.any(grads.view("in_w") != 0.0)


def test_residual_loss_hand_value():
    pred = np.array([[1.0, 0.0], [0.0, 2.0]])
    true = np.zeros((2, 2))
    w = np.array([2.0, 1.0])
    # (2*1 + 1*4) / 2 batch elements
    assert dsm_residual_loss(pred, true, w) == pytest.approx(3.0, abs=1e-15)


def test_dsm_loss_is_reproducible_and_validated():
    sch = make_linear_schedule(5, 1e-3, 0.2)
    rng = np.random.default_rng(6)
    params = init_params(TINY, rng)
    windows = rng.standard_normal((4, 2))
    conds = [None] * 4
    l1, g1 = dsm_loss(params, windows, conds, sch, np.random.default_rng(1))
    l2, g2 = dsm_loss(params, windows, conds, sch, np.random.default_rng(1))
    assert l1 == l2
    assert np.array_equal(g1, g2)
    with pytest.raises(ParameterError):
        dsm_loss(params, windows, conds, sch, rng, weighting="huber")
    with pytest.raises(ParameterError):
        dsm_loss(params, windows, [None] * 3, sch, rng)
    with pytest.raises(ParameterError):
        dsm_loss(params, rng.standard_normal((4, 3)), conds, sch, rng)


def test_condition_dropout_endpoints():
    iid = np.array([0, 1, 2, 0])
    bid = np.array([1, 1, 0, 3])
    rng = np.random.default_rng(7)
    i0, b0 = condition_dropout(iid, bid, 0.0, rng)
    assert np.array_equal(i0, iid) and np.array_equal(b0, bid)
    i9, b9 = condition_dropout(iid, bid, 0.999, np.random.default_rng(8))
    assert np.all(i9 == -1) and np.all(b9 == -1)
    with pytest.raises(ParameterError):
        condition_dropout(iid, bid, 1.0, rng)
    with pytest.raises(ParameterError):
        condition_dropout(iid, bid, -0.1, rng)


def test_relu_activation_variant_runs():
    cfg = ScoreNetConfig(
        input_len=2, width=4, blocks=1, time_dim=2, embed_dim=2,
        cond_hidden=3, n_industries=3, activation="relu",
    )
    rng = np.random.default_rng(9)
    params = init_params(cfg, rng)
    params = params.with_values(params.values + 0.1 * rng.standard_normal(params.n_params))
    out = predict_eps(params, np.array([0.5, -0.5]), 1)
    assert np.all(np.isfinite(out))
    with pytest.raises(ParameterError):
        ScoreNetConfig(
            input_len=2, width=4, blocks=1, time_dim=2, embed_dim=2,
            cond_hidden=3, n_industries=3, activation="tanh",
        )


def test_config_validation():
    with pytest.raises(ParameterError):
        ScoreNetConfig(input_len=0, width=4, blocks=1, time_dim=2,
                       embed_dim=2, cond_hidden=3, n_industries=3)
    with pytest.raises(ParameterError):
        ScoreNetConfig(input_len=2, width=4, blocks=1, time_dim=3,
                       embed_dim=2, cond_hidden=3, n_industries=3)  # odd time_dim
    with pytest.raises(ParameterError):
        ScoreNetConfig(input_len=2, width=4, blocks=1, time_dim=2,
                       embed_dim=2, cond_hidden=3, n_industries=0)


def test_predict_eps_validation():
    params = init_params(TINY, np.random.default_rng(10))
    with pytest.raises(ParameterError):
        predict_eps(params, np.zeros(3), 1)
    with pytest.raises(ParameterError):
        predict_eps(params, np.zeros(2), 0)


def test_train_descends_and_records_losses():
    # constant windows make the noise exactly recoverable, so the loss
    # has real headroom below the predict-zero baseline
    windows = np.tile(np.array([2.0, -2.0]), (64, 1))
    conds = [None] * 64
    sch = make_linear_schedule(6, 1e-3, 0.2)
    res = train(
        windows, conds, sch,
        TrainConfig(epochs=30, batch_size=16, learning_rate=3e-3, p_uncond=0.0,
                    weighting="unit", seed=0),
        net_config=TINY,
    )
    assert len(res.epoch_losses) == 30
    assert np.mean(res.epoch_losses[-3:]) < 0.8 * np.mean(res.epoch_losses[:3])
    assert res.params.config == TINY


def test_train_zero_epochs_returns_initialization():
    rng = np.random.default_rng(20)
    windows = rng.standard_normal((8, 2))
    sch = make_linear_schedule(4, 1e-3, 0.2)
    res = train(windows, [None] * 8, sch, TrainConfig(epochs=0, seed=3),
                net_config=TINY)
    assert res.epoch_losses == []
    assert np.array_equal(
        res.params.values, init_params(TINY, np.random.default_rng(3)).values
    )


def test_train_is_seeded():
    rng = np.random.default_rng(12)
    windows = rng.standard_normal((32, 2))
    conds = [(0, 0)] * 32
    sch = make_linear_schedule(4, 1e-3, 0.2)
    cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=1e-3, p_uncond=0.1,
                      weighting="elbo", seed=21)
    a = train(windows, conds, sch, cfg, net_config=TINY)
    b = train(windows, conds, sch, cfg, net_config=TINY)
    assert np.array_equal(a.params.values, b.params.values)
    assert a.epoch_losses == b.epoch_losses


def test_train_is_minibatch_adam_on_the_dsm_loss():
    # the loop written out: init, one permutation per epoch, dsm_loss per batch, textbook Adam;
    # 10 windows at batch 4 end each epoch on a batch of 2
    windows = np.random.default_rng(13).standard_normal((10, 2))
    conds = [(i % 3, i % 2) for i in range(10)]
    sch = make_linear_schedule(5, 1e-3, 0.2)
    cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=3e-3, p_uncond=0.3, seed=8)
    got = train(windows, conds, sch, cfg, net_config=TINY)

    rng = np.random.default_rng(cfg.seed)
    params = init_params(TINY, rng)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, cfg.learning_rate
    m, v = np.zeros_like(params.values), np.zeros_like(params.values)
    step, losses = 0, []
    for _ in range(cfg.epochs):
        perm, total = rng.permutation(10), 0.0
        for start in range(0, 10, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            loss, g = dsm_loss(params, windows[idx], [conds[i] for i in idx], sch, rng,
                               weighting=cfg.weighting, p_uncond=cfg.p_uncond)
            step += 1
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat, v_hat = m / (1 - b1**step), v / (1 - b2**step)
            params.values -= lr * m_hat / (np.sqrt(v_hat) + eps)
            total += loss * len(idx)
        losses.append(total / 10)
    assert got.params.values.tobytes() == params.values.tobytes()
    assert got.epoch_losses == losses


# One epoch of a width-256 model at batch 512: below about 256 rows a weight
# gradient's reduction rounds the same under any BLAS thread count, and this
# run is large enough that an unchunked reduction gave other bytes at 2 threads.
# The trained model then draws 24 guided rows (three 8-row tiles), each with a
# donor, so that smoothing and the spectral anchor run too.
_THREAD_RUN = """
import hashlib
import numpy as np
from seriesdiff import (SamplerConfig, ScoreNetConfig, TrainConfig, encode_condition,
                        make_linear_schedule, sample_rows, train)
windows = np.random.default_rng(0).standard_normal((1536, 60))
conds = [(i % 124, i % 5) for i in range(1536)]
schedule = make_linear_schedule(400, 1e-4, 0.02)
res = train(windows, conds, schedule, TrainConfig(epochs=1, batch_size=512, seed=1),
            net_config=ScoreNetConfig(input_len=60, width=256, blocks=2))
rows = sample_rows(res.params, schedule,
                   SamplerConfig(steps=50, guidance=7.5, lambda_antv=0.03,
                                 lambda_bp=0.005, seed=2),
                   [encode_condition(*c, res.params) for c in conds[:24]],
                   sources=list(windows[:24]))
for array in (res.params.values, rows):
    print(hashlib.sha256(array.tobytes()).hexdigest())
"""


def test_training_bytes_do_not_depend_on_the_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _THREAD_RUN], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.split())
    assert [len(d) for d in digests[0]] == [64, 64] and digests[0] == digests[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_raises():
    rng = np.random.default_rng(13)
    windows = 1e3 * rng.standard_normal((32, 2))
    sch = make_linear_schedule(4, 1e-3, 0.2)
    with pytest.raises(NumericError):
        train(
            windows, [None] * 32, sch,
            TrainConfig(epochs=50, batch_size=8, learning_rate=1e155, p_uncond=0.0,
                        weighting="unit", seed=0),
            net_config=TINY,
        )


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(epochs=-1)
    with pytest.raises(ParameterError):
        TrainConfig(epochs=1, batch_size=0)
    with pytest.raises(ParameterError):
        TrainConfig(epochs=1, learning_rate=0.0)
    with pytest.raises(ParameterError):
        TrainConfig(epochs=1, weighting="l1")
    with pytest.raises(ParameterError):
        TrainConfig(epochs=1, p_uncond=1.0)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    params = init_params(TINY, rng)
    params = params.with_values(params.values + rng.standard_normal(params.n_params))
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path, meta={"seed": 5, "note": "round trip"})
    loaded = load_checkpoint(path)
    assert loaded.config == params.config
    assert np.array_equal(loaded.values, params.values)
    assert read_checkpoint_meta(path) == {"seed": 5, "note": "round trip"}


def test_checkpoint_rejects_tampering(tmp_path):
    params = init_params(TINY, np.random.default_rng(15))
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())

    bad = dict(payload, format_version=99)
    path.write_text(json.dumps(bad))
    with pytest.raises(DataError):
        load_checkpoint(path)

    bad = json.loads(json.dumps(payload))
    name = next(iter(bad["arrays"]))
    del bad["arrays"][name]
    path.write_text(json.dumps(bad))
    with pytest.raises(DataError):
        load_checkpoint(path)

    bad = json.loads(json.dumps(payload))
    name = next(iter(bad["arrays"]))
    bad["arrays"][name]["shape"] = [1, 1]
    path.write_text(json.dumps(bad))
    with pytest.raises(DataError):
        load_checkpoint(path)

    # one entry of an array that is not a number, or an entry that is not an array
    for name, entry in (("cond_w2", "x"), ("in_w", None), ("out_b", [1.0])):
        bad = json.loads(json.dumps(payload))
        bad["arrays"][name]["data"][0] = entry
        path.write_text(json.dumps(bad))
        with pytest.raises(DataError, match=name):
            load_checkpoint(path)
    bad = json.loads(json.dumps(payload))
    bad["arrays"]["cond_b1"] = 5
    path.write_text(json.dumps(bad))
    with pytest.raises(DataError, match="cond_b1"):
        load_checkpoint(path)
    path.write_text(json.dumps(dict(payload, arrays=5)))
    with pytest.raises(DataError, match="arrays"):
        load_checkpoint(path)

    path.write_text("not json")
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_layout_error_is_bounded(tmp_path):
    params = init_params(TINY, np.random.default_rng(18))
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    for i in range(1000):
        payload["arrays"][f"extra_{i:04d}"] = {"shape": [1], "data": [0.0]}
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="1000 unexpected") as info:
        load_checkpoint(path)
    message = str(info.value)
    assert "extra_0000" in message and "extra_0999" not in message
    assert len(message) < 300


def test_predict_eps_batch_matches_rows():
    rng = np.random.default_rng(18)
    params = init_params(TINY, rng)
    params = params.with_values(params.values + 0.1 * rng.standard_normal(params.n_params))
    for n in (1, 7, 8, 9, 17):
        x = rng.standard_normal((n, 2))
        conds = [None if i % 4 == 0 else encode_condition(i % 3, i % 5, params)
                 for i in range(n)]
        got = predict_eps(params, x, 3, conds)
        assert got.shape == (n, 2)
        for i in range(n):
            assert np.array_equal(got[i], predict_eps(params, x[i], 3, conds[i]))
    with pytest.raises(ParameterError):
        predict_eps(params, x, 3, conds[:-1])  # one condition short
    with pytest.raises(ParameterError):
        predict_eps(params, x, 3, None)  # a batch needs one condition per row


@pytest.mark.parametrize("activation", ["silu", "relu"])
def test_predict_eps_with_prepared_conditions_matches_per_row_calls(activation):
    # the reverse loop prepares its conditions once and reuses them every step;
    # each row must still be its own one-row call, bit for bit, across tile boundaries
    cfg = ScoreNetConfig(input_len=12, width=32, blocks=2, time_dim=8, embed_dim=4,
                         cond_hidden=8, n_industries=3, activation=activation)
    rng = np.random.default_rng(20)
    params = init_params(cfg, rng)
    params = params.with_values(params.values + 0.3 * rng.standard_normal(params.n_params))
    for n in (1, 7, 8, 9, 48):
        x = rng.standard_normal((n, 12))
        conds = [None if i % 4 == 0 else encode_condition(i % 3, i % 5, params)
                 for i in range(n)]
        prepared = _Prepared(params, conds)
        for t in (1, 37):
            got = predict_eps(params, x, t, prepared)
            assert np.array_equal(got, predict_eps(params, x, t, conds)), (n, t)
            for i in range(n):
                assert np.array_equal(got[i], predict_eps(params, x[i], t, conds[i])), (n, t, i)
    with pytest.raises(ParameterError, match="47 windows need a sequence of 47 conditions"):
        predict_eps(params, x[:-1], 3, prepared)  # prepared for one row more


def test_checkpoint_with_an_invalid_config_is_a_data_error(tmp_path):
    params = init_params(TINY, np.random.default_rng(19))
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    payload["config"]["width"] = 0
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="malformed config"):
        load_checkpoint(path)
