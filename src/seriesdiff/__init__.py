"""Conditioned time-series synthesis with discrete diffusion samplers.

The package splits along the pipeline: ``schedules`` defines the forward
corruption process, ``scorenet`` the hand-differentiated noise predictor and
its trainer, ``samplers`` the reverse processes (skip, with the ancestral walk
as its full-step case, and annealed Langevin) with classifier-free guidance,
``regularizers`` the smoothing and spectral-anchor corrections applied between
steps, ``dataio`` the CSV-to-window preparation, ``evaluate`` the return
metrics and top-k backtest, and ``oracles`` slow reference implementations the
tests check everything against.  ``cli`` wires the pieces into a reproducible
pipeline.
"""

from .errors import DataError, NumericError, ParameterError, SeriesDiffError
from .schedules import (
    NoiseSchedule,
    SigmaLadder,
    forward_perturb,
    make_linear_schedule,
    make_sigma_ladder,
    schedule_from_dict,
)
from .scorenet import (
    ConditionVector,
    ScoreNetConfig,
    ScoreNetworkParams,
    TrainConfig,
    TrainResult,
    dsm_loss,
    encode_condition,
    init_params,
    load_checkpoint,
    predict_eps,
    save_checkpoint,
    time_embedding,
    train,
)
from .samplers import (
    SampleResult,
    SamplerConfig,
    ddim_mean,
    ddim_step,
    ddpm_mean,
    ddpm_step,
    guided_eps,
    jump_variance,
    langevin_sample,
    make_subsequence,
    perturb_to_level,
    sample,
    sample_one,
    sample_rows,
)
from .regularizers import (
    AntvConfig,
    BandSpec,
    antv_exact_grad,
    antv_loss,
    antv_step,
    antv_weight,
    band_pass,
    bp_grad_step,
    bp_loss,
    dft,
    idft,
)
from .dataio import (
    Board,
    SeriesWindow,
    StockRecord,
    classify_board,
    denormalize_window,
    drop_ipo_head,
    make_windows,
    normalize_window,
    prepare_windows,
    read_close_csv,
    read_window_store,
    repair_suspensions,
    split_train_test,
    write_window_store,
)
from .evaluate import (
    BacktestResult,
    PredictionPanel,
    information_coefficient,
    log_return,
    momentum_panel,
    rank_ic,
    read_panel_csv,
    return_ratio,
    summarize_backtest,
    topk_dropk_backtest,
)

__version__ = "0.1.0"
