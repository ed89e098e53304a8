"""Every module under src/seriesdiff uses each name it imports, and the package re-exports
every module's ``__all__``."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seriesdiff
from seriesdiff import dataio, evaluate, regularizers, samplers, schedules, scorenet

SRC = Path(__file__).resolve().parents[1] / "src" / "seriesdiff"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import json\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert _unused_imports(source) == ["line 1: json", "line 2: field"]


# __init__.py is skipped: its imports are the package's re-exports
@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_module_has_no_unused_imports(module):
    assert _unused_imports((SRC / module).read_text()) == []


# the package's public names while __init__.py listed them by hand; none but RETIRED may go away
EARLIER_NAMES = """
    AntvConfig BacktestResult BandSpec Board ConditionVector DataError NoiseSchedule
    NumericError ParameterError PredictionPanel SampleResult SamplerConfig ScoreNetConfig
    ScoreNetworkParams SeriesDiffError SeriesWindow SigmaLadder StockRecord TrainConfig
    TrainResult antv_exact_grad antv_loss antv_step antv_weight band_pass bp_grad_step
    bp_loss classify_board dataio ddim_mean ddim_step ddpm_mean ddpm_step denormalize_window
    dft drop_ipo_head dsm_loss encode_condition errors evaluate forward_perturb guided_eps
    idft information_coefficient init_params jump_variance langevin_sample load_checkpoint
    log_return make_linear_schedule make_sigma_ladder make_subsequence make_windows
    momentum_panel normalize_window perturb_to_level predict_eps prepare_windows rank_ic
    read_close_csv read_panel_csv read_window_store regularizers repair_suspensions
    return_ratio sample sample_one sample_rows samplers save_checkpoint schedule_from_dict
    schedules scorenet split_train_test summarize_backtest time_embedding
    topk_dropk_backtest train write_window_store
""".split()
REEXPORTED = [schedules, scorenet, samplers, regularizers, dataio, evaluate]
# earlier names that were taken out of the package on purpose, each with its old module
RETIRED = {"momentum_panel": evaluate, "return_ratio": evaluate, "log_return": evaluate,
           "perturb_to_level": samplers}
README = SRC.parents[1] / "README.md"


@pytest.mark.parametrize("module", REEXPORTED, ids=lambda m: m.__name__)
def test_package_reexports_the_module_all(module):
    missing = [n for n in module.__all__ if getattr(seriesdiff, n, None) is not getattr(module, n)]
    assert missing == []


def test_package_names_are_the_earlier_ones_plus_the_module_alls():
    # a fresh interpreter, where no other test has imported a submodule such as cli
    run = subprocess.run(
        [sys.executable, "-c", "import seriesdiff; print(*dir(seriesdiff))"],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)), capture_output=True, text=True,
        check=True)
    public = {n for n in run.stdout.split() if not n.startswith("_")}
    assert public == (set(EARLIER_NAMES) - set(RETIRED)).union(*(m.__all__ for m in REEXPORTED))


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_a_retired_name_is_gone_from_the_package_its_module_and_the_readme(name):
    assert not hasattr(seriesdiff, name) and not hasattr(RETIRED[name], name)
    # the README names it only in the section that records its removal
    head, _, tail = README.read_text().partition("\n## Contract changes\n")
    note, _, rest = tail.partition("\n## ")
    assert f"`{name}`" in note and name not in head + rest
