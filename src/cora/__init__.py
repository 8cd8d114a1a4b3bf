"""LoRa chirp-spread-spectrum laboratory with a collision-resistant symbol detector."""

from cora.phy import (
    PhyParams,
    SymbolWindow,
    modulate_symbol,
    build_frame,
    dechirp,
    baseline_detect,
)
from cora.channel import (
    FadingProfile,
    TrainConfig,
    collide,
    compose_collision,
    apply_fading,
    clipped_tone,
    etu_like_profile,
    gen_training_symbol,
)
from cora.detector import (
    PosteriorGrid,
    TrainingError,
    GridFormatError,
    pmd,
    hpd,
    score_bins,
    classify,
    detect_symbol,
    collect_training_features,
    feature_histogram,
    grid_from_samples,
    train,
    save_grid,
    load_grid,
)
from cora.harness import (
    CSV_COLUMNS,
    ScenarioSpec,
    ExperimentConfig,
    MetricsRecord,
    receive,
    run_experiment,
    simulate_frame,
    bench_stages,
    write_csv,
)

__version__ = "0.1.0"
