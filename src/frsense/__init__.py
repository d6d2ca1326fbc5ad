"""Fisher-Rao geometry of densities and prior-sensitivity analysis tools."""

from .errors import *  # noqa: F401,F403
from .grid import (  # noqa: F401
    DEFAULT_N_POINTS,
    MIN_POINTS,
    DensityMatrix,
    Grid,
    GridPdf,
    Srd,
    TangentVector,
    default_grid,
    from_srd,
    normalize_pdf,
    normalize_rows,
    to_srd,
)
from .geometry import (  # noqa: F401
    KarcherInfo,
    TpcaResult,
    fr_distance,
    geodesic_path,
    inv_exp_map,
    karcher_mean,
    karcher_variance,
    tangent_pca,
)
from .measures import (  # noqa: F401
    DEFAULT_N_COMPONENTS,
    CumulativeSpectrum,
    MeasureTriple,
    SampleSummary,
    cumulative_spectrum,
    e_upper_bound,
    replicate_band,
    summarize_sample,
    triple_from_summaries,
)
from .samplers import (  # noqa: F401
    BetaBase,
    CcvConfig,
    Dataset,
    DcvConfig,
    DpConfig,
    DpgmmConfig,
    McmcControl,
    PosteriorSample,
    UniformBase,
    ccv_posterior,
    centering_weight,
    dcv_posterior,
    derived_seed,
    dp_posterior,
    dpgmm_posterior,
    make_rng,
    sample_crp_partition,
    sample_griffin_steel,
    silverman_bandwidth,
)
from .sweep import (  # noqa: F401
    BandTriple,
    GRID_POINTS,
    MODEL_TAGS,
    SweepResult,
    SweepSpec,
    get_config_value,
    model_sampler,
    run_sweep,
    set_config_value,
    sweep_grid_presets,
)
from .config import (  # noqa: F401
    ExperimentConfig,
    GeometryOptions,
    OutputOptions,
    apply_preset,
    dump_config,
    load_config,
)
from .io import (  # noqa: F401
    load_dataset,
    read_density_matrix,
    write_bands_csv,
    write_density_matrix,
    write_manifest,
    write_sweep_csv,
)

__version__ = "0.5.1"
