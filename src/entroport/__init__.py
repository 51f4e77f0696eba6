"""Cluster-entropy multi-period portfolio toolkit."""

__version__ = "0.1.0"

from .errors import (ConfigError, DataError, EmptyInputError, EntroportError,
                     HorizonError, InputFileError, InsufficientClustersError,
                     NoTangencyError, TickParseError)
from .series import (TICK_DTYPE, SampledSeries, align_lengths, date_ns,
                     month_start_ns, parse_ticks, resample, slice_horizon)
from .returns_vol import linear_returns, log_returns, rolling_volatility
from .dma_cluster import (ClusterDistribution, ClusterModelFit, EntropyCurve,
                          EntropyIndex, aggregate_index, cluster_distribution,
                          compute_entropy_index, entropy_curve, entropy_index,
                          extract_clusters, fit_cluster_model, moving_average)
from .portfolio import (MomentEstimates, RiskProfile, WeightVector,
                        cluster_entropy_weights, kl_cross_entropy,
                        max_sharpe_weights, naive_weights, weight_entropy)
from .synth import (GeneratorSpec, arfima_series, arfima_theoretical_acf,
                    fbm_series, garch_series, to_price_series)
