"""Cluster-entropy multi-period portfolio toolkit."""

__version__ = "0.1.0"

from .errors import (ConfigError, DataError, EmptyInputError, EntroportError,
                     HorizonError, InputFileError, InsufficientClustersError,
                     NoTangencyError, TickParseError)
from .series import (TICK_DTYPE, date_ns, month_start_ns, parse_ticks, resample,
                     slice_horizon)
from .returns_vol import linear_returns, log_returns, rolling_volatility
from .dma_cluster import aggregate_index, entropy_curve, entropy_index, moving_average
from .portfolio import (cluster_entropy_weights, kl_cross_entropy, max_sharpe_weights,
                        naive_weights, weight_entropy)
from .synth import GeneratorSpec, arfima_series, fbm_series, garch_series
