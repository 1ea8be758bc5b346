"""Multi-swarm particle swarm optimizer with a benchmark harness."""

from .benchmarks import REGISTRY, make_spec, random_rotation
from .core import Bounds, ObjectiveSpec
from .harness import CampaignSpec, run_campaign, write_campaign_outputs, write_trace_csv
from .optimizer import AmpsoConfig, ConfigError, PhaseSpan, RunResult, TracePoint, run_ampso, run_gpso

__version__ = "0.1.0"
