"""Statistical model checking for quantum calibration maintenance.

The package simulates a calibration-maintenance scheduler over a DAG of
interdependent calibration nodes, records what happened as line-delimited
traces, and answers statistical questions about those traces: time to
failure quantiles, failure co-occurrence probabilities, parameter-shift
effects, all with finite-sample confidence guarantees.
"""

from .errors import (
    ClockError,
    ConfigError,
    CycleError,
    DuplicateIdError,
    EmptySamplesError,
    GraphError,
    InsufficientDataError,
    NoSamplesError,
    PropertyRangeError,
    PropertySyntaxError,
    SchemaError,
    SpaqError,
    UnknownNodeError,
    UnknownParamError,
)
from .drift import ExponentialDriftCfg, LogisticDriftCfg
from .graph import (
    CheckSpec,
    GraphSpec,
    NodeSpec,
    ObservableSpec,
    ParamSpec,
    Rule,
    Term,
    add_edge,
    builtin_config_path,
    graph_hash,
    load_graph,
    merge_nodes,
    merged_node_spec,
    save_graph,
    validate_graph,
    with_delays,
)
from .smc import (
    DOES_NOT_HOLD,
    HOLDS,
    INSUFFICIENT_DATA,
    LOWER,
    TWO_SIDED,
    UPPER,
    SmcConfig,
    SmcResult,
    exact_binomial_test,
    min_samples,
    quantile_confidence_bound,
)
from .trace import (
    Dataset,
    Run,
    RunMeta,
    TraceEvent,
    extract_failures_from_timeseries,
    import_timeseries_csv,
    load_dataset,
    merge_runs,
    read_trace,
    write_trace,
)
from .sim import (
    ADAPTIVE,
    BASELINE,
    HIGH_FREQUENCY,
    AvailabilityReport,
    SimConfig,
    Simulator,
    availability,
    run_simulation,
)
from .properties import parse_property, property_to_text
from .extractors import evaluate_property, extract_condition_samples, extract_metric
from .experiments import (
    Exp1Config,
    Exp2Config,
    Exp3Config,
    ExperimentReport,
    Recommendation,
    ShiftFailureResult,
    VerdictMatrix,
    pairwise_cofailure_scan,
    param_shift_failure_test,
    run_batch,
    run_delayed_checks_experiment,
    run_hidden_dependency_experiment,
    run_internode_experiment,
    write_report,
)

__version__ = "0.1.0"
