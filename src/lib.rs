// The README *is* the crate documentation, so its quickstart compiles
// and runs as a doctest — the front-page example can never rot.
#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use noc_app as app;
pub use noc_bench as bench;
pub use noc_queueing as queueing;
pub use noc_sim as sim;
pub use noc_telemetry as telemetry;
pub use noc_topology as topology;
pub use noc_workloads as workloads;
pub use quarc_core as model;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use noc_app::{AppEvent, AppProtocol, ClosedLoopSpec, Emission, NetEnv, ProtocolBank};
    pub use noc_bench::{
        Error, MulticastPattern, PointResult, Progress, Runner, Scenario, ScenarioResult,
        SweepSpec, WorkloadSpec,
    };
    pub use noc_queueing::expmax::expected_max_exponentials;
    pub use noc_queueing::mg1::MG1;
    pub use noc_sim::{
        build_engine, build_engine_with_plan, record_trace, ArrivalProcess, ClosedLoopResults,
        Engine, EngineCounters, EngineKind, PlanError, SimConfig, SimPlan, SimResults,
    };
    pub use noc_telemetry::{
        chrome_trace, validate_chrome_trace, LogHistogram, TelemetrySpec, TraceEvent,
        TraceEventKind, TraceLog, TraceMode, TrackNames, UtilSeries,
    };
    pub use noc_topology::{
        ChannelFactory, ClusterInner, Clustered, Hypercube, Mesh, MeshKind, Min, MulticastRouting,
        NodeId, PathError, PortId, Quarc, Ring, RoutingError, RoutingSpec, Spidergon, Topology,
        TopologySpec, ALL_ROUTINGS,
    };
    pub use noc_workloads::{
        DestinationSets, PatternError, RateSweep, SweepError, TraceEntry, TraceKind, TrafficError,
        TrafficSpec, UnicastPattern, Workload,
    };
    pub use quarc_core::{
        AnalyticModel, BackendSpec, ChannelBounds, MgOneBackend, ModelBackend, ModelOptions,
        NetworkCalculusBackend, Prediction, ALL_BACKENDS,
    };
}
