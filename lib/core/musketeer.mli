(** The Musketeer workflow manager — public facade.

    Typical use:
    {[
      let m = Musketeer.create ~cluster:(Engines.Cluster.ec2 ~nodes:16) in
      let result =
        Musketeer.execute m ~workflow:"pagerank" ~hdfs graph
      in
      ...
    ]}

    [create] calibrates the cost model's rates on the given cluster
    (paper Table 1); [plan] optimizes the IR, estimates data volumes
    (consulting the accumulated history) and partitions the DAG into
    back-end jobs; [execute] generates code, dispatches the jobs and
    records history. Restrict [backends] for a manual mapping; the
    default explores all seven engines (automatic mapping, §5.2). *)

(** Re-exported components (this module is the library entry point). *)

module Profile = Profile
module History = History
module Estimator = Estimator
module Support = Support
module Cost = Cost
module Partitioner = Partitioner
module Jobgraph = Jobgraph
module Idiom = Idiom
module Optimizer = Optimizer
module Column_pruning = Column_pruning
module Codegen = Codegen
module Render = Render
module Executor = Executor
module Recovery = Recovery
module Supervisor = Supervisor
module Mapper = Mapper
module Explain = Explain

(** Cost-model calibration from the run ledger (CLI [--ledger]). *)
module Calibrate = Calibrate

(** Plan cache for repeat traffic (serving mode). *)
module Plan_cache = Plan_cache

(** Common-subplan sharing: cut points, prefix extraction and the
    attach rewrite (serving mode's multi-query optimization). *)
module Subplan = Subplan

(** Re-emitting IR nodes through a builder (graph rewrites). *)
module Rebuild = Rebuild

(** Observability: tracing, metrics and exporters (also available as
    the stand-alone [musketeer.obs] library). *)
module Obs = Obs

type t

val create : ?probe_mb:float -> cluster:Engines.Cluster.t -> unit -> t

(** Same calibrated profile, different history store — used by
    experiments that compare no/partial/full-history planning
    (Figure 14) without re-calibrating. *)
val with_history : t -> History.t -> t

(** Same rates and history, with [factors] as the profile's
    ledger-fitted calibration ({!Calibrate.fit}; [[]] for none).
    Planning, pricing, [explain] and the plan-cache fingerprint all
    read them from the profile. *)
val with_calibration : t -> (string * float) list -> t

val profile : t -> Profile.t

val history : t -> History.t

val cluster : t -> Engines.Cluster.t

(** Schema catalog backed by the HDFS contents. *)
val catalog_of_hdfs :
  Engines.Hdfs.t -> string -> Relation.Schema.t

(** Volume estimator for a workflow against current HDFS contents,
    consulting history. *)
val estimator :
  t -> workflow:string -> hdfs:Engines.Hdfs.t -> Ir.Dag.t -> Estimator.t

(** IR optimization (paper §4.2); identity when typing fails. *)
val optimize_ir : hdfs:Engines.Hdfs.t -> Ir.Dag.t -> Ir.Dag.t

(** [plan] = optimize + estimate + partition. [None] when no backend
    combination can express the workflow. Engines quarantined by
    [breaker] are dropped from [backends] first (unless that would
    leave none).
    @param backends candidate engines (default: all seven)
    @param merging operator merging on (default true; Figure 12's
           ablation passes false)
    @param optimize apply IR rewrites first (default true)
    @param cache plan cache (serving mode): a hit returns the cached
           (plan, optimized graph) without re-running
           optimize/estimate/partition; misses and invalidations plan
           as usual and store the result. The lookup outcome rides the
           ["plan"] span as the [plan.cache] attribute.
    @param breaker circuit breaker (default none: every engine is a
           candidate) *)
val plan :
  ?backends:Engines.Backend.t list -> ?merging:bool -> ?optimize:bool ->
  ?cache:Plan_cache.t -> ?breaker:Engines.Breaker.t ->
  t -> workflow:string -> hdfs:Engines.Hdfs.t -> Ir.Dag.t ->
  (Partitioner.plan * Ir.Dag.t) option

(** Plan and run. Returns the executor result together with the plan
    used. History is updated on success. [recovery] (default
    {!Recovery.none}) governs retries and engine fallback on job
    failure; fallback candidates are confined to [backends].
    [supervision] (default {!Supervisor.disabled}) adds deadlines,
    straggler speculation and adaptive re-planning. [breaker] and
    [inject] (default none) are the circuit breaker and the fault
    injector of {!Executor.run_plan}; the breaker also filters the
    planning candidates. *)
val execute :
  ?backends:Engines.Backend.t list -> ?merging:bool -> ?optimize:bool ->
  ?mode:Executor.mode -> ?recovery:Recovery.policy ->
  ?supervision:Supervisor.config -> ?breaker:Engines.Breaker.t ->
  ?inject:Engines.Injector.t -> t ->
  workflow:string -> hdfs:Engines.Hdfs.t -> Ir.Dag.t ->
  (Executor.result * Partitioner.plan, Engines.Report.error) result

(** Run a pre-computed plan (used by experiments that compare plans,
    and by the serving layer — [sharing] passes the service's shared
    store to every engine run, see {!Engines.Share}). The options are
    {!Executor.run_plan}'s. *)
val execute_plan :
  ?mode:Executor.mode -> ?record_history:bool ->
  ?recovery:Recovery.policy -> ?candidates:Engines.Backend.t list ->
  ?supervision:Supervisor.config -> ?breaker:Engines.Breaker.t ->
  ?inject:Engines.Injector.t -> ?sharing:Engines.Share.t ->
  t -> workflow:string -> hdfs:Engines.Hdfs.t -> graph:Ir.Dag.t ->
  Partitioner.plan ->
  (Executor.result, Engines.Report.error) result

(** {!execute_plan}, with the same-engine retries the run spent, on
    success and on failure: what the serving layer charges a tenant's
    retry budget. *)
val execute_plan_spent :
  ?mode:Executor.mode -> ?record_history:bool ->
  ?recovery:Recovery.policy -> ?candidates:Engines.Backend.t list ->
  ?supervision:Supervisor.config -> ?breaker:Engines.Breaker.t ->
  ?inject:Engines.Injector.t -> ?sharing:Engines.Share.t ->
  t -> workflow:string -> hdfs:Engines.Hdfs.t -> graph:Ir.Dag.t ->
  Partitioner.plan ->
  Executor.result Recovery.spent

(** Human-readable plan explanation (CLI [explain]). *)
val explain :
  ?backends:Engines.Backend.t list -> t -> workflow:string ->
  hdfs:Engines.Hdfs.t -> Ir.Dag.t -> Explain.report

(** Rendered back-end source for every job of a plan (CLI display). *)
val show_code :
  graph:Ir.Dag.t -> Partitioner.plan -> (string * string) list
