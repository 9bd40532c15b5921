(** The persistent multi-tenant serving layer ([musketeer serve]).

    A service wraps one {!Musketeer.t} and one shared HDFS instance and
    accepts concurrent workflow submissions through an admission queue.
    Three mechanisms amortize work across traffic, each independently
    observable:

    - a {b plan cache} ({!Musketeer.Plan_cache}): repeat submissions
      skip optimize/estimate/partition; hits are validated against the
      breaker-filtered backend set, calibration factors and input
      sizes via the fingerprint;
    - a {b weighted fair admission scheduler} with a concurrency cap:
      per-tenant start-time fair queueing over operator-count cost, so
      a heavy tenant's 40-op DAGs cannot starve a light tenant's 3-op
      lookups (per-tenant [serve.queue_delay_s.<tenant>] histograms;
      circuit breakers become per-tenant via
      {!Engines.Breaker.with_tenant});
    - {b cross-workflow shared scans} ({!Engines.Scan_share}):
      co-admitted workflows naming the same INPUT relation pay one
      modeled HDFS read, with epoch invalidation on overwrite;
    - {b common-subplan sharing} ({!Engines.Subplan_share} +
      {!Subresult_cache}, gated on [subresult_cache_mb > 0]): DAG
      prefixes with equal subtree hashes execute once — co-admitted
      workflows attach to the payer's materialized output, and a
      bounded LRU-by-bytes sub-result cache carries materializations
      across time; attached prefixes are rewritten to synthetic INPUTs
      ({!Musketeer.Subplan.cut}) so the planner prices them at one
      HDFS read + zero compute.

    Time is simulated (discrete-event over virtual seconds), matching
    the simulated cluster: service time = simulated makespan. The
    wall-clock seconds the planner really spent are reported per
    outcome ([planning_s]) and never added to virtual time, so served
    latencies repeat exactly from run to run. Executions are
    isolated by HDFS snapshot/restore, so a served submission's outputs
    are byte-identical to a one-shot [run] of the same graph — the
    serve bench and CI smoke test assert this.

    {b Overload hardening} (see [docs/serving.md]): admission queues
    can be bounded per tenant and globally with a configurable shedding
    policy; submissions may carry per-request SLOs (cancelled {e before
    admission only} — an execution, once started, always runs to its
    byte-identical completion); a queue-delay EWMA pressure signal
    drives a graceful-degradation ladder (shed speculation, then new
    materializations, then the co-admission window, then requests); a
    per-tenant retry token bucket stops retry storms; and fault
    injection + recovery + supervision from the one-shot path are wired
    through every submission. None of these can change the bytes of a
    submission that completes — the chaos differential property asserts
    it. *)

type submission = {
  tenant : string;
  workflow : string;
  graph : Ir.Dag.t;
  arrival_s : float;   (** virtual seconds *)
  slo_s : float option;
      (** per-request deadline relative to arrival; [None] falls back
          to [config.default_slo_s] (and then to no deadline) *)
}

type status =
  | Served          (** executed (possibly with an error) *)
  | Shed of string  (** dropped by the shedding policy, never executed *)
  | Expired         (** SLO passed while queued; cancelled pre-admission *)

type outcome = {
  sub : submission;
  status : status;
  admit_s : float;
  finish_s : float;
  queue_delay_s : float;  (** admit − arrival *)
  latency_s : float;      (** finish − arrival *)
  makespan_s : float;     (** simulated makespan, paid prefixes included *)
  planning_s : float;     (** wall-clock seconds spent planning *)
  cache : string;         (** "hit" | "miss" | "invalidated";
                              "shed" / "expired" on dropped outcomes *)
  subplan_hits : int;     (** prefixes attached (share or cache) *)
  subplan_paid : int;     (** prefixes this submission materialized *)
  subplan_attached_mb : float;
  outputs : (string * Relation.Table.t) list;
  error : string option;  (** always [None] on dropped outcomes *)
}

type shed_policy =
  | Reject_newest       (** drop the arriving submission *)
  | Shed_lowest_weight  (** drop the newest queued item of the
                            lowest-weight tenant with a backlog *)
  | Oldest_first        (** drop the globally oldest queued item *)

val shed_policy_name : shed_policy -> string

val shed_policy_of_string : string -> shed_policy option

type config = {
  concurrency : int;                (** admission slots (default 4) *)
  cache_capacity : int;             (** plan-cache entries (default 128) *)
  subresult_cache_mb : float;
      (** sub-result cache budget in modeled MB; [0.] (the default)
          disables subplan sharing entirely *)
  weights : (string * float) list;  (** tenant → WFQ weight (default 1) *)
  ledger : string option;           (** JSONL run ledger to append to *)
  tenant_queue_cap : int;           (** max queued per tenant; 0 = unbounded *)
  global_queue_cap : int;           (** max queued overall; 0 = unbounded *)
  shed_policy : shed_policy;        (** default [Reject_newest] *)
  pressure_threshold_s : float;
      (** queue-delay EWMA that counts as pressure 1.0; [0.] (the
          default) disables the pressure signal — no degradation
          ladder, no pressure shedding (bounds still apply) *)
  default_slo_s : float option;     (** deadline for submissions without one *)
  retry_budget : float;
      (** per-tenant retry token-bucket capacity; negative (the
          default) = unlimited *)
  retry_refill_per_s : float;       (** tokens per virtual second *)
  recovery : Musketeer.Recovery.policy;
      (** retry/fallback policy for submission executions (and payer
          prefix executions); default {!Musketeer.Recovery.none} *)
  supervision : Musketeer.Supervisor.config;
      (** deadlines/speculation/re-planning; default
          {!Musketeer.Supervisor.disabled} *)
  inject : Engines.Faults.fault_plan option;
      (** chaos: install this fault plan around each submission's
          execution (reseeded per submission, so a fixed seed gives a
          deterministic per-trace fault schedule); planning and the
          identity baseline stay clean *)
}

val default_config : config

type t

val create : ?config:config -> Musketeer.t -> hdfs:Engines.Hdfs.t -> t

val cache : t -> Musketeer.Plan_cache.t

val share : t -> Engines.Scan_share.t

val subplan_share : t -> Engines.Subplan_share.t

val subresult_cache : t -> Subresult_cache.t

(** Overwrite an input relation out-of-band: epoch-invalidates shared
    scans and (via the size fingerprint) cached plans reading it. *)
val put_input :
  t -> string -> ?modeled_mb:float -> Relation.Table.t -> unit

(** Run the discrete-event loop over a batch of submissions, returning
    their outcomes in admission order. May be called repeatedly: the
    virtual clock, fair-queueing tags, plan cache and scan-share
    epochs persist across calls. *)
val drive : t -> submission list -> outcome list

(** [create] + [drive], returning the service for inspection. *)
val run :
  ?config:config -> Musketeer.t -> hdfs:Engines.Hdfs.t ->
  submission list -> outcome list * t

(** Scan- plus subplan-share flights currently open. Zero after every
    [drive] returns — a leaked flight means a failed payer left entries
    attachers could still claim (the CI chaos smoke gates on this). *)
val open_flights : t -> int

(** {2 Crash-restart recovery} *)

type restore_stats = {
  r_records : int;    (** ledger records replayed *)
  r_calibrated : int; (** engines with re-fitted calibration factors *)
  r_warmed : int;     (** workflows re-planned into the plan cache *)
  r_breakers : int;   (** tenant×engine breakers re-opened *)
  r_epochs : int;     (** relation epochs raised *)
}

(** [restore t ~mix records] replays warm state a crash lost from the
    run ledger into a freshly created service: re-fits calibration,
    raises scan/subplan epochs to the recorded per-relation maxima,
    re-opens per-tenant breakers recorded open (when the breaker is
    enabled), and re-plans every distinct ledger workflow found in
    [mix] (name → graph) once, in first-appearance order. Call before
    the first [drive]. *)
val restore :
  t -> mix:(string * Ir.Dag.t) list -> Obs.Ledger.record list ->
  restore_stats

val pp_restore_stats : Format.formatter -> restore_stats -> unit

(** {2 Summaries} *)

type tenant_summary = {
  st_tenant : string;
  st_submitted : int;
  st_completed : int;
  st_errors : int;
  st_shed : int;
  st_expired : int;
  st_queue_p50_s : float;
  st_queue_p99_s : float;
  st_latency_p99_s : float;
}

type summary = {
  submitted : int;   (** every outcome, dropped ones included *)
  completed : int;   (** executed without error *)
  errors : int;      (** executed, failed *)
  shed : int;        (** dropped by the shedding policy *)
  expired : int;     (** SLO-cancelled before admission *)
  slo_met : int;     (** completed within their deadline (no deadline
                         counts as met) *)
  goodput_wps : float;  (** completed-in-SLO per virtual second *)
  duration_s : float;  (** first arrival → last finish, virtual *)
  throughput_wps : float;
  latency_p50_s : float;
  latency_p99_s : float;
  cache_stats : Musketeer.Plan_cache.stats;
  cache_hit_rate : float;
  plan_cold_s : float;  (** mean wall planning seconds on misses *)
  plan_warm_s : float;  (** mean wall planning seconds on hits *)
  scan_saved_mb : float;
  scan_paid : (string * int) list;
  subplan_hits : int;     (** prefixes attached across the run *)
  subplan_paid : int;     (** prefixes materialized *)
  subplan_attached_mb : float;
  subresult : Subresult_cache.stats;
  tenants : tenant_summary list;  (** sorted by tenant name *)
}

val summarize : t -> outcome list -> summary

(** Nearest-rank percentile over a float list (0 on empty); exposed for
    the bench and the fairness property test. *)
val percentile : float -> float list -> float

val pp_summary : Format.formatter -> summary -> unit
