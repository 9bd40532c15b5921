(** One-off operator-performance calibration (paper §5.2, Table 1).

    For a deployed cluster, Musketeer measures each back-end once with
    small probe jobs and records the rates at which it ingests (PULL),
    loads/transforms (LOAD), processes (PROCESS) and writes (PUSH) data,
    plus its per-job overhead. The cost function prices candidate jobs
    with these rates and the data-volume estimates — it never peeks at
    the engine simulators' internal parameters.

    Probes: a no-op scan (PULL/PROCESS/PUSH/LOAD), an equi-join (shuffle
    bandwidth) and, for engines that iterate natively, a 1- vs 4-
    iteration GAS job (per-iteration overhead). A probe's rows and
    volumes do not depend on the engine, so each probe graph executes
    once and every backend prices that one execution
    ({!Engines.Registry.price}): calibration draws no injected fault and
    publishes nothing. *)

type t

(** Probe every backend on [cluster]. [probe_mb] is the modeled size of
    the probe input (default 1024 MB — calibration is one-off and
    size-dependent effects like Metis falling out of memory are exactly
    what the crude cost function misses, cf. Figure 14's first-run
    mispredictions). *)
val calibrate : ?probe_mb:float -> cluster:Engines.Cluster.t -> unit -> t

val cluster : t -> Engines.Cluster.t

(** Calibrated rates for a backend. *)
val rates : t -> Engines.Backend.t -> Engines.Perf.rates

(** {2 Ledger-fitted calibration}

    One multiplicative correction factor per engine ({!Calibrate.fit}),
    keyed by {!Engines.Backend.name}. {!Cost.job_cost} scales every
    estimate for an engine by its factor, so the partitioner, [explain]
    and the supervisor's deadlines all see the corrected model, and
    the plan-cache fingerprint pins the same factors. A freshly
    probed profile has none (factor 1.0 everywhere). *)

(** The same rates with [factors] as the calibration (replacing any
    previous ones). *)
val with_calibration : t -> (string * float) list -> t

(** The calibration factors, sorted by backend name. *)
val calibration : t -> (string * float) list

(** [factor t backend_name] — 1.0 for an engine without a factor. *)
val factor : t -> string -> float

(** Render the Table-1-style rate matrix. *)
val pp : Format.formatter -> t -> unit
