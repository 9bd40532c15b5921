(** Metrics registry: counters, gauges, histograms with quantile
    summaries, and predicted-vs-observed makespan records.

    The pipeline instrumentation records into {!default} (jobs per
    backend, rewrite hit counts, partitioner search sizes, per-job
    prediction error); experiments and tests can use private registries
    via {!create}. Everything is process-local.

    The prediction records are the live Figure-14 signal: every
    executed job joins the cost model's estimate against the observed
    (simulated) makespan, so mapping quality is measurable on any run
    rather than only in the dedicated experiment. *)

type histogram_stats = {
  count : int;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type prediction = {
  workflow : string;
  job : string;              (** job label, e.g. ["pagerank/job0"] *)
  backend : string;
  predicted_s : float;       (** cost-model estimate (§5.1), calibrated *)
  raw_predicted_s : float;   (** estimate before calibration factors *)
  observed_s : float;        (** executed makespan (§6.1) *)
}

(** Signed relative error [(predicted - observed) / observed];
    [infinity] when nothing was observed. *)
val rel_error : prediction -> float

type t

val create : unit -> t

(** The registry the built-in instrumentation records into. *)
val default : t

val reset : t -> unit

(** {2 Counters} *)

val incr : t -> ?by:int -> string -> unit

(** 0 when never incremented. *)
val counter : t -> string -> int

(** All counters, sorted by name. *)
val counters : t -> (string * int) list

(** {2 Gauges} *)

val set_gauge : t -> string -> float -> unit

(** [add_gauge t name v] accumulates [v] onto the gauge (starting from
    0), for totals that build up across jobs within one run. *)
val add_gauge : t -> string -> float -> unit

val gauge : t -> string -> float option

val gauges : t -> (string * float) list

(** {2 Histograms} *)

(** Record one observation. *)
val observe : t -> string -> float -> unit

(** [quantile t name q] with [q] in [\[0, 1\]]; linear interpolation
    between order statistics. [None] for unknown or empty histograms
    (or out-of-range [q]). *)
val quantile : t -> string -> float -> float option

val histogram : t -> string -> histogram_stats option

val histograms : t -> (string * histogram_stats) list

(** {2 Recovery events}

    One record per job the executor brought back after a fault —
    retried in place or re-planned onto a fallback engine. *)

type recovery_event = {
  rec_workflow : string;
  rec_job : string;           (** job label, e.g. ["pagerank/job0"] *)
  from_backend : string;      (** the planner's original choice *)
  to_backend : string;        (** where it finally succeeded *)
  attempts : int;             (** total attempts incl. the final one *)
  first_error : string;       (** the first failure observed *)
  recovery_s : float;         (** seconds charged to recovery *)
}

val record_recovery :
  t -> workflow:string -> job:string -> from_backend:string ->
  to_backend:string -> attempts:int -> first_error:string ->
  recovery_s:float -> unit

(** In record order. *)
val recoveries : t -> recovery_event list

(** Table of recovered jobs; prints nothing when there were none. *)
val pp_recoveries : Format.formatter -> t -> unit

(** {2 Prediction accuracy} *)

(** [raw_predicted_s] defaults to [predicted_s]; the calibration layer
    passes the uncorrected estimate so fitting on the ratio
    observed/raw never compounds factors across runs. *)
val record_prediction :
  t -> ?raw_predicted_s:float -> workflow:string -> job:string ->
  backend:string -> predicted_s:float -> observed_s:float -> unit -> unit

(** In record order. *)
val predictions : t -> prediction list

(** Summary over the absolute relative errors of all recorded
    predictions; [None] when none were recorded. *)
val prediction_error : t -> histogram_stats option

(** {2 Reporting} *)

(** Per-job prediction table plus the mean/percentile error summary. *)
val pp_predictions : Format.formatter -> t -> unit

(** Full registry dump: counters, gauges, histograms, predictions. *)
val pp : Format.formatter -> t -> unit

(** {2 JSON}

    Machine-readable forms shared by [stats --json] and the run
    ledger. The [of_json] direction is lenient: missing fields take
    defaults, unknown fields are ignored. *)

val json_of_stats : histogram_stats -> Json.t

val stats_of_json : Json.t -> histogram_stats

val json_of_prediction : prediction -> Json.t

val prediction_of_json : Json.t -> prediction

(** Whole-registry dump: counters, gauges, histograms, predictions,
    recoveries, and the |relative error| summary. *)
val to_json : t -> Json.t
