(** Musketeer's cost function (paper §5.1–5.2).

    [c_s(o_1 … o_j)] estimates the cost of running a set of operators
    as a single job on back-end [s]. A partition containing operators
    the back-end cannot merge costs infinity; otherwise the cost is the
    calibrated-rate model applied to the estimated data volumes:
    per-job overhead + PULL + LOAD + PROCESS + COMM + PUSH (shared
    scans pay PULL/LOAD/PUSH once per job rather than once per
    operator — exactly the benefit §5.2 describes).

    WHILE nodes assigned to engines that cannot iterate natively
    (Hadoop, Metis) are priced as per-iteration job chains. *)

type verdict =
  | Finite of float
  | Infeasible of string

val is_finite : verdict -> bool

val seconds : verdict -> float
(** [infinity] for [Infeasible]. *)

(** A candidate job: an operator set of the estimator's graph with
    what pricing reads of it — its operator kinds, its
    conservative-merge verdict and, on first use, its data volumes —
    computed once however many backends price it. *)
type job

val job : est:Estimator.t -> int list -> job

(** Why a job cannot run on a backend; {!job_cost} spells it out. *)
type refusal

(** [price ~profile job backend] — the job's cost on [backend]: the
    backend's {!Support} check over the job's shape, then its rates
    applied to the job's volumes. *)
val price :
  profile:Profile.t -> job -> Engines.Backend.t -> (float, refusal) result

(** How many times pricing has computed the job's volumes: at most
    once, and only when some backend admits the job. *)
val volumes_priced : job -> int

(** [job_cost ~profile ~est backend ids] — {!price} of the operator set
    [ids] of [est]'s graph on [backend], with the refusal spelled out.
    [est]'s fusion plan decides which chains price as fused. *)
val job_cost :
  profile:Profile.t -> est:Estimator.t -> Engines.Backend.t -> int list ->
  verdict

(** Cost of a whole partitioning: the sum of its job costs, each with
    its chosen backend. *)
val plan_cost :
  profile:Profile.t -> est:Estimator.t ->
  (Engines.Backend.t * int list) list -> verdict

(** [subplan_cut ~est id] = [(read_mb, saved_mb)] — plan-time
    pricing of sharing the subplan rooted at [id]: what attaching
    costs (one HDFS read of the materialized prefix) vs what it saves
    (the cone's deduped input pulls + processing + shuffle traffic).
    The serving layer cuts only when saved exceeds read; the cut
    itself is priced by the ordinary partitioner because the attached
    prefix *is* an INPUT after [Subplan.cut]. *)
val subplan_cut : est:Estimator.t -> int -> float * float
