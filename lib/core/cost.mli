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

(** [job_cost ~profile ~graph ~est backend ids] — cost of running the
    operator set [ids] of [graph] as one job on [backend]. [est] is
    built over [graph]: its fusion plan decides which chains price as
    fused. *)
val job_cost :
  profile:Profile.t -> graph:Ir.Dag.t -> est:Estimator.t ->
  Engines.Backend.t -> int list -> verdict

(** Cost of a whole partitioning: the sum of its job costs, each with
    its chosen backend. *)
val plan_cost :
  profile:Profile.t -> graph:Ir.Dag.t -> est:Estimator.t ->
  (Engines.Backend.t * int list) list -> verdict

(** [subplan_cut ~graph ~est id] = [(read_mb, saved_mb)] — plan-time
    pricing of sharing the subplan rooted at [id]: what attaching
    costs (one HDFS read of the materialized prefix) vs what it saves
    (the cone's deduped input pulls + processing + shuffle traffic).
    The serving layer cuts only when saved exceeds read; the cut
    itself is priced by the ordinary partitioner because the attached
    prefix *is* an INPUT after [Subplan.cut]. *)
val subplan_cut :
  graph:Ir.Dag.t -> est:Estimator.t -> int -> float * float
