(** Executor-side fault recovery (paper §6.3, Table 3).

    The paper's prototype falls back when an engine rejects a job
    (e.g. a Spark OOM); Table 3 distinguishes engines by whether they
    survive worker failures at all. This module makes both real for
    the executor: a failed job is re-executed on its planned engine
    with bounded retries, and on repeated failure or admission
    rejection it is {e re-planned} onto the next-best feasible engine
    by re-scoring its sub-DAG with the cost model. Upstream jobs are
    never re-run — their outputs are already materialized in HDFS, and
    the executor restores the job's pre-run HDFS snapshot between
    attempts.

    Recovery time is charged into the recovered job's report (makespan
    and overhead phase) using {!Engines.Faults.makespan_with_failure}:
    a worker lost after fraction [f] of a job on a restart-only engine
    wastes [f] of the job; a rejection costs one detection delay; each
    failed attempt optionally adds exponential backoff. Every attempt
    runs inside a [job.attempt] trace span, and recovered jobs are
    recorded in {!Obs.Metrics} ([recovery.retries],
    [recovery.fallbacks], [recovery.failed_attempts] counters plus one
    {!Obs.Metrics.recovery_event} per recovered job). *)

type policy = {
  max_retries : int;       (** same-engine re-executions per engine *)
  allow_replan : bool;     (** fall back to the next-best engine *)
  backoff_base_s : float;  (** simulated wait before retry [k]:
                               [base * 2^(k-1)]; 0 disables backoff *)
}

(** Fail on the first error — the pre-recovery executor semantics. *)
val none : policy

(** 2 retries, replanning on, no backoff. *)
val default : policy

type outcome = {
  reports : Engines.Report.t list;
      (** the successful attempt's reports; the first one carries the
          accumulated recovery cost *)
  backend : Engines.Backend.t;  (** engine the job finally ran on *)
  attempts : int;               (** total attempts incl. the final one *)
  replanned : bool;             (** ran on a fallback engine *)
  recovery_s : float;           (** seconds charged to recovery *)
}

(** A recovery loop's result and the same-engine retries it spent on
    the way, whether it succeeded or gave up: the number it added to
    [recovery.retries]. Callers that budget retries charge this. *)
type 'a spent = {
  result : ('a, Engines.Report.error) result;
  retries : int;
}

(** [record breaker ok backend] — note one engine run outcome
    ([ok] = success) on [breaker]; a no-op without one. *)
val record : Engines.Breaker.t option -> bool -> Engines.Backend.t -> unit

(** Feasible fallback engines for the job [ids] of [graph], cheapest
    first under the cost model ([candidates] order when [est] is
    [None]), excluding [exclude] and any engine [breaker] quarantines.
    WHILE-only jobs count engines that can run them as per-iteration
    chains. *)
val alternatives :
  ?breaker:Engines.Breaker.t -> profile:Profile.t -> graph:Ir.Dag.t ->
  est:Estimator.t option ->
  candidates:Engines.Backend.t list -> exclude:Engines.Backend.t list ->
  int list -> Engines.Backend.t list

(** [run_job ~policy ... ~reset ~dispatch backend] — run the job via
    [dispatch], retrying and re-planning per [policy]. [reset] is
    invoked before every re-attempt to restore pre-job state (the
    executor passes an HDFS snapshot restore). Every attempt's outcome
    is recorded on [breaker], when given. Returns the last error when
    the policy is exhausted. *)
val run_job :
  ?breaker:Engines.Breaker.t -> policy:policy -> profile:Profile.t ->
  graph:Ir.Dag.t -> est:Estimator.t option ->
  candidates:Engines.Backend.t list ->
  workflow:string -> label:string -> ids:int list ->
  reset:(unit -> unit) ->
  dispatch:
    (Engines.Backend.t ->
     (Engines.Report.t list, Engines.Report.error) result) ->
  Engines.Backend.t ->
  outcome spent

(** [charge_recovery s reports] — add [s] seconds of recovery cost,
    distributed across [reports] proportionally to their makespan
    share (even split when every makespan is 0), into both makespan
    and the overhead phase. The sum of makespans grows by exactly
    [s]. Identity for [s <= 0.] or an empty list. *)
val charge_recovery :
  float -> Engines.Report.t list -> Engines.Report.t list

(** Lightweight same-engine retry loop for jobs that cannot be
    re-planned (the per-iteration jobs of an expanded WHILE). [reset]
    (default no-op) restores pre-attempt state before every retry —
    the executor passes an HDFS snapshot restore so a half-written
    iteration cannot leak into the re-run. *)
val with_retries :
  ?breaker:Engines.Breaker.t -> ?reset:(unit -> unit) ->
  policy:policy -> workflow:string -> label:string ->
  backend:Engines.Backend.t ->
  (unit -> (Engines.Report.t, Engines.Report.error) result) ->
  Engines.Report.t spent
