(** Workflow execution: dispatch the partitioned plan's jobs to their
    engines, in dependency order, moving intermediate relations through
    the shared HDFS (paper §3, §6.3).

    WHILE operators assigned to engines that cannot iterate within a
    job (Hadoop, Metis) are expanded here: the loop body is itself
    partitioned for that engine (one job per shuffle) and re-dispatched
    every iteration, with the stop condition evaluated on the
    materialized HDFS state — the paper's dynamic DAG expansion (§4.2).

    After a successful run the workflow's history is updated with the
    observed intermediate sizes and makespan (§5.2). *)

type mode =
  | Generated        (** Musketeer's optimized generated code *)
  | Generated_naive  (** generated code without shared scans /
                         look-ahead type inference (Figure 12) *)
  | Baseline         (** hand-optimized, non-portable job (§6.4) *)
  | Native_frontend  (** stock front-end code, e.g. Lindi on Naiad *)

type result = {
  reports : Engines.Report.t list;   (** per engine job, in run order *)
  makespan_s : float;                (** workflow makespan (§6.1) *)
  outputs : (string * Relation.Table.t) list;
      (** the declared workflow outputs, as columns or rows, never
          views ({!Relation.Table.materialize}) *)
}

exception Execution_failed of Engines.Report.error

(** [run_plan ~profile ~history ~workflow ~hdfs ~graph ~plan ()] executes
    the plan and returns the aggregated result, or [Error _] when an
    engine rejects its job (e.g. Spark OOM) and the recovery policy is
    exhausted — with, either way, the same-engine retries the run spent
    (every job's, WHILE iterations included).

    @param mode code-generation mode (default {!Generated}).
    @param record_history update [history] on success (default true).
    @param recovery retry/fallback policy (default {!Recovery.none} —
           fail on the first error, the pre-recovery semantics). Failed
           jobs are re-attempted from their pre-run HDFS snapshot, so
           upstream intermediates are reused, not recomputed.
    @param candidates engines eligible when recovery re-plans a failed
           job, when the supervisor speculates, and when adaptive
           re-planning re-partitions the remaining DAG (default all;
           pass the planner's backend list to respect a forced
           mapping).
    @param supervision runtime supervision config (default
           {!Supervisor.disabled}): per-job deadlines, speculative
           duplicates for detected stragglers, and adaptive
           re-planning of the remaining jobs on size mispredictions.
    @param breaker circuit breaker (default none): planning
           candidates of recovery and re-planning skip the engines it
           quarantines, and every engine outcome is recorded on it.
    @param inject fault injector (default none): every engine run of
           the plan draws from it once ({!Engines.Injector}); the
           supervisor reads its straggler count to detect a job's
           injected straggler.
    @param sharing the service's shared store (serving mode): passed
           to every engine run, so co-admitted workflows reading the
           same INPUT relation pay one modeled HDFS read, and every
           relation the run writes drops the entries that read it.
           Results are byte-identical with or without it. *)
val run_plan :
  ?mode:mode -> ?record_history:bool -> ?recovery:Recovery.policy ->
  ?candidates:Engines.Backend.t list -> ?supervision:Supervisor.config ->
  ?breaker:Engines.Breaker.t -> ?inject:Engines.Injector.t ->
  ?sharing:Engines.Share.t ->
  profile:Profile.t ->
  history:History.t -> workflow:string -> hdfs:Engines.Hdfs.t ->
  graph:Ir.Dag.t -> plan:Partitioner.plan -> unit ->
  result Recovery.spent
