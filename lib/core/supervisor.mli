(** Runtime supervision: deadlines, straggler speculation and adaptive
    re-planning (reproduction extension; cf. paper §6.3's recovery and
    Figure 14's misprediction signal).

    PR 2's recovery layer reacts to {e hard} failures only — an
    injected straggler inflates makespan with no response, and the
    predicted-vs-observed sizes the executor records never correct the
    plan mid-run. The supervisor closes both gaps, per executed job:

    - {b deadlines} — a job gets a soft deadline of
      [predicted_s * deadline_factor], tightened by an optional
      workflow-level deadline distributed over jobs proportionally to
      their predicted share. A job whose simulated makespan blows its
      deadline is declared a straggler even without an injected fault.
    - {b speculation} — on straggler detection (injected or deadline
      breach), a duplicate is launched on the next-best feasible
      engine ({!Recovery.alternatives}, which also respects the
      run's {!Engines.Breaker} quarantines) from the job's pre-run HDFS
      snapshot. First finisher wins, the loser is cancelled, and both
      attempts' consumed work is charged honestly: the winner's wall
      clock becomes the job makespan, the loser's wasted seconds go
      into the overhead phase. The pricing mirrors
      {!Engines.Faults.speculate} exactly, so observed == predicted in
      the bench.
    - {b re-planning} — after each job, observed output sizes are
      compared against the {!Estimator} predictions; when the relative
      error exceeds [replan_rel_error], the partitioner re-runs on the
      remaining DAG suffix with observed sizes substituted (completed
      intermediates stay materialized in HDFS), and the cheaper plan
      is adopted.

    Everything surfaces in {!Obs.Metrics.default}:
    [supervisor.stragglers], [supervisor.deadline_breaches],
    [supervisor.speculations], [supervisor.speculation_wins],
    [supervisor.mispredictions], [supervisor.replans] counters, the
    [supervisor.speculation_wasted_s] gauge and the
    [supervisor.replan_delta_s] gauge (predicted seconds saved by the
    last adopted replan), plus a [job.speculate] span per race. *)

type config = {
  deadline_factor : float option;
      (** per-job soft deadline multiplier over the cost-model
          prediction; [None] disables per-job deadlines *)
  workflow_deadline_s : float option;
      (** optional whole-workflow deadline, distributed over jobs by
          predicted share *)
  speculate : bool;  (** launch duplicates for detected stragglers *)
  replan_rel_error : float option;
      (** relative size-misprediction threshold that triggers
          re-planning of the remaining DAG; [None] disables *)
}

(** Everything off — the executor's default; supervision is opt-in. *)
val disabled : config

(** Deadline factor 2.0, speculation on, replan threshold 0.5. *)
val default : config

(** Whether this config can ever act. *)
val active : config -> bool

(** The job's effective soft deadline in seconds: the minimum of
    [deadline_factor * predicted_s] and the workflow deadline's share
    ([workflow_deadline_s * predicted_s / predicted_total_s]);
    [None] when neither is computable. *)
val effective_deadline_s :
  config -> predicted_s:float option -> predicted_total_s:float option ->
  float option

type verdict = {
  reports : Engines.Report.t list;  (** the job's reports, possibly
                                        replaced by the winning copy's *)
  backend : Engines.Backend.t;      (** engine whose output stands *)
  straggler : bool;
  deadline_breached : bool;
  speculated : bool;
  speculation_won : bool;
}

(** A verdict that leaves the job untouched. *)
val no_action :
  backend:Engines.Backend.t -> Engines.Report.t list -> verdict

(** [supervise_job] — inspect one successfully completed job and
    optionally race a speculative duplicate. [straggler_injected] is
    the executor's observation that the fault injector fired a
    straggler during this job; [reset] restores the job's pre-run HDFS
    snapshot (the supervisor snapshots the post-run state itself and
    restores it if the copy loses or fails). [dispatch] runs the job
    on a given engine, exactly as the executor would; the copy's
    outcome is recorded on [breaker], when given. *)
val supervise_job :
  breaker:Engines.Breaker.t option -> config:config -> profile:Profile.t ->
  graph:Ir.Dag.t -> est:Estimator.t option ->
  candidates:Engines.Backend.t list -> hdfs:Engines.Hdfs.t ->
  label:string -> ids:int list ->
  reset:(unit -> unit) ->
  dispatch:
    (Engines.Backend.t ->
     (Engines.Report.t list, Engines.Report.error) result) ->
  predicted_s:float option -> predicted_total_s:float option ->
  straggler_injected:bool -> backend:Engines.Backend.t ->
  Engines.Report.t list -> verdict

(** [maybe_replan] — after the job covering [completed] ids finished,
    decide whether to re-partition the [remaining] jobs. Fires when
    some completed node's materialized output size misses its
    {!Estimator} prediction by more than [replan_rel_error]; the
    remaining DAG suffix is re-estimated with observed sizes (inputs
    resolved from HDFS) and re-partitioned over the [candidates]
    [breaker] does not quarantine. Returns the new remaining jobs (ids
    in the original graph) when the re-plan is adopted — i.e. it is no
    more expensive than the old remaining plan re-priced with the same
    observed sizes — and [None] otherwise. *)
val maybe_replan :
  breaker:Engines.Breaker.t option -> config:config -> profile:Profile.t ->
  history:History.t -> workflow:string -> hdfs:Engines.Hdfs.t ->
  graph:Ir.Dag.t -> est:Estimator.t option ->
  candidates:Engines.Backend.t list -> completed:int list ->
  remaining:(Engines.Backend.t * int list) list ->
  (Engines.Backend.t * int list) list option
