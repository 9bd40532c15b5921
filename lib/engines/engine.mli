(** Uniform interface over the seven engine simulators, plus the shared
    run skeleton they are built from.

    The engines are cost models over measured volumes (DESIGN.md §2),
    so a job's data plane is kept apart from its pricing. A run goes:

    + {b execute} — admission-check the graph against the engine's
      paradigm (expressivity, §4.3.2), then run it for real via
      {!Exec_helper}. The rows and volumes do not depend on the engine,
      and scan claims on the service's {!Share} store, when the run is
      given one, waive the charge for scans another in-flight workflow
      already paid;
    + {b price} — turn the measured volumes into time with the engine's
      own {!Perf.rates}: Hadoop's per-job overhead, Naiad's
      single-reader Lindi I/O, PowerGraph's partitioning cost etc. live
      here, as do the post-execution admission checks (Spark's OOM);
    + {b draw} — take the job's injected fault from the run's
      {!Injector}, if it was given one;
    + {b publish} — materialize the job's outputs to HDFS (a write
      drops the store's entries that read the relation). *)

type t = {
  backend : Backend.t;
  (** Can this engine express the job's graph as one job? Returns a
      human-readable reason when not. *)
  supports : Ir.Operator.graph -> (unit, string) result;
  (** [price ~cluster job exec] — the report [run] would give for [job]
      had its execution produced [exec], before any fault. Runs
      [supports] first. Pure: it draws no fault, writes no HDFS entry
      and emits no metric, so one execution can be priced on every
      engine (calibration does). *)
  price :
    cluster:Cluster.t -> Job.t -> Exec_helper.result ->
    (Report.t, Report.error) result;
  (** execute → price → draw → publish; [inject] and [share] default
      to none *)
  run :
    ?inject:Injector.t -> ?share:Share.t -> cluster:Cluster.t ->
    hdfs:Hdfs.t -> Job.t -> (Report.t, Report.error) result;
}

(** Engine-specific hooks for {!run_with}. *)
type spec = {
  spec_backend : Backend.t;
  spec_supports : Ir.Operator.graph -> (unit, string) result;
  (** Rates may depend on the job (e.g. Naiad I/O mode) and on the
      measured volumes (e.g. Metis falling out of memory). *)
  spec_rates :
    cluster:Cluster.t -> job:Job.t -> volumes:Perf.volumes -> Perf.rates;
  (** Admission check run after execution, with volumes known
      (e.g. Spark's OOM). *)
  spec_admit :
    cluster:Cluster.t -> job:Job.t -> volumes:Perf.volumes ->
    stats:Exec_helper.op_stat list -> (unit, Report.error) result;
  (** Extra seconds charged to the comm phase (e.g. Lindi's
      collect-on-one-machine GROUP BY). *)
  spec_comm_penalty_s :
    cluster:Cluster.t -> job:Job.t -> stats:Exec_helper.op_stat list -> float;
  (** Engine-specific volume reshaping, applied after the generic
      code-quality adjustments — e.g. Spark materializing every
      intermediate RDD, or Naiad's vertex-level GROUP BY pre-aggregating
      locally before the shuffle. *)
  spec_adjust_volumes :
    job:Job.t -> stats:Exec_helper.op_stat list -> Perf.volumes ->
    Perf.volumes;
}

(** Default hooks: always admit, no penalty. *)
val default_spec : Backend.t -> spec

(** Volume reshaping for vertex-centric engines: the literal dataflow
    body charges shuffles for every JOIN/DIFFERENCE/UNION it uses to
    encode one superstep, but a GAS runtime only sends the gathered
    messages over the network — scatter reads edges shard-locally.
    Replaces [comm_mb] with the GROUP-BY (message) volume and re-applies
    the job's generated-code multipliers. *)
val gas_message_volumes :
  job:Job.t -> stats:Exec_helper.op_stat list -> Perf.volumes ->
  Perf.volumes

(** Build an engine from a spec. Its [price] applies the job's
    code-generation options ([scan_passes] becomes extra scan volume;
    [process_multiplier] and [shuffle_multiplier] scale process and
    comm volume), then [spec_adjust_volumes], [spec_admit],
    [spec_rates] and [spec_comm_penalty_s]; its [run] wraps that price
    between execution and the fault draw and output publish. *)
val of_spec : spec -> t
