(** Uniform interface over the seven engine simulators, plus the shared
    run skeleton they are built from.

    Every engine: (1) admission-checks the job against its paradigm
    (expressivity, §4.3.2), (2) executes the graph for real via
    {!Exec_helper}, (3) prices the measured data volumes with its own
    {!Perf.rates} — this is where Hadoop's per-job overhead, Naiad's
    single-reader Lindi I/O, PowerGraph's partitioning cost etc. live —
    and (4) materializes the job's outputs to HDFS. *)

type t = {
  backend : Backend.t;
  (** Can this engine express the job's graph as one job? Returns a
      human-readable reason when not. *)
  supports : Ir.Operator.graph -> (unit, string) result;
  run :
    cluster:Cluster.t -> hdfs:Hdfs.t -> Job.t ->
    (Report.t, Report.error) result;
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

(** Build an engine from a spec: executes the job graph, applies the
    job's code-generation options ([scan_passes] becomes extra process
    volume; [process_multiplier] scales process volume), prices with
    [spec_rates], writes outputs to HDFS. *)
val of_spec : spec -> t
