(** Plan explanation: why Musketeer mapped a workflow the way it did.

    Renders, for a given workflow against the current HDFS contents:
    the optimized IR (with the number of rewrites applied), the
    per-operator data-volume estimates (flagging which came from
    execution history, §5.2), the chosen partitioning with per-job
    estimated costs, and — for perspective — the estimated cost of
    forcing each single back-end. Exposed through the CLI's
    [explain] subcommand. *)

type report = {
  rewrites_applied : int;
  optimized : Ir.Dag.t;
  (* node id, description, estimated output MB, from history? *)
  estimates : (int * string * float * bool) list;
  plan : Partitioner.plan option;
  (* per-job estimated cost, in plan order *)
  job_costs : (Engines.Backend.t * int list * float) list;
  (* whole-workflow cost when forced onto one backend *)
  alternatives : (Engines.Backend.t * Cost.verdict) list;
  (* the profile's calibration factors ([] when none); job_costs are
     calibrated, pp shows raw = cost / factor alongside *)
  calibration : (string * float) list;
}

val explain :
  ?backends:Engines.Backend.t list -> profile:Profile.t ->
  history:History.t -> workflow:string -> hdfs:Engines.Hdfs.t ->
  Ir.Dag.t -> report

val pp : Format.formatter -> report -> unit

(** Graphviz rendering of the workflow with nodes colored by the job /
    back-end the plan assigns them to (CLI: [plan --dot]). *)
val plan_dot : Ir.Dag.t -> Partitioner.plan -> string
