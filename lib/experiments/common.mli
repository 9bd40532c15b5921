(** Shared infrastructure for the paper-reproduction experiments: the
    paper's testbeds, HDFS loaders for the standard workloads,
    forced-backend execution helpers and table printing. *)

(** The paper's two testbeds. *)
val local7 : Engines.Cluster.t

val ec2 : int -> Engines.Cluster.t

(* ---- loaders (fresh HDFS per call) ---- *)

val hdfs_with : (string * Workloads.Datagen.sized) list -> Engines.Hdfs.t

val load_tpch : scale_factor:int -> Engines.Hdfs.t

val load_purchases : users:int -> Engines.Hdfs.t

val load_netflix : movies:int -> Engines.Hdfs.t

(** vertices + edges for PageRank on the given graph. *)
val load_graph : Workloads.Datagen.graph_spec -> Engines.Hdfs.t

val load_communities : unit -> Engines.Hdfs.t

val load_sssp : unit -> Engines.Hdfs.t

val load_kmeans : points:int -> k:int -> Engines.Hdfs.t

(** The CLI's workflow zoo at the CLI's input sizes, by name: each
    entry builds a fresh HDFS and graph. *)
val zoo : (string * (unit -> Engines.Hdfs.t * Ir.Operator.graph)) list

(* ---- execution helpers ---- *)

(** [steady_state m ~workflow ~hdfs graph] — [m] with a private history
    filled by one operator-by-operator profiling run of [graph] on a
    snapshot of [hdfs]: a deployed workflow in steady state (full merge
    opportunities, §5.2). Raises [Failure] when that run fails. *)
val steady_state :
  Musketeer.t -> workflow:string -> hdfs:Engines.Hdfs.t ->
  Ir.Operator.graph -> Musketeer.t

(** [run_forced m ~mode ~workflow ~hdfs ~backend graph] — plan the whole
    workflow onto one backend and execute on a snapshot of [hdfs].
    Returns the makespan, or [Error] when the backend cannot run it.

    By default ([profiled] = true) the run starts from {!steady_state};
    pass [~profiled:false] to plan with [m] as given: a cold first run,
    as Figure 14's no-history condition does, or an [m] already brought
    to steady state. *)
val run_forced :
  ?mode:Musketeer.Executor.mode -> ?profiled:bool -> Musketeer.t ->
  workflow:string -> hdfs:Engines.Hdfs.t -> backend:Engines.Backend.t ->
  Ir.Operator.graph -> (float, string) result

(** Auto-mapped execution (all backends available). Returns makespan and
    the plan description. See {!run_forced} for [profiled]. *)
val run_auto :
  ?mode:Musketeer.Executor.mode -> ?merging:bool -> ?profiled:bool ->
  Musketeer.t -> workflow:string -> hdfs:Engines.Hdfs.t ->
  Ir.Operator.graph -> (float * string, string) result

(** Execute a hand-constructed plan (for the §6.3 combination study). *)
val run_with_plan :
  ?mode:Musketeer.Executor.mode -> Musketeer.t -> workflow:string ->
  hdfs:Engines.Hdfs.t -> graph:Ir.Operator.graph ->
  (Engines.Backend.t * int list) list -> (float, string) result

(** One-line plan rendering ("Hadoop[3]+Naiad[1]"). *)
val describe_plan : Musketeer.Partitioner.plan -> string

(* ---- output formatting ---- *)

(** [table ppf ~title ~header rows] prints an aligned text table. *)
val table :
  Format.formatter -> title:string -> header:string list ->
  string list list -> unit

val seconds : float -> string

(** "err: ..." cell for failed runs. *)
val cell : (float, string) result -> string
