(** Shared job-execution machinery.

    Every engine really executes its job graph on the relations stored
    in the simulated HDFS — using the {!Ir.Interp} kernels, so all
    back-ends produce identical answers — while this helper tracks the
    modeled data volumes flowing through each operator. Engines turn
    those volumes into time via their own {!Perf.rates}.

    Modeled sizes propagate by measured selectivity: an operator that
    keeps half its sample rows forwards half its modeled input bytes
    (DESIGN.md §2). *)

type op_stat = {
  node_id : int;
  kind_name : string;
  in_mb : float;
  out_mb : float;
  shuffled : bool;
}

type result = {
  volumes : Perf.volumes;
      (** [scan_extra_mb] is 0 here; engines add it from job options.
          [input_mb] and [load_mb] charge every scan in [scans]: a
          shared-scan waiver is the engine's to decide at run time *)
  outputs : (string * Relation.Table.t * float) list;
      (** external outputs: relation name, rows, modeled MB. An output
          may be a view: the store it goes to decides its form
          ({!Relation.Table.for_store}) *)
  op_stats : op_stat list;
  scans : (string * float) list;
      (** every scan charged, as relation and modeled MB, in order: a
          relation is fetched and charged once per graph, however many
          INPUT nodes name it *)
}

exception Execution_error of string

(** [execute ~hdfs graph] runs the graph. INPUT nodes resolve against
    [hdfs]; WHILE nodes iterate in-engine (engines whose paradigm cannot
    iterate must reject such graphs before calling this). Raises
    {!Execution_error} on missing relations and propagates kernel
    errors. The result depends only on [graph] and the HDFS contents.
    Fusion chains ({!Ir.Fusion.plan}) are priced as merged operators;
    they change the modeled volumes and op_stats, never what the
    kernels output. It does {b not} write outputs back to HDFS and
    does not consult {!Share} — the engine does both — so one result
    can be priced on every engine. *)
val execute : hdfs:Hdfs.t -> Ir.Operator.graph -> result

(** [is_graph_idiom g] — true when the graph is a single WHILE
    (plus INPUT nodes) whose body contains a JOIN followed by a
    GROUP BY, i.e. the vertex-centric idiom GAS-only engines accept
    (§4.3.1). The full recognizer lives in the core library; engines use
    this structural check as their admission test. *)
val is_graph_idiom : Ir.Operator.graph -> bool

(** Number of shuffle-inducing operators in the graph (not recursing
    into WHILE bodies). MapReduce-style engines accept at most one. *)
val shuffle_count : Ir.Operator.graph -> int

(** True when some operator (recursively) is a WHILE. *)
val has_while : Ir.Operator.graph -> bool
