(** Data-volume estimation over a workflow DAG (paper §5.2).

    Every node gets a predicted output size in modeled MB, computed
    from: the actual HDFS sizes of the workflow inputs, the
    per-operator bounds of {!Ir.Sizing}, and — when available — the
    workflow's execution history, which overrides the a-priori
    estimates (this is what improves the choices across Figure 14's
    no/partial/full-history configurations).

    On a first run Musketeer is conservative: operators with unknown
    output bounds (JOIN, CROSS, UDF) are priced at a pessimistic
    multiple of their inputs, discouraging merges across them until
    history proves them small. *)

type t

(** [build ~input_mb ~history ~workflow g] — [input_mb] resolves the
    size of INPUT relations (missing relations are treated as produced
    upstream and must have been estimated; unknown names default to
    64 MB). [g]'s fusion plan is made here too, and one estimator per
    WHILE body, with the loop inputs bound to their producers'
    estimates. *)
val build :
  input_mb:(string -> float option) -> history:History.t ->
  workflow:string -> Ir.Dag.t -> t

(** The fusion plan of the graph the estimator was built for, made once
    however many candidate jobs {!Cost} prices against it. *)
val fusion : t -> Ir.Fusion.plan

(** {2 Pricing context}

    Per-graph facts every candidate job {!Cost} prices reads, indexed
    or memoized once per estimator: however many sets a search prices,
    each of these is computed once. Nothing here depends on a set. *)

(** The graph the estimator was built for. *)
val graph : t -> Ir.Dag.t

(** The node with this id; raises like {!Ir.Dag.node} for an unknown
    id. *)
val node : t -> int -> Ir.Operator.node

(** The distinct consumers of a node, in node order (as
    {!Ir.Dag.consumers}). *)
val consumers : t -> int -> int list

(** Whether the node is one of the graph's outputs. *)
val is_output : t -> int -> bool

(** {!Engines.Perf.charges} over the estimator's fusion plan, for the
    chains whose members all satisfy [within]. *)
val charges : t -> within:(int -> bool) -> Engines.Perf.charges

(** [body_pass t id] = [(process_mb, comm_mb, shuffles)] of one pass
    of the WHILE node [id]'s body, read off the body's estimator;
    nested loops count their iterations. Memoized per node; [(0, 0, 0)]
    for a non-WHILE node. *)
val body_pass : t -> int -> float * float * int

(** Whether the WHILE node [id]'s body is vertex-centric
    ({!Ir.Gas_check.body_is_vertex_centric}); memoized per node,
    [false] for a non-WHILE node. *)
val vertex_centric : t -> int -> bool

(** {2 Estimates} *)

(** Predicted output size of a node. *)
val output_mb : t -> int -> float

(** Predicted total input volume of a node (sum over its producers). *)
val input_mb : t -> int -> float

(** Estimated iteration count of a WHILE node (its condition's fixed
    bound, or a default of 10 for data-dependent loops). *)
val iterations : Ir.Operator.kind -> int

(** Whether the estimate for this node came from history. *)
val from_history : t -> int -> bool

(** Pessimism multiplier applied to unbounded operators on first runs;
    exposed for tests. *)
val conservative_factor : float

(** [size_rel_error t id ~observed_mb] — |observed − predicted| over
    max(|predicted|, 1e-6); the executor's per-node size-misprediction
    telemetry (["estimator.size_rel_error"] histogram). *)
val size_rel_error : t -> int -> observed_mb:float -> float
