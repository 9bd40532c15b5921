(** Dead-column elimination: the projection-push-down half of the
    paper's IR optimizations (§4.2 — reducing intermediate data volume
    where possible).

    A backwards liveness analysis computes, for every node, which of
    its output columns downstream operators actually read; when a
    workflow INPUT provides columns nobody uses, a PROJECT is inserted
    directly after it so every engine scans (and the cost model prices)
    only the live columns.

    Soundness notes encoded in the analysis: set operators (UNION,
    INTERSECT, DIFFERENCE) and DISTINCT compare whole rows, so their
    inputs keep every column; JOIN's rename-on-clash ([r_] prefix) is
    inverted when propagating requirements into the right side; WHILE
    bodies, UDFs and black boxes are opaque (all columns live). *)

(** [required_columns ~catalog g] — live output columns per node id.
    Raises {!Ir.Typing.Type_error} when the graph cannot be typed. *)
val required_columns :
  catalog:(string -> Relation.Schema.t) -> Ir.Dag.t ->
  (int, string list) Hashtbl.t

(** The rewrite, in the optimizer's single-step interface: returns the
    graph with one pruning PROJECT inserted (through {!Rebuild.rewrite},
    so a WHILE body keeps its carried pairs), or [None] when every input
    is already fully live. [schemas] is the optimizer pass's
    {!Ir.Typing.infer} of the graph; the rewrite types nothing itself. *)
val prune_inputs :
  schemas:(int, Relation.Schema.t) Hashtbl.t -> Ir.Dag.t -> Ir.Dag.t option
