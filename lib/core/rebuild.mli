(** Re-emitting IR nodes through a {!Ir.Builder}: the one graph-rewrite
    driver under the optimizer, column pruning and subplan cuts, and
    the node copy job-graph extraction shares. *)

(** [copy_node b ~name kind inputs] mirrors an existing operator node
    into the builder. Raises [Invalid_argument] on arity mismatch. *)
val copy_node :
  Ir.Builder.t -> name:string -> Ir.Operator.kind ->
  Ir.Builder.handle list -> Ir.Builder.handle

(** What {!rewrite} does with one node. *)
type action =
  | Keep  (** copy the node over its rebuilt inputs *)
  | Skip  (** drop the node; no kept node or output may read it *)
  | Replace of
      (Ir.Builder.t -> (int -> Ir.Builder.handle) -> Ir.Builder.handle)
      (** build the node's stand-in; the function maps an old node id
          to its rebuilt handle *)

(** [rewrite g ~decide] rebuilds [g], asking [decide] about every node
    in topological order. The result gets fresh contiguous ids and is
    revalidated; a WHILE body is finished with {!Ir.Builder.finish_body}
    over [g]'s carried pairs, so it keeps them. Raises
    [Invalid_argument] when a kept node, a replacement or an output
    reads a skipped node. *)
val rewrite :
  Ir.Dag.t -> decide:(Ir.Operator.node -> action) -> Ir.Dag.t
