(** Schema inference over IR graphs.

    Mirrors the runtime behaviour of {!Relation.Kernel} so that the code
    generator's look-ahead type inference (paper §4.3.4) and the
    validation of front-end translations can reason about intermediate
    schemas without executing anything. *)

exception Type_error of string

(** [infer ~catalog g] computes the output schema of every node.
    [catalog] resolves the schemas of INPUT relations (raise
    [Not_found] for unknown ones, reported as {!Type_error}).

    WHILE bodies are checked for type stability: every loop-carried
    relation must be re-produced with exactly the schema it was consumed
    with, otherwise iteration would be ill-typed.

    Black-box nodes cannot be typed and raise {!Type_error}; workflows
    using them bypass schema checks via their native back-end. *)
val infer :
  catalog:(string -> Relation.Schema.t) -> Dag.t ->
  (int, Relation.Schema.t) Hashtbl.t
