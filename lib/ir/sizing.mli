(** Per-operator data-volume bounds (paper §5.2, "Data volume").

    Each operator constrains its output size as a function of its input
    sizes. Selective operators are bounded by their input; generative
    operators (JOIN, CROSS, UDF, WHILE) have no a-priori upper bound,
    which is why Musketeer is conservative on a workflow's first run and
    tightens the bounds from history afterwards. All sizes are modeled
    megabytes. *)

type estimate = {
  expected : float;
      (** default prediction used when no history is available *)
  upper : float option;
      (** hard bound implied by operator semantics; [None] = unbounded *)
}

(** [of_kind kind ~inputs] where [inputs] are the modeled input sizes in
    MB, in argument order. INPUT nodes pass the stored relation size as
    their single "input". *)
val of_kind : Operator.kind -> inputs:float list -> estimate

(** [project_mb schema bytes columns ~in_mb] — modeled output size of
    PROJECT [columns] over a table of [schema] whose
    {!Relation.Table.column_bytes} are [bytes], scaling [in_mb] by the
    retained fraction of the encoded bytes. Dictionary-aware: a
    low-cardinality string column costs its 4-byte codes per row plus
    the dictionary once, so dropping or keeping it moves the estimate
    by its real weight, not a flat per-column share. [bytes] is forced
    only when every column is known, and may describe a table that is
    never built (a fused JOIN's). [None] when some retained column is
    absent from [schema] (caller falls back to {!of_kind}). *)
val project_mb :
  Relation.Schema.t -> int array Lazy.t -> string list -> in_mb:float ->
  float option

(** The conservative first-run policy (§5.2): merge an operator eagerly
    only if its output is surely small — i.e. it is selective, or
    generative with a known small upper bound. *)
val safe_to_merge_without_history :
  Operator.kind -> inputs:float list -> bool
