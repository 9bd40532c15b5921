(** Query-rewriting optimizations on the IR (paper §4.2).

    The rewrites reorder operators so selective ones run closer to the
    start of the workflow, shrinking intermediate data volumes — the
    benefit applies to every front-end and back-end at once, which is
    the LLVM-style payoff of optimizing at the common IR level.

    Implemented rewrites (applied to fixpoint, also inside WHILE
    bodies):
    - SELECT push-down through JOIN (to the side that provides all the
      predicate's columns);
    - SELECT push-down through MAP (when the predicate ignores the
      mapped column);
    - SELECT push-down through UNION and DIFFERENCE (the select is
      cloned into both branches) and through DISTINCT;
    - fusion of adjacent SELECTs into one conjunctive predicate;
    - dead-operator elimination;
    - dead-column elimination over workflow inputs ({!Column_pruning}).

    [catalog] supplies workflow-input schemas so predicate columns can
    be attributed to join sides. The rewritten graph is re-validated
    and semantics-preserving: tests check output equality on random
    data. *)

val optimize :
  catalog:(string -> Relation.Schema.t) -> Ir.Dag.t -> Ir.Dag.t

(** [optimize], also returning the number of rewrites it applied
    (WHILE bodies included; [explain] reports it). *)
val optimize_counted :
  catalog:(string -> Relation.Schema.t) -> Ir.Dag.t -> Ir.Dag.t * int
