(** Query-rewriting optimizations on the IR (paper §4.2).

    The rewrites reorder operators so selective ones run closer to the
    start of the workflow, shrinking intermediate data volumes — the
    benefit applies to every front-end and back-end at once, which is
    the LLVM-style payoff of optimizing at the common IR level.

    Each fixpoint pass types the graph once and applies the first
    rewrite that fires (also inside WHILE bodies, with the loop's input
    schemas bound), in this order:
    - SELECT push-down: a SELECT whose input only it reads, and which is
      no workflow output, moves below that input. One table, keyed by
      the input's kind, names the rule and builds the replacement:
      {v
input kind   rule                        replacement
SELECT p1    fuse-selects                SELECT (p1 AND p)
JOIN         select-through-join         JOIN over SELECT on the side
                                         providing every predicate column
MAP t        select-through-map          MAP over SELECT, when p does not
                                         read t and its input has p's columns
UNION        select-through-union        UNION of two SELECTs
DISTINCT     select-through-distinct     DISTINCT over SELECT
DIFFERENCE   select-through-difference   DIFFERENCE of two SELECTs
      v}
    - [dead-elimination]: drop an operator nobody reads;
    - [prune-input-columns]: dead-column elimination over workflow
      inputs ({!Column_pruning}).

    Every rewrite rebuilds the graph through {!Rebuild.rewrite}. Each
    one fired counts in the [rewrite.<rule>] counter and names the
    pass's [optimize.pass] span ([applied]).

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
