(** Reference interpreter for IR graphs.

    This is the semantic ground truth: every engine simulator produces
    exactly these tables (they share the {!Relation.Kernel} kernels and
    this evaluation order), so tests can compare any back-end against
    [Interp] output, and the engines only differ in simulated time.

    WHILE operators are executed by successive body expansion, as the
    paper describes (§4.2): each iteration re-evaluates the body with the
    loop-carried relations rebound to the previous iteration's outputs. *)

exception Runtime_error of string

(** Relation store the interpreter reads inputs from. *)
type store = (string, Relation.Table.t) Hashtbl.t

val store_of_list : (string * Relation.Table.t) list -> store

(** [run ~store g] evaluates the whole graph. Returns the bindings of
    all node output relations (intermediates included; for WHILE nodes,
    the final value of the loop). Raises {!Runtime_error} on missing
    inputs, {!Relation.Expr.Type_error} on ill-typed expressions. *)
val run : store:store -> Dag.t -> (string * Relation.Table.t) list

(** [outputs ~store g] is [run] restricted to the graph's declared
    output relations, in declaration order. *)
val outputs : store:store -> Dag.t -> (string * Relation.Table.t) list

(** [eval_kind kind inputs] applies a single non-WHILE operator to its
    input tables — the building block engines use. WHILE and INPUT are
    rejected with {!Runtime_error} (engines handle them structurally). *)
val eval_kind : Operator.kind -> Relation.Table.t list -> Relation.Table.t

(** [loop_finished condition ~iteration ~max_iterations ~current ~previous]
    decides whether a WHILE loop should stop *after* an iteration, given
    the loop-carried relation values before and after it, inside a
    [while.test] span. Exposed so engine simulators implement
    identical loop semantics. *)
val loop_finished :
  Operator.loop_condition -> iteration:int -> max_iterations:int ->
  current:(string -> Relation.Table.t) ->
  previous:(string -> Relation.Table.t) -> bool
