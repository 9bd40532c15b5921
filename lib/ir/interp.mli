(** Reference interpreter for IR graphs.

    This is the semantic ground truth: every engine simulator produces
    exactly these tables (they share the {!Relation.Kernel} kernels and
    this evaluation order), so tests can compare any back-end against
    [Interp] output, and the engines only differ in simulated time.

    WHILE operators are executed by successive body expansion, as the
    paper describes (§4.2): each iteration re-evaluates the body with
    every carried pair's INPUT rebound to the relation that replaces it
    ({!loop}). *)

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

(** [loop ~bind ~pass ~table ~condition ~max_iterations body inputs] is
    the one WHILE driver: the interpreter, the engines' interpreter and
    the per-iteration job chains of a MapReduce engine each supply
    only their [pass]. It binds [inputs] positionally to [body]'s
    INPUT nodes with [bind]; then each iteration [i] runs [pass i],
    which returns a lookup of the relations that pass produced, tests
    the condition after it (inside a [while.test] span: [Until_empty r]
    and [Until_fixpoint r] read the relation paired with the INPUT
    [r]), and rebinds every carried pair's INPUT to its new value with
    [bind]. Returns the body's first output after the last iteration,
    and the iteration count. [table] reads a value's table. *)
val loop :
  bind:(string -> 'v -> unit) -> pass:(int -> string -> 'v) ->
  table:('v -> Relation.Table.t) -> condition:Operator.loop_condition ->
  max_iterations:int -> Operator.graph -> 'v list -> 'v * int
