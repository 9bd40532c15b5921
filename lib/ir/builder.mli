(** Imperative construction of IR graphs with the invariants {!Dag}
    expects (strictly increasing ids, edges pointing forward, one
    relation per name).

    Front-ends translate their ASTs through this interface; tests and
    the Lindi combinator shim use it directly. *)

type t

(** Handle to a node under construction; produces one relation. *)
type handle

val create : unit -> t

(** Id of the underlying node (stable once created). *)
val id : handle -> int

(** Relation name the node produces ({!finish} may rename it). *)
val relation : handle -> string

val input : t -> string -> handle

(** Unary/binary operators. [?name] sets the output relation name
    (defaults to a minted ["tmp<id>"]). A name may be given more than
    once: {!finish} keeps it on the last non-INPUT node that takes it
    and renames the others, and a minted name that a given one also
    uses, to ["<name>_<k>"], the smallest [k >= 1] no given name and no
    earlier new name uses. A node that would take an INPUT's name is
    renamed too, except, at top level, one that updates it in place
    ({!Dag.replaces_input}); in a WHILE body every definition gets a
    name of its own, and {!finish_body}'s carried pairs say which
    replaces which INPUT. A graph without such a collision keeps its
    names. *)

val select : t -> ?name:string -> pred:Relation.Expr.t -> handle -> handle

val project : t -> ?name:string -> columns:string list -> handle -> handle

val map :
  t -> ?name:string -> target:string -> expr:Relation.Expr.t -> handle ->
  handle

val join :
  t -> ?name:string -> left_key:string -> right_key:string -> handle ->
  handle -> handle

val left_outer_join :
  t -> ?name:string -> left_key:string -> right_key:string ->
  defaults:Relation.Value.t list -> handle -> handle -> handle

val semi_join :
  t -> ?name:string -> left_key:string -> right_key:string -> handle ->
  handle -> handle

val anti_join :
  t -> ?name:string -> left_key:string -> right_key:string -> handle ->
  handle -> handle

val cross : t -> ?name:string -> handle -> handle -> handle

val union : t -> ?name:string -> handle -> handle -> handle

val intersect : t -> ?name:string -> handle -> handle -> handle

val difference : t -> ?name:string -> handle -> handle -> handle

val distinct : t -> ?name:string -> handle -> handle

val group_by :
  t -> ?name:string -> keys:string list -> aggs:Relation.Aggregate.t list ->
  handle -> handle

val agg : t -> ?name:string -> aggs:Relation.Aggregate.t list -> handle -> handle

val sort : t -> ?name:string -> by:string -> descending:bool -> handle -> handle

val top_k :
  t -> ?name:string -> by:string -> descending:bool -> k:int -> handle ->
  handle

val udf : t -> ?name:string -> Operator.udf -> handle list -> handle

(** [while_ b ~condition ~max_iterations ~body inputs] adds a WHILE node.
    [body] must have been finished with {!finish_body}; [inputs] are
    bound positionally to the body's INPUT nodes in body order. The
    WHILE's output is named [?name] or after the INPUT relation of the
    body's first carried pair. *)
val while_ :
  t -> ?name:string -> condition:Operator.loop_condition ->
  max_iterations:int -> body:Operator.graph -> handle list -> handle

val black_box :
  t -> ?name:string -> backend_hint:string -> description:string ->
  handle list -> handle

(** Finish a top-level workflow graph: unique names (see above), then
    validation. Raises {!Dag.Invalid} on inconsistency. *)
val finish : t -> outputs:handle list -> Operator.graph

(** Finish a WHILE body from its carried pairs [(old, next)]: [old] is
    a body INPUT relation and [next] the node whose relation replaces
    it in the next iteration, under whatever name {!finish} rules give
    it. The [next] nodes are the body's outputs, in pair order; the
    first is the loop's result. *)
val finish_body : t -> carried:(string * handle) list -> Operator.graph
