(** Lindi-style LINQ combinator front-end (paper §4.1.1).

    Lindi exposes SQL-like operators over Naiad through a LINQ API; this
    shim offers the same surface as OCaml combinators that build the
    Musketeer IR. A query is a pipeline value; [run]/[finish] closes it
    into a workflow graph:

    {[
      let q =
        Lindi.read "properties"
        |> Lindi.where Expr.(col "price" > int 0)
        |> Lindi.select [ "street"; "town"; "price" ]
        |> Lindi.group_by ~keys:[ "street"; "town" ]
             ~aggs:[ Aggregate.make (Aggregate.Max "price") ~as_name:"max_price" ]
      in
      let graph = Lindi.finish ~name:"street_price" q
    ]} *)

type query

(** Read an HDFS relation. Each [read] starts a fresh pipeline; shared
    sub-queries are expressed with [let]. *)
val read : string -> query

val where : Relation.Expr.t -> query -> query

val select : string list -> query -> query

(** LINQ [Select] with a computed column. *)
val map : target:string -> Relation.Expr.t -> query -> query

val join : on:string * string -> query -> query -> query

(** Left outer join; [defaults] fill the right-side columns of
    unmatched left rows (right-schema order, without the key). *)
val left_outer_join :
  on:string * string -> defaults:Relation.Value.t list -> query -> query ->
  query

val semi_join : on:string * string -> query -> query -> query

val anti_join : on:string * string -> query -> query -> query

val cross : query -> query -> query

val union : query -> query -> query

val intersect : query -> query -> query

val except : query -> query -> query

val distinct : query -> query

val group_by :
  keys:string list -> aggs:Relation.Aggregate.t list -> query -> query

val aggregate : Relation.Aggregate.t list -> query -> query

val order_by : ?descending:bool -> string -> query -> query

val top : ?descending:bool -> by:string -> int -> query -> query

(** [iterate ~carrying ~iterations seeds body] — Lindi's fixed-point
    operator: [body] receives one query per seed pipeline (bound to the
    names in [carrying] plus the extra read-only inputs) and returns the
    next value of each carried relation. *)
val iterate :
  carrying:string list -> iterations:int -> (string * query) list ->
  ((string -> query) -> (string * query) list) -> query

(** Close the pipeline into a one-output workflow graph. [name] is the
    output relation. *)
val finish : name:string -> query -> Ir.Operator.graph
