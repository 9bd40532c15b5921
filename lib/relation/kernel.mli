(** Relational operator kernels.

    These implement the actual data transformations behind every IR
    operator. Each engine simulator calls into this module, so all seven
    back-ends compute identical answers; they differ only in the
    simulated time they charge (and in which operators they can express
    at all).

    The hot kernels (select, project, map_column, join, cross_join,
    group_by) try the vectorized {!Columnar} path first. When it does
    not apply they run the serial row path and count
    [kernel.row.<kernel>] (with [map] for map_column and [cross] for
    cross_join), next to the [kernel.fallback.<reason>] that
    {!Columnar} counted for the refusal. Every kernel is serial: the
    row path is the one reference the columnar path is checked
    against, and the last-resort fallback. *)

val select : Table.t -> Expr.t -> Table.t

(** [project t cols] keeps [cols], in order. Raises [Not_found] for an
    unknown column. *)
val project : Table.t -> string list -> Table.t

(** [map_column t ~target ~expr] appends column [target] computed by
    [expr] per row, or replaces it in place when it already exists. This
    is the kernel behind the IR's SUM/SUB/MUL/DIV column algebra. *)
val map_column : Table.t -> target:string -> expr:Expr.t -> Table.t

(** [rename_column t ~from_ ~to_] renames one column. *)
val rename_column : Table.t -> from_:string -> to_:string -> Table.t

(** Equi-join (hash join, build side = left). Output schema is the left
    schema followed by the right schema without the right key; clashing
    right names get an ["r_"] prefix, mirroring the flattened tuples of
    generated back-end code (paper Listing 3/4). *)
val join : Table.t -> Table.t -> left_key:string -> right_key:string -> Table.t

val cross_join : Table.t -> Table.t -> Table.t

(** Left outer equi-join: left rows without a match are kept, with the
    right-side columns filled from [defaults] (in right-schema order,
    excluding the right key). Raises [Invalid_argument] when [defaults]
    do not match the right schema's non-key columns in arity or type. *)
val left_outer_join :
  Table.t -> Table.t -> left_key:string -> right_key:string ->
  defaults:Value.t list -> Table.t

(** Left semi-join: left rows with at least one match; left schema. *)
val semi_join :
  Table.t -> Table.t -> left_key:string -> right_key:string -> Table.t

(** Left anti-join: left rows with no match; left schema. *)
val anti_join :
  Table.t -> Table.t -> left_key:string -> right_key:string -> Table.t

(** Bag union; schemas must be equal.
    Raises [Invalid_argument] otherwise. *)
val union_all : Table.t -> Table.t -> Table.t

(** Set union / intersection / difference (distinct output). *)
val union : Table.t -> Table.t -> Table.t

val intersect : Table.t -> Table.t -> Table.t

val difference : Table.t -> Table.t -> Table.t

val distinct : Table.t -> Table.t

(** [group_by t ~keys ~aggs] groups on [keys] (which may be empty for a
    global AGG) and evaluates each aggregation per group. Output schema:
    the key columns followed by one column per aggregation. Group order
    is the first-appearance order of keys, so output is deterministic. *)
val group_by : Table.t -> keys:string list -> aggs:Aggregate.t list -> Table.t

(** The serial row kernel behind {!group_by}: the reference its
    columnar path is checked against. *)
val serial_group_by :
  Table.t -> keys:string list -> aggs:Aggregate.t list -> Table.t

(** [top_k t ~by ~descending ~k] stable-sorts once with the requested
    direction and keeps the first [k] rows. *)
val top_k : Table.t -> by:string -> descending:bool -> k:int -> Table.t

(** [sample t ~fraction ~seed] deterministic row subsample (workload
    down-scaling helper). *)
val sample : Table.t -> fraction:float -> seed:int -> Table.t
