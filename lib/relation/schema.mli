(** Relation schemas: an ordered list of named, typed columns.

    Column names are significant — the IR wires operators together by
    column name, and the code generator's look-ahead type inference
    (paper §4.3.4) works over these schemas. *)

type column = {
  name : string;
  ty : Value.ty;
}

type t

(** [make cols] builds a schema. Raises [Invalid_argument] on duplicate
    column names or an empty column list. *)
val make : column list -> t

val columns : t -> column list

val arity : t -> int

(** [index_of t name] is the position of column [name].
    Raises [Not_found] when absent. *)
val index_of : t -> string -> int

val mem : t -> string -> bool

val column_type : t -> string -> Value.ty

val column_names : t -> string list

(** [restrict t names] keeps only [names], in the given order. Raises
    [Not_found] if any name is absent. *)
val restrict : t -> string list -> t

(** [concat a b] appends the columns of [b] to [a]. Columns of [b] whose
    names clash with [a] get a ["r_"] prefix, mirroring how generated
    back-end code flattens join outputs. *)
val concat : t -> t -> t

(** [with_column t col] appends one column; replaces in place when a
    column of the same name already exists (keeping its position). *)
val with_column : t -> column -> t

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
