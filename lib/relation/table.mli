(** In-memory relations: a schema plus row data.

    Tables are immutable; kernels in {!Kernel} return fresh tables.
    Every engine simulator executes operators against these tables, so
    the answers Musketeer returns are real — only the clock is modeled.

    Physically a table is row-backed (boxed [Value.t] rows, the seed
    layout), column-backed (typed unboxed {!Column.t}s), or a {!view}
    over other tables' columns. Rows and columns materialize lazily from
    whichever form the table has and are memoized, so both APIs are
    always available. The vectorized kernels ({!Columnar}) produce and
    consume columns and views; everything else is oblivious. Sizes too:
    {!encoded_bytes} is one logical size computed from the contents, so
    a table's rows, its columns and any view of them give the same
    bytes. *)

type t

(** A late-materialized table: column groups, each a set of base
    columns read through one shared row-index vector. Row [i] of a
    column [(c, g)] is row [idx.(g).(i)] of [c]; with [g = -1] it is
    row [i] of [c] (the base is already row-aligned). Materializing a
    view gathers every column through its group's index — exactly the
    columns the eager kernels would have built. *)
type view = {
  idx : int array array;  (** one row-index vector per group *)
  vcols : (Column.t * int) array;  (** per schema column: base, group *)
}

(** [create schema rows] checks that every row matches [schema] in arity
    and column types, then builds the table.
    Raises [Invalid_argument] on a mismatch. *)
val create : Schema.t -> Value.t array list -> t

(** [create_unchecked] skips per-row validation; used by kernels whose
    output rows are correct by construction. *)
val create_unchecked : Schema.t -> Value.t array array -> t

val empty : Schema.t -> t

(** [of_columns schema cols] builds a column-backed table, one column
    per schema column in order. Raises [Invalid_argument] on an arity,
    length or type mismatch, or if any column has null slots (tables
    are non-nullable). *)
val of_columns : Schema.t -> Column.t array -> t

(** [of_view schema ~rows v] builds a view of [rows] rows (no checks:
    kernel output is correct by construction). Unused groups are
    dropped; a view whose columns are all row-aligned is a plain
    column-backed table. *)
val of_view : Schema.t -> rows:int -> view -> t

(** The view form of any table: its view, or its columns (materialized
    from rows if need be) as row-aligned entries. Never gathers. *)
val parts : t -> view

(** [compose ix keep] is [ix] read through [keep]: [ix.(keep.(k))]. *)
val compose : int array -> int array -> int array

(** [reindex v keep] is the view whose row [i] is row [keep.(i)] of [v]:
    each group's index is composed with [keep] once, and row-aligned
    columns read through [keep] itself. *)
val reindex : view -> int array -> view

(** The columns of [a] followed by those of [b], over equal row counts. *)
val concat_views : view -> view -> view

(** Whether the table is a view not yet materialized. *)
val is_view : t -> bool

(** Forces a view into columns (counted as [kernel.view.materialized])
    and drops it, so the table no longer holds its inputs' columns.
    The unconditional force: the workflow outputs the executor returns
    pass through here. Other tables are returned as they are. *)
val materialize : t -> t

(** The form a store keeps: a view stays one (counted as
    [kernel.view.stored]) when its index words (groups × rows) plus the
    words of every distinct base column it reads through an index are
    no more than the words of the columns it would gather, and is
    {!materialize}d otherwise. A word is one column entry, index
    entry or dictionary code; row-aligned columns and dictionaries are
    shared by both forms and not counted. So a stored entry never holds
    more words than its materialized form, and its {!encoded_bytes}
    and {!to_csv} are those of its materialization either way. HDFS
    and the serving layer's shared store store through here. *)
val for_store : t -> t

(** [column_at t j] is column [j] row-aligned: gathered through its
    group's index when [t] is a view, which stays a view. *)
val column_at : t -> int -> Column.t

(** The logical encoded size of each column, in bytes: 8 per row for
    ints and floats, 1 for bools, and for strings a 4-byte code per row
    plus [length + 1] for each distinct value present (see
    {!Column.encoded_bytes}). Computed from whichever form the table
    has, without converting or gathering it, and memoized: a table's
    rows form, its columns form and any view of the same rows give the
    same ints. *)
val column_bytes : t -> int array

val schema : t -> Schema.t

(** Row view; materialized from the columns (and memoized) when the
    table is column-backed. *)
val rows : t -> Value.t array array

(** Columns; materialized from the rows or the view (and memoized) when
    the table has none yet. *)
val columns : t -> Column.t array

(** Whether the columns are already materialized — i.e. reading
    {!columns} is free. *)
val is_columnar : t -> bool

val row_count : t -> int

val is_empty : t -> bool

(** [column t name] extracts one column. Raises [Not_found]. *)
val column : t -> string -> Value.t array

(** [get t i name] is the cell at row [i], column [name]. *)
val get : t -> int -> string -> Value.t

(** The sum of {!column_bytes}: the basis for the simulated-HDFS
    modeled sizes. Strings are charged once per distinct value, not per
    row, so low-cardinality columns are not overstated. It depends on
    the table's contents alone, never on its physical form. *)
val encoded_bytes : t -> int

val encoded_mb : t -> float

(** Order-insensitive multiset equality; used pervasively by tests to
    compare engine outputs against reference results. *)
val equal_unordered : t -> t -> bool

(** CSV round-trip used by the simulated HDFS and the CLI. *)
val to_csv : t -> string

(** [of_csv schema s] parses rows of [schema] from [to_csv] output.
    Raises [Invalid_argument] on malformed input. *)
val of_csv : Schema.t -> string -> t

(** [sort_by t names] sorts rows lexicographically by the given columns
    (descending on every column with [~descending:true]). The sort is
    stable — rows equal on the key columns keep their original relative
    order — which makes the output unique, so the columnar and row
    paths are byte-identical. *)
val sort_by : ?descending:bool -> t -> string list -> t

(** [sort_with t cmp] stable-sorts rows under an arbitrary comparator. *)
val sort_with : t -> (Value.t array -> Value.t array -> int) -> t

val pp : Format.formatter -> t -> unit

(** [pp_sample ~n] prints the first [n] rows plus a row count. *)
val pp_sample : n:int -> Format.formatter -> t -> unit
