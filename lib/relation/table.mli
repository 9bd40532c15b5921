(** In-memory relations: a schema plus row data.

    Tables are immutable; kernels in {!Kernel} return fresh tables.
    Every engine simulator executes operators against these tables, so
    the answers Musketeer returns are real — only the clock is modeled.

    Physically a table is row-backed (boxed [Value.t] rows, the seed
    layout), column-backed (typed unboxed {!Column.t}s), or a {!view}
    over other tables' columns. Rows and columns materialize lazily from
    whichever form the table has and are memoized, so both APIs are
    always available. The vectorized kernels ({!Columnar}) produce and
    consume columns and views; everything else is oblivious. *)

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
    column-backed table. The view is not {!settle}d. *)
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
    Tables that leave a job pass through here. Other tables are
    returned as they are. *)
val materialize : t -> t

(** The same table with the dictionary compaction {!Column.gather}
    would apply at this row count applied now to the view's indexed
    dictionary columns ([t] itself when none compacts). A kernel whose
    eager form gathers settles its output, so every size stays the one
    eager gathers give. *)
val settle : t -> t

(** [column_at t j] is column [j] row-aligned: gathered through its
    group's index when [t] is a view, which stays a view. *)
val column_at : t -> int -> Column.t

(** Encoded bytes of each column, as {!encoded_bytes} counts them,
    without materializing a view. *)
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

(** Actual encoded size of the stored data, in bytes — the basis for
    the simulated-HDFS modeled sizes. Dictionary-aware: string columns
    are charged 4 bytes of code per row plus each distinct value once
    (len+1), matching the columnar layout, instead of the pre-columnar
    per-row string sizing that overstated low-cardinality columns. *)
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
    order — which makes the output unique, so the serial and parallel
    (chunk sort + k-way merge) paths are byte-identical. *)
val sort_by : ?descending:bool -> t -> string list -> t

(** [sort_with t cmp] stable-sorts rows under an arbitrary comparator
    (parallel when the {!Pool} allows it). *)
val sort_with : t -> (Value.t array -> Value.t array -> int) -> t

val pp : Format.formatter -> t -> unit

(** [pp_sample ~n] prints the first [n] rows plus a row count. *)
val pp_sample : n:int -> Format.formatter -> t -> unit
