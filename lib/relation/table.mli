(** In-memory relations: a schema plus row data.

    Tables are immutable; kernels in {!Kernel} return fresh tables.
    Every engine simulator executes operators against these tables, so
    the answers Musketeer returns are real — only the clock is modeled.

    Physically a table is row-backed (boxed [Value.t] rows, the seed
    layout), column-backed (typed unboxed {!Column.t}s), a {!view}
    over other tables' columns, or a JOIN's {!matches} (a factorized
    JOIN: the pairs are not built). Rows and columns materialize lazily
    from whichever form the table has and are memoized, so both APIs
    are always available. The vectorized kernels ({!Columnar}) produce
    and consume columns, views and matches; everything else is
    oblivious. Sizes too: {!encoded_bytes} is one logical size computed
    from the contents, so a table's rows, its columns, any view of them
    and a JOIN's matches give the same bytes. *)

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

(** A JOIN's matches, before any pair is emitted. One side is the
    build side: its keys are dense-coded and its rows bucketed by code,
    newest first (a CSR layout: [brows.(bstart.(c) .. bstart.(c+1) - 1)]
    are the build rows with code [c]). The other side probes: probe row
    [q] reaches the bucket of [pcode.(q)], or of [pcode.(ix.(q))] when
    [pvia = Some ix], and no bucket when that code is -1. Build and
    probe rows are rows of [lv] and [rv]: the left input's columns and
    the right input's without its key. The pairs, in {!iter_pairs}'
    order, are the table's rows. *)
type matches = {
  lv : view;
  rv : view;
  build_left : bool;
  nprobe : int;  (** probe rows *)
  pcode : int array;  (** per row of the probe key's base column *)
  pvia : int array option;  (** the probe key's view index, if any *)
  bstart : int array;
  brows : int array;
  pairs : int;  (** the pair count: the sum of the probed buckets' sizes *)
}

(** [of_view schema ~rows v] builds a view of [rows] rows (no checks:
    kernel output is correct by construction). Unused groups are
    dropped; a view whose columns are all row-aligned is a plain
    column-backed table. *)
val of_view : Schema.t -> rows:int -> view -> t

(** [of_matches schema m] is the factorized JOIN of [m.pairs] rows:
    row [i] is the [i]-th pair {!iter_pairs} visits, the left row's
    columns then the right row's. No pair is built until a consumer
    reads the table's rows or columns. *)
val of_matches : Schema.t -> matches -> t

(** The table's matches while it is a factorized JOIN not yet
    expanded: the blocked GROUP BY reads them in place. *)
val matches : t -> matches option

(** [iter_pairs m ~block flush] hands the pairs of [m] to [flush lidx
    ridx n] in runs of [block] pairs (the last may be shorter): pair
    [k], for [k < n], is left row [lidx.(k)] and right row [ridx.(k)].
    The two buffers are reused from run to run. A left build side is
    probed by the right rows in order, so the pairs come in the serial
    hash join's order: right rows ascending, each one's left rows
    newest first. A right build side is probed by the left rows, newest
    first. *)
val iter_pairs :
  matches -> block:int -> (int array -> int array -> int -> unit) -> unit

(** [matches_view m lidx ridx]: the view whose row [k] pairs left row
    [lidx.(k)] with right row [ridx.(k)], each side's groups composed
    with its index. *)
val matches_view : matches -> int array -> int array -> view

(** The {!column_bytes} of [m]'s pairs, from counts: 8 bytes per pair
    for an int or float column, 1 for a bool, and for a string column 4
    per pair plus the distinct values of the rows on its side whose key
    matches at least once. *)
val matches_bytes : matches -> int array

(** The view form of any table: its view, or its columns (materialized
    from rows if need be) as row-aligned entries. A JOIN's matches are
    expanded first (counted as [kernel.join.expanded]): into the pair
    view when its index words plus its distinct base columns' words are
    no more than its columns' words ({!for_store}'s rule), and into
    columns gathered straight through the matches otherwise. Never
    gathers a view. *)
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

(** Forces a view or a JOIN's matches into columns and drops it, so the
    table no longer holds its inputs' columns: a view is gathered
    (counted as [kernel.view.materialized]), matches are gathered
    straight through the buckets, run by run, with no pair index
    (counted as [kernel.join.expanded]). The unconditional force: the
    workflow outputs the executor returns pass through here. Other
    tables are returned as they are. *)
val materialize : t -> t

(** The form a store keeps, by words: a word is one column entry,
    index entry, bucket entry, probe code or dictionary code, and
    dictionaries are shared by every form and not counted.
    - A view stays one (counted as [kernel.view.stored]) when its index
      words (groups × rows) plus the words of every distinct base
      column it reads through an index are no more than the words of
      the columns it would gather, and is {!materialize}d otherwise
      (row-aligned columns are shared by both forms and not counted).
    - A JOIN's matches stay (counted as [kernel.join.stored]) when
      their buckets, probe codes, both sides' indexes and distinct base
      columns hold no more words than the pairs' columns (arity ×
      pairs); otherwise they are expanded
      as {!parts} expands them and the result stored by the view rule.
    So a stored entry never holds more words than its materialized
    form, and its {!encoded_bytes} and {!to_csv} are those of its
    materialization either way. That still holds after a consumer
    expands a stored JOIN: the expansion is the pair view only when the
    view holds no more words than the columns. HDFS and the serving
    layer's shared store store through here. *)
val for_store : t -> t

(** The logical encoded size of each column, in bytes: 8 per row for
    ints and floats, 1 for bools, and for strings a 4-byte code per row
    plus [length + 1] for each distinct value present (see
    {!Column.encoded_bytes}). Computed from whichever form the table
    has, without converting or gathering it ({!matches_bytes} for a
    JOIN's matches), and memoized: a table's rows form, its columns
    form, any view of the same rows and a JOIN's matches give the same
    ints. *)
val column_bytes : t -> int array

val schema : t -> Schema.t

(** Row view; materialized from the columns (and memoized) when the
    table is column-backed. *)
val rows : t -> Value.t array array

(** Columns; materialized from the rows, the view or the matches (and
    memoized) when the table has none yet. *)
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
