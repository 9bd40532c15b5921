(** Vectorized (column-at-a-time) kernel implementations.

    Each [try_*] function is the columnar counterpart of the kernel of
    the same name in {!Kernel}. It returns [Some table] — byte-identical
    to the row kernel's output: same schema, same rows, same order —
    when the columnar path applies, and [None] when the caller must fall
    back to the row path. Fallback triggers are: the gate
    ({!Column.enabled}) is off, the expression is not
    {!Vector.vectorizable}, or the operator shape has row-path semantics
    that column-at-a-time evaluation cannot reproduce exactly (float
    join/group keys, whose NaN behavior under structural equality is
    row-specific; keyless GROUP BY, which yields one row even over an
    empty input; SUM/AVG over non-numeric inputs). Every fallback
    counts [kernel.row.<kernel>] in {!Kernel}; every columnar run counts
    [kernel.columnar.<kernel>].

    Exceptions the row path would raise (unknown columns, ill-typed
    predicates evaluated on live rows, [Division_by_zero]) propagate
    from here with identical payloads — never swallowed into [None]. *)

(** Row count at or above which chunkable columnar kernels (select,
    map_column) split across the {!Pool} domains. Re-exported by
    {!Kernel.par_threshold}. *)
val par_threshold : int

val try_select : Table.t -> Expr.t -> Table.t option

val try_project : Table.t -> string list -> Table.t option

val try_map_column :
  Table.t -> target:string -> expr:Expr.t -> Table.t option

(** Equi-join on int, bool or string keys, build side = left. The left
    keys are dense-coded once and the left rows counting-sorted into
    one bucket per key (a CSR layout), newest row first — the serial
    kernel's [Hashtbl.find_all] order — so probing in right-row order
    reproduces its output order. String keys map each distinct right
    dictionary entry to a left code once, not per row. Runs serially at
    every jobs setting, so jobs = 1 and jobs = 4 are trivially
    identical. *)
val try_join :
  Table.t -> Table.t -> left_key:string -> right_key:string ->
  Table.t option

(** Cartesian product as two index vectors (left-major, right-minor:
    the serial kernel's nested-loop order) gathered over both sides'
    columns. Either side may be empty. *)
val try_cross : Table.t -> Table.t -> Table.t option

(** Grouping on one or more int/string/bool keys. Each key column is
    dense-coded in first-appearance order (dictionary codes stand in
    for strings) and folded into one group id per row, re-densified
    after every key; aggregations then run column-at-a-time into
    arrays sized to the group count. Group order is first appearance
    of the whole key tuple, as in the serial kernel. A float key, a
    repeated key or an empty key list returns [None]. *)
val try_group_by :
  Table.t -> keys:string list -> aggs:Aggregate.t list -> Table.t option

(** Fused SELECT/PROJECT/MAP chains evaluated as column chunks with a
    selection vector threaded between stages ({!Fused} calls this before
    its row loop). [compile_error]s — unknown columns, ill-typed MAP
    expressions — are raised by {!Fused.compile} before this runs, so
    both paths fail identically. *)
val try_fused : Table.t -> Fused_step.t list -> Table.t option
