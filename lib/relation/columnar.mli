(** Vectorized (column-at-a-time) kernel implementations.

    Each [try_*] function is the columnar counterpart of the kernel of
    the same name in {!Kernel}. It returns [Some table] — byte-identical
    to the row kernel's output: same schema, same rows, same order —
    when the columnar path applies, and [None] when the caller must fall
    back to the serial row path. Each refusal counts
    [kernel.fallback.<reason>], one reason per refusal:
    - [disabled]: the gate ({!Column.enabled}) is off;
    - [not_vectorizable]: {!Vector.compile} refuses the expression;
    - [non_bool_predicate]: a SELECT predicate that is not boolean (the
      row path raises on the first live row);
    - [key_type_mismatch], [float_key]: join keys of two types, or a
      float join/group key, whose NaN behavior under structural
      equality is row-specific;
    - [repeated_key]: a GROUP BY naming one key twice;
    - [non_numeric_agg]: SUM/AVG over a non-numeric input.

    {!Kernel} counts [kernel.row.<kernel>] for every fallback it runs,
    so over a run the [kernel.fallback.*] counters sum to the
    [kernel.row.*] ones; every columnar run counts
    [kernel.columnar.<kernel>]. The fused JOIN → SELECT kernel
    ({!try_join_select}) counts its refusals apart, as
    [kernel.join_select.refused.<reason>]: after one the caller runs
    the plain JOIN, which counts its own path. So do the arg-min
    diamond's kernel ({!try_argmin}), as [kernel.argmin.refused.<reason>],
    and the MAP → GROUP BY kernel ({!try_map_group_by}), as
    [kernel.map_group_by.refused.<reason>]. All of it is serial.

    Output is late-materialized: JOIN returns its matches
    ({!Table.matches}, no pair built), CROSS its inputs' column groups
    composed with the pair indices ({!Table.view}), SELECT composes each
    group's index with the rows it keeps, PROJECT drops columns, and a
    MAP of a bare column keeps that column's base and group. MAP, the
    SELECT predicate, GROUP BY and the JOIN keys read only the columns
    they name, each through its own group's index, and GROUP BY reads a
    JOIN's matches in place. Any other reader expands the matches or
    materializes the view. A table's size is {!Table.encoded_bytes}'s
    logical one, which does not depend on its form.

    Exceptions the row path would raise (unknown columns, ill-typed
    predicates evaluated on live rows, [Division_by_zero]) propagate
    from here with identical payloads — never swallowed into [None]. *)

val try_select : Table.t -> Expr.t -> Table.t option

val try_project : Table.t -> string list -> Table.t option

val try_map_column :
  Table.t -> target:string -> expr:Expr.t -> Table.t option

(** Equi-join on int, bool or string keys, build side = left. The left
    keys are dense-coded once and the left rows counting-sorted into one
    bucket per key (a CSR layout), newest first — the serial kernel's
    [Hashtbl.find_all] order — so probing in right-row order reproduces
    its output order. The result is those matches ({!Table.of_matches}):
    no pair is built until a consumer reads rows. Each side's keys are
    coded off its base column and read through its view index. String
    keys map each distinct right dictionary entry to a left code once,
    not per row. *)
val try_join :
  Table.t -> Table.t -> left_key:string -> right_key:string ->
  Table.t option

(** A JOIN followed by a SELECT on its output, evaluated on the JOIN's
    matches before any output is built: the output view is composed
    from the survivors only. [table] is
    [try_select (try_join left right ~left_key ~right_key) pred] —
    same schema, rows and order — [pairs] is the JOIN's row count and
    [join_bytes] its {!Table.column_bytes}, both from counts: a string
    column costs 4 bytes per pair plus the distinct values of the rows
    on its side whose key matches at least once, found in one pass over
    both sides and the dictionaries. It is {!try_join}'s kernel — the
    same key coding, buckets and pair enumeration — built on the
    smaller side, so no array is sized by the larger input: the larger
    side probes row by row. The predicate is evaluated on blocks of 256
    candidate pairs, and the survivors are counting-sorted by right row
    into the serial order, so no array of the pair count is built.
    [None] when the fusion is refused and the caller must run the plain
    JOIN: each refusal counts [kernel.join_select.refused.<reason>]
    ([disabled], [key_type_mismatch], [float_key], [not_vectorizable]
    or [non_bool_predicate]). A plain JOIN run afterwards counts its
    own path, so these stay out of [kernel.fallback.*]; a fused run
    counts [kernel.columnar.join_select]. *)
type join_select = {
  table : Table.t;
  pairs : int;
  join_bytes : int array;
}

val try_join_select :
  Table.t -> Table.t -> left_key:string -> right_key:string -> pred:Expr.t ->
  join_select option

(** Cartesian product as two index vectors (left-major, right-minor:
    the serial kernel's nested-loop order) composed with both sides'
    groups. Either side may be empty. *)
val try_cross : Table.t -> Table.t -> Table.t option

(** Grouping on zero or more int/string/bool keys, in one blocked pass
    over any table — columns, a view or a JOIN's matches — in blocks of
    256 rows. Each key is coded off its base column (dictionary codes
    stand in for strings): its offset from the minimum over a narrow
    range, else its dense code. Per block, the keys' codes are folded
    into one code per row, mapped to group ids in first appearance (a
    slot array over a narrow code range, an open-addressing table
    otherwise), and each group's first row, size and aggregates are
    updated in the same pass; no array of the row count is built.
    Group order is first appearance of the whole key tuple, as in the
    serial kernel. With no keys every row is in one group, and an empty
    input gives the serial kernel's one row of initial states. A float
    key or a repeated key returns [None]. *)
val try_group_by :
  Table.t -> keys:string list -> aggs:Aggregate.t list -> Table.t option

(** A MAP read only by the GROUP BY after it, run inside that GROUP BY
    ({!Ir.Fusion.map_group_by}):
    {v
    m = MAP t target := expr
    g = GROUP BY m keys aggs
    v}
    [grouped] is the GROUP BY's table, byte-identical to the row
    kernels': {!try_group_by}'s blocked pass over [t], with [expr]
    compiled once and run on each block for the aggregates that read
    [target]. So a JOIN's matches are grouped without their pairs or
    the MAP's column being built. [map_bytes] is the MAP's
    {!Table.column_bytes}, from counts: [t]'s, with [target] at 8 bytes
    a row.

    [None] when the kernel refuses and the caller must run the two
    operators one by one; each refusal counts
    [kernel.map_group_by.refused.<reason>], never [kernel.fallback.*]:
    [disabled], [not_vectorizable], [non_numeric_target] (the MAP is
    neither int nor float, so its bytes are not 8 a row),
    [target_key] (a key is the MAP's target), or the GROUP BY's own
    [float_key], [repeated_key] and [non_numeric_agg]. A run counts
    [kernel.columnar.map_group_by]. *)
type map_group_by = {
  grouped : Table.t;
  map_bytes : int array;
}

val try_map_group_by :
  Table.t -> target:string -> expr:Expr.t -> keys:string list ->
  aggs:Aggregate.t list -> map_group_by option

(** The arg-min diamond ({!Ir.Fusion.argmin}) in one kernel:
    {v
    d = MAP (left CROSS right) target := expr
    groups = GROUP BY d [key] MIN(target) AS min_as
    SELECT (d JOIN best ON key = key') WHERE target = min_column
    v}
    where [best] is [groups] carried through MAPs and PROJECTs. One
    pass over the CROSS's pairs, in its order, evaluates [expr] over
    blocks of at most 256 pairs and keeps each left row's MIN, the first
    right row holding it and how many do. A key's MIN is its rows'
    MIN, and the survivors are the pairs of the rows whose MIN equals
    their key's, with their own values: the one pair found, or, for a
    row with ties, that row's pairs evaluated again. No table, index or
    column of the pair count is built.

    [groups] is the GROUP BY's table, byte-identical to the row
    kernel's: one row per key, in the order each key first appears.
    [cross_bytes] and [map_bytes] are the CROSS's and the MAP's
    {!Table.column_bytes}, from counts. MIN and [=] are
    {!Value.compare}'s: NaN is below every float and equal to itself,
    -0.0 equals 0.0, and the first value seen is kept.

    [None] when the kernel refuses and the caller must run the
    operators one by one. Each refusal counts
    [kernel.argmin.refused.<reason>], never [kernel.fallback.*]:
    [disabled] (the gate is off), [not_vectorizable] (the MAP
    expression), [non_numeric_min] (the MAP is neither int nor float),
    [key_not_left] (the key is not a column of [left], or is the MAP's
    target), [float_key], or [shadowed_min] ([min_column] names a
    column of [d], so the SELECT would not read [best]'s). A run counts
    [kernel.columnar.argmin]. *)
type argmin_selected

type argmin = {
  groups : Table.t;
  cross_bytes : int array;
  map_bytes : int array;
  selected : argmin_selected;
}

val try_argmin :
  Table.t -> Table.t -> target:string -> expr:Expr.t -> key:string ->
  min_as:string -> min_column:string -> argmin option

(** The SELECT's table from {!try_argmin}'s survivors and [best] (one
    row per group, in group order): groups in turn, each group's pairs
    in the JOIN's newest-first order, with [best]'s columns but its
    [right_key]. [pairs] and [join_bytes] are the JOIN's, from counts:
    every pair matches its group's row of [best]. *)
val argmin_join : argmin -> Table.t -> right_key:string -> join_select
