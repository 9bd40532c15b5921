(** Vectorized expression evaluation: {!Expr.t} compiled into tight
    column-at-a-time loops over {!Column.t} storage.

    The evaluator is only used when {!vectorizable} says the expression
    has exactly the row engine's semantics under column-at-a-time
    evaluation; otherwise kernels fall back to the boxed row path, so
    the two paths are byte-identical by construction. The hazards that
    force a fallback:

    - the expression does not type-check ([Expr.infer] raises) — the
      row path raises the identical error, at the identical moment;
    - an [If] whose branches infer to different numeric types (the row
      engine returns the taken branch's value unconverted, which a
      typed result array cannot represent);
    - an int division/modulo in a conditionally-evaluated position
      (right operand of [And]/[Or], either branch of [If]): the row
      engine's short-circuiting might skip the raising row, while a
      vectorized loop always evaluates it. *)

type vec =
  | VInt of int array
  | VFloat of float array
  | VBool of bool array
  | VStr of string array
  | VConst of Value.t  (** same scalar in every slot *)

(** Which slots of a backing column an evaluation reads:
    [Dense (start, len)] is the contiguous range (chunked kernels),
    [Sparse idx] a row-index vector (a view's group index). *)
type sel =
  | Dense of int * int
  | Sparse of int array

(** [vectorizable schema e] — can [e] be evaluated column-at-a-time
    with exactly the row semantics? Never raises. *)
val vectorizable : Schema.t -> Expr.t -> bool

(** [eval schema cols ~len ~sel e] evaluates [e] over [len] slots,
    reading column [i] through its own selection [sel i] (each of
    length [len]); only the columns [e] names are read.
    Precondition: [vectorizable schema e]; the columns match [schema].
    May raise [Division_by_zero] exactly when the row path would. *)
val eval :
  Schema.t -> Column.t array -> len:int -> sel:(int -> sel) -> Expr.t -> vec

(** [to_column ~length v] materializes a result vector as a column
    ([length] resolves [VConst]). *)
val to_column : length:int -> vec -> Column.t

(** [to_mask ~length v] reads a predicate result as a dense
    [bool array]. Raises [Invalid_argument] if [v] is not boolean. *)
val to_mask : length:int -> vec -> bool array
