(** Vectorized expression evaluation: {!Expr.t} compiled into tight
    column-at-a-time loops over {!Column.t} storage.

    The evaluator is only used when {!compile} says the expression
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

(** Which slots of a backing column an evaluation reads: [Dense] is
    the whole column, already row-aligned; [Sparse idx] a row-index
    vector (a view's group index). *)
type sel =
  | Dense
  | Sparse of int array

(** An expression compiled against a schema: every distinct
    non-constant subexpression is one slot, resolved once, and a
    subexpression without columns is folded into the row engine's
    value. Compile once per kernel call, run once per block. *)
type program

(** [compile schema e] is [None] when [e] cannot be evaluated
    column-at-a-time with exactly the row semantics (the hazards
    above), and its program otherwise. Never raises. *)
val compile : Schema.t -> Expr.t -> program option

(** The program's result type: [Expr.infer]'s. *)
val ty : program -> Value.ty

(** [run p cols ~len ~sel] evaluates [p] over [len] slots, reading
    column [i] through its own selection [sel i]; only the columns [p]
    names are read. A [Dense] column and a [Sparse] index must hold at
    least [len] slots (each loop checks this once, in O(1), and raises
    [Invalid_argument] otherwise); the columns match the schema [p] was
    compiled against. Each slot writes into its own scratch array,
    reused from run to run. The result holds exactly [len] slots (or is
    a [VConst]) and may be [p]'s scratch: it is valid until the next
    run of [p]. With [len = 0] nothing is evaluated. May raise
    [Division_by_zero] exactly when the row path would on some slot. *)
val run : program -> Column.t array -> len:int -> sel:(int -> sel) -> vec

(** [run_kept] is {!run} for a result the caller keeps (a MAP's column):
    no later run of [p] writes into it. *)
val run_kept :
  program -> Column.t array -> len:int -> sel:(int -> sel) -> vec

(** [to_column ~length v] materializes a result vector as a column
    ([length] resolves [VConst]). *)
val to_column : length:int -> vec -> Column.t

(** [to_mask ~length v] reads a predicate result as a dense
    [bool array]. Raises [Invalid_argument] if [v] is not boolean. *)
val to_mask : length:int -> vec -> bool array
