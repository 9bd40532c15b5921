(** Aggregation functions for GROUP BY / AGG operators.

    The paper's idiom recognition distinguishes associative aggregations
    (combinable in a tree, e.g. in Naiad's vertex-level API or a
    MapReduce combiner) from non-associative ones, which force all rows
    for a key onto one machine (§4.3.1, §6.2 — Lindi's GROUP BY). *)

type fn =
  | Count
  | Sum of string          (** column to sum *)
  | Min of string
  | Max of string
  | Avg of string
  | First of string        (** first value per group, input order *)

(** One aggregation: the function plus the output column name. *)
type t = {
  fn : fn;
  as_name : string;
}

val make : fn -> as_name:string -> t

(** Column the function reads, if any ([Count] reads none). *)
val input_column : fn -> string option

(** Whether partial aggregates can be merged associatively. [Avg] is not
    (without auxiliary counts), matching the paper's Lindi GROUP BY
    discussion; [First] is order-dependent hence not associative. *)
val associative : fn -> bool

(** Result type of the aggregation given the input column type.
    Raises [Invalid_argument] for non-numeric Sum/Avg. *)
val result_type : fn -> input:Value.ty option -> Value.ty

(** [add_float acc x] adds [x] to a running float sum; a NaN sum stays
    that NaN, so the sign and payload of a sum over several NaNs do not
    depend on the operand order the compiler emits. The row and the
    columnar SUM/AVG both add through it. *)
val add_float : float -> float -> float

(** Streaming state: [init], [step], [finish]. *)
type state

val init : fn -> state

val step : fn -> state -> Value.t option -> state

val finish : fn -> state -> Value.t

val fn_to_string : fn -> string

val pp : Format.formatter -> t -> unit
