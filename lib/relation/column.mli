(** Typed columnar storage.

    A column holds one attribute of a relation in an unboxed typed
    array: plain [int array] / [float array] / [bool array], or a
    dictionary-encoded string column (an [int array] of codes into a
    deduplicated [string array] built in first-appearance order). An
    optional validity bitmap marks null slots; columns produced from
    {!Table} values are always fully valid — the bitmap exists for the
    columnar API itself (round-trips over [Value.t option]) and for
    future nullable frontends.

    Invariant throughout: converting rows to columns and back is the
    identity, bit-for-bit — floats keep their exact bits (including NaN
    payloads), dictionary decoding returns the original strings. The
    differential test suite leans on this to prove the vectorized
    kernels byte-identical to the row engine. *)

type data =
  | Ints of int array
  | Floats of float array
  | Bools of bool array
  | Dict of {
      codes : int array;      (** per-row index into [dict] *)
      dict : string array;    (** distinct values, first-appearance order *)
    }

type t = private {
  data : data;
  valid : Bytes.t option;  (** bit [i] set = slot [i] holds a value;
                               [None] = all valid *)
}

val length : t -> int

val ty : t -> Value.ty

(** [make data] builds a fully-valid column. Raises [Invalid_argument]
    if a dictionary code is out of range. *)
val make : data -> t

val all_valid : t -> bool

val valid_at : t -> int -> bool

(** [get t i] is the value at slot [i].
    Raises [Invalid_argument] if the slot is null. *)
val get : t -> int -> Value.t

val get_opt : t -> int -> Value.t option

(** [of_values ty vs] builds a fully-valid column; every value must
    have type [ty] (raises [Invalid_argument] otherwise). String
    columns are dictionary-encoded in first-appearance order. *)
val of_values : Value.ty -> Value.t array -> t

(** [of_strings ss] dictionary-encodes a raw string array
    (first-appearance order), fully valid. *)
val of_strings : string array -> t

(** [of_options ty vs] builds a column with a validity bitmap; [None]
    slots are null. The bitmap is dropped when every slot is valid, so
    [of_options ty (Array.map Option.some vs)] equals
    [of_values ty vs]. *)
val of_options : Value.ty -> Value.t option array -> t

val to_values : t -> Value.t array

val to_options : t -> Value.t option array

(** [gather t idx] is the column restricted to the slots in [idx], in
    [idx] order (a selection-vector apply). Dictionary columns are
    re-encoded when the selection is smaller than the dictionary, so
    sizes stay honest after selective filters. *)
val gather : t -> int array -> t

(** [concat cols] appends columns of one type in order; dictionaries
    are merged (first-appearance order across the concatenation). Used
    to reassemble chunked kernel outputs in chunk order. *)
val concat : t list -> t

(** [append a b] is [concat [a; b]]. *)
val append : t -> t -> t

(** [compare_at t i j] compares slots [i] and [j] with exactly
    {!Value.compare}'s same-type semantics ([Float.compare] on floats,
    so NaN sorts deterministically). Null slots sort before values.
    Basis of the columnar sort. *)
val compare_at : t -> int -> int -> int

(** Physical size of the column in the modeled on-disk encoding:
    8 bytes per int/float, 1 per bool, and for dictionary columns
    4 bytes per code plus [length + 1] bytes per distinct entry —
    strings are charged once, not per row. Validity bitmaps add
    [ceil(n/8)]. *)
val encoded_bytes : t -> int

(** [gathered_bytes t ~rows] is [encoded_bytes (gather t idx)] for any
    [idx] of [rows] slots that keeps the dictionary whole
    ([rows] >= {!dictionary_size}), on a fully valid column — the size
    of a view's column without gathering it. Raises [Invalid_argument]
    when the gather would compact the dictionary. *)
val gathered_bytes : t -> rows:int -> int

(** Distinct entries in a dictionary column; [None] for other types. *)
val dictionary_size : t -> int option

(** Growable builder used to assemble columns value-at-a-time
    (doubling growth; amortized O(1) pushes). *)
module Builder : sig
  type column := t
  type t

  val create : ?capacity:int -> Value.ty -> t

  val length : t -> int

  (** Raises [Invalid_argument] on a type mismatch. *)
  val push : t -> Value.t -> unit

  val push_opt : t -> Value.t option -> unit

  val to_column : t -> column
end

(* ---- columnar execution gate ---- *)

(** Whether kernels should take the columnar/vectorized path.
    Resolution order: {!with_enabled} scope > {!set_enabled} override >
    the [MUSKETEER_COLUMNAR] environment variable ([0]/[false] disables)
    > enabled. *)
val enabled : unit -> bool

val set_enabled : bool option -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
