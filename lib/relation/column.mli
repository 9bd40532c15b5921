(** Typed columnar storage.

    A column holds one attribute of a relation in an unboxed typed
    array: plain [int array] / [float array] / [bool array], or a
    dictionary-encoded string column (an [int array] of codes into a
    deduplicated [string array]). An optional validity bitmap marks
    null slots; columns produced from {!Table} values are always fully
    valid — the bitmap exists for the columnar API itself (round-trips
    over [Value.t option]) and for future nullable frontends.

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
      dict : string array;    (** distinct values *)
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
    [idx] order (a selection-vector apply). A dictionary column shares
    its dictionary whole: entries no gathered slot reaches stay in it
    and are not charged by {!encoded_bytes}. *)
val gather : t -> int array -> t

(** A {!gather} whose index arrives in runs, so no index of the
    output's length is built: [create src n] starts a column of [n]
    slots, each [add g ix len] appends the slots [ix.(0 .. len - 1)] of
    [src], and [finish g], once [n] slots are in, is
    [gather src idx] for the concatenated runs (same dictionary, same
    validity). Raises [Invalid_argument] on a short gather. *)
module Gatherer : sig
  type column := t
  type t

  val create : column -> int -> t

  val add : t -> int array -> int -> unit

  val finish : t -> column
end

(** [compare_at t i j] compares slots [i] and [j] with exactly
    {!Value.compare}'s same-type semantics ([Float.compare] on floats,
    so NaN sorts deterministically). Null slots sort before values.
    Basis of the columnar sort. *)
val compare_at : t -> int -> int -> int

(** [encoded_bytes ?idx ?rows t] is the logical size, in the modeled
    on-disk encoding, of a column of [rows] rows holding the values at
    the slots [idx] of [t] (default: every slot; [rows] defaults to the
    number of slots): 8 bytes per row for ints and floats, 1 for bools,
    and for strings a 4-byte code per row plus [length + 1] bytes for
    each distinct value some valid slot holds. Dictionary entries no
    slot reaches and validity bitmaps are not charged, so the size
    depends only on the values, as {!Table.encoded_bytes} requires. *)
val encoded_bytes : ?idx:int array -> ?rows:int -> t -> int

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
    Resolution order: the innermost {!with_enabled} scope > the
    [MUSKETEER_COLUMNAR] environment variable ([0]/[false] disables)
    > enabled. Off selects the row reference kernels. *)
val enabled : unit -> bool

(** [with_enabled v f] runs [f] with the gate set to [v]. *)
val with_enabled : bool -> (unit -> 'a) -> 'a
