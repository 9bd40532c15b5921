(** Minimal dependency-free JSON: a value type, a printer and a
    recursive-descent parser.

    The repo deliberately carries no JSON library; the exporters print
    by hand and this module gives the {e reading} side (the run ledger,
    the [report] subcommand) a shared implementation. Non-finite floats
    are printed as strings (["nan"], ["inf"]) so output always parses;
    the accessors convert them back. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

exception Parse_error of string

(** Raises {!Parse_error} with a byte offset on malformed input. *)
val of_string : string -> t

(** JSON string escaping (shared with the hand-rolled exporters). *)
val escape : string -> string

(** {2 Lenient accessors}

    Missing or differently-typed fields yield [None] / the default —
    this is what makes ledger readers tolerant of schema skew: unknown
    fields are ignored, absent fields get defaults. *)

val member : string -> t -> t option

val to_float_opt : t -> float option

val to_int_opt : t -> int option

val to_string_opt : t -> string option

val to_list_opt : t -> t list option

val get_float : ?default:float -> t -> string -> float

val get_int : ?default:int -> t -> string -> int

val get_string : ?default:string -> t -> string -> string

val get_list : t -> string -> t list
