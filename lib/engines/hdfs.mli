(** Simulated shared HDFS (paper §6.1: all systems read inputs from and
    materialize outputs to one shared HDFS installation).

    Each stored relation carries both its real rows (a down-sampled
    executed core — see DESIGN.md §2, "Modeled vs executed size") and a
    [modeled_mb] figure at the paper's data scale. Operator
    selectivities measured on the real rows propagate the modeled sizes
    through workflows. The store also keeps aggregate I/O counters so
    experiments can report data-movement costs. *)

type entry = {
  table : Relation.Table.t;
  modeled_mb : float;
}

type t

val create : unit -> t

(** [put t name table ~modeled_mb] stores or replaces a relation, in
    the form {!Relation.Table.for_store} picks: a view when that holds
    fewer words than its gathered columns. When [modeled_mb] is [None],
    the actual encoded size is used. *)
val put : t -> string -> ?modeled_mb:float -> Relation.Table.t -> unit

exception No_such_relation of string

val get : t -> string -> entry

val table : t -> string -> Relation.Table.t

val modeled_mb : t -> string -> float

val mem : t -> string -> bool

val remove : t -> string -> unit

val list : t -> string list

(** I/O accounting: engines call these when they pull/push data. *)
val note_read : t -> mb:float -> unit

val note_write : t -> mb:float -> unit

val total_read_mb : t -> float

val total_written_mb : t -> float

(** Deep copy (tables are immutable, so entries are shared). *)
val snapshot : t -> t

(** [restore t ~from] resets [t] in place to the contents and I/O
    counters of [from] (normally a {!snapshot}). Used by the recovery
    path to re-execute a job from its pre-run intermediates. *)
val restore : t -> from:t -> unit
