(** Cross-workflow shared scans — the service-scoped generalization of
    the per-job shared-scan table from the fusion work (see
    [docs/fusion.md]).

    The share holds no table bytes: jobs always fetch from {!Hdfs}, so
    results are byte-identical with or without it. It shares the
    *accounting* — the first co-admitted workflow to scan an INPUT
    relation pays the modeled read; while it is in flight, further
    {!claim}s on the same epoch ride free (no [input_mb] charge, so a
    smaller simulated makespan and fewer modeled HDFS reads).

    Epoch-based invalidation: {!note_write} bumps a relation's epoch,
    so entries paid against an older epoch stop matching and the next
    reader pays again. Engines call it for every relation they
    materialize while a share is in scope; the service calls it when a
    client overwrites an input.

    Counters in {!Obs.Metrics.default}: [scan.cross_workflow] (free
    rides from another workflow's payment), [scan.intra_flight] (free
    rides within the paying flight itself — e.g. two jobs of one
    submission scanning the same INPUT, or a plan-cache hit replaying
    scans; these never touch the cross counters),
    [scan.cross_invalidated] (epoch-stale entries dropped), and the
    [scan.cross_mb_saved] gauge. Main-domain only. *)

type t

val create : unit -> t

(** {2 Co-admission window}

    A flight is one admitted workflow execution. Entries paid by a
    flight expire at {!end_flight}: sharing only spans workflows whose
    flights overlap. Claims made outside any flight never expire
    (an everlasting scan cache — what tests use). *)

val begin_flight : t -> int

val end_flight : t -> int -> unit

val with_flight : t -> int -> (unit -> 'a) -> 'a

(** {2 Accounting} *)

(** [claim t ~relation ~mb] is [true] when the scan rides free, [false]
    when this claim pays (recording the current flight as payer). *)
val claim : t -> relation:string -> mb:float -> bool

val note_write : t -> string -> unit

val epoch : t -> string -> int

(** Raise a relation's epoch to at least [e] (restart replay from a
    ledger; never lowers). *)
val set_epoch : t -> string -> int -> unit

(** Flights begun but not yet ended — the leaked-flight gate asserts
    this returns to 0 after a drive. *)
val open_flights : t -> int

(** Paid HDFS fetches of a relation since {!create} — the bench asserts
    this stays 1 for co-admitted same-input workflows. *)
val paid_reads : t -> string -> int

(** All relations with paid fetches, sorted by name. *)
val paid_all : t -> (string * int) list

val saved_mb : t -> float

(** {2 Dynamic scope} *)

val with_scope : t -> (unit -> 'a) -> 'a

val active : unit -> t option
