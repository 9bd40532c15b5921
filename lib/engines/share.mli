(** One epoch-versioned store of shared intermediates (see
    [docs/serving.md], "Shared store").

    The serving layer shares two kinds of work between workflows:
    - {b scans}: the first co-admitted workflow to scan an INPUT
      relation pays the modeled read; while it is in flight, further
      {!claim}s on the same epoch ride free. A scan entry holds no
      bytes: jobs always fetch from {!Hdfs}.
    - {b subplans}: the first workflow to compute a common prefix
      {!publish}es the materialized table; later {!find}s on the same
      key attach to it instead of recomputing. The serving layer keys
      subplans by subtree hash × environment fingerprint
      ([Musketeer.Subplan.key]).

    Every entry records the (relation, epoch) pairs it read. One epoch
    table serves both kinds: {!note_write} (a client upload, or an
    engine run given the store writing a relation) bumps the epoch and
    drops every entry that read the relation.

    An entry stays while the flight that made it leases it, or while it
    sits inside the byte budget ([capacity_mb], subplans only, LRU by
    modeled MB). An entry made outside any flight never expires.
    Eviction takes an entry out of the budget only: a leased entry
    stays claimable until its flight ends. Byte-identity never depends
    on the store: tables are immutable, stale entries are never served,
    and the differential suites compare shared against one-shot runs.

    Counters in {!Obs.Metrics.default}: [scan.cross_workflow] (free
    rides on another flight's payment), [scan.intra_flight] (free rides
    within the paying flight, never counted as cross), the
    [scan.cross_mb_saved] gauge; [subplan.cross_workflow] (attaches to a
    leased entry), [subplan.paid] (materializations),
    [subplan.invalidated] (subplan entries dropped by a write), the
    [subplan.attached_mb] gauge; [subresult.hits] and
    [subresult.evictions] (the byte budget). Main-domain only. *)

type t

(** [capacity_mb] is the byte budget for subplan entries kept after
    their lease ends (default 0: none are kept). *)
val create : ?capacity_mb:float -> unit -> t

(** {2 Co-admission window}

    A flight is one admitted workflow execution. {!end_flight} ends the
    leases of everything it paid for. *)

val begin_flight : t -> int

val end_flight : t -> int -> unit

val with_flight : t -> int -> (unit -> 'a) -> 'a

(** Flights begun but not yet ended — the leaked-flight gates assert
    this returns to 0 after a drive. *)
val open_flights : t -> int

(** {2 Epochs} *)

val epoch : t -> string -> int

val note_write : t -> string -> unit

(** Raise a relation's epoch to at least [e] (restart replay from a
    ledger; never lowers). *)
val set_epoch : t -> string -> int -> unit

(** {2 Scans} *)

(** [claim t ~relation ~mb] is [true] when the scan rides free, [false]
    when this claim pays (the current flight leases the entry). *)
val claim : t -> relation:string -> mb:float -> bool

(** {2 Subplans} *)

(** [find t ~key] — the materialized prefix and its modeled MB when a
    leased entry (a co-admitted attach) or else a budgeted entry (a
    cache hit, touching the LRU) holds it and every relation it read is
    still at the epoch it read; [None] counts a miss. *)
val find : t -> key:string -> (Relation.Table.t * float) option

(** [publish t ~key ~inputs ~mb table] — record a prefix materialized
    by the current flight, stored in the form
    {!Relation.Table.for_store} picks. [inputs] are the INPUT relations
    the prefix transitively read (their current epochs are captured).
    The entry joins the byte budget, evicting least-recently-used
    entries, unless it is larger than the whole budget. *)
val publish :
  t -> key:string -> inputs:string list -> mb:float ->
  Relation.Table.t -> unit

(** {2 Accounting} *)

(** Paid HDFS fetches of a relation since {!create} — the bench asserts
    this stays 1 for co-admitted same-input workflows. *)
val paid_reads : t -> string -> int

(** All relations with paid fetches, sorted by name. *)
val paid_all : t -> (string * int) list

(** Materializations of one key since {!create} — the bench pins this
    at one per input epoch. *)
val paid_count : t -> key:string -> int

(** Modeled MB of scans that rode free across flights. *)
val saved_mb : t -> float

(** Modeled MB of leased subplan entries attached to. *)
val attached_mb : t -> float

(** The byte budget: cache [hits] and [misses] of {!find}, [evictions],
    subplan [invalidations], and the [entries] and [bytes_mb] inside the
    budget. *)
type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  bytes_mb : float;
}

val stats : t -> stats
