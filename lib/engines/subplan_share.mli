(** Cross-workflow shared subplans — Scan_share's sibling for whole
    common prefixes (see [docs/serving.md]).

    Keyed by subtree hash × environment fingerprint (the caller builds
    the key; the serving layer uses [Musketeer.Subplan.key]). The first
    co-admitted workflow to compute a subplan is the **payer**: it
    executes the prefix and {!publish}es the materialized table plus
    the epochs of every INPUT the prefix transitively read. While the
    payer is in flight, {!claim}s on the same key attach to the
    materialization instead of recomputing — the serving layer puts the
    table into HDFS under a synthetic ["__subplan:<hash>"] INPUT, so
    the attached prefix costs one HDFS read and zero compute, at plan
    time and run time alike.

    Invalidation mirrors Scan_share: {!note_write} bumps a relation's
    epoch and drops every entry whose prefix read it; {!end_flight}
    expires the payer's entries (payer-expiry — co-admission sharing
    only spans overlapping flights; reuse across time is the serve
    layer's bounded sub-result cache). Byte-identity never depends on
    this table: entries are immutable tables republished into each
    attacher's own HDFS snapshot scope, and the differential suites
    compare shared against one-shot outputs.

    Counters in {!Obs.Metrics.default}: [subplan.cross_workflow]
    (attaches), [subplan.paid] (materializations),
    [subplan.invalidated] (entries dropped by epoch bumps or stale
    probes), and the [subplan.attached_mb] gauge. Main-domain only. *)

type t

val create : unit -> t

(** {2 Co-admission window} *)

val begin_flight : t -> int

val end_flight : t -> int -> unit

val with_flight : t -> int -> (unit -> 'a) -> 'a

(** {2 Sharing} *)

(** [claim t ~key] — [Some (table, modeled_mb)] when a co-admitted
    workflow published this subplan and all its inputs are still at
    their publication epochs; [None] otherwise (stale entries are
    dropped on probe). *)
val claim : t -> key:string -> (Relation.Table.t * float) option

(** [publish t ~key ~inputs ~mb table] — record a materialized subplan
    paid by the current flight, stored in the form
    {!Relation.Table.for_store} picks. [inputs] are the INPUT relations
    the prefix transitively read (their current epochs are captured). *)
val publish :
  t -> key:string -> inputs:string list -> mb:float ->
  Relation.Table.t -> unit

val note_write : t -> string -> unit

val epoch : t -> string -> int

(** Raise a relation's epoch to at least [e] (restart replay from a
    ledger; never lowers). *)
val set_epoch : t -> string -> int -> unit

(** Flights begun but not yet ended — the leaked-flight gate asserts
    this returns to 0 after a drive. *)
val open_flights : t -> int

(** Materializations of one key since {!create} — the bench pins this
    at one per input epoch. *)
val paid_count : t -> key:string -> int

val total_paid : t -> int

val attached_mb : t -> float
