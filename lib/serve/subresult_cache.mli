(** Bounded materialized sub-result cache (docs/serving.md).

    {!Engines.Subplan_share} spans one co-admission window; this cache
    carries materialized prefixes across {e time}, so repeat traffic
    skips shared prefixes long after the payer finished. LRU by bytes
    (modeled MB, capacity via [--subresult-cache-mb]); keyed like the
    share: subtree hash × environment fingerprint.

    Every probe revalidates the entry's recorded (relation, epoch)
    pairs against the caller's epoch function; stale entries are
    dropped, never served. The cache can only change modeled makespan,
    never bytes — attachers re-put the immutable table into their own
    HDFS snapshot scope and the differential suites compare against
    one-shot runs.

    Counters in {!Obs.Metrics.default}: [subresult.hits],
    [subresult.evictions], [subresult.invalidated]. *)

type t

val create : capacity_mb:float -> t

val capacity_mb : t -> float

(** [find t ~key ~epoch] — the cached table and its modeled MB, if
    present and every recorded input epoch still matches [epoch rel]. *)
val find :
  t -> key:string -> epoch:(string -> int) ->
  (Relation.Table.t * float) option

(** [insert t ~key ~inputs ~mb table] — cache a materialization in the
    form {!Relation.Table.for_store} picks, evicting least-recently-used
    entries until it fits. A table larger than the whole capacity is
    not cached. *)
val insert :
  t -> key:string -> inputs:(string * int) list -> mb:float ->
  Relation.Table.t -> unit

(** Drop every entry whose prefix transitively read [relation]. *)
val invalidate : t -> relation:string -> unit

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  bytes_mb : float;
}

val stats : t -> stats
