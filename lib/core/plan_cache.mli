(** Plan cache for the serving layer (ROADMAP "always-on service").

    Planning a submission — optimizer rewrites, size estimation, the
    exhaustive/DP partitioner — is pure given the graph and a small
    planning environment. Repeat traffic therefore caches the resulting
    [(plan, optimized graph)] pair keyed on
    {!Ir.Dag.canonical_hash} of the *submitted* (pre-optimization)
    graph, plus a {!fingerprint} of the environment: candidate engines
    after circuit-breaker filtering, the profile's calibration factors
    (the ones the cost model prices with), planning flags, workflow
    name, and the modeled sizes of the INPUT relations. A probe whose
    fingerprint disagrees with the stored entry drops it
    ({!Invalidated}) and the caller re-plans.

    Counters land in {!Obs.Metrics.default} as
    [plan_cache.{hits,misses,invalidations}]; callers put the outcome
    on the ["plan"] span as the [plan.cache] attribute. Bounded LRU. *)

type cached_plan = { plan : Partitioner.plan; graph : Ir.Dag.t }

type lookup =
  | Hit of cached_plan
  | Miss
  | Invalidated  (** entry existed but its environment changed *)

type t

type stats = { hits : int; misses : int; invalidations : int }

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 128 distinct workflow structures. *)

val fingerprint :
  profile:Profile.t ->
  backends:Engines.Backend.t list ->
  merging:bool ->
  optimize:bool ->
  workflow:string ->
  hdfs:Engines.Hdfs.t ->
  Ir.Dag.t ->
  string

val find : t -> hash:string -> fingerprint:string -> lookup

val store : t -> hash:string -> fingerprint:string -> cached_plan -> unit

val stats : t -> stats

(** hits / (hits + misses + invalidations); 0 before any probe. *)
val hit_rate : t -> float

val size : t -> int

val lookup_label : lookup -> string
