(** Per-backend circuit breakers over engine run outcomes.

    Each backend carries a sliding window of its most recent run
    outcomes. When [threshold] of the last [window] outcomes are
    failures the breaker {e trips}: the engine is quarantined (state
    {!Open}) and excluded from partitioner candidates and recovery
    fallbacks. After a cool-down it transitions to {!Half_open}: the
    next plan may probe it with real work; a success re-closes the
    breaker, another failure re-opens it with the cool-down doubled
    (exponential back-off).

    Time is logical: the cool-down is counted in subsequent outcomes
    recorded on the same breaker, not wall-clock seconds — the runtime
    is simulated, so "try again later" means "after the cluster has
    done some more work", which keeps every test and bench
    deterministic.

    A breaker is a value its caller creates and passes along
    ([?breaker] on {!Musketeer.plan}/[execute], and on recovery and
    supervision); code given none admits every engine and records
    nothing. The CLI's [--breaker K] builds one per command; the
    serving layer keeps one per tenant, each a {!fresh} copy of the
    configured one, so one tenant's failures quarantine an engine for
    that tenant only. State changes surface as [breaker.*] counters and
    [breaker.open.<engine>] gauges in {!Obs.Metrics.default}. *)

type state =
  | Closed     (** healthy: admitted everywhere *)
  | Open       (** quarantined: excluded until the cool-down elapses *)
  | Half_open  (** probing: admitted; next outcome decides *)

val state_name : state -> string

type t

(** [create ()] — a breaker with a clean slate. [threshold] failures
    within the last [window] outcomes trip it (defaults 3 and 8);
    [cooldown] is the quarantine length in logical ticks (default 8),
    doubling on each failed probe. *)
val create : ?threshold:int -> ?window:int -> ?cooldown:int -> unit -> t

(** [fresh ?tenant t] — a breaker with [t]'s configuration and no
    recorded outcomes; [tenant] labels its gauges
    ([breaker.open.<tenant>.<engine>]). *)
val fresh : ?tenant:string -> t -> t

(** Record one engine run outcome. Each call advances the logical
    clock by one tick. *)
val record_success : t -> Backend.t -> unit

val record_failure : t -> Backend.t -> unit

(** Current state; reading may transition [Open] -> [Half_open] when
    the cool-down has elapsed. [Closed] for engines never recorded. *)
val state : t -> Backend.t -> state

(** [true] iff {!state} is [Open]. *)
val quarantined : t -> Backend.t -> bool

(** Drop backends the breaker will not admit. May return the empty
    list when everything is quarantined.

    Half-open windows admit {e exactly one} caller: the first [filter]
    that sees a half-open engine claims its probe slot and is admitted;
    concurrent callers (co-admitted submissions racing into the same
    window) are excluded ([breaker.probe_contended]) until the probe's
    outcome is recorded — or, if the probe is lost, until one cooldown's
    worth of ticks elapses and the claim expires. *)
val filter : t -> Backend.t list -> Backend.t list

(** Like {!filter}, but falls back to the unfiltered input when the
    quarantine would leave no candidate at all — a plan built on a
    quarantined engine still beats no plan. *)
val filter_candidates : t -> Backend.t list -> Backend.t list

(** Engines with recorded state, with their (refreshed) states. *)
val states : t -> (Backend.t * state) list

(** Restart replay: re-open an engine's breaker (state {!Open}, a full
    cooldown from now) without counting a trip — [breaker.restored] is
    bumped instead. Used when a restarted service replays breaker state
    recorded in the run ledger. *)
val force_open : t -> Backend.t -> unit

(** Human-readable table of the breaker states (one line per engine
    with outcomes on record). *)
val pp : Format.formatter -> t -> unit
