(** Continuous cost-model calibration (closing the loop on §5.2).

    [Profile.calibrate] fixes the cost model's per-engine rates once,
    by probing; the run ledger then accumulates predicted-vs-observed
    makespans for every executed job. {!fit} turns those records into
    one multiplicative correction factor per engine. A caller puts them
    into its profile ({!Profile.with_calibration}, or
    [Musketeer.with_calibration]), and {!Cost.job_cost} scales every
    estimate for that engine by its factor — so the partitioner's
    choices, [explain]'s tables and the supervisor's deadlines all see
    the corrected model.

    Fitting is robust and compounding-free: ratios are taken against
    the {e raw} (uncalibrated) prediction stored alongside each record,
    per-record medians absorb stragglers, an EWMA smooths across
    records, engines with fewer than [min_samples] observations keep
    factor 1.0, and factors are clamped to a sane range. With the
    [--no-calibrate] CLI flag nothing is fitted. *)

val default_min_samples : int

(** Fitted factors are clamped into [\[0.2, clamp_hi\]]. *)
val clamp_hi : float

(** [fit records] returns [(backend, factor)] sorted by backend name,
    from the ledger records in chronological order. Engines with fewer
    than [min_samples] usable predictions are omitted (treated as
    factor 1.0).
    @param min_samples default {!default_min_samples}
    @param alpha EWMA weight of the newest record's median,
           default 0.5 *)
val fit :
  ?min_samples:int -> ?alpha:float -> Obs.Ledger.record list ->
  (string * float) list

(** [fit], also exporting each factor as a
    ["calibration.factor.<engine>"] gauge. *)
val of_ledger :
  ?min_samples:int -> ?alpha:float -> Obs.Ledger.record list ->
  (string * float) list
