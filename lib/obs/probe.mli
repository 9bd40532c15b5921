(** Per-job resource probes.

    A probe wraps one engine dispatch and measures what the job cost
    the process: wall time on the shared {!Clock}, GC pressure from
    [Gc.quick_stat] deltas (allocation in the minor and major heaps,
    collection counts) and data throughput when the caller knows the MB
    moved. The sample is
    attached to the innermost open trace span (["probe.*"] attributes)
    and folded into registry histograms (["probe.wall_s"],
    ["probe.mb_per_s"], each also keyed per backend), which in turn
    flow into the run ledger's histogram section. *)

type running

type sample = {
  wall_s : float;
  minor_mwords : float;       (** minor-heap words allocated, millions *)
  major_mwords : float;
  promoted_mwords : float;
  minor_collections : int;
  major_collections : int;
}

val start : unit -> running

(** Read the clock and GC deltas since {!start}. *)
val stop : running -> sample

(** [(input_mb + output_mb) / wall_s]; 0 for a zero-duration sample. *)
val throughput_mb_s : sample -> mb:float -> float

(** Attach the sample to the current span and the registry (default
    {!Metrics.default}). *)
val attach :
  ?metrics:Metrics.t -> backend:string -> ?input_mb:float ->
  ?output_mb:float -> sample -> unit
