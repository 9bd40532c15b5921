(* Per-job resource probes: wall time, GC pressure and data throughput
   around one engine dispatch. Gc.quick_stat is a few loads (no heap
   walk), so probing every job is safe even for the microsecond-scale
   in-process kernels. *)

type running = {
  t0 : int64;  (* Clock.now_ns *)
  gc0 : Gc.stat;
}

type sample = {
  wall_s : float;
  minor_mwords : float;
  major_mwords : float;
  promoted_mwords : float;
  minor_collections : int;
  major_collections : int;
}

let start () = { t0 = Clock.now_ns (); gc0 = Gc.quick_stat () }

let mwords w = w /. 1e6

let stop running =
  let gc1 = Gc.quick_stat () in
  { wall_s = Clock.elapsed_s ~since:running.t0 ~until:(Clock.now_ns ());
    minor_mwords = mwords (gc1.Gc.minor_words -. running.gc0.Gc.minor_words);
    major_mwords = mwords (gc1.Gc.major_words -. running.gc0.Gc.major_words);
    promoted_mwords =
      mwords (gc1.Gc.promoted_words -. running.gc0.Gc.promoted_words);
    minor_collections =
      gc1.Gc.minor_collections - running.gc0.Gc.minor_collections;
    major_collections =
      gc1.Gc.major_collections - running.gc0.Gc.major_collections }

let throughput_mb_s sample ~mb =
  if sample.wall_s > 0. then mb /. sample.wall_s else 0.

let attach ?(metrics = Metrics.default) ~backend ?(input_mb = 0.)
    ?(output_mb = 0.) sample =
  let mb = input_mb +. output_mb in
  let mb_s = throughput_mb_s sample ~mb in
  (* span attributes: visible in trace exports next to the job span *)
  Trace.add_attr "probe.wall_s" (Trace.Float sample.wall_s);
  Trace.add_attr "probe.gc_minor_mwords" (Trace.Float sample.minor_mwords);
  Trace.add_attr "probe.gc_major_mwords" (Trace.Float sample.major_mwords);
  Trace.add_attr "probe.gc_minor_collections"
    (Trace.Int sample.minor_collections);
  Trace.add_attr "probe.gc_major_collections"
    (Trace.Int sample.major_collections);
  if mb > 0. then Trace.add_attr "probe.mb_per_s" (Trace.Float mb_s);
  (* registry histograms: aggregate across jobs, keyed per backend too *)
  let observe name v =
    Metrics.observe metrics name v;
    Metrics.observe metrics (name ^ "." ^ backend) v
  in
  observe "probe.wall_s" sample.wall_s;
  Metrics.observe metrics "probe.gc_minor_mwords" sample.minor_mwords;
  Metrics.observe metrics "probe.gc_major_mwords" sample.major_mwords;
  if mb > 0. then observe "probe.mb_per_s" mb_s
