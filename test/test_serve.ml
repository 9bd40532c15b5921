(* The serving layer: plan-cache lifecycle (hit / miss / invalidated on
   input size, calibration and breaker changes), the shared store's
   scan entries (pay-once, epochs, flight expiry, cross-workflow
   counters), start-time weighted fair admission, per-tenant breaker
   isolation, and the byte-identity promise — served outputs equal
   one-shot [run] outputs with the columnar kernels on and off. *)

let lite_seed =
  match Sys.getenv_opt "MUSKETEER_TEST_SEED" with
  | Some s -> int_of_string s
  | None -> 2026

let cluster = Experiments.Common.ec2 16

(* one calibration per suite; each manager starts with an empty history *)
let calibrated = Musketeer.create ~cluster ()

let manager () =
  Musketeer.with_history calibrated (Musketeer.History.create ())

(* ---- fixtures (mirrors the serve bench's tiny key/value world) ---- *)

let kv_schema =
  Relation.Schema.make
    [ { Relation.Schema.name = "k"; ty = Relation.Value.Tint };
      { Relation.Schema.name = "v"; ty = Relation.Value.Tint } ]

let kv_table seed =
  Relation.Table.create kv_schema
    (List.init 120 (fun i ->
         [| Relation.Value.Int ((i + seed) mod 7);
            Relation.Value.Int (i * (seed + 3)) |]))

let fresh_hdfs () =
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.put hdfs "r1" ~modeled_mb:64. (kv_table 1);
  Engines.Hdfs.put hdfs "r2" ~modeled_mb:48. (kv_table 2);
  hdfs

let agg_graph () =
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r1" in
  let s = Ir.Builder.select b ~pred:Relation.Expr.(col "v" > int 4) r in
  let m =
    Ir.Builder.map b ~target:"centered"
      ~expr:Relation.Expr.(col "v" - int 3)
      s
  in
  let g =
    Ir.Builder.group_by b ~name:"out" ~keys:[ "k" ]
      ~aggs:
        [ Relation.Aggregate.make (Relation.Aggregate.Sum "centered")
            ~as_name:"v" ]
      m
  in
  Ir.Builder.finish b ~outputs:[ g ]

let light_graph () =
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r1" in
  let s = Ir.Builder.select b ~pred:Relation.Expr.(col "v" > int 10) r in
  let p = Ir.Builder.project b ~name:"out" ~columns:[ "k" ] s in
  Ir.Builder.finish b ~outputs:[ p ]

(* a long chain: the heavy tenant's expensive workflow *)
let heavy_graph () =
  let b = Ir.Builder.create () in
  let r = ref (Ir.Builder.input b "r1") in
  for i = 1 to 8 do
    r :=
      Ir.Builder.map b
        ~target:(Printf.sprintf "m%d" i)
        ~expr:Relation.Expr.(col "v" + int i)
        !r
  done;
  let g =
    Ir.Builder.group_by b ~name:"out" ~keys:[ "k" ]
      ~aggs:
        [ Relation.Aggregate.make (Relation.Aggregate.Sum "v") ~as_name:"v" ]
      !r
  in
  Ir.Builder.finish b ~outputs:[ g ]

let sorted_csv outputs =
  List.sort compare
    (List.map (fun (name, t) -> (name, Relation.Table.to_csv t)) outputs)

let config ?(concurrency = 4) ?(weights = []) ?(subresult_cache_mb = 0.) () =
  { Serve.Service.default_config with
    concurrency; subresult_cache_mb; weights }

let sub ?(tenant = "t") ?(workflow = "agg") ?slo ~at graph =
  { Serve.Service.tenant; workflow; graph; arrival_s = at; slo_s = slo }

let delta (a : Musketeer.Plan_cache.stats) (b : Musketeer.Plan_cache.stats) =
  Musketeer.Plan_cache.
    { hits = b.hits - a.hits;
      misses = b.misses - a.misses;
      invalidations = b.invalidations - a.invalidations }

let check_stats what (want_h, want_m, want_i)
    (d : Musketeer.Plan_cache.stats) =
  Alcotest.(check (triple int int int))
    what (want_h, want_m, want_i)
    (d.hits, d.misses, d.invalidations)

(* ---- plan cache via [Musketeer.plan ~cache] ---- *)

let plan_once ?breaker ~cache m ~hdfs g =
  let before = Musketeer.Plan_cache.stats cache in
  (match Musketeer.plan ~cache ?breaker m ~workflow:"wf" ~hdfs g with
   | Some _ -> ()
   | None -> Alcotest.fail "graph should plan");
  delta before (Musketeer.Plan_cache.stats cache)

let test_cache_miss_then_hit () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let cache = Musketeer.Plan_cache.create () in
  let g = agg_graph () in
  check_stats "first plan misses" (0, 1, 0) (plan_once ~cache m ~hdfs g);
  check_stats "second plan hits" (1, 0, 0) (plan_once ~cache m ~hdfs g);
  (* a structurally equal graph built separately hits the same entry *)
  check_stats "equal graph hits" (1, 0, 0)
    (plan_once ~cache m ~hdfs (agg_graph ()));
  Alcotest.(check int) "one entry" 1 (Musketeer.Plan_cache.size cache)

let test_cache_invalidate_on_input_size () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let cache = Musketeer.Plan_cache.create () in
  let g = agg_graph () in
  ignore (plan_once ~cache m ~hdfs g);
  (* same bytes, different modeled size: the fingerprint must move *)
  Engines.Hdfs.put hdfs "r1" ~modeled_mb:256. (kv_table 1);
  check_stats "resized input invalidates" (0, 0, 1)
    (plan_once ~cache m ~hdfs g);
  check_stats "then caches again" (1, 0, 0) (plan_once ~cache m ~hdfs g)

(* two managers that differ only in calibration share one cache: the
   fingerprint reads the factors pricing reads, so neither is ever
   served the other's plan *)
let test_cache_invalidate_on_calibration () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let calibrated =
    Musketeer.with_calibration m
      (List.map (fun b -> (Engines.Backend.name b, 3.0)) Engines.Backend.all)
  in
  let cache = Musketeer.Plan_cache.create () in
  let g = agg_graph () in
  ignore (plan_once ~cache calibrated ~hdfs g);
  check_stats "warm with calibration" (1, 0, 0)
    (plan_once ~cache calibrated ~hdfs g);
  check_stats "no factors invalidate" (0, 0, 1) (plan_once ~cache m ~hdfs g);
  check_stats "new factors invalidate" (0, 0, 1)
    (plan_once ~cache calibrated ~hdfs g)

let test_cache_invalidate_on_breaker () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let cache = Musketeer.Plan_cache.create () in
  let g = agg_graph () in
  let breaker = Engines.Breaker.create ~threshold:1 ~window:4 () in
  ignore (plan_once ~breaker ~cache m ~hdfs g);
  check_stats "warm before trip" (1, 0, 0)
    (plan_once ~breaker ~cache m ~hdfs g);
  Engines.Breaker.record_failure breaker Engines.Backend.Spark;
  Alcotest.(check bool)
    "spark quarantined" true
    (Engines.Breaker.quarantined breaker Engines.Backend.Spark);
  check_stats "quarantine invalidates" (0, 0, 1)
    (plan_once ~breaker ~cache m ~hdfs g)

(* ---- the shared store: scans ([Engines.Share]) ---- *)

module Share = Engines.Share

let metric name = Obs.Metrics.counter Obs.Metrics.default name

let gauge name =
  Option.value ~default:0. (Obs.Metrics.gauge Obs.Metrics.default name)

let test_scan_pays_once () =
  let sh = Share.create () in
  Alcotest.(check bool) "first claim pays" false
    (Share.claim sh ~relation:"r" ~mb:64.);
  Alcotest.(check bool) "second claim rides free" true
    (Share.claim sh ~relation:"r" ~mb:64.);
  Alcotest.(check int) "one paid read" 1 (Share.paid_reads sh "r");
  Alcotest.(check (float 1e-9)) "64 MB saved" 64. (Share.saved_mb sh)

let test_scan_epoch_invalidation () =
  let sh = Share.create () in
  ignore (Share.claim sh ~relation:"r" ~mb:64.);
  let e0 = Share.epoch sh "r" in
  Share.note_write sh "r";
  Alcotest.(check bool) "epoch bumped" true (Share.epoch sh "r" > e0);
  Alcotest.(check bool) "stale entry pays again" false
    (Share.claim sh ~relation:"r" ~mb:64.);
  Alcotest.(check int) "two paid reads" 2 (Share.paid_reads sh "r")

let test_scan_flight_expiry () =
  let sh = Share.create () in
  let f = Share.begin_flight sh in
  Share.with_flight sh f (fun () ->
      Alcotest.(check bool) "payer pays in flight" false
        (Share.claim sh ~relation:"r" ~mb:64.);
      Alcotest.(check bool) "co-flight rides free" true
        (Share.claim sh ~relation:"r" ~mb:64.));
  Share.end_flight sh f;
  (* the payer landed, its entry expired: the next reader pays *)
  Alcotest.(check bool) "post-flight claim pays" false
    (Share.claim sh ~relation:"r" ~mb:64.);
  Alcotest.(check int) "two paid reads" 2 (Share.paid_reads sh "r")

(* A flight re-claiming its own paid scan (several jobs of one
   submission, or a cached plan replaying its scans) rides free but
   must not inflate the cross-workflow counters — those measure
   sharing *between* co-admitted workflows only. *)
let test_scan_intra_flight_counters () =
  let cross0 = metric "scan.cross_workflow"
  and intra0 = metric "scan.intra_flight" in
  let sh = Share.create () in
  let f = Share.begin_flight sh in
  Share.with_flight sh f (fun () ->
      Alcotest.(check bool) "payer pays" false
        (Share.claim sh ~relation:"r" ~mb:64.);
      Alcotest.(check bool) "same flight rides free" true
        (Share.claim sh ~relation:"r" ~mb:64.));
  Alcotest.(check int) "intra-flight counted" (intra0 + 1)
    (metric "scan.intra_flight");
  Alcotest.(check int) "cross counter untouched" cross0
    (metric "scan.cross_workflow");
  Alcotest.(check (float 1e-9)) "no phantom savings" 0. (Share.saved_mb sh);
  (* a genuinely co-admitted flight still counts as cross-workflow *)
  let f2 = Share.begin_flight sh in
  Share.with_flight sh f2 (fun () ->
      Alcotest.(check bool) "co-admitted flight rides free" true
        (Share.claim sh ~relation:"r" ~mb:64.));
  Alcotest.(check int) "cross counted exactly once" (cross0 + 1)
    (metric "scan.cross_workflow");
  Alcotest.(check (float 1e-9)) "cross savings recorded" 64.
    (Share.saved_mb sh)

(* Regression: sequential repeat traffic (no co-admission overlap)
   must pin the cross-workflow scan counters at zero — plan-cache hits
   replaying a cached plan's scans used to double-bump them. *)
let test_scan_cross_counters_repeat_traffic () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let svc = Serve.Service.create ~config:(config ()) m ~hdfs in
  let g = agg_graph () in
  let cross0 = metric "scan.cross_workflow"
  and saved0 = gauge "scan.cross_mb_saved" in
  List.iter
    (fun at ->
      match Serve.Service.drive svc [ sub ~at g ] with
      | [ o ] ->
        Alcotest.(check (option string)) "no error" None o.error;
        if at > 0. then Alcotest.(check string) "warm" "hit" o.cache
      | _ -> Alcotest.fail "one outcome expected")
    [ 0.; 10000.; 20000. ];
  Alcotest.(check int)
    "no cross-workflow claims under sequential repeat traffic" cross0
    (metric "scan.cross_workflow");
  Alcotest.(check (float 1e-9))
    "no cross-workflow savings claimed" saved0
    (gauge "scan.cross_mb_saved")

(* ---- the service ---- *)

let test_serve_cache_labels () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let g = agg_graph () in
  let outcomes, _ =
    Serve.Service.run ~config:(config ()) m ~hdfs
      [ sub ~tenant:"a" ~at:0. g;
        sub ~tenant:"b" ~at:0. g;
        sub ~tenant:"a" ~at:5. g ]
  in
  Alcotest.(check (list string))
    "miss then hits" [ "miss"; "hit"; "hit" ]
    (List.map (fun (o : Serve.Service.outcome) -> o.cache) outcomes)

let test_put_input_invalidates () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let svc = Serve.Service.create ~config:(config ()) m ~hdfs in
  let g = agg_graph () in
  let label at =
    match Serve.Service.drive svc [ sub ~at g ] with
    | [ o ] ->
      Alcotest.(check (option string)) "no error" None o.error;
      o.cache
    | _ -> Alcotest.fail "one outcome expected"
  in
  Alcotest.(check string) "cold" "miss" (label 0.);
  Alcotest.(check string) "warm" "hit" (label 10.);
  Serve.Service.put_input svc "r1" ~modeled_mb:256. (kv_table 1);
  Alcotest.(check string) "after overwrite" "invalidated" (label 20.);
  Alcotest.(check string) "warm again" "hit" (label 30.)

(* start-time fair queueing: with weights 2:1, equal-cost backlogs and
   one admission slot, tenant "a" gets exactly two admissions per "b".
   The expected sequence is the textbook SFQ trace — in particular it
   interleaves; a min-*finish*-tag scheduler would tie on every step
   and drain "a" completely first. *)
let test_wfq_weighted_order () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let g = agg_graph () in
  let subs =
    List.concat_map
      (fun tenant -> List.init 6 (fun _ -> sub ~tenant ~at:0. g))
      [ "a"; "b" ]
  in
  let outcomes, _ =
    Serve.Service.run
      ~config:(config ~concurrency:1 ~weights:[ ("a", 2.); ("b", 1.) ] ())
      m ~hdfs subs
  in
  let order =
    List.map
      (fun (o : Serve.Service.outcome) -> o.sub.Serve.Service.tenant)
      outcomes
  in
  Alcotest.(check (list string))
    "SFQ admission order"
    [ "a"; "b"; "a"; "a"; "b"; "a"; "a"; "b"; "a"; "b"; "b"; "b" ]
    order

let test_breaker_per_tenant () =
  let config =
    { (config ()) with
      Serve.Service.breaker =
        Some (Engines.Breaker.create ~threshold:1 ~window:4 ()) }
  in
  let m = manager () in
  let svc = Serve.Service.create ~config m ~hdfs:(fresh_hdfs ()) in
  let other = Serve.Service.create ~config m ~hdfs:(fresh_hdfs ()) in
  let quarantined svc tenant =
    Engines.Breaker.quarantined
      (Option.get (Serve.Service.breaker svc tenant))
      Engines.Backend.Spark
  in
  Engines.Breaker.record_failure
    (Option.get (Serve.Service.breaker svc "a"))
    Engines.Backend.Spark;
  Alcotest.(check bool) "quarantined for tenant a" true (quarantined svc "a");
  Alcotest.(check bool) "healthy for tenant b" false (quarantined svc "b");
  Alcotest.(check bool) "healthy in another service" false
    (quarantined other "a");
  Alcotest.(check bool) "the configured breaker is untouched" false
    (Engines.Breaker.quarantined
       (Option.get config.Serve.Service.breaker)
       Engines.Backend.Spark)

(* ---- overload hardening ---- *)

let status_label (o : Serve.Service.outcome) =
  match o.status with
  | Serve.Service.Served -> "served"
  | Serve.Service.Shed r -> "shed:" ^ r
  | Serve.Service.Expired -> "expired"

let fault_plan spec =
  match Engines.Faults.parse_plan ~seed:7 spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad fault spec: %s" e

(* enqueue-then-shed with reject-newest: the arrival itself is the
   victim once the tenant cap trips *)
let test_shed_reject_newest () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let cfg =
    { (config ~concurrency:1 ()) with
      Serve.Service.tenant_queue_cap = 1 }
  in
  let g = agg_graph () in
  let outcomes, svc =
    Serve.Service.run ~config:cfg m ~hdfs
      [ sub ~workflow:"w1" ~at:0. g;
        sub ~workflow:"w2" ~at:0. g;
        sub ~workflow:"w3" ~at:0. g ]
  in
  Alcotest.(check (list (pair string string)))
    "w2 and w3 rejected at arrival, w1 served"
    [ ("w2", "shed:reject-newest"); ("w3", "shed:reject-newest");
      ("w1", "served") ]
    (List.map
       (fun (o : Serve.Service.outcome) ->
          (o.sub.Serve.Service.workflow, status_label o))
       outcomes);
  List.iter
    (fun (o : Serve.Service.outcome) ->
       match o.status with
       | Serve.Service.Shed _ ->
         Alcotest.(check string) "shed cache label" "shed" o.cache;
         Alcotest.(check (option string)) "shed has no error" None o.error;
         Alcotest.(check int) "shed produced nothing" 0
           (List.length o.outputs)
       | _ -> ())
    outcomes;
  Alcotest.(check int) "no leaked flights" 0
    (Serve.Service.open_flights svc)

(* the global cap with shed-lowest-weight picks on the backlogged
   tenant with the smallest WFQ weight *)
let test_shed_lowest_weight () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let cfg =
    { (config ~concurrency:1
         ~weights:[ ("gold", 4.); ("bronze", 1.) ] ()) with
      Serve.Service.global_queue_cap = 2;
      shed_policy = Serve.Service.Shed_lowest_weight }
  in
  let g = agg_graph () in
  let outcomes, _ =
    Serve.Service.run ~config:cfg m ~hdfs
      [ sub ~tenant:"gold" ~at:0. g;
        sub ~tenant:"bronze" ~at:0. g;
        sub ~tenant:"gold" ~at:0. g ]
  in
  let shed, kept =
    List.partition
      (fun (o : Serve.Service.outcome) ->
         match o.status with Serve.Service.Shed _ -> true | _ -> false)
      outcomes
  in
  Alcotest.(check (list string))
    "the bronze submission is the victim" [ "bronze" ]
    (List.map
       (fun (o : Serve.Service.outcome) -> o.sub.Serve.Service.tenant)
       shed);
  Alcotest.(check int) "both gold submissions served" 2 (List.length kept)

let test_shed_oldest_first () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let cfg =
    { (config ~concurrency:1 ()) with
      Serve.Service.tenant_queue_cap = 1;
      shed_policy = Serve.Service.Oldest_first }
  in
  let g = agg_graph () in
  let outcomes, _ =
    Serve.Service.run ~config:cfg m ~hdfs
      [ sub ~workflow:"w1" ~at:0. g;
        sub ~workflow:"w2" ~at:0. g;
        sub ~workflow:"w3" ~at:0. g ]
  in
  Alcotest.(check (list (pair string string)))
    "oldest queued items dropped, newest survives"
    [ ("w1", "shed:oldest-first"); ("w2", "shed:oldest-first");
      ("w3", "served") ]
    (List.map
       (fun (o : Serve.Service.outcome) ->
          (o.sub.Serve.Service.workflow, status_label o))
       outcomes)

(* an SLO can only cancel a submission still queued — the deadline
   passing while another submission holds the only slot expires it
   before admission, with no execution *)
let test_slo_expires_queued () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let outcomes, _ =
    Serve.Service.run ~config:(config ~concurrency:1 ()) m ~hdfs
      [ sub ~tenant:"a" ~workflow:"heavy" ~at:0. (heavy_graph ());
        sub ~tenant:"b" ~slo:0.01 ~at:0. (agg_graph ()) ]
  in
  Alcotest.(check (list string))
    "queued submission expires" [ "served"; "expired" ]
    (List.map status_label outcomes);
  match outcomes with
  | [ _; expired ] ->
    Alcotest.(check string) "expired cache label" "expired" expired.cache;
    Alcotest.(check (option string)) "no error" None expired.error;
    Alcotest.(check int) "nothing executed" 0 (List.length expired.outputs)
  | _ -> Alcotest.fail "two outcomes expected"

(* ...but once admitted, an execution always runs to byte-identical
   completion, even if it blows its own deadline doing so *)
let test_slo_never_cancels_started () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let outcomes, svc =
    Serve.Service.run ~config:(config ()) m ~hdfs
      [ sub ~slo:0.0001 ~at:0. (agg_graph ()) ]
  in
  match outcomes with
  | [ o ] ->
    Alcotest.(check string) "still served" "served" (status_label o);
    Alcotest.(check (option string)) "no error" None o.error;
    Alcotest.(check bool) "outputs materialized" true (o.outputs <> []);
    let s = Serve.Service.summarize svc outcomes in
    Alcotest.(check int) "completed" 1 s.Serve.Service.completed;
    Alcotest.(check int) "but not in SLO" 0 s.Serve.Service.slo_met
  | _ -> Alcotest.fail "one outcome expected"

(* virtual time carries modeled seconds only: two runs of one trace give
   bit-identical latencies, however long planning took on the wall *)
let test_latencies_repeat_exactly () =
  let trace () =
    [ sub ~tenant:"a" ~workflow:"heavy" ~at:0. (heavy_graph ());
      sub ~tenant:"b" ~at:0. (agg_graph ());
      sub ~tenant:"a" ~workflow:"light" ~at:1. (light_graph ());
      sub ~tenant:"b" ~at:2. (agg_graph ()) ]
  in
  let latencies () =
    let outcomes, _ =
      Serve.Service.run ~config:(config ~concurrency:1 ())
        (manager ())
        ~hdfs:(fresh_hdfs ()) (trace ())
    in
    List.map
      (fun (o : Serve.Service.outcome) ->
         (Int64.bits_of_float o.latency_s, Int64.bits_of_float o.finish_s))
      outcomes
  in
  let first = latencies () in
  Alcotest.(check int) "every submission served" 4 (List.length first);
  Alcotest.(check bool) "bit-identical latencies and finish times" true
    (first = latencies ())

(* the degradation ladder climbs under queue-delay pressure and climbs
   back down on its own as the EWMA decays — without ever changing the
   bytes a submission completes with *)
let test_degradation_ladder () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let cfg =
    { (config ~concurrency:1 ()) with
      Serve.Service.pressure_threshold_s = 0.05 }
  in
  let svc = Serve.Service.create ~config:cfg m ~hdfs in
  let g = agg_graph () in
  let rung3_0 = metric "serve.degrade.to_rung3" in
  let burst = List.init 10 (fun _ -> sub ~at:0. g) in
  let o1 = Serve.Service.drive svc burst in
  List.iter
    (fun (o : Serve.Service.outcome) ->
       Alcotest.(check (option string)) "no error under pressure" None
         o.error)
    o1;
  Alcotest.(check bool) "ladder reached rung 3" true
    (metric "serve.degrade.to_rung3" > rung3_0);
  (* every rung produced the same bytes as the rung-0 admission *)
  let want = sorted_csv (List.hd o1).Serve.Service.outputs in
  List.iter
    (fun (o : Serve.Service.outcome) ->
       Alcotest.(check bool) "degraded output identical" true
         (sorted_csv o.outputs = want))
    o1;
  (* calm, widely spaced traffic decays the EWMA back to rung 0 *)
  let calm =
    List.init 30 (fun i -> sub ~at:(10000. +. (500. *. float_of_int i)) g)
  in
  let o2 = Serve.Service.drive svc calm in
  List.iter
    (fun (o : Serve.Service.outcome) ->
       Alcotest.(check (option string)) "no error when calm" None o.error)
    o2;
  Alcotest.(check (float 1e-9)) "ladder fully reverted" 0.
    (gauge "serve.degrade.rung")

(* regression: a failed payer must expire its store flight
   immediately — the next co-admitted submission in the same burst pays
   its own scan instead of riding on a materialization that never
   landed *)
let test_failed_payer_expires_flights () =
  let hdfs = fresh_hdfs () in
  let m = manager () in
  (* one injected rejection per submission (plans are reseeded per
     submission), no recovery: both executions fail outright *)
  let cfg =
    { (config ~concurrency:2 ()) with
      Serve.Service.inject = Some (fault_plan "reject") }
  in
  let g = agg_graph () in
  let outcomes, svc =
    Serve.Service.run ~config:cfg m ~hdfs
      [ sub ~tenant:"a" ~at:0. g; sub ~tenant:"b" ~at:0. g ]
  in
  List.iter
    (fun (o : Serve.Service.outcome) ->
       Alcotest.(check bool) "both submissions fail" true (o.error <> None))
    outcomes;
  Alcotest.(check int) "no leaked flights" 0
    (Serve.Service.open_flights svc);
  Alcotest.(check int)
    "each failed submission paid its own r1 scan" 2
    (Engines.Share.paid_reads (Serve.Service.store svc) "r1")

(* an empty retry bucket degrades to fail-fast; an unlimited one
   retries through the injected rejection *)
let test_retry_budget () =
  let recovery =
    { Musketeer.Recovery.none with Musketeer.Recovery.max_retries = 2 }
  in
  let serve_one budget =
    let hdfs = fresh_hdfs () in
    let m = manager () in
    let cfg =
      { (config ()) with
        Serve.Service.inject = Some (fault_plan "reject");
        recovery; retry_budget = budget }
    in
    let retries0 = metric "recovery.retries" in
    let outcomes, _ =
      Serve.Service.run ~config:cfg m ~hdfs [ sub ~at:0. (agg_graph ()) ]
    in
    match outcomes with
    | [ o ] -> (o, metric "recovery.retries" - retries0)
    | _ -> Alcotest.fail "one outcome expected"
  in
  let capped0 = metric "serve.retry_budget.capped" in
  let o_unlimited, retries_unlimited = serve_one (-1.) in
  Alcotest.(check (option string))
    "unlimited budget retries through the fault" None o_unlimited.error;
  Alcotest.(check bool) "a retry was spent" true (retries_unlimited > 0);
  let o_empty, retries_empty = serve_one 0. in
  Alcotest.(check bool) "empty budget fails fast" true
    (o_empty.error <> None);
  Alcotest.(check int) "no retry spent" 0 retries_empty;
  Alcotest.(check bool) "cap recorded" true
    (metric "serve.retry_budget.capped" > capped0)

(* each service charges its tenants the retries its own executions
   spent: two services whose submissions interleave, each tenant with a
   one-token bucket that never refills and one injected rejection per
   submission, each retry through their first submission and fail fast
   on their second *)
let test_retry_budgets_stay_apart () =
  let cfg =
    { (config ()) with
      Serve.Service.inject = Some (fault_plan "reject");
      recovery =
        { Musketeer.Recovery.none with Musketeer.Recovery.max_retries = 2 };
      retry_budget = 1.; retry_refill_per_s = 0. }
  in
  let m = manager () in
  let a = Serve.Service.create ~config:cfg m ~hdfs:(fresh_hdfs ())
  and b = Serve.Service.create ~config:cfg m ~hdfs:(fresh_hdfs ()) in
  let served svc at =
    match Serve.Service.drive svc [ sub ~at (agg_graph ()) ] with
    | [ o ] -> o.Serve.Service.error = None
    | _ -> Alcotest.fail "one outcome expected"
  in
  let a1 = served a 0. in
  let b1 = served b 0. in
  let a2 = served a 100. in
  let b2 = served b 100. in
  Alcotest.(check (list bool)) "a, b, a, b" [ true; true; false; false ]
    [ a1; b1; a2; b2 ]

(* crash-restart: a fresh service replays calibration, epochs, open
   breakers and the plan cache from ledger records *)
let test_restore_replays_ledger () =
  let config =
    { (config ()) with
      Serve.Service.breaker =
        Some (Engines.Breaker.create ~threshold:1 ~window:4 ~cooldown:4 ()) }
  in
  let hdfs = fresh_hdfs () in
  let m = manager () in
  let svc = Serve.Service.create ~config m ~hdfs in
  let serve_rec ~breaker_open ~epochs =
    Obs.Ledger.snapshot
      ~since:(Obs.Ledger.mark Obs.Metrics.default)
      ~serve:
        { Obs.Ledger.tenant = "gold"; queue_delay_s = 0.; latency_s = 1.;
          cache = "miss"; subplan_hits = 0; subplan_attached_mb = 0.;
          shed = None; slo_s = 0.; slo_met = true; breaker_open; epochs }
      ~workflow:"agg" ~ir_hash:"h" ~partition:[] ~makespan_s:1. ()
  in
  let records =
    [ serve_rec ~breaker_open:[] ~epochs:[ ("r1", 5) ];
      serve_rec ~breaker_open:[ "Spark" ] ~epochs:[] ]
  in
  let stats =
    Serve.Service.restore svc ~mix:[ ("agg", agg_graph ()) ] records
  in
  Alcotest.(check int) "records replayed" 2
    stats.Serve.Service.r_records;
  Alcotest.(check int) "agg re-warmed" 1 stats.Serve.Service.r_warmed;
  Alcotest.(check int) "Spark re-opened" 1 stats.Serve.Service.r_breakers;
  Alcotest.(check int) "one epoch raised" 1 stats.Serve.Service.r_epochs;
  Alcotest.(check int) "store epoch at the recorded maximum" 5
    (Engines.Share.epoch (Serve.Service.store svc) "r1");
  let quarantined tenant =
    Engines.Breaker.quarantined
      (Option.get (Serve.Service.breaker svc tenant))
      Engines.Backend.Spark
  in
  Alcotest.(check bool) "Spark quarantined for gold" true
    (quarantined "gold");
  Alcotest.(check bool) "Spark healthy for other tenants" false
    (quarantined "silver");
  (* the re-warmed plan serves the next submission from cache *)
  match
    Serve.Service.drive svc [ sub ~tenant:"silver" ~at:0. (agg_graph ()) ]
  with
  | [ o ] ->
    Alcotest.(check (option string)) "no error" None o.error;
    Alcotest.(check string) "warm immediately after restore" "hit" o.cache
  | _ -> Alcotest.fail "one outcome expected"

(* ---- properties ---- *)

(* Served outputs are byte-identical to a one-shot [run] of the same
   graph, for generated workflows, columnar on and off. *)
let test_serve_identity_differential () =
  Qcheck_lite.check ~count:6 ~seed:lite_seed
    ~name:"served outputs = one-shot outputs"
    Qcheck_lite.spec_arbitrary
    (fun spec ->
      let g = Qcheck_lite.graph_of_spec spec in
      List.for_all
        (fun columnar ->
          Relation.Column.with_enabled columnar @@ fun () ->
          let hdfs = Qcheck_lite.hdfs_of_spec spec in
          let base = Engines.Hdfs.snapshot hdfs in
          let reference =
            let m = manager () in
            match
              Musketeer.plan m ~workflow:"spec" ~hdfs:base g
            with
            | None -> Alcotest.fail "spec should plan"
            | Some (plan, g') -> (
              match
                Musketeer.execute_plan ~record_history:false m
                  ~workflow:"spec" ~hdfs:base ~graph:g' plan
              with
              | Error e ->
                Alcotest.fail (Engines.Report.error_to_string e)
              | Ok r -> sorted_csv r.Musketeer.Executor.outputs)
          in
          let m = manager () in
          let outcomes, _ =
            Serve.Service.run ~config:(config ()) m ~hdfs
              [ sub ~tenant:"a" ~workflow:"spec" ~at:0. g;
                sub ~tenant:"b" ~workflow:"spec" ~at:0. g;
                sub ~tenant:"a" ~workflow:"spec" ~at:3. g ]
          in
          List.for_all
            (fun (o : Serve.Service.outcome) ->
              o.error = None && sorted_csv o.outputs = reference)
            outcomes)
        [ true; false ])

(* The overload machinery — shedding, SLOs, the degradation ladder,
   fault injection with recovery and a retry budget — may drop or fail
   submissions, but can never change the bytes of one that completes. *)
let test_chaos_differential_property () =
  let plan =
    match
      Engines.Faults.parse_plan ~seed:lite_seed
        "worker@0.5;reject;straggler*3:p=0.6"
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "bad fault spec: %s" e
  in
  Qcheck_lite.check ~count:4 ~seed:lite_seed
    ~name:"chaos + shedding never change completed bytes"
    Qcheck_lite.spec_arbitrary
    (fun spec ->
      let g = Qcheck_lite.graph_of_spec spec in
      let hdfs = Qcheck_lite.hdfs_of_spec spec in
      let base = Engines.Hdfs.snapshot hdfs in
      let reference =
        let m = manager () in
        match Musketeer.plan m ~workflow:"spec" ~hdfs:base g with
        | None -> Alcotest.fail "spec should plan"
        | Some (plan', g') -> (
          match
            Musketeer.execute_plan ~record_history:false m ~workflow:"spec"
              ~hdfs:base ~graph:g' plan'
          with
          | Error e -> Alcotest.fail (Engines.Report.error_to_string e)
          | Ok r -> sorted_csv r.Musketeer.Executor.outputs)
      in
      let cfg =
        { (config ~concurrency:2 ~weights:[ ("a", 2.); ("b", 1.) ] ()) with
          Serve.Service.tenant_queue_cap = 2;
          shed_policy = Serve.Service.Oldest_first;
          pressure_threshold_s = 0.1;
          default_slo_s = Some 500.;
          retry_budget = 1.;
          recovery =
            { Musketeer.Recovery.default with
              Musketeer.Recovery.max_retries = 1 };
          inject = Some plan }
      in
      let m = manager () in
      let subs =
        List.init 3 (fun i ->
            sub ~tenant:"a" ~workflow:"spec"
              ~at:(0.3 *. float_of_int i)
              g)
        @ List.init 3 (fun i ->
              sub ~tenant:"b" ~workflow:"spec"
                ~at:(0.2 *. float_of_int i)
                g)
      in
      let outcomes, svc = Serve.Service.run ~config:cfg m ~hdfs subs in
      Serve.Service.open_flights svc = 0
      && List.for_all
           (fun (o : Serve.Service.outcome) ->
              match o.status, o.error with
              | Serve.Service.Served, None ->
                sorted_csv o.outputs = reference
              | _ -> o.outputs = [])
           outcomes)

(* Two services in one process share no setting: each owns its
   breakers, injector and calibration. Driven interleaved, batch by
   batch, each gives exactly the outcomes and breaker states it gives
   driven alone — with a different breaker threshold, fault plan and
   calibration on either side. *)
let test_services_isolated_property () =
  let fault_plan ~seed spec =
    match Engines.Faults.parse_plan ~seed spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "bad fault spec: %s" e
  in
  let service_config ~threshold ~faults =
    { (config ()) with
      Serve.Service.recovery = Musketeer.Recovery.default;
      inject = Some faults;
      breaker =
        Some (Engines.Breaker.create ~threshold ~window:4 ~cooldown:3 ()) }
  in
  let a_config =
    service_config ~threshold:1
      ~faults:(fault_plan ~seed:lite_seed "reject;worker@0.5;reject:p=0.7")
  and b_config =
    service_config ~threshold:2
      ~faults:
        (fault_plan ~seed:(lite_seed + 1)
           "reject;oom;reject;straggler*2:p=0.8")
  in
  let a_factors =
    List.map (fun b -> (Engines.Backend.name b, 1.9)) Engines.Backend.all
  and b_factors = [ ("Hadoop", 0.3); ("Naiad", 2.8); ("Metis", 1.1) ] in
  Qcheck_lite.check ~count:3 ~seed:lite_seed
    ~name:"interleaved services = each driven alone"
    Qcheck_lite.spec_arbitrary
    (fun spec ->
      let g = Qcheck_lite.graph_of_spec spec in
      let service config factors =
        let m = Musketeer.with_calibration (manager ()) factors in
        Serve.Service.create ~config m ~hdfs:(Qcheck_lite.hdfs_of_spec spec)
      in
      let batch i =
        [ sub ~tenant:"a" ~workflow:"spec" ~at:(10. *. float_of_int i) g;
          sub ~tenant:"b" ~workflow:"spec" ~at:(10. *. float_of_int i) g ]
      in
      let view (o : Serve.Service.outcome) =
        ( (o.sub.Serve.Service.tenant, o.status, o.cache, o.error),
          (o.admit_s, o.finish_s, o.makespan_s),
          sorted_csv o.outputs )
      in
      let drive svc i = List.map view (Serve.Service.drive svc (batch i)) in
      let breakers svc =
        List.map
          (fun tenant ->
             Format.asprintf "%a" Engines.Breaker.pp
               (Option.get (Serve.Service.breaker svc tenant)))
          [ "a"; "b" ]
      in
      let alone config factors =
        let svc = service config factors in
        let outcomes = List.concat_map (drive svc) [ 0; 1; 2 ] in
        (outcomes, breakers svc)
      in
      let a_alone = alone a_config a_factors in
      let b_alone = alone b_config b_factors in
      let a = service a_config a_factors and b = service b_config b_factors in
      let a_out = ref [] and b_out = ref [] in
      List.iter
        (fun i ->
           a_out := !a_out @ drive a i;
           b_out := !b_out @ drive b i)
        [ 0; 1; 2 ];
      (!a_out, breakers a) = a_alone && (!b_out, breakers b) = b_alone)

(* Admission fairness: a light tenant's p99 queue delay in a mix with a
   heavy tenant stays within a constant factor of its solo p99 (plus
   one largest service time — it can always be stuck behind a job that
   was already admitted). *)
let test_fairness_property () =
  let weights = [ ("light", 4.); ("heavy", 1.) ] in
  List.iter
    (fun seed ->
      let light_mix =
        [ { Serve.Client.workflow = "light"; graph = light_graph ();
            weight = 1. } ]
      in
      let heavy_mix =
        [ { Serve.Client.workflow = "heavy"; graph = heavy_graph ();
            weight = 1. } ]
      in
      let light_subs =
        Serve.Client.generate ~seed ~rate_per_s:0.3 ~count:8
          ~tenants:[ ("light", 1.) ] ~mix:light_mix ()
      in
      let heavy_subs =
        Serve.Client.generate ~seed:(seed + 101) ~rate_per_s:4. ~count:24
          ~tenants:[ ("heavy", 1.) ] ~mix:heavy_mix ()
      in
      let serve subs =
        let hdfs = fresh_hdfs () in
        let m = manager () in
        let outcomes, _ =
          Serve.Service.run
            ~config:(config ~concurrency:2 ~weights ())
            m ~hdfs subs
        in
        List.iter
          (fun (o : Serve.Service.outcome) ->
            Alcotest.(check (option string)) "no serve error" None o.error)
          outcomes;
        outcomes
      in
      let light_p99 outcomes =
        Serve.Service.percentile 0.99
          (List.filter_map
             (fun (o : Serve.Service.outcome) ->
               if o.sub.Serve.Service.tenant = "light" then
                 Some o.queue_delay_s
               else None)
             outcomes)
      in
      let solo = serve light_subs in
      let mixed = serve (light_subs @ heavy_subs) in
      Alcotest.(check int)
        "all submissions served"
        (List.length light_subs + List.length heavy_subs)
        (List.length mixed);
      let max_service =
        List.fold_left
          (fun acc (o : Serve.Service.outcome) ->
            Float.max acc (o.finish_s -. o.admit_s))
          0. mixed
      in
      let p_solo = light_p99 solo and p_mixed = light_p99 mixed in
      let bound = (5. *. p_solo) +. (5. *. max_service) in
      if p_mixed > bound then
        Alcotest.failf
          "seed %d: light p99 queue delay %.3fs in mix exceeds bound %.3fs \
           (solo p99 %.3fs, max service %.3fs)"
          seed p_mixed bound p_solo max_service)
    [ lite_seed; lite_seed + 1; lite_seed + 2 ]

let () =
  Alcotest.run "serve"
    [ ("plan_cache",
       [ Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
         Alcotest.test_case "input resize invalidates" `Quick
           test_cache_invalidate_on_input_size;
         Alcotest.test_case "calibration invalidates" `Quick
           test_cache_invalidate_on_calibration;
         Alcotest.test_case "breaker trip invalidates" `Quick
           test_cache_invalidate_on_breaker ]);
      ("scan_claim",
       [ Alcotest.test_case "co-readers pay once" `Quick test_scan_pays_once;
         Alcotest.test_case "write bumps epoch" `Quick
           test_scan_epoch_invalidation;
         Alcotest.test_case "entries expire with their flight" `Quick
           test_scan_flight_expiry;
         Alcotest.test_case "intra-flight claims don't count as cross"
           `Quick test_scan_intra_flight_counters;
         Alcotest.test_case "repeat traffic pins cross counters" `Quick
           test_scan_cross_counters_repeat_traffic ]);
      ("service",
       [ Alcotest.test_case "cache labels across submissions" `Quick
           test_serve_cache_labels;
         Alcotest.test_case "put_input invalidates cached plans" `Quick
           test_put_input_invalidates;
         Alcotest.test_case "weighted fair admission order" `Quick
           test_wfq_weighted_order;
         Alcotest.test_case "breaker isolates tenants" `Quick
           test_breaker_per_tenant ]);
      ("overload",
       [ Alcotest.test_case "reject-newest sheds the arrival" `Quick
           test_shed_reject_newest;
         Alcotest.test_case "shed-lowest-weight picks the light tenant"
           `Quick test_shed_lowest_weight;
         Alcotest.test_case "oldest-first drops the head of the queue"
           `Quick test_shed_oldest_first;
         Alcotest.test_case "SLO expires queued submissions" `Quick
           test_slo_expires_queued;
         Alcotest.test_case "modeled latencies repeat exactly" `Quick
           test_latencies_repeat_exactly;
         Alcotest.test_case "SLO never cancels a started execution"
           `Quick test_slo_never_cancels_started;
         Alcotest.test_case "degradation ladder climbs and reverts"
           `Quick test_degradation_ladder;
         Alcotest.test_case "failed payer expires its flights" `Quick
           test_failed_payer_expires_flights;
         Alcotest.test_case "retry budget caps injected retries" `Quick
           test_retry_budget;
         Alcotest.test_case "two services keep their retry budgets apart"
           `Quick test_retry_budgets_stay_apart;
         Alcotest.test_case "restore replays ledger state" `Quick
           test_restore_replays_ledger ]);
      ("properties",
       [ Alcotest.test_case "served = one-shot (columnar)" `Slow
           test_serve_identity_differential;
         Alcotest.test_case "interleaved services = each alone" `Slow
           test_services_isolated_property;
         Alcotest.test_case "chaos never changes completed bytes" `Slow
           test_chaos_differential_property;
         Alcotest.test_case "light tenant p99 bounded in mix" `Slow
           test_fairness_property ]) ]
