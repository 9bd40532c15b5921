(* Runtime supervision: straggler detection and speculation, per-engine
   circuit breakers, and adaptive mid-workflow re-planning — the
   self-healing layer on top of PR 2's crash recovery.

   The acceptance scenario mirrors
     musketeer_cli run -w ... --inject 'straggler*4' --deadline-factor F
   a straggler*4 on the planned engine loses the race against a
   speculative duplicate on the next-best engine, with byte-identical
   outputs and observed == Faults.speculate-predicted makespan. *)

let cluster = Engines.Cluster.local_seven

let m = Musketeer.create ~cluster ()

let canonical table =
  Relation.Table.to_csv (Relation.Table.sort_by table [ "k"; "v" ])

(* plan forced onto [backend]; speculation / recovery / re-planning may
   use [candidates] (default: just the planned engine) *)
let run_spec ?faults ?breaker ?(recovery = Musketeer.Recovery.none)
    ?(supervision = Musketeer.Supervisor.disabled) ?(candidates = [])
    ?(workflow = "sup") backend spec =
  let hdfs = Qcheck_lite.hdfs_of_spec spec in
  let graph = Qcheck_lite.graph_of_spec spec in
  match Musketeer.plan m ~backends:[ backend ] ~workflow ~hdfs graph with
  | None -> None
  | Some (plan, g') ->
    let candidates = if candidates = [] then [ backend ] else candidates in
    Some
      (Musketeer.execute_plan ~recovery ~supervision ?breaker
         ?inject:(Option.map Engines.Injector.create faults) ~candidates
         ~record_history:false m ~workflow ~hdfs ~graph:g' plan)

let outputs_of = function
  | Ok result ->
    List.map
      (fun (name, t) -> (name, canonical t))
      result.Musketeer.Executor.outputs
  | Error e -> failwith (Engines.Report.error_to_string e)

let makespan_of = function
  | Ok result -> result.Musketeer.Executor.makespan_s
  | Error e -> failwith (Engines.Report.error_to_string e)

let counter name = Obs.Metrics.counter Obs.Metrics.default name

let env_seed default =
  match Sys.getenv_opt "MUSKETEER_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let straggler4 =
  { Engines.Faults.seed = 42; probability = 1.;
    faults = [ Engines.Faults.Straggler { slowdown = 4. } ] }

(* one shuffle ⇒ a single job even on MapReduce-style engines *)
let acceptance_spec =
  { Qcheck_lite.rows = List.init 60 (fun i -> (i mod 6, i));
    ops = [ Qcheck_lite.Select_gt 4; Qcheck_lite.Group_sum ] }

(* ---------------- straggler absorption telemetry ---------------- *)

(* the absorbed-slowdown path in engine.ml is observable: counter,
   per-engine counter, slowdown histogram and a span attribute *)
let test_straggler_records_metrics_and_span () =
  Obs.Metrics.reset Obs.Metrics.default;
  let trace, result =
    Obs.Trace.collecting (fun () ->
        run_spec ~faults:straggler4 Engines.Backend.Metis acceptance_spec)
  in
  (match Option.get result with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "run failed: %s" (Engines.Report.error_to_string e));
  Alcotest.(check int) "faults.straggler" 1 (counter "faults.straggler");
  Alcotest.(check int) "per-engine counter" 1
    (counter "faults.straggler.Metis");
  (match
     Obs.Metrics.histogram Obs.Metrics.default "faults.straggler.slowdown"
   with
   | Some h ->
     Alcotest.(check (float 1e-9)) "slowdown observed" 4. h.Obs.Metrics.max
   | None -> Alcotest.fail "no slowdown histogram");
  let tagged =
    List.exists
      (fun (s : Obs.Trace.span) ->
         List.exists
           (fun (k, v) ->
              k = "straggler_slowdown" && v = Obs.Trace.Float 4.)
           s.Obs.Trace.attrs)
      (Obs.Trace.spans trace)
  in
  Alcotest.(check bool) "span carries straggler_slowdown" true tagged

(* ---------------- speculation acceptance ---------------- *)

(* the ISSUE's acceptance criterion: with an injected straggler*4,
   speculation yields strictly lower total makespan than the
   PR 2 behavior (no speculation), with byte-identical outputs —
   and the observed makespan matches Faults.speculate's prediction *)
let test_speculation_beats_straggler () =
  Obs.Metrics.reset Obs.Metrics.default;
  let candidates = [ Engines.Backend.Hadoop; Engines.Backend.Metis ] in
  let supervision =
    { Musketeer.Supervisor.deadline_factor = Some 1.25;
      workflow_deadline_s = None; speculate = true;
      replan_rel_error = None }
  in
  let fault_free =
    Option.get (run_spec Engines.Backend.Hadoop acceptance_spec)
  in
  let unsupervised =
    Option.get
      (run_spec ~faults:straggler4 Engines.Backend.Hadoop acceptance_spec)
  in
  let supervised =
    Option.get
      (run_spec ~faults:straggler4 ~supervision ~candidates
         Engines.Backend.Hadoop acceptance_spec)
  in
  Alcotest.(check int) "speculated" 1 (counter "supervisor.speculations");
  Alcotest.(check int) "won" 1 (counter "supervisor.speculation_wins");
  Alcotest.(check bool) "strictly lower makespan than no-speculation" true
    (makespan_of supervised < makespan_of unsupervised);
  Alcotest.(check (list (pair string string)))
    "byte-identical outputs" (outputs_of fault_free) (outputs_of supervised);
  (* the waste was charged: total engine-seconds exceed the makespan *)
  (match supervised with
   | Ok r ->
     let breakdown_total =
       List.fold_left
         (fun acc (rep : Engines.Report.t) ->
            acc +. Engines.Report.total rep.breakdown)
         0. r.Musketeer.Executor.reports
     in
     Alcotest.(check bool) "loser's waste in the breakdown" true
       (breakdown_total > makespan_of supervised +. 1e-9)
   | Error _ -> Alcotest.fail "supervised run failed")

(* observed == predicted: the executed race matches the analytic
   pricing computed from independently measured quantities *)
let test_speculation_observed_matches_predicted () =
  Obs.Metrics.reset Obs.Metrics.default;
  let factor = 1.25 in
  let supervision =
    { Musketeer.Supervisor.deadline_factor = Some factor;
      workflow_deadline_s = None; speculate = true;
      replan_rel_error = None }
  in
  (* the executor's launch time: factor × its own cost-model prediction *)
  let hdfs = Qcheck_lite.hdfs_of_spec acceptance_spec in
  let graph = Qcheck_lite.graph_of_spec acceptance_spec in
  let plan, g' =
    Option.get
      (Musketeer.plan m ~backends:[ Engines.Backend.Hadoop ] ~workflow:"sup"
         ~hdfs graph)
  in
  Alcotest.(check int) "single-job plan" 1
    (List.length plan.Musketeer.Partitioner.jobs);
  let est = Musketeer.estimator m ~workflow:"sup" ~hdfs g' in
  let backend, ids = List.hd plan.Musketeer.Partitioner.jobs in
  let predicted_s =
    Musketeer.Cost.seconds
      (Musketeer.Cost.job_cost ~profile:(Musketeer.profile m) ~est
         backend ids)
  in
  let base_s =
    makespan_of (Option.get (run_spec Engines.Backend.Hadoop acceptance_spec))
  in
  let alt_s =
    makespan_of (Option.get (run_spec Engines.Backend.Metis acceptance_spec))
  in
  let race =
    Engines.Faults.speculate ~straggler_s:(4. *. base_s)
      ~launch_s:(factor *. predicted_s) ~alt_s
  in
  Alcotest.(check bool) "scenario exercises a win" true
    race.Engines.Faults.speculative_won;
  let supervised =
    Option.get
      (run_spec ~faults:straggler4 ~supervision
         ~candidates:[ Engines.Backend.Hadoop; Engines.Backend.Metis ]
         Engines.Backend.Hadoop acceptance_spec)
  in
  Alcotest.(check (float 1e-6)) "observed == predicted makespan"
    race.Engines.Faults.winner_makespan_s (makespan_of supervised);
  (match Obs.Metrics.gauge Obs.Metrics.default "supervisor.speculation_wasted_s" with
   | Some wasted ->
     Alcotest.(check (float 1e-6)) "observed == predicted waste"
       race.Engines.Faults.wasted_s wasted
   | None -> Alcotest.fail "no waste gauge")

(* a losing race leaves the straggler's result in place: outputs are
   unchanged and the makespan does not improve, but the wasted copy is
   charged as overhead *)
let test_speculation_loss_is_harmless () =
  Obs.Metrics.reset Obs.Metrics.default;
  let supervision =
    { Musketeer.Supervisor.deadline_factor = Some 1.5;
      workflow_deadline_s = None; speculate = true;
      replan_rel_error = None }
  in
  (* plan on the fast single-machine engine: the only speculative copy
     runs on the far slower distributed engine and loses the race
     against a mild straggler *)
  let faults =
    { Engines.Faults.seed = 42; probability = 1.;
      faults = [ Engines.Faults.Straggler { slowdown = 2. } ] }
  in
  let fault_free =
    Option.get (run_spec Engines.Backend.Metis acceptance_spec)
  in
  let unsupervised =
    Option.get (run_spec ~faults Engines.Backend.Metis acceptance_spec)
  in
  let supervised =
    Option.get
      (run_spec ~faults ~supervision
         ~candidates:[ Engines.Backend.Metis; Engines.Backend.Hadoop ]
         Engines.Backend.Metis acceptance_spec)
  in
  Alcotest.(check int) "speculated" 1 (counter "supervisor.speculations");
  Alcotest.(check int) "lost" 0 (counter "supervisor.speculation_wins");
  Alcotest.(check (list (pair string string)))
    "outputs unchanged" (outputs_of fault_free) (outputs_of supervised);
  Alcotest.(check (float 1e-6)) "straggler's makespan stands"
    (makespan_of unsupervised) (makespan_of supervised)

(* ---------------- deadlines without injected faults ---------------- *)

let test_workflow_deadline_declares_straggler () =
  Obs.Metrics.reset Obs.Metrics.default;
  (* an impossible workflow deadline: every job breaches it *)
  let supervision =
    { Musketeer.Supervisor.deadline_factor = None;
      workflow_deadline_s = Some 0.001; speculate = false;
      replan_rel_error = None }
  in
  let fault_free =
    Option.get (run_spec Engines.Backend.Metis acceptance_spec)
  in
  let supervised =
    Option.get
      (run_spec ~supervision Engines.Backend.Metis acceptance_spec)
  in
  Alcotest.(check bool) "deadline breaches recorded" true
    (counter "supervisor.deadline_breaches" >= 1);
  Alcotest.(check bool) "stragglers declared" true
    (counter "supervisor.stragglers" >= 1);
  Alcotest.(check int) "no speculation without the flag" 0
    (counter "supervisor.speculations");
  Alcotest.(check (list (pair string string)))
    "outputs unchanged" (outputs_of fault_free) (outputs_of supervised)

let test_effective_deadline () =
  let c =
    { Musketeer.Supervisor.deadline_factor = Some 2.;
      workflow_deadline_s = Some 100.; speculate = false;
      replan_rel_error = None }
  in
  (* factor: 2 × 10 = 20; workflow share: 100 × 10/40 = 25 → min 20 *)
  (match
     Musketeer.Supervisor.effective_deadline_s c ~predicted_s:(Some 10.)
       ~predicted_total_s:(Some 40.)
   with
   | Some d -> Alcotest.(check (float 1e-9)) "min of both" 20. d
   | None -> Alcotest.fail "expected a deadline");
  (* workflow share tighter: 10 × 10/40 = 2.5 *)
  (match
     Musketeer.Supervisor.effective_deadline_s
       { c with Musketeer.Supervisor.workflow_deadline_s = Some 10. }
       ~predicted_s:(Some 10.) ~predicted_total_s:(Some 40.)
   with
   | Some d -> Alcotest.(check (float 1e-9)) "workflow share" 2.5 d
   | None -> Alcotest.fail "expected a deadline");
  (* no prediction → no deadline *)
  Alcotest.(check bool) "no prediction, no deadline" true
    (Musketeer.Supervisor.effective_deadline_s c ~predicted_s:None
       ~predicted_total_s:None
     = None)

(* ---------------- circuit breaker (unit) ---------------- *)

let with_breaker ?(threshold = 2) ?(window = 4) ?(cooldown = 2) f =
  f (Engines.Breaker.create ~threshold ~window ~cooldown ())

let test_breaker_trips_and_recovers () =
  with_breaker @@ fun b ->
  Obs.Metrics.reset Obs.Metrics.default;
  let metis = Engines.Backend.Metis and hadoop = Engines.Backend.Hadoop in
  Alcotest.(check bool) "starts closed" true
    (Engines.Breaker.state b metis = Engines.Breaker.Closed);
  Engines.Breaker.record_failure b metis;
  Alcotest.(check bool) "one failure stays closed" true
    (Engines.Breaker.state b metis = Engines.Breaker.Closed);
  Engines.Breaker.record_failure b metis;
  (* clock=2: threshold reached → quarantined until tick 4 *)
  Alcotest.(check bool) "trips at threshold" true
    (Engines.Breaker.quarantined b metis);
  Alcotest.(check int) "trip counted" 1 (counter "breaker.trips");
  Alcotest.(check (list string)) "filtered out" [ "Hadoop" ]
    (List.map Engines.Backend.name
       (Engines.Breaker.filter b [ metis; hadoop ]));
  Alcotest.(check (list string)) "candidates fall back when all quarantined"
    [ "Metis" ]
    (List.map Engines.Backend.name
       (Engines.Breaker.filter_candidates b [ metis ]));
  (* outcomes elsewhere advance the logical clock past the cool-down *)
  Engines.Breaker.record_success b hadoop;
  Alcotest.(check bool) "still open mid-cooldown" true
    (Engines.Breaker.quarantined b metis);
  Engines.Breaker.record_success b hadoop;
  Alcotest.(check bool) "half-open after cooldown" true
    (Engines.Breaker.state b metis = Engines.Breaker.Half_open);
  Alcotest.(check bool) "half-open is admitted" true
    (List.mem metis (Engines.Breaker.filter b [ metis; hadoop ]));
  (* a successful probe re-closes *)
  Engines.Breaker.record_success b metis;
  Alcotest.(check bool) "re-closed" true
    (Engines.Breaker.state b metis = Engines.Breaker.Closed);
  Alcotest.(check int) "re-close counted" 1 (counter "breaker.reclosed")

let test_breaker_exponential_cooldown () =
  with_breaker @@ fun b ->
  let metis = Engines.Backend.Metis and hadoop = Engines.Backend.Hadoop in
  Engines.Breaker.record_failure b metis;
  Engines.Breaker.record_failure b metis;
  (* open until tick 4 *)
  Engines.Breaker.record_success b hadoop;
  Engines.Breaker.record_success b hadoop;
  Alcotest.(check bool) "first probe window" true
    (Engines.Breaker.state b metis = Engines.Breaker.Half_open);
  (* failed probe at clock 5: cooldown doubles to 4 → open until 9 *)
  Engines.Breaker.record_failure b metis;
  Alcotest.(check bool) "re-opened" true (Engines.Breaker.quarantined b metis);
  for _ = 1 to 3 do Engines.Breaker.record_success b hadoop done;
  Alcotest.(check bool) "doubled cooldown still running" true
    (Engines.Breaker.quarantined b metis);
  Engines.Breaker.record_success b hadoop;
  (* clock 9 *)
  Alcotest.(check bool) "half-open after doubled cooldown" true
    (Engines.Breaker.state b metis = Engines.Breaker.Half_open)

(* two co-admitted submissions race into the same half-open window:
   exactly one claims the probe, the other sees the engine held back
   until the probe resolves — a half-open breaker must never let a
   thundering herd re-storm a recovering engine *)
let test_breaker_half_open_single_probe () =
  with_breaker ~threshold:2 ~window:4 ~cooldown:2 @@ fun b ->
  Obs.Metrics.reset Obs.Metrics.default;
  let metis = Engines.Backend.Metis and hadoop = Engines.Backend.Hadoop in
  Engines.Breaker.record_failure b metis;
  Engines.Breaker.record_failure b metis;
  Engines.Breaker.record_success b hadoop;
  Engines.Breaker.record_success b hadoop;
  Alcotest.(check bool) "half-open" true
    (Engines.Breaker.state b metis = Engines.Breaker.Half_open);
  (* first caller in the window claims the single probe *)
  Alcotest.(check bool) "first filter admits the probe" true
    (List.mem metis (Engines.Breaker.filter b [ metis; hadoop ]));
  (* a second caller racing into the same window gets no second probe *)
  Alcotest.(check bool) "second filter holds the engine back" false
    (List.mem metis (Engines.Breaker.filter b [ metis; hadoop ]));
  Alcotest.(check bool) "third caller also held back" false
    (List.mem metis (Engines.Breaker.filter b [ metis; hadoop ]));
  Alcotest.(check int) "contended probes counted" 2
    (counter "breaker.probe_contended");
  (* the probe succeeding re-closes and re-admits every caller *)
  Engines.Breaker.record_success b metis;
  Alcotest.(check bool) "re-closed after probe success" true
    (Engines.Breaker.state b metis = Engines.Breaker.Closed);
  Alcotest.(check bool) "filter re-admits once closed" true
    (List.mem metis (Engines.Breaker.filter b [ metis; hadoop ]))

(* without a breaker nothing is quarantined: failures recorded nowhere
   cannot leak into later planning or fallbacks *)
let test_breaker_disabled_is_inert () =
  let metis = Engines.Backend.Metis and hadoop = Engines.Backend.Hadoop in
  let faults =
    { Engines.Faults.seed = 7; probability = 1.;
      faults =
        [ Engines.Faults.Engine_rejection "injected OOM";
          Engines.Faults.Engine_rejection "injected OOM" ] }
  in
  let recovery =
    { Musketeer.Recovery.max_retries = 1; allow_replan = true;
      backoff_base_s = 0. }
  in
  ignore
    (run_spec ~faults ~recovery ~candidates:[ metis; hadoop ] metis
       acceptance_spec);
  let hdfs = Qcheck_lite.hdfs_of_spec acceptance_spec in
  let graph = Qcheck_lite.graph_of_spec acceptance_spec in
  let plan, g' =
    Option.get
      (Musketeer.plan m ~backends:[ metis; hadoop ] ~workflow:"brk" ~hdfs
         graph)
  in
  Alcotest.(check bool) "Metis still planned" true
    (List.exists
       (fun (b, _) -> Engines.Backend.equal b metis)
       plan.Musketeer.Partitioner.jobs);
  let _, ids = List.hd plan.Musketeer.Partitioner.jobs in
  Alcotest.(check int) "every fallback admitted" 2
    (List.length
       (Musketeer.Recovery.alternatives ~profile:(Musketeer.profile m)
          ~graph:g' ~est:None ~candidates:[ metis; hadoop ] ~exclude:[] ids))

(* ---------------- breaker integration ---------------- *)

(* a quarantined engine is excluded from planning and from recovery /
   speculation fallbacks, then re-admitted after the cool-down *)
let test_breaker_excludes_engine_from_planning () =
  with_breaker ~threshold:2 ~cooldown:2 @@ fun b ->
  let metis = Engines.Backend.Metis and hadoop = Engines.Backend.Hadoop in
  let spec = acceptance_spec in
  let hdfs = Qcheck_lite.hdfs_of_spec spec in
  let graph = Qcheck_lite.graph_of_spec spec in
  (* baseline: Metis is the cheaper single-machine choice *)
  let plan0, g' =
    Option.get
      (Musketeer.plan m ~backends:[ metis; hadoop ] ~breaker:b ~workflow:"brk"
         ~hdfs graph)
  in
  Alcotest.(check bool) "Metis planned while healthy" true
    (List.exists
       (fun (b, _) -> Engines.Backend.equal b metis)
       plan0.Musketeer.Partitioner.jobs);
  Engines.Breaker.record_failure b metis;
  Engines.Breaker.record_failure b metis;
  let plan1, _ =
    Option.get
      (Musketeer.plan m ~backends:[ metis; hadoop ] ~breaker:b ~workflow:"brk"
         ~hdfs graph)
  in
  Alcotest.(check bool) "quarantined Metis not planned" false
    (List.exists
       (fun (b, _) -> Engines.Backend.equal b metis)
       plan1.Musketeer.Partitioner.jobs);
  (* recovery fallbacks honor the quarantine too *)
  let _, ids = List.hd plan0.Musketeer.Partitioner.jobs in
  let alts =
    Musketeer.Recovery.alternatives ~breaker:b ~profile:(Musketeer.profile m)
      ~graph:g' ~est:None ~candidates:[ metis; hadoop ] ~exclude:[] ids
  in
  Alcotest.(check bool) "no quarantined fallback" false
    (List.exists (Engines.Backend.equal metis) alts);
  (* cool-down elapses → half-open → planned again *)
  Engines.Breaker.record_success b hadoop;
  Engines.Breaker.record_success b hadoop;
  Alcotest.(check bool) "half-open" true
    (Engines.Breaker.state b metis = Engines.Breaker.Half_open);
  let plan2, _ =
    Option.get
      (Musketeer.plan m ~backends:[ metis; hadoop ] ~breaker:b ~workflow:"brk"
         ~hdfs graph)
  in
  Alcotest.(check bool) "re-admitted after cool-down" true
    (List.exists
       (fun (b, _) -> Engines.Backend.equal b metis)
       plan2.Musketeer.Partitioner.jobs)

(* engine failures recorded through the recovery loop trip the breaker
   without any manual record calls *)
let test_breaker_trips_from_recovery_loop () =
  with_breaker ~threshold:2 ~cooldown:8 @@ fun b ->
  Obs.Metrics.reset Obs.Metrics.default;
  let faults =
    { Engines.Faults.seed = 7; probability = 1.;
      faults =
        [ Engines.Faults.Engine_rejection "injected OOM";
          Engines.Faults.Engine_rejection "injected OOM" ] }
  in
  let recovery =
    { Musketeer.Recovery.max_retries = 1; allow_replan = true;
      backoff_base_s = 0. }
  in
  let result =
    Option.get
      (run_spec ~faults ~recovery ~breaker:b
         ~candidates:[ Engines.Backend.Metis; Engines.Backend.Hadoop ]
         Engines.Backend.Metis acceptance_spec)
  in
  Alcotest.(check bool) "run still succeeds via fallback" true
    (Result.is_ok result);
  Alcotest.(check bool) "two failures quarantined the engine" true
    (Engines.Breaker.quarantined b Engines.Backend.Metis)

(* ---------------- adaptive re-planning ---------------- *)

(* two shuffles force a two-job plan on a MapReduce engine; the heavy
   group collapses 64 modeled MB to almost nothing, so job 0's
   observed output size wildly misses the a-priori estimate *)
let replan_spec =
  { Qcheck_lite.rows = List.init 80 (fun i -> (i mod 2, i mod 3));
    ops = [ Qcheck_lite.Group_sum; Qcheck_lite.Distinct ] }

let test_adaptive_replan_fires () =
  Obs.Metrics.reset Obs.Metrics.default;
  let supervision =
    { Musketeer.Supervisor.deadline_factor = None;
      workflow_deadline_s = None; speculate = false;
      replan_rel_error = Some 0.5 }
  in
  let plain =
    Option.get (run_spec Engines.Backend.Hadoop replan_spec)
  in
  let supervised =
    Option.get
      (run_spec ~supervision
         ~candidates:[ Engines.Backend.Hadoop; Engines.Backend.Metis ]
         Engines.Backend.Hadoop replan_spec)
  in
  Alcotest.(check bool) "misprediction detected" true
    (counter "supervisor.mispredictions" >= 1);
  Alcotest.(check bool) "replan fired" true
    (counter "supervisor.replans" >= 1);
  Alcotest.(check (list (pair string string)))
    "outputs unchanged by the replan" (outputs_of plain)
    (outputs_of supervised)

(* ---------------- differential property ---------------- *)

(* full supervision (deadlines + speculation + replanning) under
   straggler-heavy injection never changes byte-level outputs *)
let sup_case_arbitrary =
  Qcheck_lite.make
    ~shrink:(fun (s, p) ->
      List.map (fun s -> (s, p)) (Qcheck_lite.shrink_spec s)
      @ List.map (fun p -> (s, p)) (Qcheck_lite.shrink_fault_plan p))
    ~print:(fun (s, p) ->
      Printf.sprintf "%s with stragglers %s (seed %d)"
        (Qcheck_lite.spec_to_string s)
        (Engines.Faults.plan_to_string p)
        p.Engines.Faults.seed)
    (fun rng ->
      (Qcheck_lite.gen_spec rng, Qcheck_lite.gen_straggler_plan rng))

let supervision_preserves_outputs (spec, fault_plan) =
  let supervision =
    { Musketeer.Supervisor.deadline_factor = Some 1.5;
      workflow_deadline_s = None; speculate = true;
      replan_rel_error = Some 0.25 }
  in
  let candidates = [ Engines.Backend.Hadoop; Engines.Backend.Metis ] in
  List.for_all
    (fun backend ->
       match run_spec backend spec with
       | None -> true
       | Some fault_free -> (
         match
           run_spec ~faults:fault_plan ~supervision ~candidates backend spec
         with
         | None -> failwith "plan disappeared under injection"
         | Some supervised -> outputs_of supervised = outputs_of fault_free))
    [ Engines.Backend.Hadoop; Engines.Backend.Metis ]

let test_supervision_never_changes_outputs () =
  try
    Qcheck_lite.check ~count:12 ~seed:(env_seed 5151)
      ~name:"supervision preserves byte-level outputs" sup_case_arbitrary
      supervision_preserves_outputs
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* ---------------- the straggler-plan generator ---------------- *)

let test_straggler_generator_shape () =
  let rng = Qcheck_lite.Rng.create 7 in
  for _ = 1 to 50 do
    let p = Qcheck_lite.gen_straggler_plan rng in
    List.iter
      (function
        | Engines.Faults.Straggler { slowdown } ->
          if not (slowdown >= 2. && slowdown <= 6.) then
            Alcotest.failf "slowdown out of range: %g" slowdown
        | f ->
          Alcotest.failf "non-straggler fault generated: %s"
            (Engines.Faults.fault_to_string f))
      p.Engines.Faults.faults;
    (* round-trips through the parser like any fault plan *)
    match
      Engines.Faults.parse_plan (Engines.Faults.plan_to_string p)
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "generated plan does not parse: %s" e
  done

let () =
  Alcotest.run "supervision"
    [ ("telemetry",
       [ Alcotest.test_case "straggler records metrics and span" `Quick
           test_straggler_records_metrics_and_span ]);
      ("speculation",
       [ Alcotest.test_case "beats a straggler*4" `Quick
           test_speculation_beats_straggler;
         Alcotest.test_case "observed == predicted" `Quick
           test_speculation_observed_matches_predicted;
         Alcotest.test_case "losing race is harmless" `Quick
           test_speculation_loss_is_harmless ]);
      ("deadlines",
       [ Alcotest.test_case "workflow deadline declares stragglers" `Quick
           test_workflow_deadline_declares_straggler;
         Alcotest.test_case "effective deadline arithmetic" `Quick
           test_effective_deadline ]);
      ("breaker",
       [ Alcotest.test_case "trips and recovers" `Quick
           test_breaker_trips_and_recovers;
         Alcotest.test_case "exponential cool-down" `Quick
           test_breaker_exponential_cooldown;
         Alcotest.test_case "half-open admits a single probe" `Quick
           test_breaker_half_open_single_probe;
         Alcotest.test_case "disabled is inert" `Quick
           test_breaker_disabled_is_inert;
         Alcotest.test_case "excluded from planning, then re-admitted"
           `Quick test_breaker_excludes_engine_from_planning;
         Alcotest.test_case "trips from the recovery loop" `Quick
           test_breaker_trips_from_recovery_loop ]);
      ("replanning",
       [ Alcotest.test_case "fires on size misprediction" `Quick
           test_adaptive_replan_fires ]);
      ("properties",
       [ Alcotest.test_case "supervision preserves outputs" `Slow
           test_supervision_never_changes_outputs;
         Alcotest.test_case "straggler generator shape" `Quick
           test_straggler_generator_shape ]) ]
