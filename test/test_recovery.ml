(* Fault injection & recovery: property tests over the executor's retry
   / re-plan loop, plus the deterministic acceptance scenario (a worker
   failure mid-job on Metis recovers with byte-identical outputs, same
   as `musketeer_cli run -w chain -b metis --inject worker@0.5 --seed
   42`). Properties run on Qcheck_lite, the in-repo seeded PBT
   harness. *)

let cluster = Engines.Cluster.local_seven

let m = Musketeer.create ~cluster ()

let canonical table =
  Relation.Table.to_csv (Relation.Table.sort_by table [ "k"; "v" ])

(* forced single-backend execution of a generated spec; [None] when the
   engine cannot express it. [faults] installs an injection plan around
   the run only (planning stays fault-free). *)
let run_spec ?faults ?(recovery = Musketeer.Recovery.none)
    ?(candidates = [])
    backend spec =
  let hdfs = Qcheck_lite.hdfs_of_spec spec in
  let graph = Qcheck_lite.graph_of_spec spec in
  match
    Musketeer.plan m ~backends:[ backend ] ~workflow:"rec" ~hdfs graph
  with
  | None -> None
  | Some (plan, g') ->
    let candidates = if candidates = [] then [ backend ] else candidates in
    Some
      (Musketeer.execute_plan ~recovery
         ?inject:(Option.map Engines.Injector.create faults) ~candidates
         ~record_history:false m ~workflow:"rec" ~hdfs ~graph:g' plan)

let outputs_of = function
  | Ok result ->
    List.map
      (fun (name, t) -> (name, canonical t))
      result.Musketeer.Executor.outputs
  | Error e -> failwith (Engines.Report.error_to_string e)

let makespan_of = function
  | Ok result -> result.Musketeer.Executor.makespan_s
  | Error e -> failwith (Engines.Report.error_to_string e)

(* ---- generated cases: a workflow plus a fault plan ---- *)

(* CI runs the property suite under two fixed seeds and one random one
   (echoed by the workflow); default seeds apply locally *)
let env_seed default =
  match Sys.getenv_opt "MUSKETEER_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let case_arbitrary =
  Qcheck_lite.make
    ~shrink:(fun (s, p) ->
      List.map (fun s -> (s, p)) (Qcheck_lite.shrink_spec s)
      @ List.map (fun p -> (s, p)) (Qcheck_lite.shrink_fault_plan p))
    ~print:(fun (s, p) ->
      Printf.sprintf "%s with faults %s (seed %d)"
        (Qcheck_lite.spec_to_string s)
        (Engines.Faults.plan_to_string p)
        p.Engines.Faults.seed)
    (fun rng -> (Qcheck_lite.gen_spec rng, Qcheck_lite.gen_fault_plan rng))

(* one fault-tolerant engine (absorbs worker failures internally) and
   one without FT (worker failures surface to the executor) *)
let property_backends = [ Engines.Backend.Hadoop; Engines.Backend.Metis ]

(* retries ≥ fault budget ⇒ the injected run converges to the
   fault-free outputs: the budget is finite and each fired fault costs
   at most one attempt *)
let converges (spec, fault_plan) =
  let retries = List.length fault_plan.Engines.Faults.faults in
  let recovery =
    { Musketeer.Recovery.max_retries = retries;
      allow_replan = false;
      backoff_base_s = 0. }
  in
  List.for_all
    (fun backend ->
       match run_spec backend spec with
       | None -> true (* inadmissible for this engine: nothing to check *)
       | Some fault_free -> (
         match run_spec ~faults:fault_plan ~recovery backend spec with
         | None -> failwith "plan disappeared under injection"
         | Some recovered ->
           outputs_of recovered = outputs_of fault_free))
    property_backends

(* recovery is never free: the recovered makespan dominates the
   fault-free one (equal when no fault fired) *)
let makespan_dominates (spec, fault_plan) =
  let retries = List.length fault_plan.Engines.Faults.faults in
  let recovery =
    { Musketeer.Recovery.max_retries = retries;
      allow_replan = false;
      backoff_base_s = 0. }
  in
  List.for_all
    (fun backend ->
       match run_spec backend spec with
       | None -> true
       | Some fault_free -> (
         match run_spec ~faults:fault_plan ~recovery backend spec with
         | None -> failwith "plan disappeared under injection"
         | Some recovered ->
           makespan_of recovered >= makespan_of fault_free -. 1e-9))
    property_backends

let test_convergence () =
  try
    Qcheck_lite.check ~count:20 ~seed:(env_seed 4242)
      ~name:"retries >= fault budget converges" case_arbitrary converges
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

let test_makespan_dominates () =
  try
    Qcheck_lite.check ~count:20 ~seed:(env_seed 2424)
      ~name:"recovered makespan dominates fault-free" case_arbitrary
      makespan_dominates
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* ---- deterministic acceptance scenario ---- *)

let acceptance_spec =
  { Qcheck_lite.rows = List.init 60 (fun i -> (i mod 6, i));
    ops = [ Qcheck_lite.Select_gt 4; Qcheck_lite.Group_sum ] }

let acceptance_plan =
  match Engines.Faults.parse_plan ~seed:42 "worker@0.5" with
  | Ok p -> p
  | Error e -> failwith e

(* the ISSUE's acceptance criterion: a mid-job worker failure on Metis
   (no FT) completes via the executor's retry with outputs
   byte-identical to the fault-free run *)
let test_metis_worker_failure_recovers () =
  Obs.Metrics.reset Obs.Metrics.default;
  let fault_free =
    match run_spec Engines.Backend.Metis acceptance_spec with
    | Some r -> r
    | None -> Alcotest.fail "Metis cannot run the acceptance workflow"
  in
  let recovered =
    match
      run_spec ~faults:acceptance_plan
        ~recovery:Musketeer.Recovery.default Engines.Backend.Metis
        acceptance_spec
    with
    | Some r -> r
    | None -> Alcotest.fail "plan disappeared under injection"
  in
  Alcotest.(check bool) "recovered run succeeds" true (Result.is_ok recovered);
  Alcotest.(check (list (pair string string)))
    "outputs byte-identical to fault-free"
    (outputs_of fault_free) (outputs_of recovered);
  Alcotest.(check bool) "failure made it slower" true
    (makespan_of recovered > makespan_of fault_free);
  match Obs.Metrics.recoveries Obs.Metrics.default with
  | [ ev ] ->
    Alcotest.(check string) "planned on Metis" "Metis" ev.Obs.Metrics.from_backend;
    Alcotest.(check string) "recovered on Metis" "Metis" ev.Obs.Metrics.to_backend;
    Alcotest.(check int) "two attempts" 2 ev.Obs.Metrics.attempts;
    Alcotest.(check bool) "positive recovery cost" true
      (ev.Obs.Metrics.recovery_s > 0.)
  | evs ->
    Alcotest.failf "expected exactly one recovery event, got %d"
      (List.length evs)

(* the charging invariant: the recovered run costs exactly the
   fault-free run plus what was charged to recovery *)
let test_recovery_charge_invariant () =
  Obs.Metrics.reset Obs.Metrics.default;
  let fault_free =
    Option.get (run_spec Engines.Backend.Metis acceptance_spec)
  in
  let recovered =
    Option.get
      (run_spec ~faults:acceptance_plan ~recovery:Musketeer.Recovery.default
         Engines.Backend.Metis acceptance_spec)
  in
  match Obs.Metrics.recoveries Obs.Metrics.default with
  | [ ev ] ->
    Alcotest.(check (float 1e-6))
      "recovered makespan = fault-free + recovery_s"
      (makespan_of fault_free +. ev.Obs.Metrics.recovery_s)
      (makespan_of recovered)
  | evs ->
    Alcotest.failf "expected exactly one recovery event, got %d"
      (List.length evs)

(* ---- charge_recovery distribution (unit) ---- *)

let mk_report ?(makespan = 1.) label =
  { Engines.Report.job_label = label; backend = Engines.Backend.Metis;
    makespan_s = makespan; breakdown = Engines.Report.zero_breakdown;
    input_mb = 0.; output_mb = 0.; iterations = 1; op_output_mb = [] }

let sum_makespans rs =
  List.fold_left
    (fun acc (r : Engines.Report.t) -> acc +. r.makespan_s)
    0. rs

let test_charge_recovery_proportional () =
  let reports =
    [ mk_report ~makespan:6. "a"; mk_report ~makespan:3. "b";
      mk_report ~makespan:1. "c" ]
  in
  let charged = Musketeer.Recovery.charge_recovery 5. reports in
  (* invariant: the sum of makespans grows by exactly the recovery
     seconds, nothing more, nothing less *)
  Alcotest.(check (float 1e-9)) "sum grows by recovery_s"
    (sum_makespans reports +. 5.)
    (sum_makespans charged);
  (match charged with
   | [ a; b; c ] ->
     (* proportional to makespan share: 6/10, 3/10, 1/10 of 5s *)
     Alcotest.(check (float 1e-9)) "a's share" 9. a.Engines.Report.makespan_s;
     Alcotest.(check (float 1e-9)) "b's share" 4.5 b.Engines.Report.makespan_s;
     Alcotest.(check (float 1e-9)) "c's share" 1.5 c.Engines.Report.makespan_s;
     Alcotest.(check (float 1e-9)) "overhead mirrors the charge" 3.
       a.Engines.Report.breakdown.Engines.Report.overhead_s
   | _ -> Alcotest.fail "report count changed");
  (* all-zero makespans: even split, invariant still holds *)
  let zeros = [ mk_report ~makespan:0. "a"; mk_report ~makespan:0. "b" ] in
  let charged0 = Musketeer.Recovery.charge_recovery 3. zeros in
  Alcotest.(check (float 1e-9)) "even split sum" 3. (sum_makespans charged0);
  List.iter
    (fun (r : Engines.Report.t) ->
       Alcotest.(check (float 1e-9)) "even split" 1.5 r.makespan_s)
    charged0;
  (* non-positive charge and empty lists are identities *)
  Alcotest.(check (float 1e-9)) "zero charge is identity"
    (sum_makespans reports)
    (sum_makespans (Musketeer.Recovery.charge_recovery 0. reports));
  Alcotest.(check int) "empty stays empty" 0
    (List.length (Musketeer.Recovery.charge_recovery 2. []))

(* ---- with_retries restores state between attempts (regression) ----

   Before the fix, with_retries never called a reset, so an attempt
   that materialized partial state before failing leaked it into the
   retry (the WHILE-iteration path). *)
let test_with_retries_resets_state () =
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.put hdfs "base" ~modeled_mb:1.
    (Qcheck_lite.table_of_rows [ (1, 1) ]);
  let pre = Engines.Hdfs.snapshot hdfs in
  let attempts = ref 0 in
  let leaked_into_retry = ref false in
  let f () =
    incr attempts;
    if Engines.Hdfs.mem hdfs "junk" then leaked_into_retry := true;
    if !attempts = 1 then begin
      (* half-written state, then the fault *)
      Engines.Hdfs.put hdfs "junk" ~modeled_mb:1.
        (Qcheck_lite.table_of_rows [ (9, 9) ]);
      Error (Engines.Report.Out_of_memory "injected")
    end
    else Ok (mk_report "retry")
  in
  let policy =
    { Musketeer.Recovery.max_retries = 1; allow_replan = false;
      backoff_base_s = 0. }
  in
  let run =
    Musketeer.Recovery.with_retries
      ~reset:(fun () -> Engines.Hdfs.restore hdfs ~from:pre)
      ~policy ~workflow:"reset-test" ~label:"job" ~backend:Engines.Backend.Metis
      f
  in
  Alcotest.(check int) "one retry spent" 1 run.Musketeer.Recovery.retries;
  match run.Musketeer.Recovery.result with
  | Error e -> Alcotest.failf "retry failed: %s" (Engines.Report.error_to_string e)
  | Ok _ ->
    Alcotest.(check int) "two attempts ran" 2 !attempts;
    Alcotest.(check bool) "half-written state did not leak into the retry"
      false !leaked_into_retry;
    Alcotest.(check bool) "junk gone after the run" false
      (Engines.Hdfs.mem hdfs "junk")

(* a fault-tolerant engine absorbs the same failure internally: the job
   still succeeds on attempt 1 and no executor recovery happens *)
let test_hadoop_absorbs_worker_failure () =
  Obs.Metrics.reset Obs.Metrics.default;
  let fault_free =
    Option.get (run_spec Engines.Backend.Hadoop acceptance_spec)
  in
  let recovered =
    Option.get
      (run_spec ~faults:acceptance_plan ~recovery:Musketeer.Recovery.default
         Engines.Backend.Hadoop acceptance_spec)
  in
  Alcotest.(check (list (pair string string)))
    "outputs unchanged" (outputs_of fault_free) (outputs_of recovered);
  Alcotest.(check bool) "re-execution priced in" true
    (makespan_of recovered > makespan_of fault_free);
  Alcotest.(check int) "no executor recovery" 0
    (List.length (Obs.Metrics.recoveries Obs.Metrics.default))

(* repeated rejections exhaust the retry budget and re-plan the job
   onto the next-best engine — the "all for one" fallback *)
let test_rejections_fall_back_to_next_engine () =
  Obs.Metrics.reset Obs.Metrics.default;
  let faults =
    { Engines.Faults.seed = 7;
      probability = 1.;
      faults =
        [ Engines.Faults.Engine_rejection "injected OOM";
          Engines.Faults.Engine_rejection "injected OOM";
          Engines.Faults.Engine_rejection "injected OOM" ] }
  in
  let recovery =
    { Musketeer.Recovery.max_retries = 1;
      allow_replan = true;
      backoff_base_s = 0. }
  in
  let fault_free =
    Option.get (run_spec Engines.Backend.Metis acceptance_spec)
  in
  let recovered =
    Option.get
      (run_spec ~faults ~recovery
         ~candidates:[ Engines.Backend.Metis; Engines.Backend.Hadoop ]
         Engines.Backend.Metis acceptance_spec)
  in
  Alcotest.(check (list (pair string string)))
    "fallback outputs match Metis fault-free"
    (outputs_of fault_free) (outputs_of recovered);
  match Obs.Metrics.recoveries Obs.Metrics.default with
  | [ ev ] ->
    Alcotest.(check string) "planned on Metis" "Metis" ev.Obs.Metrics.from_backend;
    Alcotest.(check string) "fell back to Hadoop" "Hadoop"
      ev.Obs.Metrics.to_backend
  | evs ->
    Alcotest.failf "expected exactly one recovery event, got %d"
      (List.length evs)

(* no retry budget and no replan: the injected failure is fatal *)
let test_no_recovery_policy_fails () =
  let result =
    Option.get
      (run_spec ~faults:acceptance_plan ~recovery:Musketeer.Recovery.none
         Engines.Backend.Metis acceptance_spec)
  in
  match result with
  | Error (Engines.Report.Worker_lost { at_fraction }) ->
    Alcotest.(check (float 1e-9)) "failure point" 0.5 at_fraction
  | Error e ->
    Alcotest.failf "expected Worker_lost, got %s"
      (Engines.Report.error_to_string e)
  | Ok _ -> Alcotest.fail "expected the run to fail without recovery"

(* same seed, same plan ⇒ same recovered makespan (the injector is
   deterministic end to end) *)
let test_injection_deterministic () =
  let once () =
    makespan_of
      (Option.get
         (run_spec ~faults:acceptance_plan
            ~recovery:Musketeer.Recovery.default Engines.Backend.Metis
            acceptance_spec))
  in
  Alcotest.(check (float 1e-9)) "reproducible makespan" (once ()) (once ())

(* ---- the harness itself ---- *)

let test_harness_passes_true_property () =
  Qcheck_lite.check ~count:100 ~seed:1 ~name:"tautology"
    (Qcheck_lite.make ~print:string_of_int (fun rng -> Qcheck_lite.Rng.int rng 100))
    (fun n -> n >= 0 && n < 100)

let test_harness_falsifies_and_shrinks () =
  let arb =
    Qcheck_lite.make ~shrink:Qcheck_lite.shrink_list
      ~print:(Qcheck_lite.print_list string_of_int)
      (fun rng ->
        List.init (Qcheck_lite.Rng.int rng 16) (fun _ ->
            Qcheck_lite.Rng.int rng 10))
  in
  match
    Qcheck_lite.check ~count:100 ~seed:2 ~name:"short lists" arb (fun l ->
        List.length l < 4)
  with
  | () -> Alcotest.fail "expected Falsified"
  | exception Qcheck_lite.Falsified msg ->
    let contains affix s =
      let n = String.length affix and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
      n = 0 || go 0
    in
    Alcotest.(check bool) "reports the seed" true (contains "seed 2" msg)

let test_harness_deterministic () =
  let gen seed =
    let rng = Qcheck_lite.Rng.create seed in
    List.init 5 (fun _ -> Qcheck_lite.spec_to_string (Qcheck_lite.gen_spec rng))
  in
  Alcotest.(check (list string)) "same seed, same cases" (gen 9) (gen 9);
  Alcotest.(check bool) "different seed, different cases" true
    (gen 9 <> gen 10)

let () =
  Alcotest.run "recovery"
    [ ("properties",
       [ Alcotest.test_case "retries >= fault budget converges" `Slow
           test_convergence;
         Alcotest.test_case "recovered makespan dominates" `Slow
           test_makespan_dominates ]);
      ("acceptance",
       [ Alcotest.test_case "Metis worker failure recovers via retry" `Quick
           test_metis_worker_failure_recovers;
         Alcotest.test_case "recovery charge invariant" `Quick
           test_recovery_charge_invariant;
         Alcotest.test_case "charge_recovery distributes proportionally"
           `Quick test_charge_recovery_proportional;
         Alcotest.test_case "with_retries resets state between attempts"
           `Quick test_with_retries_resets_state;
         Alcotest.test_case "Hadoop absorbs the same failure" `Quick
           test_hadoop_absorbs_worker_failure;
         Alcotest.test_case "rejections fall back to next engine" `Quick
           test_rejections_fall_back_to_next_engine;
         Alcotest.test_case "no policy means fatal" `Quick
           test_no_recovery_policy_fails;
         Alcotest.test_case "injection is deterministic" `Quick
           test_injection_deterministic ]);
      ("harness",
       [ Alcotest.test_case "true property passes" `Quick
           test_harness_passes_true_property;
         Alcotest.test_case "false property falsifies with seed" `Quick
           test_harness_falsifies_and_shrinks;
         Alcotest.test_case "generation is seed-deterministic" `Quick
           test_harness_deterministic ]) ]
