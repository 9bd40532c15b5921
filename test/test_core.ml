(* Tests for the Musketeer core: calibration, estimation, mergeability,
   cost function, partitioning (exhaustive / memoized / DP / multi-order),
   job-graph extraction, the IR optimizer, idiom recognition, code
   generation, the executor (incl. WHILE expansion on MapReduce engines)
   and the facade. *)

open Relation

let cluster = Engines.Cluster.local_seven

(* one calibrated instance shared by the suite (calibration is pure) *)
let m = Musketeer.create ~cluster ()

let profile = Musketeer.profile m

let kv_schema =
  Schema.make [ { Schema.name = "k"; ty = Value.Tint };
                { Schema.name = "v"; ty = Value.Tint } ]

let kv_table rows =
  Table.create kv_schema
    (List.map (fun (k, v) -> [| Value.Int k; Value.Int v |]) rows)

let sample_rows = List.init 300 (fun i -> (i mod 30, i))

let hdfs_with bindings =
  let hdfs = Engines.Hdfs.create () in
  List.iter
    (fun (name, table, mb) -> Engines.Hdfs.put hdfs name ~modeled_mb:mb table)
    bindings;
  hdfs

let default_hdfs () = hdfs_with [ ("r", kv_table sample_rows, 512.) ]

(* select -> group_by -> select chain over relation r *)
let chain_graph () =
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "r" in
  let s1 = Ir.Builder.select b ~pred:Expr.(col "v" > int 5) inp in
  let g1 =
    Ir.Builder.group_by b ~keys:[ "k" ]
      ~aggs:[ Aggregate.make (Aggregate.Sum "v") ~as_name:"total" ]
      s1
  in
  let s2 = Ir.Builder.select b ~name:"out" ~pred:Expr.(col "total" > int 50) g1 in
  Ir.Builder.finish b ~outputs:[ s2 ]

let estimator_for ?(workflow = "wf") hdfs g =
  Musketeer.estimator m ~workflow ~hdfs g

(* ---------------- Profile / calibration ---------------- *)

let test_profile_covers_all_backends () =
  List.iter
    (fun backend ->
       let r = Musketeer.Profile.rates profile backend in
       Alcotest.(check bool)
         (Engines.Backend.name backend ^ " rates positive")
         true
         (r.Engines.Perf.pull_mb_s > 0. && r.Engines.Perf.process_mb_s > 0.
          && r.Engines.Perf.push_mb_s > 0. && r.Engines.Perf.comm_mb_s > 0.))
    Engines.Backend.all

let test_profile_relative_overheads () =
  let overhead backend =
    (Musketeer.Profile.rates profile backend).Engines.Perf.overhead_s
  in
  Alcotest.(check bool) "Hadoop heaviest startup" true
    (overhead Engines.Backend.Hadoop > overhead Engines.Backend.Naiad);
  Alcotest.(check bool) "serial C lightest" true
    (overhead Engines.Backend.Serial_c < overhead Engines.Backend.Spark)

let test_profile_naiad_iterates_cheaply () =
  let iter backend =
    (Musketeer.Profile.rates profile backend).Engines.Perf.iter_overhead_s
  in
  Alcotest.(check bool) "Naiad iterates cheaper than Hadoop chains" true
    (iter Engines.Backend.Naiad < iter Engines.Backend.Hadoop)

(* The whole rate table of three clusters, bit for bit (%h). Captured
   while calibration still ran every probe through [Registry.run];
   pricing one execution per probe graph must not move a single bit. *)
let profile_rows () =
  List.concat_map
    (fun (name, cluster) ->
       let p = Musketeer.Profile.calibrate ~cluster () in
       List.map
         (fun backend ->
            let r = Musketeer.Profile.rates p backend in
            Printf.sprintf "%s %s %h %h %s %h %h %h %h" name
              (Engines.Backend.name backend) r.Engines.Perf.overhead_s
              r.Engines.Perf.pull_mb_s
              (match r.Engines.Perf.load_mb_s with
               | None -> "-"
               | Some l -> Printf.sprintf "%h" l)
              r.Engines.Perf.process_mb_s r.Engines.Perf.comm_mb_s
              r.Engines.Perf.push_mb_s r.Engines.Perf.iter_overhead_s)
         Engines.Backend.extended)
    [ ("ec2-16", Engines.Cluster.ec2 ~nodes:16);
      ("ec2-100", Engines.Cluster.ec2 ~nodes:100);
      ("local-seven", Engines.Cluster.local_seven) ]

let golden_rates =
  [
    "ec2-16 Hadoop 0x1.cp+4 0x1.b6c1ea7707199p+9 - 0x1.6bc5a03778377p+10 0x1.b486c0429042ap+8 0x1.3965f09e29a4ap+9 0x1.cp+4";
    "ec2-16 Spark 0x1.cp+3 0x1.b6c1ea7707199p+9 0x1.c6b7084556455p+8 0x1.6bc5a03778377p+11 0x1.fd47e04da84dbp+8 0x1.3965f09e29a4ap+9 0x1.37b8ba325ec05p+3";
    "ec2-16 Naiad 0x1p+2 0x1.b6c1ea7707199p+9 - 0x1.607882d1a9961p+11 0x1.339c5f8d16546p+9 0x1.5f01885f38e15p+9 0x1.999999999999ap-5";
    "ec2-16 PowerGraph 0x1.1cccccccccccdp+4 0x1.47651031ec31ep+9 0x1.91216236c131p+7 0x1.07e6ce168c92cp+11 0x1.49116fd945535p+9 0x1.10d438299a299p+9 0x1.72b1de4d8e5f5p+0";
    "ec2-16 GraphChi 0x1p+1 0x1.b8p+6 0x1.9p+6 0x1.ep+9 0x1.f400000000001p+10 0x1.b800000000001p+6 0x1.e4dd9518f48p-4";
    "ec2-16 Metis 0x1.8p+0 0x1.b8p+6 - 0x1.4p+9 0x1.77p+10 0x1.b8p+6 0x1.8p+0";
    "ec2-16 SerialC 0x1.999999999999ap-3 0x1.18p+7 - 0x1.f4p+7 0x1.f4p+10 0x1.18p+7 0x1.4aadf6b39d013p-1";
    "ec2-16 Giraph 0x1.4p+4 0x1.47651031ec31ep+9 0x1.13b006e4f380ep+10 0x1.4p+10 0x1.5p+8 0x1.10d438299a299p+9 0x1.999999999999ap-5";
    "ec2-16 X-Stream 0x1.8p+0 0x1.b8p+6 0x1.04p+8 0x1.7bfffffffffffp+9 0x1.f400000000001p+10 0x1.b800000000001p+6 0x1.999999999999ap-5";
    "ec2-100 Hadoop 0x1.cp+4 0x1.38c4493b3de42p+12 - 0x1.d937cf655913bp+12 0x1.1bee493ccf0bep+11 0x1.becf440b7cfcep+11 0x1.cp+4";
    "ec2-100 Spark 0x1.cp+3 0x1.38c4493b3de42p+12 0x1.27c2e19f57ac6p+11 0x1.d937cf655913bp+13 0x1.4b40aac6f18ddp+11 0x1.becf440b7cfcep+11 0x1.f1d2b31d15bddp+1";
    "ec2-100 Naiad 0x1p+2 0x1.38c4493b3de42p+12 - 0x1.dba24039c905bp+13 0x1.9f193cb4c20e4p+11 0x1.f46d41f86306cp+11 0x1.ae310db80f7d5p-4";
    "ec2-100 PowerGraph 0x1.54p+6 0x1.a9e56ddb3691dp+11 0x1.2d21347319f7dp+9 0x1.8c392a10b661p+12 0x1.7751f17a4a452p+10 0x1.62e9db8c02cedp+11 0x1.82d956b136e78p+4";
    "ec2-100 GraphChi 0x1p+1 0x1.b8p+6 0x1.9p+6 0x1.ep+9 0x1.f400000000001p+10 0x1.b800000000001p+6 0x1.e4dd9518f48p-4";
    "ec2-100 Metis 0x1.8p+0 0x1.b8p+6 - 0x1.4p+9 0x1.77p+10 0x1.b8p+6 0x1.8p+0";
    "ec2-100 SerialC 0x1.999999999999ap-3 0x1.18p+7 - 0x1.f4p+7 0x1.f4p+10 0x1.18p+7 0x1.4aadf6b39d013p-1";
    "ec2-100 Giraph 0x1.4p+4 0x1.a9e56ddb3691dp+11 0x1.2a9493a5a4c62p+12 0x1.3c3a4edfa9758p+12 0x1.4c0a060471ee9p+10 0x1.62e9db8c02cedp+11 0x1.58df4098c6e95p+2";
    "ec2-100 X-Stream 0x1.8p+0 0x1.b8p+6 0x1.04p+8 0x1.7bfffffffffffp+9 0x1.f400000000001p+10 0x1.b800000000001p+6 0x1.999999999999ap-5";
    "local-seven Hadoop 0x1.cp+4 0x1.373321cfc3bd2p+9 - 0x1.59bb5f8bf51f6p+10 0x1.7c4e1c4d273c2p+8 0x1.bc92304d60c4fp+8 0x1.cp+4";
    "local-seven Spark 0x1.cp+3 0x1.373321cfc3bd2p+9 0x1.b02a376ef2673p+7 0x1.59bb5f8bf51f6p+11 0x1.bbb0765a031b8p+8 0x1.bc92304d60c4fp+8 0x1.1a3c0c388eb9fp+4";
    "local-seven Naiad 0x1p+2 0x1.373321cfc3bd2p+9 - 0x1.497f821295701p+11 0x1.079934dbaac01p+9 0x1.f1eb694c6c61dp+8 0x1.999999999999ap-5";
    "local-seven PowerGraph 0x1.5333333333334p+3 0x1.e4065290bd926p+8 0x1.e88ae5cff06fdp+6 0x1.4168da8f89f8cp+11 0x1.9fe11d618cf5p+9 0x1.935a9a2348a4ap+8 0x1.999999999999ap-5";
    "local-seven GraphChi 0x1p+1 0x1.b8p+6 0x1.9p+6 0x1.ep+9 0x1.f400000000001p+10 0x1.b800000000001p+6 0x1.e4dd9518f48p-4";
    "local-seven Metis 0x1.8p+0 0x1.b8p+6 - 0x1.4p+9 0x1.77p+10 0x1.b8p+6 0x1.8p+0";
    "local-seven SerialC 0x1.999999999999ap-3 0x1.18p+7 - 0x1.f4p+7 0x1.f4p+10 0x1.18p+7 0x1.4aadf6b39d013p-1";
    "local-seven Giraph 0x1.4p+4 0x1.e4065290bd926p+8 0x1.1c98b9b46474ep+9 0x1.5848079454994p+10 0x1.4b5eedb1f7d39p+8 0x1.935a9a2348a4ap+8 0x1.999999999999ap-5";
    "local-seven X-Stream 0x1.8p+0 0x1.b8p+6 0x1.04p+8 0x1.7bfffffffffffp+9 0x1.f400000000001p+10 0x1.b800000000001p+6 0x1.999999999999ap-5" ]

let test_profile_golden () =
  Alcotest.(check (list string)) "rates" golden_rates (profile_rows ())

(* probes are priced, never run: calibration starts no engine run, so
   it can neither draw an injected fault nor publish to HDFS *)
let test_profile_draws_no_fault () =
  let trace, _ =
    Obs.Trace.collecting (fun () -> Musketeer.Profile.calibrate ~cluster ())
  in
  let named name =
    List.length
      (List.filter
         (fun (s : Obs.Trace.span) -> s.Obs.Trace.name = name)
         (Obs.Trace.spans trace))
  in
  Alcotest.(check bool) "probes priced" true (named "calibrate.price" > 0);
  Alcotest.(check int) "no engine run" 0 (named "engine.run")

(* ---------------- History ---------------- *)

let test_history () =
  let h = Musketeer.History.create () in
  Alcotest.(check bool) "empty" true (Musketeer.History.is_empty h ~workflow:"w");
  Musketeer.History.record h ~workflow:"w" ~node_id:1 ~output_mb:10.;
  Musketeer.History.record h ~workflow:"w" ~node_id:2 ~output_mb:20.;
  Musketeer.History.record h ~workflow:"w" ~node_id:1 ~output_mb:12.;
  Alcotest.(check int) "coverage" 2 (Musketeer.History.coverage h ~workflow:"w");
  Alcotest.(check (option (float 1e-9))) "latest wins" (Some 12.)
    (Musketeer.History.lookup h ~workflow:"w" ~node_id:1);
  let filtered = Musketeer.History.filtered h ~keep:(fun id -> id = 2) in
  Alcotest.(check (option (float 1e-9))) "filtered out" None
    (Musketeer.History.lookup filtered ~workflow:"w" ~node_id:1);
  Musketeer.History.record_runtime h ~workflow:"w" ~makespan_s:33.;
  Alcotest.(check (option (float 1e-9))) "runtime" (Some 33.)
    (Musketeer.History.last_runtime h ~workflow:"w")

let test_history_persistence () =
  let h = Musketeer.History.create () in
  Musketeer.History.record h ~workflow:"wf" ~node_id:3 ~output_mb:12.5;
  Musketeer.History.record h ~workflow:"wf" ~node_id:7 ~output_mb:0.25;
  Musketeer.History.record_runtime h ~workflow:"wf" ~makespan_s:42.;
  let h' = Musketeer.History.of_string (Musketeer.History.to_string h) in
  Alcotest.(check (option (float 1e-6))) "size roundtrip" (Some 12.5)
    (Musketeer.History.lookup h' ~workflow:"wf" ~node_id:3);
  Alcotest.(check (option (float 1e-6))) "runtime roundtrip" (Some 42.)
    (Musketeer.History.last_runtime h' ~workflow:"wf");
  let file = Filename.temp_file "musketeer_history" ".txt" in
  Musketeer.History.save h ~filename:file;
  let loaded = Musketeer.History.load ~filename:file in
  Sys.remove file;
  Alcotest.(check int) "file roundtrip coverage" 2
    (Musketeer.History.coverage loaded ~workflow:"wf");
  (try
     ignore (Musketeer.History.of_string "size broken");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* ---------------- Estimator ---------------- *)

let test_estimator_defaults_and_history () =
  let hdfs = default_hdfs () in
  let g = chain_graph () in
  let est = estimator_for hdfs g in
  Alcotest.(check (float 1e-6)) "input size" 512.
    (Musketeer.Estimator.output_mb est 0);
  Alcotest.(check bool) "select shrinks" true
    (Musketeer.Estimator.output_mb est 1 < 512.);
  Alcotest.(check bool) "no history" false
    (Musketeer.Estimator.from_history est 1);
  let h = Musketeer.History.create () in
  Musketeer.History.record h ~workflow:"wf" ~node_id:1 ~output_mb:7.;
  let m' = Musketeer.with_history m h in
  let est' = Musketeer.estimator m' ~workflow:"wf" ~hdfs g in
  Alcotest.(check (float 1e-6)) "history wins" 7.
    (Musketeer.Estimator.output_mb est' 1);
  Alcotest.(check bool) "flagged" true
    (Musketeer.Estimator.from_history est' 1)

let test_estimator_conservative_joins () =
  let b = Ir.Builder.create () in
  let l = Ir.Builder.input b "l" in
  let r = Ir.Builder.input b "r" in
  let j = Ir.Builder.join b ~left_key:"k" ~right_key:"k" l r in
  let g = Ir.Builder.finish b ~outputs:[ j ] in
  let hdfs =
    hdfs_with
      [ ("l", kv_table sample_rows, 100.); ("r", kv_table sample_rows, 100.) ]
  in
  let est = estimator_for hdfs g in
  Alcotest.(check bool) "join overestimated" true
    (Musketeer.Estimator.output_mb est (Ir.Builder.id j)
     >= Musketeer.Estimator.conservative_factor *. 100.)

let test_estimator_iterations () =
  Alcotest.(check int) "non-while" 1
    (Musketeer.Estimator.iterations Ir.Operator.Cross)

(* ---------------- Support (mergeability) ---------------- *)

let test_support_rules () =
  let g = chain_graph () in
  let all_ops = [ 1; 2; 3 ] in
  Alcotest.(check bool) "naiad merges all" true
    (Musketeer.Support.check_bool Engines.Backend.Naiad g all_ops);
  Alcotest.(check bool) "hadoop takes one shuffle" true
    (Musketeer.Support.check_bool Engines.Backend.Hadoop g all_ops);
  let pagerank = Workloads.Workflows.pagerank_gas () in
  let while_id =
    List.find_map
      (fun (n : Ir.Operator.node) ->
         match n.kind with Ir.Operator.While _ -> Some n.id | _ -> None)
      pagerank.Ir.Operator.nodes
    |> Option.get
  in
  Alcotest.(check bool) "hadoop runs WHILE as a job chain" true
    (Musketeer.Support.check_bool Engines.Backend.Hadoop pagerank
       [ while_id ]);
  Alcotest.(check bool) "powergraph takes the idiom" true
    (Musketeer.Support.check_bool Engines.Backend.Power_graph pagerank
       [ while_id ]);
  Alcotest.(check bool) "powergraph rejects relational ops" false
    (Musketeer.Support.check_bool Engines.Backend.Power_graph g all_ops)

(* ---------------- Cost ---------------- *)

let test_cost_finite_and_ordering () =
  let g = chain_graph () in
  let small = estimator_for (hdfs_with [ ("r", kv_table sample_rows, 64.) ]) g in
  let large =
    estimator_for (hdfs_with [ ("r", kv_table sample_rows, 8192.) ]) g
  in
  let cost est =
    Musketeer.Cost.seconds
      (Musketeer.Cost.job_cost ~profile ~est Engines.Backend.Naiad
         [ 1; 2; 3 ])
  in
  Alcotest.(check bool) "finite" true (Float.is_finite (cost small));
  Alcotest.(check bool) "more data costs more" true (cost large > cost small)

let test_cost_infeasible_paradigm () =
  let g = chain_graph () in
  let est = estimator_for (default_hdfs ()) g in
  match
    Musketeer.Cost.job_cost ~profile ~est
      Engines.Backend.Power_graph [ 1; 2; 3 ]
  with
  | Musketeer.Cost.Infeasible _ -> ()
  | Musketeer.Cost.Finite _ -> Alcotest.fail "expected infeasible"

let test_cost_conservative_first_run () =
  let b = Ir.Builder.create () in
  let l = Ir.Builder.input b "l" in
  let r = Ir.Builder.input b "r" in
  let j = Ir.Builder.join b ~left_key:"k" ~right_key:"k" l r in
  let s = Ir.Builder.select b ~name:"out" ~pred:Expr.(col "v" > int 0) j in
  let g = Ir.Builder.finish b ~outputs:[ s ] in
  let hdfs =
    hdfs_with
      [ ("l", kv_table sample_rows, 100.); ("r", kv_table sample_rows, 100.) ]
  in
  let est = estimator_for hdfs g in
  let merged =
    Musketeer.Cost.job_cost ~profile ~est Engines.Backend.Naiad
      [ Ir.Builder.id j; Ir.Builder.id s ]
  in
  Alcotest.(check bool) "merge across join infeasible without history" false
    (Musketeer.Cost.is_finite merged);
  let h = Musketeer.History.create () in
  Musketeer.History.record h ~workflow:"wf" ~node_id:(Ir.Builder.id j)
    ~output_mb:50.;
  let est' =
    Musketeer.estimator (Musketeer.with_history m h) ~workflow:"wf" ~hdfs g
  in
  let merged' =
    Musketeer.Cost.job_cost ~profile ~est:est' Engines.Backend.Naiad
      [ Ir.Builder.id j; Ir.Builder.id s ]
  in
  Alcotest.(check bool) "history unlocks the merge" true
    (Musketeer.Cost.is_finite merged')

(* ---------------- Partitioner ---------------- *)

let plan_or_fail p =
  match p with
  | Some plan -> plan
  | None -> Alcotest.fail "expected a plan"

let backends = Engines.Backend.all

let test_partitioner_merges_chain () =
  let g = chain_graph () in
  let est = estimator_for (default_hdfs ()) g in
  let plan =
    plan_or_fail (Musketeer.Partitioner.exhaustive ~profile ~est ~backends g)
  in
  Alcotest.(check int) "one job" 1 (List.length plan.Musketeer.Partitioner.jobs)

let netflix_est () =
  let g = Workloads.Workflows.netflix () in
  let ratings, movies = Workloads.Datagen.netflix ~movies:4000 () in
  let hdfs =
    hdfs_with
      [ ("ratings", ratings.Workloads.Datagen.table,
         ratings.Workloads.Datagen.modeled_mb);
        ("movies", movies.Workloads.Datagen.table,
         movies.Workloads.Datagen.modeled_mb) ]
  in
  (g, estimator_for hdfs g)

let test_exhaustive_equals_memoized () =
  let g = Workloads.Workflows.tpch_q17 () in
  let lineitem, part = Workloads.Datagen.tpch ~scale_factor:10 () in
  let hdfs =
    hdfs_with
      [ ("lineitem", lineitem.Workloads.Datagen.table,
         lineitem.Workloads.Datagen.modeled_mb);
        ("part", part.Workloads.Datagen.table,
         part.Workloads.Datagen.modeled_mb) ]
  in
  let est = estimator_for hdfs g in
  let a =
    plan_or_fail (Musketeer.Partitioner.exhaustive ~profile ~est ~backends g)
  and b =
    plan_or_fail
      (Musketeer.Partitioner.exhaustive_memoized ~profile ~est ~backends g)
  in
  Alcotest.(check (float 1e-6)) "same optimum"
    a.Musketeer.Partitioner.cost_s b.Musketeer.Partitioner.cost_s

let test_exhaustive_not_worse_than_dynamic () =
  let g, est = netflix_est () in
  let exhaustive =
    plan_or_fail
      (Musketeer.Partitioner.exhaustive_memoized ~profile ~est ~backends g)
  and dynamic =
    plan_or_fail (Musketeer.Partitioner.dynamic ~profile ~est ~backends g)
  in
  Alcotest.(check bool) "exhaustive <= dynamic" true
    (exhaustive.Musketeer.Partitioner.cost_s
     <= dynamic.Musketeer.Partitioner.cost_s +. 1e-6)

let test_no_merging_one_job_per_op () =
  let g = chain_graph () in
  let est = estimator_for (default_hdfs ()) g in
  let plan =
    plan_or_fail (Musketeer.Partitioner.no_merging ~profile ~est ~backends g)
  in
  Alcotest.(check int) "three jobs" 3
    (List.length plan.Musketeer.Partitioner.jobs)

let test_forced_backend () =
  let g = chain_graph () in
  let est = estimator_for (default_hdfs ()) g in
  let plan =
    plan_or_fail
      (Musketeer.Partitioner.partition ~profile ~est
         ~backends:[ Engines.Backend.Hadoop ] g)
  in
  List.iter
    (fun (backend, _) ->
       Alcotest.(check bool) "hadoop only" true
         (backend = Engines.Backend.Hadoop))
    plan.Musketeer.Partitioner.jobs

(* The Figure 16 workflow: the depth-first linearization separates the
   top JOIN from the PROJECT it could merge with on a MapReduce engine;
   the multi-order variant must never do worse. *)
let fig16_graph () =
  let b = Ir.Builder.create () in
  let r1 = Ir.Builder.input b "f1" in
  let r2 = Ir.Builder.input b "f2" in
  let r3 = Ir.Builder.input b "f3" in
  let s1 = Ir.Builder.select b ~pred:Expr.(col "v" > int 0) r1 in
  let g1 =
    Ir.Builder.group_by b ~keys:[ "k" ]
      ~aggs:[ Aggregate.make (Aggregate.Sum "v") ~as_name:"v" ]
      s1
  in
  let s2 = Ir.Builder.select b ~pred:Expr.(col "v" < int 100) r2 in
  let j1 = Ir.Builder.join b ~left_key:"k" ~right_key:"k" s2 r3 in
  let p1 = Ir.Builder.project b ~columns:[ "k"; "v" ] j1 in
  let j2 = Ir.Builder.join b ~name:"out" ~left_key:"k" ~right_key:"k" g1 p1 in
  Ir.Builder.finish b ~outputs:[ j2 ]

let fig16_est () =
  let hdfs =
    hdfs_with
      [ ("f1", kv_table sample_rows, 100.);
        ("f2", kv_table sample_rows, 100.);
        ("f3", kv_table sample_rows, 100.) ]
  in
  let h = Musketeer.History.create () in
  let g = fig16_graph () in
  List.iter
    (fun (n : Ir.Operator.node) ->
       Musketeer.History.record h ~workflow:"fig16" ~node_id:n.id
         ~output_mb:50.)
    g.Ir.Operator.nodes;
  (g,
   Musketeer.estimator (Musketeer.with_history m h) ~workflow:"fig16" ~hdfs g)

let test_fig16_multi_order_not_worse () =
  let g, est = fig16_est () in
  let mr = [ Engines.Backend.Hadoop ] in
  let single =
    plan_or_fail (Musketeer.Partitioner.dynamic ~profile ~est ~backends:mr g)
  and multi =
    plan_or_fail
      (Musketeer.Partitioner.dynamic_multi_order ~orders:24 ~profile ~est
         ~backends:mr g)
  in
  Alcotest.(check bool) "multi-order at least as good" true
    (multi.Musketeer.Partitioner.cost_s
     <= single.Musketeer.Partitioner.cost_s +. 1e-6)

(* ---------------- Jobgraph ---------------- *)

let test_jobgraph_extract_runs () =
  let g = chain_graph () in
  let hdfs = default_hdfs () in
  let job1 = Musketeer.Jobgraph.extract g [ 1; 2 ] in
  let job2 = Musketeer.Jobgraph.extract g [ 3 ] in
  let store =
    Ir.Interp.store_of_list [ ("r", Engines.Hdfs.table hdfs "r") ]
  in
  let bindings1 = Ir.Interp.outputs ~store job1 in
  let store2 = Ir.Interp.store_of_list bindings1 in
  let bindings2 = Ir.Interp.outputs ~store:store2 job2 in
  let direct = Ir.Interp.outputs ~store (chain_graph ()) in
  Alcotest.(check bool) "two jobs equal one" true
    (Table.equal_unordered (snd (List.hd bindings2)) (snd (List.hd direct)))

let test_jobgraph_mapping () =
  let g = chain_graph () in
  let _, mapping = Musketeer.Jobgraph.extract_mapped g [ 1; 2 ] in
  List.iter
    (fun (_, old_id) ->
       Alcotest.(check bool) "maps into the original set" true
         (List.mem old_id [ 0; 1; 2 ]))
    mapping

let test_jobgraph_rejects_nonconvex () =
  let g = chain_graph () in
  (try
     ignore (Musketeer.Jobgraph.extract g [ 1; 3 ]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* ---------------- Optimizer ---------------- *)

let catalog_for hdfs r = Table.schema (Engines.Hdfs.table hdfs r)

let test_optimizer_select_through_join () =
  let b = Ir.Builder.create () in
  let l = Ir.Builder.input b "l" in
  let r = Ir.Builder.input b "r" in
  let j = Ir.Builder.join b ~left_key:"k" ~right_key:"k" l r in
  let s = Ir.Builder.select b ~name:"out" ~pred:Expr.(col "v" > int 10) j in
  let g = Ir.Builder.finish b ~outputs:[ s ] in
  let hdfs =
    hdfs_with
      [ ("l", kv_table sample_rows, 10.); ("r", kv_table sample_rows, 10.) ]
  in
  let optimized = Musketeer.Optimizer.optimize ~catalog:(catalog_for hdfs) g in
  let select_input_kind =
    List.find_map
      (fun (n : Ir.Operator.node) ->
         match n.kind with
         | Ir.Operator.Select _ ->
           Some (Ir.Dag.node optimized (List.hd n.inputs)).Ir.Operator.kind
         | _ -> None)
      optimized.Ir.Operator.nodes
  in
  (match select_input_kind with
   | Some (Ir.Operator.Input _) -> ()
   | _ -> Alcotest.fail "select was not pushed below the join");
  let store =
    Ir.Interp.store_of_list
      [ ("l", kv_table sample_rows); ("r", kv_table sample_rows) ]
  in
  Alcotest.(check bool) "same results" true
    (Table.equal_unordered
       (snd (List.hd (Ir.Interp.outputs ~store g)))
       (snd (List.hd (Ir.Interp.outputs ~store optimized))))

let test_optimizer_fuses_selects () =
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "r" in
  let s1 = Ir.Builder.select b ~pred:Expr.(col "v" > int 1) inp in
  let s2 = Ir.Builder.select b ~name:"out" ~pred:Expr.(col "v" < int 90) s1 in
  let g = Ir.Builder.finish b ~outputs:[ s2 ] in
  let hdfs = default_hdfs () in
  let optimized = Musketeer.Optimizer.optimize ~catalog:(catalog_for hdfs) g in
  Alcotest.(check int) "one operator left" 1 (Ir.Dag.operator_count optimized);
  let store = Ir.Interp.store_of_list [ ("r", kv_table sample_rows) ] in
  Alcotest.(check bool) "same results" true
    (Table.equal_unordered
       (snd (List.hd (Ir.Interp.outputs ~store g)))
       (snd (List.hd (Ir.Interp.outputs ~store optimized))))

let test_optimizer_dead_elimination () =
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "r" in
  let _dead = Ir.Builder.distinct b inp in
  let live = Ir.Builder.select b ~name:"out" ~pred:Expr.(col "v" > int 0) inp in
  let g = Ir.Builder.finish b ~outputs:[ live ] in
  let hdfs = default_hdfs () in
  let optimized = Musketeer.Optimizer.optimize ~catalog:(catalog_for hdfs) g in
  Alcotest.(check int) "dead distinct removed" 1
    (Ir.Dag.operator_count optimized)

let test_optimizer_select_through_distinct_and_difference () =
  let hdfs =
    hdfs_with
      [ ("a", kv_table sample_rows, 10.); ("b", kv_table sample_rows, 10.) ]
  in
  (* select over distinct *)
  let b1 = Ir.Builder.create () in
  let inp = Ir.Builder.input b1 "a" in
  let d = Ir.Builder.distinct b1 inp in
  let s = Ir.Builder.select b1 ~name:"out" ~pred:Expr.(col "v" > int 10) d in
  let g1 = Ir.Builder.finish b1 ~outputs:[ s ] in
  let o1 = Musketeer.Optimizer.optimize ~catalog:(catalog_for hdfs) g1 in
  let first_op =
    List.find
      (fun (n : Ir.Operator.node) ->
         match n.kind with Ir.Operator.Input _ -> false | _ -> true)
      (Ir.Dag.topological_order o1)
  in
  (match first_op.kind with
   | Ir.Operator.Select _ -> ()
   | _ -> Alcotest.fail "select not pushed below distinct");
  (* select over difference; check semantics on data *)
  let b2 = Ir.Builder.create () in
  let l = Ir.Builder.input b2 "a" in
  let r = Ir.Builder.input b2 "b" in
  let diff = Ir.Builder.difference b2 l r in
  let s2 =
    Ir.Builder.select b2 ~name:"out" ~pred:Expr.(col "v" > int 10) diff
  in
  let g2 = Ir.Builder.finish b2 ~outputs:[ s2 ] in
  let o2 = Musketeer.Optimizer.optimize ~catalog:(catalog_for hdfs) g2 in
  let store =
    Ir.Interp.store_of_list
      [ ("a", kv_table sample_rows);
        ("b", kv_table (List.init 150 (fun i -> (i mod 30, i)))) ]
  in
  Alcotest.(check bool) "difference push-down preserves semantics" true
    (Table.equal_unordered
       (snd (List.hd (Ir.Interp.outputs ~store g2)))
       (snd (List.hd (Ir.Interp.outputs ~store o2))))

let test_extended_backends_plannable () =
  (* the extension engines are calibrated and usable via
     ~backends:Engines.Backend.extended *)
  let g = Workloads.Workflows.pagerank_gas ~iterations:2 () in
  let edges, vertices =
    Workloads.Datagen.graph_tables Workloads.Datagen.orkut ~edges:()
  in
  let hdfs =
    hdfs_with
      [ ("edges", edges.Workloads.Datagen.table, 64.);
        ("vertices", vertices.Workloads.Datagen.table, 8.) ]
  in
  List.iter
    (fun backend ->
       let est = estimator_for hdfs g in
       match
         Musketeer.Partitioner.partition ~profile ~est ~backends:[ backend ] g
       with
       | Some plan ->
         Alcotest.(check bool)
           (Engines.Backend.name backend ^ " plans the GAS workflow")
           true
           (plan.Musketeer.Partitioner.jobs <> [])
       | None ->
         Alcotest.fail (Engines.Backend.name backend ^ " failed to plan"))
    [ Engines.Backend.Giraph; Engines.Backend.X_stream ]

let test_dag_to_dot () =
  let dot = Ir.Dag.to_dot (Workloads.Workflows.pagerank_gas ()) in
  let contains needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length dot
      && (String.sub dot i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph");
  Alcotest.(check bool) "while cluster" true (contains "subgraph cluster_");
  Alcotest.(check bool) "edges" true (contains "->")

let wide_schema =
  Schema.make
    [ { Schema.name = "k"; ty = Value.Tint };
      { Schema.name = "v"; ty = Value.Tint };
      { Schema.name = "note"; ty = Value.Tstring };
      { Schema.name = "extra"; ty = Value.Tfloat } ]

let wide_table rows =
  Table.create wide_schema
    (List.map
       (fun (k, v) ->
          [| Value.Int k; Value.Int v; Value.Str "x"; Value.Float 0.5 |])
       rows)

let test_column_pruning () =
  (* the workflow only reads k and v; note/extra are dead at the scan *)
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "wide" in
  let s = Ir.Builder.select b ~pred:Expr.(col "v" > int 10) inp in
  let grp =
    Ir.Builder.group_by b ~name:"out" ~keys:[ "k" ]
      ~aggs:[ Aggregate.make (Aggregate.Sum "v") ~as_name:"total" ]
      s
  in
  let g = Ir.Builder.finish b ~outputs:[ grp ] in
  let hdfs = hdfs_with [ ("wide", wide_table sample_rows, 100.) ] in
  let required =
    Musketeer.Column_pruning.required_columns
      ~catalog:(catalog_for hdfs) g
  in
  Alcotest.(check (list string)) "live columns at the input" [ "k"; "v" ]
    (List.sort compare (Hashtbl.find required 0));
  let optimized = Musketeer.Optimizer.optimize ~catalog:(catalog_for hdfs) g in
  let has_pruning_project =
    List.exists
      (fun (n : Ir.Operator.node) ->
         match n.kind with
         | Ir.Operator.Project { columns } ->
           List.sort compare columns = [ "k"; "v" ]
         | _ -> false)
      optimized.Ir.Operator.nodes
  in
  Alcotest.(check bool) "pruning project inserted" true has_pruning_project;
  let store = Ir.Interp.store_of_list [ ("wide", wide_table sample_rows) ] in
  Alcotest.(check bool) "same results" true
    (Table.equal_unordered
       (snd (List.hd (Ir.Interp.outputs ~store g)))
       (snd (List.hd (Ir.Interp.outputs ~store optimized))));
  (* optimizing again is a fixpoint (no repeated insertion) *)
  let twice =
    Musketeer.Optimizer.optimize ~catalog:(catalog_for hdfs) optimized
  in
  Alcotest.(check int) "fixpoint" (Ir.Dag.operator_count optimized)
    (Ir.Dag.operator_count twice)

let test_column_pruning_respects_set_ops () =
  (* DISTINCT compares whole rows: nothing may be pruned *)
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "wide" in
  let d = Ir.Builder.distinct b inp in
  let s =
    Ir.Builder.select b ~name:"out" ~pred:Expr.(col "v" > int 10) d
  in
  let g = Ir.Builder.finish b ~outputs:[ s ] in
  let hdfs = hdfs_with [ ("wide", wide_table sample_rows, 100.) ] in
  let required =
    Musketeer.Column_pruning.required_columns ~catalog:(catalog_for hdfs) g
  in
  Alcotest.(check int) "all columns live" 4
    (List.length (Hashtbl.find required 0))

let prop_optimizer_preserves_semantics =
  QCheck.Test.make ~name:"optimizer preserves semantics" ~count:40
    (QCheck.pair (QCheck.int_range 0 50) (QCheck.int_range 50 100))
    (fun (lo, hi) ->
       let b = Ir.Builder.create () in
       let inp = Ir.Builder.input b "r" in
       let m1 = Ir.Builder.map b ~target:"w" ~expr:Expr.(col "v" * int 2) inp in
       let s1 = Ir.Builder.select b ~pred:Expr.(col "v" > int lo) m1 in
       let s2 =
         Ir.Builder.select b ~name:"out" ~pred:Expr.(col "v" < int hi) s1
       in
       let g = Ir.Builder.finish b ~outputs:[ s2 ] in
       let hdfs = default_hdfs () in
       let optimized =
         Musketeer.Optimizer.optimize ~catalog:(catalog_for hdfs) g
       in
       let store = Ir.Interp.store_of_list [ ("r", kv_table sample_rows) ] in
       Table.equal_unordered
         (snd (List.hd (Ir.Interp.outputs ~store g)))
         (snd (List.hd (Ir.Interp.outputs ~store optimized))))

(* ---------------- Idiom ---------------- *)

let test_idiom_detects_pagerank () =
  match
    Musketeer.Idiom.detect_graph_workload (Workloads.Workflows.pagerank_gas ())
  with
  | Some idiom ->
    Alcotest.(check bool) "has apply ops" true
      (idiom.Musketeer.Idiom.apply_ids <> [])
  | None -> Alcotest.fail "pagerank not detected"

let test_idiom_rejects_kmeans () =
  Alcotest.(check bool) "kmeans not a graph workload" true
    (Musketeer.Idiom.detect_graph_workload
       (Workloads.Workflows.kmeans ~iterations:2 ())
     = None)

(* §8: a triangle-count-style workflow (joins, no WHILE) is a graph
   workload the recognizer soundly fails to classify *)
let test_idiom_soundness_not_completeness () =
  let b = Ir.Builder.create () in
  let e1 = Ir.Builder.input b "edges" in
  let j1 = Ir.Builder.join b ~left_key:"dst" ~right_key:"src" e1 e1 in
  let j2 = Ir.Builder.join b ~left_key:"src" ~right_key:"dst" j1 e1 in
  let s =
    Ir.Builder.select b ~name:"triangles" ~pred:Expr.(col "src" < col "dst") j2
  in
  let g = Ir.Builder.finish b ~outputs:[ s ] in
  Alcotest.(check bool) "triangle counting missed (known limitation)" true
    (Musketeer.Idiom.detect_graph_workload g = None)

let test_idiom_repeated_self_join () =
  (* the triangle-count shape: the edge relation self-joined twice *)
  let b = Ir.Builder.create () in
  let e1 = Ir.Builder.input b "edges" in
  let j1 = Ir.Builder.join b ~left_key:"v" ~right_key:"k" e1 e1 in
  let j2 = Ir.Builder.join b ~name:"tri" ~left_key:"k" ~right_key:"v" j1 e1 in
  let g = Ir.Builder.finish b ~outputs:[ j2 ] in
  Alcotest.(check bool) "self-join heuristic fires" true
    (Musketeer.Idiom.repeated_self_join g <> None);
  (* an ordinary two-relation join does not *)
  let b2 = Ir.Builder.create () in
  let l = Ir.Builder.input b2 "l" in
  let r = Ir.Builder.input b2 "r" in
  let j = Ir.Builder.join b2 ~name:"o" ~left_key:"k" ~right_key:"k" l r in
  let g2 = Ir.Builder.finish b2 ~outputs:[ j ] in
  Alcotest.(check bool) "plain join does not fire" true
    (Musketeer.Idiom.repeated_self_join g2 = None)

let test_idiom_associativity () =
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "r" in
  let g1 =
    Ir.Builder.group_by b ~keys:[ "k" ]
      ~aggs:[ Aggregate.make (Aggregate.Avg "v") ~as_name:"a" ]
      inp
  in
  let g = Ir.Builder.finish b ~outputs:[ g1 ] in
  Alcotest.(check bool) "avg not associative" false
    (Musketeer.Idiom.all_aggregations_associative g);
  Alcotest.(check (list int)) "no associative nodes" []
    (Musketeer.Idiom.associative_aggregations g)

(* ---------------- Codegen ---------------- *)

let test_codegen_pass_counts () =
  let g = Workloads.Workflows.tpch_q17 () in
  let generated =
    Musketeer.Codegen.generate ~label:"q17" ~backend:Engines.Backend.Naiad g
  in
  Alcotest.(check bool) "naive makes several passes" true
    (generated.Musketeer.Codegen.naive_passes > 3);
  Alcotest.(check int) "optimized makes one pass" 1
    generated.Musketeer.Codegen.passes;
  let naive =
    Musketeer.Codegen.generate ~share_scans:false ~infer_types:false
      ~label:"q17" ~backend:Engines.Backend.Naiad g
  in
  Alcotest.(check int) "unoptimized code keeps the naive passes"
    naive.Musketeer.Codegen.naive_passes naive.Musketeer.Codegen.passes

let test_codegen_spark_residual_pass () =
  let g = Workloads.Workflows.netflix () in
  let spark =
    Musketeer.Codegen.generate ~label:"n" ~backend:Engines.Backend.Spark g
  and naiad =
    Musketeer.Codegen.generate ~label:"n" ~backend:Engines.Backend.Naiad g
  in
  Alcotest.(check int) "spark pays one extra pass"
    (naiad.Musketeer.Codegen.passes + 1)
    spark.Musketeer.Codegen.passes

let test_codegen_listing_3_vs_4 () =
  let b = Ir.Builder.create () in
  let props = Ir.Builder.input b "properties" in
  let prices = Ir.Builder.input b "prices" in
  let locs = Ir.Builder.project b ~columns:[ "k"; "v" ] props in
  let j = Ir.Builder.join b ~left_key:"k" ~right_key:"k" locs prices in
  let grp =
    Ir.Builder.group_by b ~name:"street_price" ~keys:[ "k" ]
      ~aggs:[ Aggregate.make (Aggregate.Max "v") ~as_name:"max_price" ]
      j
  in
  let g = Ir.Builder.finish b ~outputs:[ grp ] in
  let optimized =
    Musketeer.Render.render Engines.Backend.Spark ~shared_scans:true g
  and naive =
    Musketeer.Render.render Engines.Backend.Spark ~shared_scans:false g
  in
  let count_substring haystack needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length haystack then acc
      else if String.sub haystack i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check bool) "naive emits more map passes" true
    (count_substring naive ".map" > count_substring optimized ".map")

let test_codegen_renders_all_backends () =
  let g = Workloads.Workflows.pagerank_gas () in
  List.iter
    (fun backend ->
       let source = Musketeer.Render.render backend ~shared_scans:true g in
       Alcotest.(check bool)
         (Engines.Backend.name backend ^ " renders")
         true
         (String.length source > 0))
    Engines.Backend.all

(* ---------------- Executor ---------------- *)

let run_workflow ?backends workflow g hdfs =
  match Musketeer.plan m ?backends ~workflow ~hdfs g with
  | None -> Alcotest.fail "no plan"
  | Some (plan, g') -> (
    match
      Musketeer.execute_plan m ~workflow ~hdfs:(Engines.Hdfs.snapshot hdfs)
        ~graph:g' plan
    with
    | Ok result -> result
    | Error e -> Alcotest.fail (Engines.Report.error_to_string e))

let test_executor_matches_interp () =
  let g = chain_graph () in
  let hdfs = default_hdfs () in
  let result = run_workflow "chain" g hdfs in
  let store = Ir.Interp.store_of_list [ ("r", kv_table sample_rows) ] in
  let expected = snd (List.hd (Ir.Interp.outputs ~store g)) in
  Alcotest.(check bool) "executor output equals interp" true
    (Table.equal_unordered expected
       (List.assoc "out" result.Musketeer.Executor.outputs))

let test_executor_while_expansion_equivalence () =
  let edges, vertices =
    Workloads.Datagen.graph_tables Workloads.Datagen.orkut ~edges:()
  in
  let hdfs =
    hdfs_with
      [ ("edges", edges.Workloads.Datagen.table, 64.);
        ("vertices", vertices.Workloads.Datagen.table, 8.) ]
  in
  let g = Workloads.Workflows.pagerank_gas ~iterations:3 () in
  let naiad = run_workflow ~backends:[ Engines.Backend.Naiad ] "pr" g hdfs in
  let hadoop = run_workflow ~backends:[ Engines.Backend.Hadoop ] "pr" g hdfs in
  Alcotest.(check bool) "identical ranks" true
    (Table.equal_unordered
       (List.assoc "vertices_final" naiad.Musketeer.Executor.outputs)
       (List.assoc "vertices_final" hadoop.Musketeer.Executor.outputs));
  Alcotest.(check bool) "hadoop ran many jobs" true
    (List.length hadoop.Musketeer.Executor.reports
     > 2 * List.length naiad.Musketeer.Executor.reports);
  Alcotest.(check bool) "hadoop far slower" true
    (hadoop.Musketeer.Executor.makespan_s
     > 2. *. naiad.Musketeer.Executor.makespan_s)

let test_executor_records_history () =
  let g = chain_graph () in
  let hdfs = default_hdfs () in
  let h = Musketeer.History.create () in
  let m' = Musketeer.with_history m h in
  (match Musketeer.plan m' ~workflow:"hist" ~hdfs g with
   | Some (plan, g') ->
     ignore
       (Musketeer.execute_plan m' ~workflow:"hist"
          ~hdfs:(Engines.Hdfs.snapshot hdfs) ~graph:g' plan)
   | None -> Alcotest.fail "no plan");
  Alcotest.(check bool) "history populated" true
    (Musketeer.History.coverage h ~workflow:"hist" > 0);
  Alcotest.(check bool) "runtime recorded" true
    (Musketeer.History.last_runtime h ~workflow:"hist" <> None)

(* k-means writes its result over its [centroids] input (an in-place
   update, dag.mli): a second run on the same HDFS starts from the
   first run's centroids, which is what the oracle computes from them *)
let test_kmeans_second_run () =
  let pts, cents = Workloads.Datagen.kmeans_points ~points:400 ~k:5 () in
  let hdfs =
    hdfs_with
      [ ("points", pts.Workloads.Datagen.table, 64.);
        ("centroids", cents.Workloads.Datagen.table, 1.) ]
  in
  let g = Workloads.Workflows.kmeans ~iterations:2 () in
  let run () =
    match Musketeer.execute m ~workflow:"kmeans" ~hdfs g with
    | Ok (r, _) -> List.assoc "centroids" r.Musketeer.Executor.outputs
    | Error e -> Alcotest.fail (Engines.Report.error_to_string e)
  in
  let oracle centroids =
    let store =
      Ir.Interp.store_of_list
        [ ("points", pts.Workloads.Datagen.table); ("centroids", centroids) ]
    in
    List.assoc "centroids" (Ir.Interp.outputs ~store g)
  in
  let csv t = Relation.Table.to_csv (Relation.Table.sort_by t [ "cid" ]) in
  let first = run () in
  Alcotest.(check string) "first run = oracle"
    (csv (oracle cents.Workloads.Datagen.table)) (csv first);
  Alcotest.(check string) "HDFS holds the first result" (csv first)
    (csv (Engines.Hdfs.table hdfs "centroids"));
  let second = run () in
  Alcotest.(check string) "second run starts from it" (csv (oracle first))
    (csv second);
  Alcotest.(check bool) "and moves on" true (csv second <> csv first)

(* one relation, one name holds after every rewrite *)
let test_zoo_optimized_names () =
  List.iter
    (fun (name, load) ->
       let hdfs, g = load () in
       match Ir.Dag.validate (Musketeer.optimize_ir ~hdfs g) with
       | () -> ()
       | exception Ir.Dag.Invalid why -> Alcotest.failf "%s: %s" name why)
    Experiments.Common.zoo

let test_executor_cross_engine_combo () =
  (* batch phase on Hadoop, iterative phase on PowerGraph — the §6.3
     combination, executed via a hand-constructed plan; results must
     equal the reference interpreter *)
  let a, b_ = Workloads.Datagen.community_pair ~sample_vertices:60 () in
  let hdfs =
    hdfs_with
      [ ("edges_a", a.Workloads.Datagen.table, 64.);
        ("edges_b", b_.Workloads.Datagen.table, 64.) ]
  in
  let g = Workloads.Workflows.cross_community_pagerank ~iterations:2 () in
  let while_id =
    List.find_map
      (fun (n : Ir.Operator.node) ->
         match n.kind with Ir.Operator.While _ -> Some n.id | _ -> None)
      g.Ir.Operator.nodes
    |> Option.get
  in
  (* split the batch ops into <=1-shuffle jobs for Hadoop *)
  let batch =
    List.filter_map
      (fun (n : Ir.Operator.node) ->
         match n.kind with
         | Ir.Operator.Input _ | Ir.Operator.While _ -> None
         | _ -> Some n.id)
      g.Ir.Operator.nodes
  in
  let jobs = ref [] and current = ref [] and shuffles = ref 0 in
  List.iter
    (fun id ->
       let s =
         if Ir.Operator.needs_shuffle (Ir.Dag.node g id).Ir.Operator.kind
         then 1
         else 0
       in
       if !shuffles + s > 1 then begin
         jobs := (Engines.Backend.Hadoop, List.rev !current) :: !jobs;
         current := [ id ];
         shuffles := s
       end
       else begin
         current := id :: !current;
         shuffles := !shuffles + s
       end)
    batch;
  if !current <> [] then
    jobs := (Engines.Backend.Hadoop, List.rev !current) :: !jobs;
  let plan =
    { Musketeer.Partitioner.jobs =
        List.rev !jobs @ [ (Engines.Backend.Power_graph, [ while_id ]) ];
      cost_s = 0. }
  in
  match
    Musketeer.execute_plan ~record_history:false m ~workflow:"combo"
      ~hdfs:(Engines.Hdfs.snapshot hdfs) ~graph:g plan
  with
  | Error e -> Alcotest.fail (Engines.Report.error_to_string e)
  | Ok result ->
    let store =
      Ir.Interp.store_of_list
        [ ("edges_a", a.Workloads.Datagen.table);
          ("edges_b", b_.Workloads.Datagen.table) ]
    in
    let expected = snd (List.hd (Ir.Interp.outputs ~store g)) in
    Alcotest.(check bool) "combo result equals interp" true
      (Table.equal_unordered expected
         (List.assoc "cc_ranks" result.Musketeer.Executor.outputs));
    Alcotest.(check bool) "several engines involved" true
      (List.length result.Musketeer.Executor.reports >= 2)

(* ---------------- Mapper (decision tree) ---------------- *)

let test_decision_tree_branches () =
  let tree ~input_mb ~nodes g =
    Musketeer.Mapper.decision_tree ~cluster:(Engines.Cluster.ec2 ~nodes)
      ~input_mb g
  in
  let pagerank = Workloads.Workflows.pagerank_gas () in
  Alcotest.(check bool) "small graph -> GraphChi" true
    (tree ~input_mb:500. ~nodes:100 pagerank = Engines.Backend.Graph_chi);
  Alcotest.(check bool) "big graph, small cluster -> PowerGraph" true
    (tree ~input_mb:20000. ~nodes:16 pagerank = Engines.Backend.Power_graph);
  Alcotest.(check bool) "big graph, big cluster -> Naiad" true
    (tree ~input_mb:20000. ~nodes:100 pagerank = Engines.Backend.Naiad);
  let batch = chain_graph () in
  Alcotest.(check bool) "tiny batch -> serial C" true
    (tree ~input_mb:10. ~nodes:16 batch = Engines.Backend.Serial_c);
  Alcotest.(check bool) "small batch -> Metis" true
    (tree ~input_mb:300. ~nodes:16 batch = Engines.Backend.Metis);
  Alcotest.(check bool) "large batch -> Hadoop" true
    (tree ~input_mb:50000. ~nodes:16 batch = Engines.Backend.Hadoop);
  let iterative = Workloads.Workflows.kmeans ~iterations:2 () in
  Alcotest.(check bool) "iterative non-graph -> Spark" true
    (tree ~input_mb:5000. ~nodes:16 iterative = Engines.Backend.Spark)

(* ---------------- Facade ---------------- *)

let test_explain_report () =
  let g = chain_graph () in
  let hdfs = default_hdfs () in
  let report = Musketeer.explain m ~workflow:"explain" ~hdfs g in
  Alcotest.(check bool) "estimates for every node" true
    (List.length report.Musketeer.Explain.estimates
     = List.length g.Ir.Operator.nodes);
  Alcotest.(check bool) "a plan was found" true
    (report.Musketeer.Explain.plan <> None);
  Alcotest.(check int) "alternative per backend" 7
    (List.length report.Musketeer.Explain.alternatives);
  (* the rendered forms do not raise and mention the chosen backend *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Musketeer.Explain.pp ppf report;
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "pp output nonempty" true (Buffer.length buf > 100);
  match report.Musketeer.Explain.plan with
  | Some plan ->
    let dot =
      Musketeer.Explain.plan_dot report.Musketeer.Explain.optimized plan
    in
    Alcotest.(check bool) "plan dot" true
      (String.length dot > 0 && String.sub dot 0 7 = "digraph")
  | None -> Alcotest.fail "no plan"

let test_facade_execute_and_show_code () =
  let g = chain_graph () in
  let hdfs = default_hdfs () in
  match Musketeer.execute m ~workflow:"facade" ~hdfs g with
  | Error e -> Alcotest.fail (Engines.Report.error_to_string e)
  | Ok (result, plan) ->
    Alcotest.(check bool) "produced output" true
      (List.mem_assoc "out" result.Musketeer.Executor.outputs);
    let sources = Musketeer.show_code ~graph:g plan in
    Alcotest.(check bool) "rendered code per job" true
      (List.length sources = List.length plan.Musketeer.Partitioner.jobs)

(* random small workflow graphs for partitioning invariants *)
let gen_stages = QCheck.list_of_size (QCheck.Gen.int_range 1 6) (QCheck.int_range 0 4)

let graph_of_stages stages =
  let b = Ir.Builder.create () in
  let h = ref (Ir.Builder.input b "r") in
  List.iteri
    (fun i stage ->
       h :=
         match stage with
         | 0 ->
           let t = 5 * i in
           Ir.Builder.select b ~pred:Expr.(col "v" > int t) !h
         | 1 -> Ir.Builder.map b ~target:"w" ~expr:Expr.(col "v" + int i) !h
         | 2 -> Ir.Builder.distinct b !h
         | 3 ->
           Ir.Builder.group_by b ~keys:[ "k" ]
             ~aggs:[ Aggregate.make (Aggregate.Max "v") ~as_name:"v" ]
             !h
         | _ -> Ir.Builder.project b ~columns:[ "k"; "v" ] !h)
    stages;
  Ir.Builder.finish b ~outputs:[ !h ]

let prop_plans_partition_the_operators =
  QCheck.Test.make ~name:"plans partition the operator set" ~count:40
    gen_stages (fun stages ->
      let g = graph_of_stages stages in
      let est = estimator_for (default_hdfs ()) g in
      let op_ids =
        List.filter_map
          (fun (n : Ir.Operator.node) ->
             match n.kind with
             | Ir.Operator.Input _ -> None
             | _ -> Some n.id)
          g.Ir.Operator.nodes
      in
      let check_plan = function
        | None -> false
        | Some (plan : Musketeer.Partitioner.plan) ->
          let covered =
            List.sort compare
              (List.concat_map snd plan.Musketeer.Partitioner.jobs)
          in
          covered = List.sort compare op_ids
          && List.for_all
               (fun (backend, ids) ->
                  Musketeer.Support.check_bool backend g ids)
               plan.Musketeer.Partitioner.jobs
      in
      check_plan (Musketeer.Partitioner.exhaustive ~profile ~est ~backends g)
      && check_plan (Musketeer.Partitioner.dynamic ~profile ~est ~backends g))

let prop_dynamic_cost_not_below_exhaustive =
  QCheck.Test.make ~name:"exhaustive optimum <= dynamic" ~count:30 gen_stages
    (fun stages ->
      let g = graph_of_stages stages in
      let est = estimator_for (default_hdfs ()) g in
      match
        ( Musketeer.Partitioner.exhaustive ~profile ~est ~backends g,
          Musketeer.Partitioner.dynamic ~profile ~est ~backends g )
      with
      | Some e, Some d ->
        e.Musketeer.Partitioner.cost_s
        <= d.Musketeer.Partitioner.cost_s +. 1e-6
      | _ -> false)

(* end-to-end: whatever the planner decides, the executed outputs must
   equal the reference interpreter's on random pipelines *)
let prop_execute_equals_interp =
  QCheck.Test.make ~name:"planned execution = reference interpreter"
    ~count:25 gen_stages (fun stages ->
      let g = graph_of_stages stages in
      let rows = List.init 120 (fun i -> (i mod 9, i * 5 mod 230)) in
      let hdfs = hdfs_with [ ("r", kv_table rows, 512.) ] in
      let store = Ir.Interp.store_of_list [ ("r", kv_table rows) ] in
      let expected = snd (List.hd (Ir.Interp.outputs ~store g)) in
      match
        Musketeer.execute
          (Musketeer.with_history m (Musketeer.History.create ()))
          ~workflow:"prop" ~hdfs g
      with
      | Error _ -> false
      | Ok (result, _) -> (
        match result.Musketeer.Executor.outputs with
        | [ (_, actual) ] -> Table.equal_unordered expected actual
        | _ -> false))

let prop_history_roundtrip =
  QCheck.Test.make ~name:"history serialization round-trips" ~count:60
    (QCheck.list_of_size (QCheck.Gen.int_range 0 20)
       (QCheck.pair (QCheck.int_range 0 50) (QCheck.float_range 0. 1e6)))
    (fun entries ->
      let h = Musketeer.History.create () in
      List.iter
        (fun (node_id, output_mb) ->
           Musketeer.History.record h ~workflow:"w" ~node_id ~output_mb)
        entries;
      let h' = Musketeer.History.of_string (Musketeer.History.to_string h) in
      List.for_all
        (fun (node_id, _) ->
           match
             ( Musketeer.History.lookup h ~workflow:"w" ~node_id,
               Musketeer.History.lookup h' ~workflow:"w" ~node_id )
           with
           | Some a, Some b -> Float.abs (a -. b) < 1e-3
           | None, None -> true
           | _ -> false)
        entries)

(* ---------------- Pricing context ---------------- *)

(* the operator sets the searches price: every contiguous run of the
   topological order (the dynamic search's segments) and, up to eight
   operators, every subset (which holds the exhaustive search's
   connected convex sets) *)
let candidate_sets g =
  let ops =
    List.filter_map
      (fun (n : Ir.Operator.node) ->
         match n.kind with Ir.Operator.Input _ -> None | _ -> Some n.id)
      (Ir.Dag.topological_order g)
  in
  let a = Array.of_list ops in
  let k = Array.length a in
  let runs =
    List.concat
      (List.init k (fun i ->
           List.init (k - i) (fun len -> Array.to_list (Array.sub a i (len + 1)))))
  in
  if k > 8 then runs
  else
    runs
    @ List.init ((1 lsl k) - 1) (fun m ->
        List.filteri (fun i _ -> (m + 1) land (1 lsl i) <> 0) ops)

(* Every set priced the planner's way — one job, one shared estimator
   for the whole graph, every backend — equals Cost.job_cost on an
   estimator built afresh for that one call: the same backends admit
   it, at the same cost bits, with the same refusal text. *)
let shared_context_agrees ~fresh g =
  let shared = fresh () in
  List.for_all
    (fun ids ->
       let job = Musketeer.Cost.job ~est:shared ids in
       List.for_all
         (fun b ->
            match
              ( Musketeer.Cost.price ~profile job b,
                Musketeer.Cost.job_cost ~profile ~est:(fresh ()) b ids )
            with
            | Ok s, Musketeer.Cost.Finite s' ->
              Int64.equal (Int64.bits_of_float s) (Int64.bits_of_float s')
            | Error _, (Musketeer.Cost.Infeasible _ as v) ->
              Musketeer.Cost.job_cost ~profile ~est:shared b ids = v
            | _ -> false)
         Engines.Backend.all)
    (candidate_sets g)

(* each zoo workflow's input store, submitted graph and optimized graph *)
let zoo_plans =
  lazy
    (List.map
       (fun (name, load) ->
          let hdfs, graph = load () in
          match Musketeer.plan m ~workflow:name ~hdfs graph with
          | Some (_, optimized) -> (name, hdfs, graph, optimized)
          | None -> Alcotest.failf "%s: no plan" name)
       Experiments.Common.zoo)

let netflix_prefixes =
  lazy
    (let hdfs = Experiments.Common.load_netflix ~movies:17000 in
     let full = Workloads.Workflows.netflix_extended () in
     ( hdfs,
       List.init 18 (fun i ->
           Experiments.Fig13_partitioning.prefix_graph full (i + 1)) ))

let test_shared_context_zoo_and_prefixes () =
  List.iter
    (fun (name, hdfs, _, g) ->
       Alcotest.(check bool) (name ^ ": shared = fresh") true
         (shared_context_agrees ~fresh:(fun () -> estimator_for hdfs g) g))
    (Lazy.force zoo_plans);
  let hdfs, prefixes = Lazy.force netflix_prefixes in
  List.iter
    (fun g ->
       Alcotest.(check bool)
         (Printf.sprintf "NetFlix prefix of %d ops: shared = fresh"
            (Ir.Dag.operator_count g))
         true
         (shared_context_agrees ~fresh:(fun () -> estimator_for hdfs g) g))
    prefixes

let prop_shared_context_agrees =
  QCheck.Test.make ~name:"shared pricing context = fresh per call" ~count:30
    gen_stages (fun stages ->
      let g = graph_of_stages stages in
      let hdfs = default_hdfs () in
      shared_context_agrees ~fresh:(fun () -> estimator_for hdfs g) g)

(* counted, not timed: a search computes a set's volumes at most once,
   whatever the number of backends that admit it *)
let test_volumes_priced_once_per_set () =
  let check_partition label trace =
    match Obs.Trace.find trace ~name:"partition" with
    | [ s ] ->
      let attr k =
        match List.assoc_opt k s.Obs.Trace.attrs with
        | Some (Obs.Trace.Int n) -> n
        | _ -> Alcotest.failf "%s: partition span has no %s" label k
      in
      Alcotest.(check bool)
        (label ^ ": volumes_priced <= sets_scored")
        true
        (attr "volumes_priced" <= attr "sets_scored")
    | spans ->
      Alcotest.failf "%s: %d partition spans" label (List.length spans)
  in
  List.iter
    (fun (name, hdfs, graph, _) ->
       let trace, _ =
         Obs.Trace.collecting (fun () ->
             Musketeer.plan
               (Musketeer.with_history m (Musketeer.History.create ()))
               ~workflow:name ~hdfs graph)
       in
       check_partition name trace)
    (Lazy.force zoo_plans);
  let hdfs, prefixes = Lazy.force netflix_prefixes in
  List.iter
    (fun g ->
       let est = estimator_for hdfs g in
       let ops = Ir.Dag.operator_count g in
       List.iter
         (fun (search, f) ->
            let trace, _ =
              Obs.Trace.collecting (fun () -> f ~profile ~est ~backends g)
            in
            check_partition (Printf.sprintf "%s at %d ops" search ops) trace)
         (( "dynamic", Musketeer.Partitioner.dynamic )
          ::
          (if ops <= 10 then
             [ ("exhaustive", Musketeer.Partitioner.exhaustive) ]
           else [])))
    prefixes

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_optimizer_preserves_semantics;
      prop_plans_partition_the_operators;
      prop_dynamic_cost_not_below_exhaustive;
      prop_execute_equals_interp;
      prop_history_roundtrip;
      prop_shared_context_agrees ]

let () =
  Alcotest.run "core"
    [ ( "profile",
        [ Alcotest.test_case "all backends" `Quick
            test_profile_covers_all_backends;
          Alcotest.test_case "relative overheads" `Quick
            test_profile_relative_overheads;
          Alcotest.test_case "naiad iteration" `Quick
            test_profile_naiad_iterates_cheaply;
          Alcotest.test_case "pinned rates" `Quick test_profile_golden;
          Alcotest.test_case "draws no fault" `Quick
            test_profile_draws_no_fault ] );
      ( "history",
        [ Alcotest.test_case "store" `Quick test_history;
          Alcotest.test_case "persistence" `Quick test_history_persistence ] );
      ( "estimator",
        [ Alcotest.test_case "defaults and history" `Quick
            test_estimator_defaults_and_history;
          Alcotest.test_case "conservative joins" `Quick
            test_estimator_conservative_joins;
          Alcotest.test_case "iterations" `Quick test_estimator_iterations ] );
      ("support", [ Alcotest.test_case "rules" `Quick test_support_rules ]);
      ( "cost",
        [ Alcotest.test_case "finite ordering" `Quick
            test_cost_finite_and_ordering;
          Alcotest.test_case "infeasible paradigm" `Quick
            test_cost_infeasible_paradigm;
          Alcotest.test_case "conservative first run" `Quick
            test_cost_conservative_first_run ] );
      ( "partitioner",
        [ Alcotest.test_case "merges chain" `Quick test_partitioner_merges_chain;
          Alcotest.test_case "exhaustive = memoized" `Quick
            test_exhaustive_equals_memoized;
          Alcotest.test_case "exhaustive <= dynamic" `Quick
            test_exhaustive_not_worse_than_dynamic;
          Alcotest.test_case "no merging" `Quick test_no_merging_one_job_per_op;
          Alcotest.test_case "forced backend" `Quick test_forced_backend;
          Alcotest.test_case "fig16 multi-order" `Quick
            test_fig16_multi_order_not_worse ] );
      ( "pricing",
        [ Alcotest.test_case "shared context = fresh (zoo, prefixes)" `Quick
            test_shared_context_zoo_and_prefixes;
          Alcotest.test_case "volumes once per set" `Quick
            test_volumes_priced_once_per_set ] );
      ( "jobgraph",
        [ Alcotest.test_case "extract runs" `Quick test_jobgraph_extract_runs;
          Alcotest.test_case "mapping" `Quick test_jobgraph_mapping;
          Alcotest.test_case "rejects non-convex" `Quick
            test_jobgraph_rejects_nonconvex ] );
      ( "optimizer",
        [ Alcotest.test_case "select through join" `Quick
            test_optimizer_select_through_join;
          Alcotest.test_case "fuses selects" `Quick test_optimizer_fuses_selects;
          Alcotest.test_case "dead elimination" `Quick
            test_optimizer_dead_elimination;
          Alcotest.test_case "distinct/difference push-down" `Quick
            test_optimizer_select_through_distinct_and_difference;
          Alcotest.test_case "column pruning" `Quick test_column_pruning;
          Alcotest.test_case "pruning respects set ops" `Quick
            test_column_pruning_respects_set_ops;
          Alcotest.test_case "zoo names stay unique" `Quick
            test_zoo_optimized_names ] );
      ( "extensions",
        [ Alcotest.test_case "extended backends plan" `Quick
            test_extended_backends_plannable;
          Alcotest.test_case "dot export" `Quick test_dag_to_dot ] );
      ( "idiom",
        [ Alcotest.test_case "detects pagerank" `Quick
            test_idiom_detects_pagerank;
          Alcotest.test_case "rejects kmeans" `Quick test_idiom_rejects_kmeans;
          Alcotest.test_case "sound not complete" `Quick
            test_idiom_soundness_not_completeness;
          Alcotest.test_case "self-join heuristic" `Quick
            test_idiom_repeated_self_join;
          Alcotest.test_case "associativity" `Quick test_idiom_associativity ] );
      ( "codegen",
        [ Alcotest.test_case "pass counts" `Quick test_codegen_pass_counts;
          Alcotest.test_case "spark residual" `Quick
            test_codegen_spark_residual_pass;
          Alcotest.test_case "listing 3 vs 4" `Quick test_codegen_listing_3_vs_4;
          Alcotest.test_case "renders all" `Quick
            test_codegen_renders_all_backends ] );
      ( "executor",
        [ Alcotest.test_case "matches interp" `Quick test_executor_matches_interp;
          Alcotest.test_case "while expansion" `Quick
            test_executor_while_expansion_equivalence;
          Alcotest.test_case "records history" `Quick
            test_executor_records_history;
          Alcotest.test_case "cross-engine combo" `Quick
            test_executor_cross_engine_combo;
          Alcotest.test_case "k-means second run" `Quick
            test_kmeans_second_run ] );
      ( "mapper",
        [ Alcotest.test_case "decision tree" `Quick test_decision_tree_branches ] );
      ( "facade",
        [ Alcotest.test_case "execute + show_code" `Quick
            test_facade_execute_and_show_code;
          Alcotest.test_case "explain" `Quick test_explain_report ] );
      ("properties", qcheck_cases) ]
