(* Tests for the engine layer: HDFS simulator, perf model, shared
   execution helper, admission checks and the seven engine simulators
   (all of which must compute the same answers as the reference
   interpreter, differing only in simulated time). *)

open Relation

let kv_schema =
  Schema.make [ { Schema.name = "k"; ty = Value.Tint };
                { Schema.name = "v"; ty = Value.Tint } ]

let kv_table rows =
  Table.create kv_schema
    (List.map (fun (k, v) -> [| Value.Int k; Value.Int v |]) rows)

let sample_rows = List.init 200 (fun i -> (i mod 20, i))

let hdfs_with bindings =
  let hdfs = Engines.Hdfs.create () in
  List.iter
    (fun (name, table, mb) -> Engines.Hdfs.put hdfs name ~modeled_mb:mb table)
    bindings;
  hdfs

let scan_graph ?(pred = Expr.bool true) input =
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b input in
  let sel = Ir.Builder.select b ~name:"scan_out" ~pred inp in
  Ir.Builder.finish b ~outputs:[ sel ]

let two_shuffle_graph () =
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "r" in
  let g1 =
    Ir.Builder.group_by b ~keys:[ "k" ]
      ~aggs:[ Aggregate.make (Aggregate.Sum "v") ~as_name:"v" ]
      inp
  in
  let g2 =
    Ir.Builder.group_by b ~keys:[ "v" ]
      ~aggs:[ Aggregate.make Aggregate.Count ~as_name:"n" ]
      g1
  in
  Ir.Builder.finish b ~outputs:[ g2 ]

let cluster = Engines.Cluster.local_seven

(* ---------------- Hdfs ---------------- *)

let test_hdfs_basics () =
  let hdfs = hdfs_with [ ("r", kv_table sample_rows, 100.) ] in
  Alcotest.(check bool) "mem" true (Engines.Hdfs.mem hdfs "r");
  Alcotest.(check (float 1e-9)) "modeled" 100. (Engines.Hdfs.modeled_mb hdfs "r");
  Alcotest.(check (list string)) "list" [ "r" ] (Engines.Hdfs.list hdfs);
  Engines.Hdfs.remove hdfs "r";
  Alcotest.(check bool) "removed" false (Engines.Hdfs.mem hdfs "r");
  Alcotest.check_raises "get missing" (Engines.Hdfs.No_such_relation "r")
    (fun () -> ignore (Engines.Hdfs.get hdfs "r"))

let test_hdfs_snapshot_isolated () =
  let hdfs = hdfs_with [ ("r", kv_table sample_rows, 100.) ] in
  let snap = Engines.Hdfs.snapshot hdfs in
  Engines.Hdfs.put snap "extra" (kv_table [ (1, 1) ]);
  Alcotest.(check bool) "original unchanged" false
    (Engines.Hdfs.mem hdfs "extra")

let test_hdfs_io_accounting () =
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.note_read hdfs ~mb:10.;
  Engines.Hdfs.note_write hdfs ~mb:4.;
  Alcotest.(check (float 1e-9)) "read" 10. (Engines.Hdfs.total_read_mb hdfs);
  Alcotest.(check (float 1e-9)) "written" 4.
    (Engines.Hdfs.total_written_mb hdfs)

(* ---------------- Cluster ---------------- *)

let test_cluster () =
  Alcotest.(check int) "local nodes" 7 Engines.Cluster.local_seven.nodes;
  Alcotest.(check int) "ec2" 100 (Engines.Cluster.ec2 ~nodes:100).nodes;
  Alcotest.(check (float 1e-6)) "memory" 1500.
    (Engines.Cluster.total_memory_gb (Engines.Cluster.ec2 ~nodes:100));
  Alcotest.check_raises "zero nodes"
    (Invalid_argument "Cluster.ec2: nodes must be positive") (fun () ->
      ignore (Engines.Cluster.ec2 ~nodes:0))

(* ---------------- Perf ---------------- *)

let test_perf_makespan () =
  let rates =
    { Engines.Perf.overhead_s = 5.; pull_mb_s = 100.; load_mb_s = Some 50.;
      process_mb_s = 200.; comm_mb_s = 100.; push_mb_s = 100.;
      iter_overhead_s = 2. }
  in
  let volumes =
    { Engines.Perf.input_mb = 100.; output_mb = 50.; load_mb = 100.;
      process_mb = 200.; scan_extra_mb = 0.; comm_mb = 100.; iterations = 3 }
  in
  let breakdown, total = Engines.Perf.makespan rates volumes in
  Alcotest.(check (float 1e-6)) "pull" 1. breakdown.Engines.Report.pull_s;
  Alcotest.(check (float 1e-6)) "load" 2. breakdown.Engines.Report.load_s;
  Alcotest.(check (float 1e-6)) "process" 1. breakdown.Engines.Report.process_s;
  Alcotest.(check (float 1e-6)) "comm" 1. breakdown.Engines.Report.comm_s;
  Alcotest.(check (float 1e-6)) "push" 0.5 breakdown.Engines.Report.push_s;
  (* total = breakdown + (iterations-1) * iter_overhead *)
  Alcotest.(check (float 1e-6)) "total" (5. +. 5.5 +. 4.) total

let test_perf_scaled () =
  Alcotest.(check (float 1e-6)) "linear" 400.
    (Engines.Perf.scaled ~base:100. ~nodes:4 ~alpha:1.);
  Alcotest.(check (float 1e-6)) "flat" 100.
    (Engines.Perf.scaled ~base:100. ~nodes:4 ~alpha:0.);
  Alcotest.(check bool) "sublinear" true
    (Engines.Perf.scaled ~base:100. ~nodes:4 ~alpha:0.5 < 400.)

(* ---------------- Exec_helper ---------------- *)

let test_exec_volumes_propagation () =
  let hdfs = hdfs_with [ ("r", kv_table sample_rows, 100.) ] in
  (* a select keeping half the rows should forward about half the MB *)
  let g = scan_graph ~pred:Expr.(col "v" < int 100) "r" in
  let exec = Engines.Exec_helper.execute ~hdfs g in
  Alcotest.(check (float 1.)) "input" 100. exec.volumes.Engines.Perf.input_mb;
  let out_mb = exec.volumes.Engines.Perf.output_mb in
  Alcotest.(check bool) "roughly half" true (out_mb > 35. && out_mb < 65.)

let test_exec_iteration_count () =
  let body_b = Ir.Builder.create () in
  let st = Ir.Builder.input body_b "s" in
  let next =
    Ir.Builder.map body_b ~name:"s" ~target:"v" ~expr:Expr.(col "v" + int 1)
      st
  in
  let body =
    Ir.Builder.finish_body body_b ~carried:[ ("s", next) ]
  in
  let b = Ir.Builder.create () in
  let init = Ir.Builder.input b "s" in
  let loop =
    Ir.Builder.while_ b ~condition:(Ir.Operator.Fixed_iterations 4)
      ~max_iterations:10 ~body [ init ]
  in
  let g = Ir.Builder.finish b ~outputs:[ loop ] in
  let hdfs = hdfs_with [ ("s", kv_table [ (1, 1) ], 1.) ] in
  let exec = Engines.Exec_helper.execute ~hdfs g in
  Alcotest.(check int) "iterations" 4 exec.volumes.Engines.Perf.iterations

let test_exec_missing_relation () =
  let hdfs = Engines.Hdfs.create () in
  (try
     ignore (Engines.Exec_helper.execute ~hdfs (scan_graph "absent"));
     Alcotest.fail "expected Execution_error"
   with Engines.Exec_helper.Execution_error _ -> ())

let test_shuffle_count_and_while_detection () =
  Alcotest.(check int) "two shuffles" 2
    (Engines.Exec_helper.shuffle_count (two_shuffle_graph ()));
  Alcotest.(check bool) "no while" false
    (Engines.Exec_helper.has_while (two_shuffle_graph ()))

let test_is_graph_idiom () =
  let pagerank = Workloads.Workflows.pagerank_gas () in
  Alcotest.(check bool) "pagerank is GAS" true
    (Engines.Exec_helper.is_graph_idiom pagerank);
  let kmeans = Workloads.Workflows.kmeans ~iterations:2 () in
  Alcotest.(check bool) "kmeans is not GAS" false
    (Engines.Exec_helper.is_graph_idiom kmeans);
  Alcotest.(check bool) "plain scan is not GAS" false
    (Engines.Exec_helper.is_graph_idiom (scan_graph "r"))

(* ---------------- admission ---------------- *)

let supports backend g =
  match Engines.Registry.supports backend g with
  | Ok () -> true
  | Error _ -> false

let test_admission_matrix () =
  let scan = scan_graph "r" and two = two_shuffle_graph () in
  let pagerank = Workloads.Workflows.pagerank_gas () in
  (* general-purpose engines take everything *)
  List.iter
    (fun backend ->
       Alcotest.(check bool) "general scan" true (supports backend scan);
       Alcotest.(check bool) "general 2-shuffle" true (supports backend two);
       Alcotest.(check bool) "general pagerank" true
         (supports backend pagerank))
    [ Engines.Backend.Spark; Engines.Backend.Naiad;
      Engines.Backend.Serial_c ];
  (* MapReduce engines: one shuffle, no in-job WHILE *)
  List.iter
    (fun backend ->
       Alcotest.(check bool) "mr scan" true (supports backend scan);
       Alcotest.(check bool) "mr rejects 2-shuffle" false
         (supports backend two);
       Alcotest.(check bool) "mr rejects while-in-job" false
         (supports backend pagerank))
    [ Engines.Backend.Hadoop; Engines.Backend.Metis ];
  (* GAS engines: only the idiom *)
  List.iter
    (fun backend ->
       Alcotest.(check bool) "gas rejects scan" false (supports backend scan);
       Alcotest.(check bool) "gas accepts pagerank" true
         (supports backend pagerank))
    [ Engines.Backend.Power_graph; Engines.Backend.Graph_chi ]

let test_black_box_admission () =
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "r" in
  let bb =
    Ir.Builder.black_box b ~backend_hint:"Spark" ~description:"native"
      [ inp ]
  in
  let g = Ir.Builder.finish b ~outputs:[ bb ] in
  Alcotest.(check bool) "spark accepts its black box" true
    (supports Engines.Backend.Spark g);
  Alcotest.(check bool) "naiad rejects foreign black box" false
    (supports Engines.Backend.Naiad g)

(* ---------------- engines vs reference interpreter ---------------- *)

let reference g bindings =
  let store =
    Ir.Interp.store_of_list
      (List.map (fun (name, table, _) -> (name, table)) bindings)
  in
  Ir.Interp.outputs ~store g

let run_engine backend g bindings =
  let hdfs = hdfs_with bindings in
  let job = Engines.Job.make ~label:"test" ~backend g in
  match Engines.Registry.run backend ~cluster ~hdfs job with
  | Ok report -> Some (report, hdfs)
  | Error _ -> None

let test_engines_agree_with_interp () =
  let bindings = [ ("r", kv_table sample_rows, 100.) ] in
  let g = scan_graph ~pred:Expr.(col "v" < int 120) "r" in
  let expected = List.assoc "scan_out" (reference g bindings) in
  List.iter
    (fun backend ->
       match run_engine backend g bindings with
       | None -> ()  (* engine cannot express it; admission tested above *)
       | Some (report, hdfs) ->
         Alcotest.(check bool)
           (Engines.Backend.name backend ^ " result matches interp")
           true
           (Table.equal_unordered expected
              (Engines.Hdfs.table hdfs "scan_out"));
         Alcotest.(check bool)
           (Engines.Backend.name backend ^ " positive makespan")
           true
           (report.Engines.Report.makespan_s > 0.))
    Engines.Backend.all

let test_iterative_engines_agree () =
  let edges, vertices =
    Workloads.Datagen.graph_tables Workloads.Datagen.orkut ~edges:()
  in
  let bindings =
    [ ("edges", edges.Workloads.Datagen.table, edges.Workloads.Datagen.modeled_mb);
      ("vertices", vertices.Workloads.Datagen.table,
       vertices.Workloads.Datagen.modeled_mb) ]
  in
  let g = Workloads.Workflows.pagerank_gas ~iterations:3 () in
  let expected = List.assoc "vertices_final" (reference g bindings) in
  List.iter
    (fun backend ->
       match run_engine backend g bindings with
       | None -> ()
       | Some (report, hdfs) ->
         Alcotest.(check bool)
           (Engines.Backend.name backend ^ " pagerank matches")
           true
           (Table.equal_unordered expected
              (Engines.Hdfs.table hdfs "vertices_final"));
         Alcotest.(check int)
           (Engines.Backend.name backend ^ " iterations")
           3 report.Engines.Report.iterations)
    [ Engines.Backend.Spark; Engines.Backend.Naiad;
      Engines.Backend.Power_graph; Engines.Backend.Graph_chi;
      Engines.Backend.Serial_c ]

let test_spark_oom () =
  (* a cross join with a huge modeled size must trip Spark's admission *)
  let b = Ir.Builder.create () in
  let l = Ir.Builder.input b "l" in
  let r = Ir.Builder.input b "r" in
  let c = Ir.Builder.cross b ~name:"c" l r in
  let g = Ir.Builder.finish b ~outputs:[ c ] in
  let bindings =
    [ ("l", kv_table sample_rows, 400_000.);
      ("r", kv_table (List.init 50 (fun i -> (i, i))), 10.) ]
  in
  let hdfs = hdfs_with bindings in
  let job = Engines.Job.make ~label:"oom" ~backend:Engines.Backend.Spark g in
  match Engines.Registry.run Engines.Backend.Spark ~cluster ~hdfs job with
  | Error (Engines.Report.Out_of_memory _) -> ()
  | Error e -> Alcotest.fail (Engines.Report.error_to_string e)
  | Ok _ -> Alcotest.fail "expected OOM"

let test_naiad_modes_ordering () =
  (* stock Lindi options (single reader/writer, collect GROUP BY) must
     never beat Musketeer's optimized Naiad code *)
  let bindings = [ ("r", kv_table sample_rows, 4096.) ] in
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "r" in
  let grp =
    Ir.Builder.group_by b ~name:"out" ~keys:[ "k" ]
      ~aggs:[ Aggregate.make (Aggregate.Sum "v") ~as_name:"v" ]
      inp
  in
  let g = Ir.Builder.finish b ~outputs:[ grp ] in
  let time options =
    let hdfs = hdfs_with bindings in
    let job =
      Engines.Job.make ~options ~label:"t" ~backend:Engines.Backend.Naiad g
    in
    match Engines.Registry.run Engines.Backend.Naiad ~cluster ~hdfs job with
    | Ok r -> r.Engines.Report.makespan_s
    | Error e -> Alcotest.fail (Engines.Report.error_to_string e)
  in
  let optimized = time Engines.Job.optimized_options in
  let stock = time Engines.Job.native_frontend_options in
  Alcotest.(check bool) "stock Lindi slower" true (stock > 1.5 *. optimized)

let test_scan_passes_cost_time () =
  let bindings = [ ("r", kv_table sample_rows, 4096.) ] in
  let g = scan_graph "r" in
  let time passes =
    let hdfs = hdfs_with bindings in
    let job =
      Engines.Job.make
        ~options:{ Engines.Job.baseline_options with scan_passes = passes }
        ~label:"t" ~backend:Engines.Backend.Hadoop g
    in
    match Engines.Registry.run Engines.Backend.Hadoop ~cluster ~hdfs job with
    | Ok r -> r.Engines.Report.makespan_s
    | Error e -> Alcotest.fail (Engines.Report.error_to_string e)
  in
  Alcotest.(check bool) "more passes, more time" true (time 4 > time 1)

let test_metis_memory_cliff () =
  let g = scan_graph "r" in
  let time mb =
    let hdfs = hdfs_with [ ("r", kv_table sample_rows, mb) ] in
    let job = Engines.Job.make ~label:"t" ~backend:Engines.Backend.Metis g in
    match Engines.Registry.run Engines.Backend.Metis ~cluster ~hdfs job with
    | Ok r -> r.Engines.Report.makespan_s
    | Error e -> Alcotest.fail (Engines.Report.error_to_string e)
  in
  (* out-of-memory inputs process far slower than a linear extrapolation *)
  let small = time 1024. and big = time 32768. in
  Alcotest.(check bool) "superlinear degradation" true (big > 8. *. small)

let test_report_sequence () =
  let bindings = [ ("r", kv_table sample_rows, 100.) ] in
  match run_engine Engines.Backend.Naiad (scan_graph "r") bindings with
  | None -> Alcotest.fail "naiad must run a scan"
  | Some (report, _) ->
    let total = Engines.Report.sequence [ report; report ] ~label:"two" in
    Alcotest.(check (float 1e-6)) "makespans add"
      (2. *. report.Engines.Report.makespan_s)
      total.Engines.Report.makespan_s;
    Alcotest.(check (float 1e-6)) "inputs add"
      (2. *. report.Engines.Report.input_mb)
      total.Engines.Report.input_mb

let test_breakdown_consistency () =
  (* every engine's reported makespan equals its breakdown total plus
     the per-iteration overhead term *)
  let edges, vertices =
    Workloads.Datagen.graph_tables Workloads.Datagen.orkut ~edges:()
  in
  let bindings =
    [ ("edges", edges.Workloads.Datagen.table, 512.);
      ("vertices", vertices.Workloads.Datagen.table, 32.) ]
  in
  let g = Workloads.Workflows.pagerank_gas ~iterations:3 () in
  List.iter
    (fun backend ->
       match run_engine backend g bindings with
       | None -> ()
       | Some (report, _) ->
         let total = Engines.Report.total report.Engines.Report.breakdown in
         Alcotest.(check bool)
           (Engines.Backend.name backend ^ " breakdown consistent")
           true
           (report.Engines.Report.makespan_s >= total -. 1e-6
            && report.Engines.Report.makespan_s <= total +. 1e-6
               +. (float_of_int (report.Engines.Report.iterations - 1)
                   *. 1000.)))
    Engines.Backend.extended

(* ---------------- faults (Table 3 FT column) ---------------- *)

let test_fault_recovery () =
  let bindings = [ ("r", kv_table sample_rows, 512.) ] in
  match run_engine Engines.Backend.Hadoop (scan_graph "r") bindings with
  | None -> Alcotest.fail "hadoop must run a scan"
  | Some (report, _) ->
    (* FT engine: bounded overhead; non-FT: full restart of done work *)
    let hadoop =
      Engines.Faults.failure_overhead Engines.Backend.Hadoop report
        ~at_fraction:0.5
    in
    Alcotest.(check bool) "hadoop recovers cheaply" true
      (hadoop > 1.0 && hadoop < 1.5);
    let metis =
      Engines.Faults.failure_overhead Engines.Backend.Metis report
        ~at_fraction:0.5
    in
    Alcotest.(check (float 1e-6)) "metis restarts" 1.5 metis;
    (* failing later costs a restarting engine more, an FT engine not *)
    let metis_late =
      Engines.Faults.failure_overhead Engines.Backend.Metis report
        ~at_fraction:0.9
    in
    Alcotest.(check bool) "later failure costs more without FT" true
      (metis_late > metis);
    Alcotest.check_raises "fraction range"
      (Invalid_argument "Faults.makespan_with_failure: fraction outside [0,1]")
      (fun () ->
         ignore
           (Engines.Faults.makespan_with_failure Engines.Backend.Hadoop report
              ~at_fraction:1.5))

(* regression: NaN slips through naive range checks because every
   comparison against it is false — the guard must reject it too *)
let test_fault_fraction_nan_rejected () =
  let bindings = [ ("r", kv_table sample_rows, 512.) ] in
  match run_engine Engines.Backend.Hadoop (scan_graph "r") bindings with
  | None -> Alcotest.fail "hadoop must run a scan"
  | Some (report, _) ->
    List.iter
      (fun bad ->
         Alcotest.check_raises
           (Printf.sprintf "rejects %f" bad)
           (Invalid_argument
              "Faults.makespan_with_failure: fraction outside [0,1]")
           (fun () ->
              ignore
                (Engines.Faults.makespan_with_failure Engines.Backend.Metis
                   report ~at_fraction:bad)))
      [ Float.nan; Float.neg_infinity; Float.infinity; -0.01 ]

let test_fault_plan_parser () =
  (match Engines.Faults.parse_plan ~seed:42 "worker@0.5" with
   | Ok p ->
     Alcotest.(check int) "seed" 42 p.Engines.Faults.seed;
     Alcotest.(check (float 0.)) "probability" 1. p.Engines.Faults.probability;
     (match p.Engines.Faults.faults with
      | [ Engines.Faults.Worker_failure { at_fraction } ] ->
        Alcotest.(check (float 0.)) "fraction" 0.5 at_fraction
      | _ -> Alcotest.fail "expected one worker failure")
   | Error e -> Alcotest.fail e);
  (match Engines.Faults.parse_plan "worker@0.25;oom;straggler*2:p=0.8" with
   | Ok p ->
     Alcotest.(check (float 0.)) "probability" 0.8 p.Engines.Faults.probability;
     Alcotest.(check int) "three faults" 3
       (List.length p.Engines.Faults.faults);
     (* the printable form parses back to the same plan *)
     Alcotest.(check string) "round-trips"
       (Engines.Faults.plan_to_string p)
       (match Engines.Faults.parse_plan (Engines.Faults.plan_to_string p) with
        | Ok p' -> Engines.Faults.plan_to_string p'
        | Error e -> e)
   | Error e -> Alcotest.fail e);
  (* surrounding whitespace is tolerated anywhere between tokens *)
  (match
     Engines.Faults.parse_plan "  worker@0.5 ; straggler* 2 :  p = 0.8  "
   with
   | Ok p ->
     Alcotest.(check (float 0.)) "ws probability" 0.8
       p.Engines.Faults.probability;
     (match p.Engines.Faults.faults with
      | [ Engines.Faults.Worker_failure _;
          Engines.Faults.Straggler { slowdown } ] ->
        Alcotest.(check (float 0.)) "ws slowdown" 2. slowdown
      | _ -> Alcotest.fail "expected worker + straggler")
   | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
       match Engines.Faults.parse_plan bad with
       | Ok _ -> Alcotest.failf "parser accepted %S" bad
       | Error _ -> ())
    [ ""; "worker@1.5"; "worker@nan"; "straggler*0.5"; "explode";
      "worker@0.5:p=2"; "worker@0.5:p=nan"; "straggler*inf";
      "straggler*-inf"; "straggler*nan"; "   " ];
  (* error messages name the offending token *)
  List.iter
    (fun (bad, token) ->
       match Engines.Faults.parse_plan bad with
       | Ok _ -> Alcotest.failf "parser accepted %S" bad
       | Error msg ->
         let contains s sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length s
             && (String.sub s i n = sub || go (i + 1))
           in
           go 0
         in
         if not (contains msg token) then
           Alcotest.failf "error for %S does not name %S: %s" bad token
             msg)
    [ ("worker@1.5", "worker@1.5");
      ("straggler*inf", "straggler*inf");
      ("straggler*0.5", "straggler*0.5");
      ("worker@0.25;straggler*oops", "straggler*oops");
      ("worker@0.5:p=2", "p=2") ]

(* ---------------- capabilities (Table 3) ---------------- *)

let test_capabilities () =
  Alcotest.(check int) "11 systems" 11 (List.length Engines.Capabilities.all);
  (* the paper's 7 + the two reproduction-extension engines *)
  Alcotest.(check int) "9 supported" 9
    (List.length Engines.Capabilities.supported);
  Alcotest.(check int) "7 paper engines" 7
    (List.length Engines.Backend.all);
  Alcotest.(check int) "9 extended" 9
    (List.length Engines.Backend.extended)

(* ---------------- extension engines (Giraph, X-Stream) ------------- *)

let test_extension_engines_run_pagerank () =
  let edges, vertices =
    Workloads.Datagen.graph_tables Workloads.Datagen.orkut ~edges:()
  in
  let bindings =
    [ ("edges", edges.Workloads.Datagen.table,
       edges.Workloads.Datagen.modeled_mb);
      ("vertices", vertices.Workloads.Datagen.table,
       vertices.Workloads.Datagen.modeled_mb) ]
  in
  let g = Workloads.Workflows.pagerank_gas ~iterations:2 () in
  let expected = List.assoc "vertices_final" (reference g bindings) in
  List.iter
    (fun backend ->
       match run_engine backend g bindings with
       | None ->
         Alcotest.fail
           (Engines.Backend.name backend ^ " must accept the GAS idiom")
       | Some (report, hdfs) ->
         Alcotest.(check bool)
           (Engines.Backend.name backend ^ " matches interp")
           true
           (Table.equal_unordered expected
              (Engines.Hdfs.table hdfs "vertices_final"));
         Alcotest.(check bool)
           (Engines.Backend.name backend ^ " positive makespan")
           true
           (report.Engines.Report.makespan_s > 0.))
    [ Engines.Backend.Giraph; Engines.Backend.X_stream ]

let test_giraph_trails_powergraph () =
  (* without a vertex-cut, Giraph ships the full message volume and
     should trail PowerGraph on a power-law graph at the same scale *)
  let edges, vertices =
    Workloads.Datagen.graph_tables Workloads.Datagen.twitter ~edges:()
  in
  let bindings =
    [ ("edges", edges.Workloads.Datagen.table,
       edges.Workloads.Datagen.modeled_mb);
      ("vertices", vertices.Workloads.Datagen.table,
       vertices.Workloads.Datagen.modeled_mb) ]
  in
  let g = Workloads.Workflows.pagerank_gas () in
  let time backend =
    let hdfs = hdfs_with bindings in
    let job = Engines.Job.make ~label:"pr" ~backend g in
    match
      Engines.Registry.run backend
        ~cluster:(Engines.Cluster.ec2 ~nodes:16) ~hdfs job
    with
    | Ok r -> r.Engines.Report.makespan_s
    | Error e -> Alcotest.fail (Engines.Report.error_to_string e)
  in
  Alcotest.(check bool) "PowerGraph beats Giraph" true
    (time Engines.Backend.Power_graph < time Engines.Backend.Giraph)

let test_extension_engines_reject_relational () =
  let scan = scan_graph "r" in
  List.iter
    (fun backend ->
       Alcotest.(check bool)
         (Engines.Backend.name backend ^ " rejects relational jobs")
         false (supports backend scan))
    [ Engines.Backend.Giraph; Engines.Backend.X_stream ]

(* ---------------- execute once, price per engine ---------------- *)

(* every bit of a report, or the error it became *)
let report_bits = function
  | Error e -> "error: " ^ Engines.Report.error_to_string e
  | Ok (r : Engines.Report.t) ->
    let b = r.Engines.Report.breakdown in
    String.concat " "
      ([ r.Engines.Report.job_label; Engines.Backend.name r.Engines.Report.backend;
         Printf.sprintf "%h" r.Engines.Report.makespan_s ]
       @ List.map
           (fun (name, v) -> Printf.sprintf "%s=%h" name v)
           (Engines.Report.breakdown_fields b)
       @ [ Printf.sprintf "in=%h out=%h it=%d" r.Engines.Report.input_mb
             r.Engines.Report.output_mb r.Engines.Report.iterations ]
       @ List.map
           (fun (id, mb) -> Printf.sprintf "%d:%h" id mb)
           r.Engines.Report.op_output_mb)

(* the zoo workflows on small samples of their CLI inputs *)
let zoo () =
  let module D = Workloads.Datagen in
  let module W = Workloads.Workflows in
  let pair (a, b) na nb = [ (na, a); (nb, b) ] in
  let graph () = D.graph_tables ~sample_vertices:60 D.orkut ~edges:() in
  [ ("tpch", W.tpch_q17 (),
     pair (D.tpch ~sample_rows:200 ~scale_factor:10 ()) "lineitem" "part");
    ("top-shopper", W.top_shopper (),
     [ ("purchases", D.purchases ~sample_rows:200 ~users:10_000_000 ()) ]);
    ("netflix", W.netflix (),
     pair (D.netflix ~sample_rows:200 ~movies:8000 ()) "ratings" "movies");
    ("pagerank", W.pagerank_gas (), pair (graph ()) "edges" "vertices");
    ("components", W.connected_components ~iterations:3 (),
     pair (graph ()) "edges" "vertices");
    ("cross-community", W.cross_community_pagerank (),
     pair (D.community_pair ~sample_vertices:60 ()) "edges_a" "edges_b");
    ("sssp", W.sssp ~max_rounds:3 (),
     pair (D.sssp_tables ~sample_vertices:60 D.twitter ()) "sssp_edges"
       "sssp_seeds");
    ("kmeans", W.kmeans ~iterations:2 (),
     pair (D.kmeans_points ~sample_rows:200 ~points:100_000_000 ~k:5 ())
       "points" "centroids");
    ("join", W.simple_join (),
     pair (D.asymmetric_join_tables ()) "left" "right");
    ("project", W.project_only (),
     [ ("lines", D.two_column_ascii ~sample_rows:200 ~modeled_mb:2048. ()) ])
  ]

(* For every job graph of the zoo's merged and unmerged plans, and every
   engine that can express it, [run] gives bit for bit the report of
   [execute] followed by [price]. Each chain of jobs advances on the
   engine it was planned for. *)
let test_run_is_execute_then_price () =
  let m = Musketeer.create ~cluster () in
  let compared = ref 0 in
  List.iter
    (fun (workflow, graph, inputs) ->
       List.iter
         (fun merging ->
            let hdfs = Engines.Hdfs.create () in
            List.iter (fun (r, s) -> Workloads.Datagen.put hdfs r s) inputs;
            match Musketeer.plan m ~merging ~workflow ~hdfs graph with
            | None -> Alcotest.failf "%s: no plan" workflow
            | Some (plan, g') ->
              List.iteri
                (fun i (planned, ids) ->
                   let jg = Musketeer.Jobgraph.extract g' ids in
                   let job backend =
                     (Musketeer.Codegen.generate
                        ~label:(Printf.sprintf "%s/job%d" workflow i)
                        ~backend jg)
                       .Musketeer.Codegen.job
                   in
                   if Engines.Registry.supports planned jg = Ok () then begin
                     let exec = Engines.Exec_helper.execute ~hdfs jg in
                     List.iter
                       (fun backend ->
                          if Engines.Registry.supports backend jg = Ok () then begin
                            incr compared;
                            let job = job backend in
                            Alcotest.(check string)
                              (Printf.sprintf "%s job %d on %s" workflow i
                                 (Engines.Backend.name backend))
                              (report_bits
                                 (Engines.Registry.price backend ~cluster job
                                    exec))
                              (report_bits
                                 (Engines.Registry.run backend ~cluster
                                    ~hdfs:(Engines.Hdfs.snapshot hdfs) job))
                          end)
                       Engines.Backend.extended;
                     ignore
                       (Engines.Registry.run planned ~cluster ~hdfs
                          (job planned))
                   end)
                plan.Musketeer.Partitioner.jobs)
         [ true; false ])
    (zoo ());
  Alcotest.(check bool)
    (Printf.sprintf "%d (job, engine) pairs compared" !compared)
    true (!compared >= 200)

(* The shared-scan waiver is decided when the job runs, not when it
   executes: given one share, two runs reading one relation charge its
   modeled MB once, while both executions report the full fetch. *)
let test_scan_waiver_at_run () =
  let hdfs = hdfs_with [ ("r", kv_table sample_rows, 64.) ] in
  let g = scan_graph "r" in
  let job = Engines.Job.make ~label:"scan" ~backend:Engines.Backend.Spark g in
  let share = Engines.Share.create () in
  let run () =
    let exec = Engines.Exec_helper.execute ~hdfs g in
    Alcotest.(check (list (pair string (float 0.)))) "fetches"
      [ ("r", 64.) ] exec.Engines.Exec_helper.scans;
    Alcotest.(check (float 0.)) "execution charges the fetch" 64.
      exec.Engines.Exec_helper.volumes.Engines.Perf.input_mb;
    match
      Engines.Registry.run ~share Engines.Backend.Spark ~cluster
        ~hdfs:(Engines.Hdfs.snapshot hdfs) job
    with
    | Ok r -> r.Engines.Report.input_mb
    | Error e -> Alcotest.fail (Engines.Report.error_to_string e)
  in
  Alcotest.(check (float 0.)) "first run pays" 64. (run ());
  Alcotest.(check (float 0.)) "second run rides free" 0. (run ());
  Alcotest.(check int) "one paid read" 1
    (Engines.Share.paid_reads share "r")

(* ---------------- properties ---------------- *)

let prop_makespan_monotone_in_input =
  QCheck.Test.make ~name:"makespan monotone in input volume" ~count:60
    (QCheck.pair (QCheck.float_range 1. 10000.) (QCheck.float_range 1. 10000.))
    (fun (a, b) ->
       let rates =
         { Engines.Perf.overhead_s = 1.; pull_mb_s = 100.;
           load_mb_s = None; process_mb_s = 100.; comm_mb_s = 100.;
           push_mb_s = 100.; iter_overhead_s = 0. }
       in
       let volumes mb =
         { Engines.Perf.zero_volumes with Engines.Perf.input_mb = mb }
       in
       let _, ta = Engines.Perf.makespan rates (volumes a)
       and _, tb = Engines.Perf.makespan rates (volumes b) in
       (a <= b) = (ta <= tb) || Float.abs (ta -. tb) < 1e-9)

let prop_engines_deterministic =
  QCheck.Test.make ~name:"engine runs are deterministic" ~count:20
    (QCheck.int_range 10 300) (fun n ->
      let rows = List.init n (fun i -> (i mod 7, i)) in
      let bindings = [ ("r", kv_table rows, 64.) ] in
      let g = scan_graph ~pred:Expr.(col "v" > int 3) "r" in
      match
        run_engine Engines.Backend.Hadoop g bindings,
        run_engine Engines.Backend.Hadoop g bindings
      with
      | Some (r1, _), Some (r2, _) ->
        r1.Engines.Report.makespan_s = r2.Engines.Report.makespan_s
      | _ -> false)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_makespan_monotone_in_input; prop_engines_deterministic ]

let () =
  Alcotest.run "engines"
    [ ( "hdfs",
        [ Alcotest.test_case "basics" `Quick test_hdfs_basics;
          Alcotest.test_case "snapshot" `Quick test_hdfs_snapshot_isolated;
          Alcotest.test_case "io accounting" `Quick test_hdfs_io_accounting ] );
      ("cluster", [ Alcotest.test_case "descriptors" `Quick test_cluster ]);
      ( "perf",
        [ Alcotest.test_case "makespan" `Quick test_perf_makespan;
          Alcotest.test_case "scaled" `Quick test_perf_scaled ] );
      ( "exec_helper",
        [ Alcotest.test_case "volume propagation" `Quick
            test_exec_volumes_propagation;
          Alcotest.test_case "iteration count" `Quick
            test_exec_iteration_count;
          Alcotest.test_case "missing relation" `Quick
            test_exec_missing_relation;
          Alcotest.test_case "shuffles/while" `Quick
            test_shuffle_count_and_while_detection;
          Alcotest.test_case "graph idiom" `Quick test_is_graph_idiom ] );
      ( "admission",
        [ Alcotest.test_case "matrix" `Quick test_admission_matrix;
          Alcotest.test_case "black box" `Quick test_black_box_admission ] );
      ( "engines",
        [ Alcotest.test_case "scan agrees with interp" `Quick
            test_engines_agree_with_interp;
          Alcotest.test_case "pagerank agrees with interp" `Quick
            test_iterative_engines_agree;
          Alcotest.test_case "spark oom" `Quick test_spark_oom;
          Alcotest.test_case "naiad stock vs optimized" `Quick
            test_naiad_modes_ordering;
          Alcotest.test_case "scan passes cost time" `Quick
            test_scan_passes_cost_time;
          Alcotest.test_case "metis memory cliff" `Quick
            test_metis_memory_cliff;
          Alcotest.test_case "report sequence" `Quick test_report_sequence ] );
      ( "capabilities",
        [ Alcotest.test_case "table 3" `Quick test_capabilities ] );
      ( "consistency",
        [ Alcotest.test_case "breakdown sums" `Quick
            test_breakdown_consistency ] );
      ( "faults",
        [ Alcotest.test_case "recovery model" `Quick test_fault_recovery;
          Alcotest.test_case "nan fraction rejected" `Quick
            test_fault_fraction_nan_rejected;
          Alcotest.test_case "fault plan parser" `Quick
            test_fault_plan_parser ] );
      ( "extensions",
        [ Alcotest.test_case "giraph/x-stream pagerank" `Quick
            test_extension_engines_run_pagerank;
          Alcotest.test_case "giraph vs powergraph" `Quick
            test_giraph_trails_powergraph;
          Alcotest.test_case "reject relational" `Quick
            test_extension_engines_reject_relational ] );
      ( "price",
        [ Alcotest.test_case "run = execute + price (zoo)" `Quick
            test_run_is_execute_then_price;
          Alcotest.test_case "scan waiver at run" `Quick
            test_scan_waiver_at_run ] );
      ("properties", qcheck_cases) ]
