(* Operator fusion: the planner's chain/barrier rules, and the promise
   that fused execution is invisible except in cost — every output
   relation byte-identical to the unfused path, with shared scans
   charging each HDFS relation once. *)

let with_fusion enabled f =
  Ir.Fusion.set_enabled (Some enabled);
  Fun.protect ~finally:(fun () -> Ir.Fusion.set_enabled None) f

(* ---- planner unit tests ---- *)

let test_plan_chain () =
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r" in
  let s = Ir.Builder.select b ~pred:Relation.Expr.(col "v" > int 10) r in
  let m =
    Ir.Builder.map b ~target:"v" ~expr:Relation.Expr.(col "v" + int 1) s
  in
  let p = Ir.Builder.project b ~name:"out" ~columns:[ "k"; "v" ] m in
  let g = Ir.Builder.finish b ~outputs:[ p ] in
  let plan = Ir.Fusion.plan g in
  match Ir.Fusion.chains plan with
  | [ c ] ->
    Alcotest.(check int) "source is the input" (Ir.Builder.id r) c.source;
    Alcotest.(check (list int))
      "members in dataflow order"
      [ Ir.Builder.id s; Ir.Builder.id m; Ir.Builder.id p ]
      c.members;
    let interior id =
      match Ir.Fusion.role plan id with
      | Ir.Fusion.Interior _ -> true
      | _ -> false
    in
    Alcotest.(check bool) "select is interior" true
      (interior (Ir.Builder.id s));
    Alcotest.(check bool) "map is interior" true (interior (Ir.Builder.id m));
    (match Ir.Fusion.role plan (Ir.Builder.id p) with
     | Ir.Fusion.Tail _ -> ()
     | _ -> Alcotest.fail "project should be the chain tail")
  | cs ->
    Alcotest.failf "expected exactly one chain, got %d" (List.length cs)

let test_multi_consumer_barrier () =
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r" in
  let s = Ir.Builder.select b ~pred:Relation.Expr.(col "v" > int 10) r in
  let m =
    Ir.Builder.map b ~target:"v" ~expr:Relation.Expr.(col "v" + int 1) s
  in
  let p = Ir.Builder.project b ~name:"out" ~columns:[ "k" ] s in
  let g = Ir.Builder.finish b ~outputs:[ m; p ] in
  Alcotest.(check int)
    "a two-consumer node heads no chain" 0
    (List.length (Ir.Fusion.chains (Ir.Fusion.plan g)))

let test_output_barrier () =
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r" in
  let s = Ir.Builder.select b ~pred:Relation.Expr.(col "v" > int 10) r in
  let m =
    Ir.Builder.map b ~target:"v" ~expr:Relation.Expr.(col "v" + int 1) s
  in
  let g = Ir.Builder.finish b ~outputs:[ s; m ] in
  Alcotest.(check int)
    "a workflow output cannot be fused away" 0
    (List.length (Ir.Fusion.chains (Ir.Fusion.plan g)))

let test_protected_name_barrier () =
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r" in
  let s =
    Ir.Builder.select b ~name:"cond"
      ~pred:Relation.Expr.(col "v" > int 10)
      r
  in
  let m =
    Ir.Builder.map b ~name:"out" ~target:"v"
      ~expr:Relation.Expr.(col "v" + int 1)
      s
  in
  let g = Ir.Builder.finish b ~outputs:[ m ] in
  Alcotest.(check int)
    "without protection the pair fuses" 1
    (List.length (Ir.Fusion.chains (Ir.Fusion.plan g)));
  Alcotest.(check int)
    "protecting the interior's name blocks the chain" 0
    (List.length (Ir.Fusion.chains (Ir.Fusion.plan ~protect:[ "cond" ] g)))

let test_while_body_plan () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b "x" in
  let s = Ir.Builder.select b ~pred:Relation.Expr.(col "k" > int (-1)) x in
  let m =
    Ir.Builder.map b ~target:"v" ~expr:Relation.Expr.(col "v" + int 1) s
  in
  let o = Ir.Builder.select b ~name:"x"
      ~pred:Relation.Expr.(col "k" > int (-1))
      m
  in
  let body = Ir.Builder.finish_body b ~outputs:[ o ] ~loop_carried:[ "x" ] in
  match Ir.Fusion.chains (Ir.Fusion.plan body) with
  | [ c ] ->
    Alcotest.(check int) "three fused ops inside the loop body" 3
      (List.length c.members)
  | cs ->
    Alcotest.failf "expected one chain in the body, got %d" (List.length cs)

(* ---- fused execution is byte-identical ---- *)

let kv_schema =
  Relation.Schema.make
    [ { Relation.Schema.name = "k"; ty = Relation.Value.Tint };
      { Relation.Schema.name = "v"; ty = Relation.Value.Tint } ]

let kv_table rows =
  Relation.Table.create_unchecked kv_schema
    (Array.of_list
       (List.map
          (fun (k, v) -> [| Relation.Value.Int k; Relation.Value.Int v |])
          rows))

let chain_graph () =
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r" in
  let s = Ir.Builder.select b ~pred:Relation.Expr.(col "v" > int 10) r in
  let m =
    Ir.Builder.map b ~target:"v" ~expr:Relation.Expr.(col "v" * int 2) s
  in
  let p = Ir.Builder.project b ~name:"out" ~columns:[ "v" ] m in
  Ir.Builder.finish b ~outputs:[ p ]

let outputs_csv (r : Engines.Exec_helper.result) =
  String.concat "----\n"
    (List.map
       (fun (name, t, _) -> name ^ ":\n" ^ Relation.Table.to_csv t)
       r.Engines.Exec_helper.outputs)

let exec_csv ~fusion hdfs g =
  with_fusion fusion @@ fun () ->
  outputs_csv (Engines.Exec_helper.execute ~hdfs g)

let hdfs_with rows =
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.put hdfs "r" ~modeled_mb:64. (kv_table rows);
  hdfs

let test_empty_table () =
  let hdfs = hdfs_with [] in
  let g = chain_graph () in
  Alcotest.(check string)
    "empty input: fused = unfused"
    (exec_csv ~fusion:false hdfs g)
    (exec_csv ~fusion:true hdfs g)

let test_large_chain () =
  (* a 2000-row chain: the fused pass over a large input matches the
     unfused one *)
  let rows = List.init 2000 (fun i -> (i mod 17, (i * 13) mod 200)) in
  let hdfs = hdfs_with rows in
  let g = chain_graph () in
  Alcotest.(check string)
    "fused matches unfused"
    (exec_csv ~fusion:false hdfs g)
    (exec_csv ~fusion:true hdfs g)

let test_while_fused () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b "x" in
  let s = Ir.Builder.select b ~pred:Relation.Expr.(col "k" > int (-1)) x in
  let m =
    Ir.Builder.map b ~target:"v" ~expr:Relation.Expr.(col "v" + int 1) s
  in
  let o = Ir.Builder.select b ~name:"x"
      ~pred:Relation.Expr.(col "k" > int (-1))
      m
  in
  let body = Ir.Builder.finish_body b ~outputs:[ o ] ~loop_carried:[ "x" ] in
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r" in
  let loop =
    Ir.Builder.while_ b ~name:"out"
      ~condition:(Ir.Operator.Fixed_iterations 3) ~max_iterations:4 ~body
      [ r ]
  in
  let g = Ir.Builder.finish b ~outputs:[ loop ] in
  let hdfs = hdfs_with [ (1, 10); (2, 20); (3, 30) ] in
  Alcotest.(check string)
    "WHILE with fused body = unfused"
    (exec_csv ~fusion:false hdfs g)
    (exec_csv ~fusion:true hdfs g)

(* ---- shared scans ---- *)

let shared_scan_graph () =
  let b = Ir.Builder.create () in
  let left =
    Ir.Builder.project b ~columns:[ "k" ]
      (Ir.Builder.select b
         ~pred:Relation.Expr.(col "v" > int 15)
         (Ir.Builder.input b "r"))
  in
  let right =
    Ir.Builder.project b ~columns:[ "k" ]
      (Ir.Builder.select b
         ~pred:Relation.Expr.(col "v" < int 15)
         (Ir.Builder.input b "r"))
  in
  let u = Ir.Builder.union b ~name:"out" left right in
  Ir.Builder.finish b ~outputs:[ u ]

let test_shared_scan_volumes () =
  let g = shared_scan_graph () in
  let rows = [ (1, 10); (2, 20); (3, 30); (4, 5) ] in
  let input_mb fusion =
    with_fusion fusion @@ fun () ->
    let hdfs = hdfs_with rows in
    let r = Engines.Exec_helper.execute ~hdfs g in
    r.Engines.Exec_helper.volumes.Engines.Perf.input_mb
  in
  Alcotest.(check (float 0.001))
    "unfused charges the relation per INPUT node" 128. (input_mb false);
  Alcotest.(check (float 0.001))
    "fused charges one shared scan" 64. (input_mb true);
  let shared_before =
    Obs.Metrics.counter Obs.Metrics.default "scan.shared"
  in
  let hdfs = hdfs_with rows in
  let fused_csv =
    with_fusion true (fun () ->
        outputs_csv (Engines.Exec_helper.execute ~hdfs g))
  in
  let unfused_csv =
    with_fusion false (fun () ->
        outputs_csv (Engines.Exec_helper.execute ~hdfs g))
  in
  Alcotest.(check string) "shared scan changes no bytes" unfused_csv
    fused_csv;
  Alcotest.(check bool) "scan.shared counter incremented" true
    (Obs.Metrics.counter Obs.Metrics.default "scan.shared" > shared_before)

let test_one_hdfs_read () =
  let g = shared_scan_graph () in
  let hdfs = hdfs_with [ (1, 10); (2, 20); (3, 30) ] in
  let m = Musketeer.create ~cluster:Engines.Cluster.local_seven () in
  with_fusion true @@ fun () ->
  match
    Musketeer.plan m
      ~backends:[ Engines.Backend.Serial_c ]
      ~workflow:"shared" ~hdfs g
  with
  | None -> Alcotest.fail "Serial_c rejected the shared-scan workflow"
  | Some (plan, g') -> (
    match
      Musketeer.execute_plan ~record_history:false m ~workflow:"shared"
        ~hdfs ~graph:g' plan
    with
    | Error e ->
      Alcotest.failf "execution failed: %s"
        (Engines.Report.error_to_string e)
    | Ok _ ->
      Alcotest.(check (float 0.001))
        "the 64 MB relation is read exactly once" 64.
        (Engines.Hdfs.total_read_mb hdfs))

(* ---- fusion metrics ---- *)

let test_fusion_metrics () =
  let hdfs = hdfs_with (List.init 50 (fun i -> (i, i * 3))) in
  let g = chain_graph () in
  let metrics = Obs.Metrics.default in
  let chains0 = Obs.Metrics.counter metrics "fusion.chains" in
  let ops0 = Obs.Metrics.counter metrics "fusion.ops_fused" in
  let saved0 =
    Option.value ~default:0.
      (Obs.Metrics.gauge metrics "fusion.intermediate_mb_saved")
  in
  ignore (with_fusion true (fun () -> Engines.Exec_helper.execute ~hdfs g));
  Alcotest.(check int) "one chain fused" 1
    (Obs.Metrics.counter metrics "fusion.chains" - chains0);
  Alcotest.(check int) "three ops fused" 3
    (Obs.Metrics.counter metrics "fusion.ops_fused" - ops0);
  Alcotest.(check bool) "intermediate MB saved reported" true
    (Option.value ~default:0.
       (Obs.Metrics.gauge metrics "fusion.intermediate_mb_saved")
     > saved0)

(* ---- differential property over generated pipelines ----

   The full planning + engine execution path: a random kv pipeline is
   planned and executed with fusion off (reference), then with fusion
   on. The "out" relation must be byte-identical — same rows, same
   order. *)

let cluster = Engines.Cluster.local_seven

let m = Musketeer.create ~cluster ()

let run_spec ~fusion spec =
  with_fusion fusion @@ fun () ->
  let hdfs = Qcheck_lite.hdfs_of_spec spec in
  let graph = Qcheck_lite.graph_of_spec spec in
  match
    Musketeer.plan m
      ~backends:[ Engines.Backend.Spark ]
      ~workflow:"fusion-diff" ~hdfs graph
  with
  | None -> failwith "Spark rejected the generated pipeline"
  | Some (plan, g') -> (
    match
      Musketeer.execute_plan ~record_history:false m ~workflow:"fusion-diff"
        ~hdfs ~graph:g' plan
    with
    | Error e ->
      failwith
        (Printf.sprintf "execution failed: %s"
           (Engines.Report.error_to_string e))
    | Ok result -> (
      match List.assoc_opt "out" result.Musketeer.Executor.outputs with
      | Some t -> Relation.Table.to_csv t
      | None -> failwith "no \"out\" relation"))

let fused_invariant spec =
  let reference = run_spec ~fusion:false spec in
  run_spec ~fusion:true spec = reference

let seed =
  match Option.bind (Sys.getenv_opt "MUSKETEER_TEST_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 1717

let test_fused_differential () =
  try
    Qcheck_lite.check ~count:25 ~seed ~name:"fused = unfused"
      Qcheck_lite.spec_arbitrary fused_invariant
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

let () =
  Alcotest.run "fusion"
    [ ("planner",
       [ Alcotest.test_case "select-map-project chains" `Quick
           test_plan_chain;
         Alcotest.test_case "multi-consumer interior is a barrier" `Quick
           test_multi_consumer_barrier;
         Alcotest.test_case "workflow-output interior is a barrier" `Quick
           test_output_barrier;
         Alcotest.test_case "protected names block fusion" `Quick
           test_protected_name_barrier;
         Alcotest.test_case "WHILE bodies plan their own chains" `Quick
           test_while_body_plan ]);
      ("execution",
       [ Alcotest.test_case "empty table" `Quick test_empty_table;
         Alcotest.test_case "chunked fused pass at jobs=4" `Quick
           test_large_chain;
         Alcotest.test_case "WHILE with fused body" `Quick test_while_fused;
         Alcotest.test_case "shared scan halves input volume" `Quick
           test_shared_scan_volumes;
         Alcotest.test_case "planned run reads HDFS once" `Quick
           test_one_hdfs_read;
         Alcotest.test_case "fusion metrics" `Quick test_fusion_metrics ]);
      ("differential",
       [ Alcotest.test_case "generated pipelines fused = unfused" `Slow
           test_fused_differential ]) ]
