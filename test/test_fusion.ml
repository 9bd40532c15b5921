(* Operator fusion: the planner's chain/barrier rules, and the promise
   that merged pricing is invisible except in cost — every output
   relation byte-identical to the row oracle, with shared scans
   charging each HDFS relation once. *)

let seed =
  match Option.bind (Sys.getenv_opt "MUSKETEER_TEST_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 1717

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

(* JOIN → SELECT (or MAP) → PROJECT; the JOIN may also be an output or
   feed a second consumer. A JOIN whose table only its SELECT sees
   heads the chain, and a lone SELECT after it makes a two-member
   chain. *)
let join_graph ?(join_is_output = false) ?(second_consumer = false)
    ?(after = `Select) () =
  let b = Ir.Builder.create () in
  let l = Ir.Builder.input b "l" and r = Ir.Builder.input b "r" in
  let j = Ir.Builder.join b ~name:"j" ~left_key:"k" ~right_key:"k2" l r in
  let s =
    match after with
    | `Select -> Ir.Builder.select b ~pred:Relation.Expr.(col "v" > int 10) j
    | `Map ->
      Ir.Builder.map b ~target:"v" ~expr:Relation.Expr.(col "v" + int 1) j
  in
  let p = Ir.Builder.project b ~name:"out" ~columns:[ "k" ] s in
  let outputs =
    (if join_is_output then [ j ] else [])
    @ (if second_consumer then [ Ir.Builder.project b ~columns:[ "k" ] j ]
       else [])
    @ [ p ]
  in
  (Ir.Builder.finish b ~outputs, Ir.Builder.id j, Ir.Builder.id s,
   Ir.Builder.id p)

let test_plan_join_head () =
  let g, j, s, p = join_graph () in
  let plan = Ir.Fusion.plan g in
  (match Ir.Fusion.chains plan with
   | [ c ] ->
     Alcotest.(check bool) "JOIN-headed" true c.join_head;
     Alcotest.(check (list int)) "members" [ j; s; p ] c.members;
     Alcotest.(check (list int)) "row-local members" [ s; p ]
       (Ir.Fusion.row_local c)
   | cs -> Alcotest.failf "expected one chain, got %d" (List.length cs));
  (match Ir.Fusion.role plan j with
   | Ir.Fusion.Head _ -> ()
   | _ -> Alcotest.fail "the JOIN should head the chain");
  (match Ir.Fusion.role plan s with
   | Ir.Fusion.Interior _ -> ()
   | _ -> Alcotest.fail "the SELECT should be interior");
  (* a lone SELECT after the JOIN *)
  let b = Ir.Builder.create () in
  let j =
    Ir.Builder.join b ~left_key:"k" ~right_key:"k2" (Ir.Builder.input b "l")
      (Ir.Builder.input b "r")
  in
  let s =
    Ir.Builder.select b ~name:"out" ~pred:Relation.Expr.(col "v" > int 10) j
  in
  let g = Ir.Builder.finish b ~outputs:[ s ] in
  match Ir.Fusion.chains (Ir.Fusion.plan g) with
  | [ c ] ->
    Alcotest.(check (list int)) "JOIN + lone SELECT"
      [ Ir.Builder.id j; Ir.Builder.id s ] c.members
  | cs -> Alcotest.failf "expected one chain, got %d" (List.length cs)

let test_join_head_barriers () =
  let join_heads ?protect g =
    List.length
      (List.filter
         (fun (c : Ir.Fusion.chain) -> c.join_head)
         (Ir.Fusion.chains (Ir.Fusion.plan ?protect g)))
  in
  let g, _, _, _ = join_graph ~join_is_output:true () in
  Alcotest.(check int) "a JOIN that is an output" 0 (join_heads g);
  let g, _, _, _ = join_graph ~second_consumer:true () in
  Alcotest.(check int) "a JOIN with two consumers" 0 (join_heads g);
  let g, _, _, _ = join_graph ~after:`Map () in
  Alcotest.(check int) "a JOIN followed by a MAP" 0 (join_heads g);
  let g, _, _, _ = join_graph () in
  Alcotest.(check int) "a protected JOIN" 0 (join_heads ~protect:[ "j" ] g);
  Alcotest.(check int) "an unprotected JOIN" 1 (join_heads g)

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

let outputs_csv outputs =
  String.concat "----\n"
    (List.map (fun (name, t) -> name ^ ":\n" ^ Relation.Table.to_csv t) outputs)

let exec_csv hdfs g =
  outputs_csv
    (List.map
       (fun (name, t, _) -> (name, t))
       (Engines.Exec_helper.execute ~hdfs g).Engines.Exec_helper.outputs)

(* the row oracle: the reference interpreter on the row kernels *)
let oracle_csv hdfs g =
  let store =
    Ir.Interp.store_of_list
      (List.map
         (fun r -> (r, Engines.Hdfs.table hdfs r))
         (Engines.Hdfs.list hdfs))
  in
  Relation.Column.with_enabled false @@ fun () ->
  outputs_csv (Ir.Interp.outputs ~store g)

let hdfs_with rows =
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.put hdfs "r" ~modeled_mb:64. (kv_table rows);
  hdfs

let test_empty_table () =
  let hdfs = hdfs_with [] in
  let g = chain_graph () in
  Alcotest.(check string)
    "empty input: fused = row oracle" (oracle_csv hdfs g) (exec_csv hdfs g)

let test_large_chain () =
  (* a 2000-row chain: merged pricing changes no output *)
  let rows = List.init 2000 (fun i -> (i mod 17, (i * 13) mod 200)) in
  let hdfs = hdfs_with rows in
  let g = chain_graph () in
  Alcotest.(check string)
    "fused matches the row oracle" (oracle_csv hdfs g) (exec_csv hdfs g)

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
    "WHILE with fused body = row oracle" (oracle_csv hdfs g)
    (exec_csv hdfs g)

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
  let hdfs = hdfs_with [ (1, 10); (2, 20); (3, 30); (4, 5) ] in
  let shared_before =
    Obs.Metrics.counter Obs.Metrics.default "scan.shared"
  in
  let r = Engines.Exec_helper.execute ~hdfs g in
  Alcotest.(check (float 0.001))
    "one shared scan" 64. r.Engines.Exec_helper.volumes.Engines.Perf.input_mb;
  Alcotest.(check string) "shared scan changes no bytes" (oracle_csv hdfs g)
    (exec_csv hdfs g);
  Alcotest.(check bool) "scan.shared counter incremented" true
    (Obs.Metrics.counter Obs.Metrics.default "scan.shared" > shared_before)

let test_one_hdfs_read () =
  let g = shared_scan_graph () in
  let hdfs = hdfs_with [ (1, 10); (2, 20); (3, 30) ] in
  let m = Musketeer.create ~cluster:Engines.Cluster.local_seven () in
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

(* Merged pricing = row oracle at NetFlix scale: a select→map→project
   chain and a two-branch shared scan over 400,000 ratings. The shared
   scan charges the relation once. *)
let test_ratings_identity () =
  let open Relation in
  let ratings =
    let schema =
      Schema.make
        [ { Schema.name = "user"; ty = Value.Tint };
          { Schema.name = "movie"; ty = Value.Tint };
          { Schema.name = "rating"; ty = Value.Tint } ]
    in
    Table.create_unchecked schema
      (Array.init 400_000 (fun i ->
           [| Value.Int (i * 7919 mod 480_189);
              Value.Int (i * 104_729 mod 17_000);
              Value.Int (1 + (i * 31 mod 5)) |]))
  in
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.put hdfs "ratings" ratings;
  let chain =
    let b = Ir.Builder.create () in
    let r = Ir.Builder.input b "ratings" in
    let s = Ir.Builder.select b ~pred:Expr.(col "rating" >= int 2) r in
    let m =
      Ir.Builder.map b ~target:"centered" ~expr:Expr.(col "rating" - int 3) s
    in
    let p =
      Ir.Builder.project b ~name:"out" ~columns:[ "user"; "centered" ] m
    in
    Ir.Builder.finish b ~outputs:[ p ]
  in
  let shared =
    let b = Ir.Builder.create () in
    let branch pred =
      Ir.Builder.project b ~columns:[ "user" ]
        (Ir.Builder.select b ~pred (Ir.Builder.input b "ratings"))
    in
    let lovers = branch Expr.(col "rating" >= int 4) in
    let haters = branch Expr.(col "rating" <= int 1) in
    let u = Ir.Builder.union b ~name:"out" lovers haters in
    Ir.Builder.finish b ~outputs:[ u ]
  in
  List.iter
    (fun (name, g) ->
       Alcotest.(check string) (name ^ ": fused = row oracle")
         (oracle_csv hdfs g) (exec_csv hdfs g))
    [ ("chain", chain); ("shared-scan", shared) ];
  let r = Engines.Exec_helper.execute ~hdfs shared in
  let input_mb = r.volumes.Engines.Perf.input_mb in
  Alcotest.(check (float 0.)) "shared-scan input MB counted once"
    (Engines.Hdfs.modeled_mb hdfs "ratings") input_mb

(* k-means' loop body holds one arg-min diamond, nodes 2-8 of
   [plan -w kmeans]; making [d] visible outside the shape, or comparing
   [dist] with [bd] any other way than [=], leaves none *)
let test_plan_argmin () =
  let body =
    match
      List.find_map
        (fun (n : Ir.Operator.node) ->
           match n.kind with
           | Ir.Operator.While { body; _ } -> Some body
           | _ -> None)
        (Workloads.Workflows.kmeans ()).nodes
    with
    | Some body -> body
    | None -> Alcotest.fail "k-means has no WHILE"
  in
  let diamonds ?protect g = Ir.Fusion.argmins (Ir.Fusion.plan ?protect g) in
  (match diamonds body with
   | [ a ] ->
     Alcotest.(check (list int)) "members" [ 2; 3; 4; 7; 8 ]
       [ a.cross; a.map; a.group; a.join; a.select ];
     Alcotest.(check (list string)) "target, key, MIN, MIN as best reads it"
       [ "dist"; "pid"; "bd"; "bd" ]
       [ a.target; a.key; a.min_as; a.min_column ]
   | ds -> Alcotest.failf "expected one diamond, got %d" (List.length ds));
  Alcotest.(check int) "d is an output" 0
    (List.length (diamonds { body with outputs = 3 :: body.outputs }));
  Alcotest.(check int) "d is protected" 0
    (List.length (diamonds ~protect:[ "d" ] body));
  let strict =
    List.map
      (fun (n : Ir.Operator.node) ->
         if n.id = 8 then
           { n with
             kind = Ir.Operator.Select { pred = Relation.Expr.(col "dist" < col "bd") } }
         else n)
      body.nodes
  in
  Alcotest.(check int) "SELECT dist < bd" 0
    (List.length (diamonds { body with nodes = strict }))

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
  ignore (Engines.Exec_helper.execute ~hdfs g);
  Alcotest.(check int) "one chain fused" 1
    (Obs.Metrics.counter metrics "fusion.chains" - chains0);
  Alcotest.(check int) "three ops fused" 3
    (Obs.Metrics.counter metrics "fusion.ops_fused" - ops0);
  Alcotest.(check bool) "intermediate MB saved reported" true
    (Option.value ~default:0.
       (Obs.Metrics.gauge metrics "fusion.intermediate_mb_saved")
     > saved0)

(* ---- JOIN-headed chains ----

   A JOIN head runs with its SELECT as one kernel, but it is priced as
   the solo JOIN and its row-local members as the chain they were
   before: every op_stat and volume below was captured, as [%h]
   strings, with the JOIN materialized. *)

let stat_lines (r : Engines.Exec_helper.result) =
  List.map
    (fun (s : Engines.Exec_helper.op_stat) ->
       Printf.sprintf "%d %s %h %h" s.node_id s.kind_name s.in_mb s.out_mb)
    r.op_stats
  @ [ Printf.sprintf "process %h comm %h output %h"
        r.volumes.Engines.Perf.process_mb r.volumes.Engines.Perf.comm_mb
        r.volumes.Engines.Perf.output_mb ]

let join_select_graph () =
  let open Relation in
  let b = Ir.Builder.create () in
  let l = Ir.Builder.input b "l" and r = Ir.Builder.input b "r" in
  let j = Ir.Builder.join b ~left_key:"k" ~right_key:"k2" l r in
  let s = Ir.Builder.select b ~pred:Expr.(col "a" > col "c") j in
  let p = Ir.Builder.project b ~name:"out" ~columns:[ "k"; "s"; "c" ] s in
  Ir.Builder.finish b ~outputs:[ p ]

(* duplicate keys on both sides, unmatched rows on both, and a string
   column whose dictionary is smaller than the pair count *)
let join_select_hdfs () =
  let open Relation in
  let table cols n row =
    Table.create_unchecked
      (Schema.make (List.map (fun (name, ty) -> { Schema.name; ty }) cols))
      (Array.init n row)
  in
  let l =
    table [ ("k", Value.Tint); ("a", Value.Tint); ("s", Value.Tstring) ] 300
      (fun i ->
         [| Value.Int (i mod 37); Value.Int (i * 7 mod 50);
            Value.Str (Printf.sprintf "s%d" (i mod 5)) |])
  and r =
    table [ ("k2", Value.Tint); ("c", Value.Tint); ("f", Value.Tfloat) ] 120
      (fun i ->
         [| Value.Int (i * 3 mod 41); Value.Int (i * 11 mod 50);
            Value.Float (float_of_int i /. 4.) |])
  in
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.put hdfs "l" ~modeled_mb:48. l;
  Engines.Hdfs.put hdfs "r" ~modeled_mb:16. r;
  hdfs

let kmeans_hdfs () = Experiments.Common.load_kmeans ~points:100_000_000 ~k:100

let kmeans_pins =
  [ "2 CROSS 0x1.1e1a42cp+11 0x1.9ca5e04627627p+18";
    "3 MAP 0x1.9ca5e04627627p+18 0x1.e16c3051d89d9p+18";
    "4 GROUP BY 0x1.e16c3051d89d9p+18 0x1.6020522762763p+10";
    "5 MAP 0x1.6020522762763p+10 0x1.94f1f813b13b1p+10";
    "6 PROJECT 0x1.94f1f813b13b1p+10 0x1.6020522762763p+10";
    "7 JOIN 0x1.e2cc50a4p+18 0x1.1319402ec4ec5p+19";
    "8 SELECT 0x1.1319402ec4ec5p+19 0x1.1319402ec4ec5p+18";
    "9 PROJECT 0x1.1319402ec4ec5p+18 0x1.6020522762763p+11";
    "10 GROUP BY 0x1.6020522762763p+11 0x1.6020522762763p+10";
    "11 JOIN 0x1.ce2a5913b13b2p+11 0x1.71bb7a7627628p+11";
    "12 GROUP BY 0x1.71bb7a7627628p+11 0x1.71bb7a7627628p+7";
    "2 CROSS 0x1.3535e7a762762p+11 0x1.bdfa0e1dba51cp+18";
    "3 MAP 0x1.bdfa0e1dba51cp+18 0x1.042732e6acafbp+19";
    "4 GROUP BY 0x1.042732e6acafbp+19 0x1.7c911d1cc7f3dp+10";
    "5 MAP 0x1.7c911d1cc7f3dp+10 0x1.b5a6e17ab2becp+10";
    "6 PROJECT 0x1.b5a6e17ab2becp+10 0x1.7c911d1cc7f3dp+10";
    "7 JOIN 0x1.04e57b753b13bp+19 0x1.29515ebe7c369p+19";
    "8 SELECT 0x1.29515ebe7c369p+19 0x1.29515ebe7c369p+18";
    "9 PROJECT 0x1.29515ebe7c369p+18 0x1.7c911d1cc7f3fp+11";
    "10 GROUP BY 0x1.7c911d1cc7f3fp+11 0x1.7c911d1cc7f3fp+10";
    "11 JOIN 0x1.dc62be8e63fap+11 0x1.7d1bcba51cc8p+11";
    "12 GROUP BY 0x1.7d1bcba51cc8p+11 0x1.7d1bcba51cc8p+7";
    "2 CROSS 0x1.35ebecba51cc8p+11 0x1.bf00956f310e5p+18";
    "3 MAP 0x1.bf00956f310e5p+18 0x1.04c0572b87486p+19";
    "4 GROUP BY 0x1.04c0572b87486p+19 0x1.7d71235b785e3p+10";
    "5 MAP 0x1.7d71235b785e3p+10 0x1.b6a88242ca6c4p+10";
    "6 PROJECT 0x1.b6a88242ca6c4p+10 0x1.7d71235b785e3p+10";
    "7 JOIN 0x1.057f0fbd35049p+19 0x1.2a00639f76099p+19";
    "8 SELECT 0x1.2a00639f76099p+19 0x1.2a00639f76099p+18";
    "9 PROJECT 0x1.2a00639f76099p+18 0x1.7d71235b785e3p+11";
    "10 GROUP BY 0x1.7d71235b785e3p+11 0x1.7d71235b785e3p+10";
    "11 JOIN 0x1.dcd2c1adbc2f2p+11 0x1.7d7567be3025cp+11";
    "12 GROUP BY 0x1.7d7567be3025cp+11 0x1.7d7567be3025cp+7";
    "2 CROSS 0x1.35f1867be3026p+11 0x1.bf08a95a11437p+18";
    "3 MAP 0x1.bf08a95a11437p+18 0x1.04c50d748a12p+19";
    "4 GROUP BY 0x1.04c50d748a12p+19 0x1.7d7807faf002fp+10";
    "5 MAP 0x1.7d7807faf002fp+10 0x1.b6b06f93c7369p+10";
    "6 PROJECT 0x1.b6b06f93c7369p+10 0x1.7d7807faf002fp+10";
    "7 JOIN 0x1.0583c978878ap+19 0x1.2a05c63c0b825p+19";
    "8 SELECT 0x1.2a05c63c0b825p+19 0x1.2a05c63c0b825p+18";
    "9 PROJECT 0x1.2a05c63c0b825p+18 0x1.7d7807faf002fp+11";
    "10 GROUP BY 0x1.7d7807faf002fp+11 0x1.7d7807faf002fp+10";
    "11 JOIN 0x1.dcd633fd78018p+11 0x1.7d78299793347p+11";
    "12 GROUP BY 0x1.7d78299793347p+11 0x1.7d78299793347p+7";
    "2 CROSS 0x1.35f1b29979334p+11 0x1.bf08e8fae4f64p+18";
    "3 MAP 0x1.bf08e8fae4f64p+18 0x1.04c532925ae5p+19";
    "4 GROUP BY 0x1.04c532925ae5p+19 0x1.7d783e46bc8dep+10";
    "5 MAP 0x1.7d783e46bc8dep+10 0x1.b6b0ae048c098p+10";
    "6 PROJECT 0x1.b6b0ae048c098p+10 0x1.7d783e46bc8dep+10";
    "7 JOIN 0x1.0583eeb17e434p+19 0x1.2a05f0a7434edp+19";
    "8 SELECT 0x1.2a05f0a7434edp+19 0x1.2a05f0a7434edp+18";
    "9 PROJECT 0x1.2a05f0a7434edp+18 0x1.7d783e46bc8dep+11";
    "10 GROUP BY 0x1.7d783e46bc8dep+11 0x1.7d783e46bc8dep+10";
    "11 JOIN 0x1.dcd64f235e46fp+11 0x1.7d783f4f7e9f3p+11";
    "12 GROUP BY 0x1.7d783f4f7e9f3p+11 0x1.7d783f4f7e9f3p+7";
    "process 0x1.b44f45427612ep+23 comm 0x1.44fd993198961p+22 \
     output 0x1.7d783f4f7e9f3p+7" ]

let join_select_pins =
  [ "2 JOIN 0x1p+6 0x1.ca2aa6fb98bc9p+7";
    "3 SELECT 0x1.ca2aa6fb98bc9p+7 0x1.ca2aa6fb98bc9p+6";
    "4 PROJECT 0x1.ca2aa6fb98bc9p+6 0x1.11d7fed94a65ap+6";
    "process 0x1.584886b0ff918p+8 comm 0x1p+6 output 0x1.11d7fed94a65ap+6" ]

let test_join_head_pricing () =
  let check name pins hdfs g =
    Alcotest.(check (list string)) (name ^ " op_stats") pins
      (stat_lines (Engines.Exec_helper.execute ~hdfs:(hdfs ()) g));
    Alcotest.(check string) (name ^ ": fused = row oracle")
      (oracle_csv (hdfs ()) g) (exec_csv (hdfs ()) g)
  in
  check "k-means" kmeans_pins kmeans_hdfs (Workloads.Workflows.kmeans ());
  check "JOIN-SELECT-PROJECT" join_select_pins join_select_hdfs
    (join_select_graph ())

let counter name = Obs.Metrics.counter Obs.Metrics.default name

let sum_counters prefix =
  List.fold_left
    (fun s (name, n) -> if String.starts_with ~prefix name then s + n else s)
    0
    (Obs.Metrics.counters Obs.Metrics.default)

(* one planned zoo k-means run: five iterations, each one arg-min
   diamond kernel (which its JOIN head joins), and nothing on the row
   kernels *)
let test_kmeans_fused_heads () =
  let m = Musketeer.create ~cluster:(Engines.Cluster.ec2 ~nodes:16) () in
  let heads0 = counter "kernel.columnar.argmin"
  and rows0 = sum_counters "kernel.row." in
  Relation.Column.with_enabled true (fun () ->
      match
        Musketeer.execute m ~workflow:"kmeans" ~hdfs:(kmeans_hdfs ())
          (Workloads.Workflows.kmeans ())
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Engines.Report.error_to_string e));
  Alcotest.(check int) "diamond kernels" 5
    (counter "kernel.columnar.argmin" - heads0);
  Alcotest.(check int) "row kernel runs" 0 (sum_counters "kernel.row." - rows0)

(* the head runs with its SELECT under one [kernel.fused] span, which
   reads both JOIN inputs; the PROJECT after them runs on its own
   kernel. The chain counts its JOIN among the fused ops *)
let test_join_head_span () =
  let chains0 = counter "fusion.chains" and ops0 = counter "fusion.ops_fused"
  and heads0 = counter "kernel.columnar.join_select" in
  let trace, _ =
    Obs.Trace.collecting (fun () ->
        Relation.Column.with_enabled true (fun () ->
            Engines.Exec_helper.execute ~hdfs:(join_select_hdfs ())
              (join_select_graph ())))
  in
  (match Obs.Trace.find trace ~name:"kernel.fused" with
   | [ sp ] ->
     Alcotest.(check (option string)) "ops" (Some "JOIN,SELECT")
       (match List.assoc_opt "ops" sp.Obs.Trace.attrs with
        | Some (Obs.Trace.String s) -> Some s
        | _ -> None);
     Alcotest.(check (option int)) "rows_in: both JOIN inputs" (Some 420)
       (match List.assoc_opt "rows_in" sp.Obs.Trace.attrs with
        | Some (Obs.Trace.Int n) -> Some n
        | _ -> None)
   | sps -> Alcotest.failf "expected one kernel.fused span, got %d"
              (List.length sps));
  Alcotest.(check (list (option string))) "one solo kernel span, the PROJECT"
    [ Some "PROJECT" ]
    (List.map
       (fun (sp : Obs.Trace.span) ->
          match List.assoc_opt "op" sp.attrs with
          | Some (Obs.Trace.String s) -> Some s
          | _ -> None)
       (Obs.Trace.find trace ~name:"kernel"));
  Alcotest.(check int) "one fused head" 1
    (counter "kernel.columnar.join_select" - heads0);
  Alcotest.(check int) "one chain" 1 (counter "fusion.chains" - chains0);
  Alcotest.(check int) "three ops fused" 3 (counter "fusion.ops_fused" - ops0)

(* ---- the arg-min diamond ----

   Generated diamonds [CROSS → MAP → GROUP BY MIN → JOIN back →
   SELECT]: their one kernel against the row oracle (outputs) and
   against the operators run one by one with the columnar gate off
   (every op_stat and volume, bit for bit). Values come from a small
   pool, so ties, NaN, ±inf and -0.0 against 0.0 are common; keys from
   a small domain, so they repeat across left rows; either side may be
   empty, and the right side may have one row, or more than a block of
   pairs holds. *)

type argmin_case = {
  string_keys : bool;
  left : (int * float * int) list;  (** key, x, xi *)
  right : (float * int) list;  (** c, ci *)
  expr_kind : int;
  shape : int;
  overwrite : bool;  (** the MAP writes x, not a new column *)
}

let argmin_pool =
  [| Float.nan; Float.infinity; Float.neg_infinity; 0.; -0.; 1.; -1.; 2.;
     0.5 |]

let gen_argmin_case rng =
  let module R = Qcheck_lite.Rng in
  let value () = argmin_pool.(R.int rng (Array.length argmin_pool)) in
  let expr_kind = R.int rng 4 in
  (* one case in ten has more right rows than a 256-pair block holds *)
  let wide = R.int rng 10 = 0 in
  { string_keys = R.bool rng;
    left =
      List.init (R.int rng (if wide then 4 else 9)) (fun _ ->
          (R.int rng 4, value (), R.int rng 5 - 2));
    right =
      List.init
        (if wide then 257 + R.int rng 300 else R.int rng 6)
        (fun _ -> (value (), R.int rng 5 - 2));
    expr_kind;
    shape = R.int rng 3;
    overwrite = expr_kind < 3 && R.int rng 4 = 0 }

let print_argmin_case c =
  Printf.sprintf "{strings=%b expr=%d shape=%d overwrite=%b left=[%s] right=[%s]}"
    c.string_keys c.expr_kind c.shape c.overwrite
    (String.concat ";"
       (List.map (fun (k, x, xi) -> Printf.sprintf "(%d,%h,%d)" k x xi) c.left))
    (String.concat ";"
       (List.map (fun (x, xi) -> Printf.sprintf "(%h,%d)" x xi) c.right))

let argmin_arbitrary =
  Qcheck_lite.make ~print:print_argmin_case gen_argmin_case

let argmin_target c = if c.overwrite then "x" else "dist"

let argmin_graph c =
  let open Relation in
  let b = Ir.Builder.create () in
  let l = Ir.Builder.input b "l" and r = Ir.Builder.input b "r" in
  let asg = Ir.Builder.cross b l r in
  let target = argmin_target c in
  let expr =
    Expr.(
      match c.expr_kind with
      | 0 -> (col "x" - col "c") * (col "x" - col "c")
      | 1 -> col "x" * col "c"
      | 2 -> col "x" - col "c"
      | _ -> (col "xi" - col "ci") * (col "xi" - col "ci"))
  in
  let d = Ir.Builder.map b ~target ~expr asg in
  let g =
    Ir.Builder.group_by b ~keys:[ "k" ]
      ~aggs:[ Aggregate.make (Aggregate.Min target) ~as_name:"bd" ]
      d
  in
  let renamed () = Ir.Builder.map b ~target:"k2" ~expr:(Expr.col "k") g in
  let best, right_key, pred =
    match c.shape with
    | 0 ->
      ( Ir.Builder.project b ~columns:[ "k2"; "bd" ] (renamed ()),
        "k2", Expr.(col target = col "bd") )
    | 1 -> (g, "k", Expr.(col target = col "bd"))
    | _ ->
      ( Ir.Builder.map b ~target:"extra"
          ~expr:Expr.(col "bd" + float 1.)
          (Ir.Builder.project b ~columns:[ "bd"; "k2" ] (renamed ())),
        "k2", Expr.(col "bd" = col target) )
  in
  let j = Ir.Builder.join b ~left_key:"k" ~right_key d best in
  let s = Ir.Builder.select b ~pred j in
  let p =
    Ir.Builder.project b ~name:"out" ~columns:[ "k"; target; "cid"; "bd" ] s
  in
  Ir.Builder.finish b ~outputs:[ p ]

let argmin_hdfs c =
  let open Relation in
  let table cols rows =
    Table.create_unchecked
      (Schema.make (List.map (fun (name, ty) -> { Schema.name; ty }) cols))
      (Array.of_list rows)
  in
  let key k =
    if c.string_keys then Value.Str (Printf.sprintf "key%d" k) else Value.Int k
  in
  let l =
    table
      [ ("k", if c.string_keys then Value.Tstring else Value.Tint);
        ("x", Value.Tfloat); ("xi", Value.Tint) ]
      (List.map
         (fun (k, x, xi) -> [| key k; Value.Float x; Value.Int xi |])
         c.left)
  and r =
    table
      [ ("cid", Value.Tint); ("c", Value.Tfloat); ("ci", Value.Tint) ]
      (List.mapi
         (fun i (x, xi) -> [| Value.Int i; Value.Float x; Value.Int xi |])
         c.right)
  in
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.put hdfs "l" ~modeled_mb:32. l;
  Engines.Hdfs.put hdfs "r" ~modeled_mb:4. r;
  hdfs

let argmin_invariant c =
  let g = argmin_graph c in
  let run columnar =
    Relation.Column.with_enabled columnar (fun () ->
        Engines.Exec_helper.execute ~hdfs:(argmin_hdfs c) g)
  in
  let kernels0 = counter "kernel.columnar.argmin" in
  let fused = run true in
  let ran = counter "kernel.columnar.argmin" - kernels0 in
  let one_by_one = run false in
  let csv (r : Engines.Exec_helper.result) =
    outputs_csv (List.map (fun (name, t, _) -> (name, t)) r.outputs)
  in
  List.length (Ir.Fusion.argmins (Ir.Fusion.plan g)) = 1
  && ran = 1
  && csv fused = oracle_csv (argmin_hdfs c) g
  && stat_lines fused = stat_lines one_by_one

let test_argmin_differential () =
  try
    Qcheck_lite.check ~count:300 ~seed ~name:"arg-min kernel = row oracle"
      argmin_arbitrary argmin_invariant
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* every refusal counts [kernel.argmin.refused.<reason>] and no
   [kernel.fallback.*]; after one the operators run one by one, and
   their row runs are each counted as a fallback *)
let test_argmin_refusals () =
  let c =
    { string_keys = false; left = [ (0, 1., 1); (1, 2., 2); (0, -0., 0) ];
      right = [ (0., 0); (2., 1) ]; expr_kind = 0; shape = 0;
      overwrite = false }
  in
  let tables () =
    let hdfs = argmin_hdfs c in
    (Engines.Hdfs.table hdfs "l", Engines.Hdfs.table hdfs "r")
  in
  let dist = Relation.Expr.(col "x" - col "c") in
  List.iter
    (fun (reason, columnar, expr, key, min_column) ->
       let name = "kernel.argmin.refused." ^ reason in
       let before = counter name and fallbacks = sum_counters "kernel.fallback." in
       let l, r = tables () in
       Alcotest.(check bool) (reason ^ ": refused") true
         (Relation.Column.with_enabled columnar (fun () ->
              Relation.Columnar.try_argmin l r ~target:"dist" ~expr ~key
                ~min_as:"bd" ~min_column)
          = None);
       Alcotest.(check int) (reason ^ ": counted") 1 (counter name - before);
       Alcotest.(check int) (reason ^ ": no kernel fallback") fallbacks
         (sum_counters "kernel.fallback."))
    Relation.Expr.
      [ ("disabled", false, dist, "k", "bd");
        ("not_vectorizable", true, col "nope", "k", "bd");
        ("non_numeric_min", true, col "x" > col "c", "k", "bd");
        ("key_not_left", true, dist, "cid", "bd");
        ("key_not_left", true, dist, "dist", "bd");
        ("float_key", true, dist, "x", "bd");
        ("shadowed_min", true, dist, "k", "xi") ];
  (* a float key: the diamond, its GROUP BY and its JOIN refuse, and the
     row kernels that run instead balance the fallback counters *)
  let g =
    let open Relation in
    let b = Ir.Builder.create () in
    let l = Ir.Builder.input b "l" and r = Ir.Builder.input b "r" in
    let d = Ir.Builder.map b ~target:"dist" ~expr:dist (Ir.Builder.cross b l r) in
    let best =
      Ir.Builder.project b ~columns:[ "x2"; "bd" ]
        (Ir.Builder.map b ~target:"x2" ~expr:(Expr.col "x")
           (Ir.Builder.group_by b ~keys:[ "x" ]
              ~aggs:[ Aggregate.make (Aggregate.Min "dist") ~as_name:"bd" ]
              d))
    in
    let j = Ir.Builder.join b ~left_key:"x" ~right_key:"x2" d best in
    Ir.Builder.finish b
      ~outputs:[ Ir.Builder.select b ~name:"out" ~pred:Expr.(col "dist" = col "bd") j ]
  in
  Alcotest.(check int) "planned as a diamond" 1
    (List.length (Ir.Fusion.argmins (Ir.Fusion.plan g)));
  let refused0 = counter "kernel.argmin.refused.float_key"
  and fallback0 = sum_counters "kernel.fallback."
  and row0 = sum_counters "kernel.row." in
  let out =
    Relation.Column.with_enabled true (fun () -> exec_csv (argmin_hdfs c) g)
  in
  Alcotest.(check string) "refused diamond = row oracle"
    (oracle_csv (argmin_hdfs c) g) out;
  Alcotest.(check int) "refusal counted" 1
    (counter "kernel.argmin.refused.float_key" - refused0);
  let rows = sum_counters "kernel.row." - row0 in
  Alcotest.(check bool) "some row runs" true (rows > 0);
  Alcotest.(check int) "fallbacks = row runs" rows
    (sum_counters "kernel.fallback." - fallback0)

(* ---- MAP → GROUP BY over a JOIN's matches ----

   A generated JOIN → MAP → GROUP BY chain, run once in one job and once
   with the JOIN in a job of its own, so its matches cross HDFS before
   the MAP and GROUP BY read them in blocks. Each run must print the
   row oracle's CSV and every op_stat and volume of the same graphs run
   one by one on the row kernels, and the MAP → GROUP BY kernel must
   run once per run. Values come from a pool with NaN, ±inf and ±0.0;
   join keys repeat and either side may be empty; a group key may come
   from either side, and one case in five spreads its keys wide enough
   that their codes need the hashed ids. *)

type mgb_case = {
  mgb_strings : bool;  (** string join keys *)
  mgb_wide : bool;
  mgb_left : (int * int * int * float) list;  (** k, g, a, x *)
  mgb_right : (int * int * int * float) list;  (** k2, h, b, y *)
  mgb_expr : int;
  mgb_keys : int;
  mgb_agg : int;
}

let mgb_pool = argmin_pool

let gen_mgb_case rng =
  let module R = Qcheck_lite.Rng in
  let value () = mgb_pool.(R.int rng (Array.length mgb_pool)) in
  let wide = R.int rng 5 = 0 in
  let rows n =
    List.init n (fun i ->
        ( R.int rng 4,
          (if wide then (i * 1_000_003) + R.int rng 3 else R.int rng 5),
          R.int rng 7 - 3,
          value () ))
  in
  let side () = if wide then 60 + R.int rng 40 else R.int rng 12 in
  { mgb_strings = R.bool rng; mgb_wide = wide; mgb_left = rows (side ());
    mgb_right = rows (side ()); mgb_expr = R.int rng 5;
    mgb_keys = R.int rng 4; mgb_agg = R.int rng 6 }

let print_mgb_case c =
  let rows xs =
    String.concat ";"
      (List.map (fun (k, g, a, x) -> Printf.sprintf "(%d,%d,%d,%h)" k g a x) xs)
  in
  Printf.sprintf "{strings=%b wide=%b expr=%d keys=%d agg=%d left=[%s] right=[%s]}"
    c.mgb_strings c.mgb_wide c.mgb_expr c.mgb_keys c.mgb_agg (rows c.mgb_left)
    (rows c.mgb_right)

let mgb_arbitrary = Qcheck_lite.make ~print:print_mgb_case gen_mgb_case

(* the MAP's target and expression: ints or floats, a new column or one
   overwriting a left column *)
let mgb_map c =
  let open Relation.Expr in
  match c.mgb_expr with
  | 0 -> ("t", col "a" * col "b")
  | 1 -> ("t", col "x" * col "y")
  | 2 -> ("x", col "x" + col "b")
  | 3 -> ("a", col "a" - col "b")
  | _ -> ("t", (col "x" - col "y") * float 0.5)

let mgb_group c =
  let open Relation in
  let target, _ = mgb_map c in
  let keys =
    match c.mgb_keys with
    | 0 -> [ "g" ]
    | 1 -> [ "h" ]
    | 2 -> [ "g"; "h" ]
    | _ -> [ "h"; "k" ]
  in
  let agg fn = Aggregate.make fn ~as_name:"agg" in
  let aggs =
    match c.mgb_agg with
    | 0 -> [ agg (Aggregate.Sum target) ]
    | 1 -> [ agg (Aggregate.Avg target); Aggregate.make Aggregate.Count ~as_name:"n" ]
    | 2 -> [ agg (Aggregate.Min target) ]
    | 3 -> [ agg (Aggregate.Max target); Aggregate.make (Aggregate.Sum "y") ~as_name:"sy" ]
    | 4 -> [ Aggregate.make Aggregate.Count ~as_name:"n" ]
    | _ -> [ agg (Aggregate.First target); Aggregate.make (Aggregate.Min "k") ~as_name:"mk" ]
  in
  (keys, aggs)

(* [split]: the JOIN ends a graph of its own, and the MAP and GROUP BY
   read its HDFS entry *)
let mgb_graphs c ~split =
  let target, expr = mgb_map c and keys, aggs = mgb_group c in
  let b = Ir.Builder.create () in
  let j =
    if split then Ir.Builder.input b "j"
    else
      Ir.Builder.join b ~left_key:"k" ~right_key:"k2" (Ir.Builder.input b "l")
        (Ir.Builder.input b "r")
  in
  let m = Ir.Builder.map b ~target ~expr j in
  let g = Ir.Builder.group_by b ~name:"out" ~keys ~aggs m in
  let rest = Ir.Builder.finish b ~outputs:[ g ] in
  if not split then [ rest ]
  else begin
    let b = Ir.Builder.create () in
    let j =
      Ir.Builder.join b ~name:"j" ~left_key:"k" ~right_key:"k2"
        (Ir.Builder.input b "l") (Ir.Builder.input b "r")
    in
    [ Ir.Builder.finish b ~outputs:[ j ]; rest ]
  end

let mgb_hdfs c =
  let open Relation in
  let key k =
    if c.mgb_strings then Value.Str (Printf.sprintf "key%d" k) else Value.Int k
  in
  let table names rows =
    Table.create_unchecked
      (Schema.make
         (List.map2
            (fun name ty -> { Schema.name; ty })
            names
            [ (if c.mgb_strings then Value.Tstring else Value.Tint); Value.Tint;
              Value.Tint; Value.Tfloat ]))
      (Array.of_list
         (List.map
            (fun (k, g, a, x) -> [| key k; Value.Int g; Value.Int a; Value.Float x |])
            rows))
  in
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.put hdfs "l" ~modeled_mb:24. (table [ "k"; "g"; "a"; "x" ] c.mgb_left);
  Engines.Hdfs.put hdfs "r" ~modeled_mb:8. (table [ "k2"; "h"; "b"; "y" ] c.mgb_right);
  hdfs

(* each graph in turn on one HDFS, every output written back as an
   engine writes it; the stats and volumes of every graph, and the last
   one's CSV *)
let mgb_run c ~split ~columnar =
  Relation.Column.with_enabled columnar @@ fun () ->
  let hdfs = mgb_hdfs c in
  let results =
    List.map
      (fun g ->
         let r = Engines.Exec_helper.execute ~hdfs g in
         List.iter
           (fun (name, t, mb) -> Engines.Hdfs.put hdfs name ~modeled_mb:mb t)
           r.Engines.Exec_helper.outputs;
         r)
      (mgb_graphs c ~split)
  in
  let last = List.nth results (List.length results - 1) in
  ( List.concat_map stat_lines results,
    outputs_csv (List.map (fun (name, t, _) -> (name, t)) last.outputs) )

let mgb_invariant c =
  let oracle =
    let g = List.hd (mgb_graphs c ~split:false) in
    oracle_csv (mgb_hdfs c) g
  in
  List.for_all
    (fun split ->
       let ran0 = counter "kernel.columnar.map_group_by" in
       let stats, csv = mgb_run c ~split ~columnar:true in
       let ran = counter "kernel.columnar.map_group_by" - ran0 in
       let row_stats, row_csv = mgb_run c ~split ~columnar:false in
       ran = 1 && csv = oracle && row_csv = oracle && stats = row_stats)
    [ false; true ]

let test_map_group_by_differential () =
  try
    Qcheck_lite.check ~count:200 ~seed ~name:"MAP → GROUP BY kernel = row oracle"
      mgb_arbitrary mgb_invariant
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* a MAP read only by a GROUP BY pairs with it, unless the MAP is an
   output, protected, read twice, or the target a GROUP BY key *)
let test_plan_map_group_by () =
  let open Relation in
  let graph ?(output = false) ?(second = false) ~keys () =
    let b = Ir.Builder.create () in
    let r = Ir.Builder.input b "r" in
    let m = Ir.Builder.map b ~name:"m" ~target:"t" ~expr:Expr.(col "v" * int 2) r in
    let g =
      Ir.Builder.group_by b ~name:"out" ~keys
        ~aggs:[ Aggregate.make (Aggregate.Sum "t") ~as_name:"s" ]
        m
    in
    let outs = if output then [ g; m ] else [ g ] in
    let outs =
      if second then Ir.Builder.project b ~name:"p" ~columns:[ "t" ] m :: outs
      else outs
    in
    (Ir.Builder.finish b ~outputs:outs, Ir.Builder.id m, Ir.Builder.id g)
  in
  let pairs ?protect g =
    List.map
      (fun (mg : Ir.Fusion.map_group_by) -> (mg.mg_map, mg.mg_group))
      (Ir.Fusion.map_group_bys (Ir.Fusion.plan ?protect g))
  in
  let g, m, gb = graph ~keys:[ "k" ] () in
  Alcotest.(check (list (pair int int))) "paired" [ (m, gb) ] (pairs g);
  let g, _, _ = graph ~output:true ~keys:[ "k" ] () in
  Alcotest.(check int) "the MAP is an output" 0 (List.length (pairs g));
  let g, _, _ = graph ~second:true ~keys:[ "k" ] () in
  Alcotest.(check int) "the MAP has two readers" 0 (List.length (pairs g));
  let g, _, _ = graph ~keys:[ "k" ] () in
  Alcotest.(check int) "the MAP is protected" 0
    (List.length (pairs ~protect:[ "m" ] g));
  let g, _, _ = graph ~keys:[ "t" ] () in
  Alcotest.(check int) "the target is a key" 0 (List.length (pairs g))

(* a non-numeric target, a float key and the gate off each refuse the
   kernel, counted apart from [kernel.fallback.*]; the operators then
   run one by one and match the row oracle *)
let test_map_group_by_refusals () =
  let open Relation in
  let t =
    Table.create_unchecked
      (Schema.make
         [ { Schema.name = "k"; ty = Value.Tint };
           { Schema.name = "v"; ty = Value.Tint };
           { Schema.name = "x"; ty = Value.Tfloat } ])
      (Array.init 20 (fun i ->
           [| Value.Int (i mod 3); Value.Int i; Value.Float (float_of_int i) |]))
  in
  let sum = [ Aggregate.make (Aggregate.Sum "t") ~as_name:"s" ] in
  List.iter
    (fun (reason, columnar, expr, keys, aggs) ->
       let name = "kernel.map_group_by.refused." ^ reason in
       let before = counter name and fallbacks = sum_counters "kernel.fallback." in
       Alcotest.(check bool) (reason ^ ": refused") true
         (Column.with_enabled columnar (fun () ->
              Columnar.try_map_group_by t ~target:"t" ~expr ~keys ~aggs)
          = None);
       Alcotest.(check int) (reason ^ ": counted") 1 (counter name - before);
       Alcotest.(check int) (reason ^ ": no kernel fallback") fallbacks
         (sum_counters "kernel.fallback."))
    Expr.
      [ ("disabled", false, col "v" * int 2, [ "k" ], sum);
        ("not_vectorizable", true, col "nope", [ "k" ], sum);
        ("non_numeric_target", true, col "v" > int 2, [ "k" ],
         [ Aggregate.make Aggregate.Count ~as_name:"n" ]);
        ("float_key", true, col "v" * int 2, [ "x" ], sum);
        ("repeated_key", true, col "v" * int 2, [ "k"; "k" ], sum) ]

(* ---- differential property over generated pipelines ----

   The full planning + engine execution path: a random kv pipeline is
   planned and executed, and its "out" relation must be byte-identical
   to the row oracle's — same rows, same order. *)

let cluster = Engines.Cluster.local_seven

let m = Musketeer.create ~cluster ()

let run_spec spec =
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
      | Some t -> outputs_csv [ ("out", t) ]
      | None -> failwith "no \"out\" relation"))

let fused_invariant spec =
  run_spec spec
  = oracle_csv (Qcheck_lite.hdfs_of_spec spec) (Qcheck_lite.graph_of_spec spec)

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
           test_while_body_plan;
         Alcotest.test_case "a JOIN heads its SELECT's chain" `Quick
           test_plan_join_head;
         Alcotest.test_case "JOIN heads obey the barriers" `Quick
           test_join_head_barriers;
         Alcotest.test_case "k-means' arg-min diamond" `Quick
           test_plan_argmin ]);
      ("execution",
       [ Alcotest.test_case "empty table" `Quick test_empty_table;
         Alcotest.test_case "2000-row chain = row oracle" `Quick
           test_large_chain;
         Alcotest.test_case "WHILE with fused body" `Quick test_while_fused;
         Alcotest.test_case "shared scan halves input volume" `Quick
           test_shared_scan_volumes;
         Alcotest.test_case "planned run reads HDFS once" `Quick
           test_one_hdfs_read;
         Alcotest.test_case "fusion metrics" `Quick test_fusion_metrics;
         Alcotest.test_case "JOIN heads price as the solo JOIN" `Quick
           test_join_head_pricing;
         Alcotest.test_case "k-means takes five fused heads" `Quick
           test_kmeans_fused_heads;
         Alcotest.test_case "JOIN head under kernel.fused" `Quick
           test_join_head_span;
         Alcotest.test_case "400k ratings = row oracle" `Quick
           test_ratings_identity ]);
      ("argmin",
       [ Alcotest.test_case "generated diamonds = row oracle" `Quick
           test_argmin_differential;
         Alcotest.test_case "refusals are counted" `Quick
           test_argmin_refusals ]);
      ("map_group_by",
       [ Alcotest.test_case "a MAP pairs with its one GROUP BY" `Quick
           test_plan_map_group_by;
         Alcotest.test_case "generated chains = row oracle" `Quick
           test_map_group_by_differential;
         Alcotest.test_case "refusals are counted" `Quick
           test_map_group_by_refusals ]);
      ("differential",
       [ Alcotest.test_case "generated pipelines fused = unfused" `Slow
           test_fused_differential ]) ]
