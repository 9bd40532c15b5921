(* Differential "one for all" testing (the paper's core promise): a
   workflow written once must produce the same answer on every engine it
   can be mapped to. For randomly generated kv pipelines we force the
   plan onto each admissible engine in turn and require the "out"
   relations to be byte-identical after sorting rows — any divergence
   between codegen paths, engine simulators or shared kernels fails the
   property with a shrunk counterexample. *)

let cluster = Engines.Cluster.local_seven

let m = Musketeer.create ~cluster ()

(* fault-free forced execution; [None] when the engine cannot express
   the workflow (inadmissible — skipped, not a failure) *)
let run_on ?(graph_of = Qcheck_lite.graph_of_spec) backend spec =
  let hdfs = Qcheck_lite.hdfs_of_spec spec in
  let graph = graph_of spec in
  match Musketeer.plan m ~backends:[ backend ] ~workflow:"diff" ~hdfs graph with
  | None -> None
  | Some (plan, g') -> (
    match
      Musketeer.execute_plan ~record_history:false m ~workflow:"diff" ~hdfs
        ~graph:g' plan
    with
    | Error e ->
      failwith
        (Printf.sprintf "%s admitted the plan but failed: %s"
           (Engines.Backend.name backend)
           (Engines.Report.error_to_string e))
    | Ok result -> (
      match List.assoc_opt "out" result.Musketeer.Executor.outputs with
      | None ->
        failwith
          (Printf.sprintf "%s produced no \"out\" relation"
             (Engines.Backend.name backend))
      | Some table -> Some table))

(* sorted-row canonical form, so comparison is order-insensitive but
   still byte-exact on values *)
let canonical table =
  Relation.Table.to_csv (Relation.Table.sort_by table [ "k"; "v" ])

let agree ?graph_of spec =
  let results =
    List.filter_map
      (fun b ->
         Option.map (fun t -> (b, canonical t)) (run_on ?graph_of b spec))
      Engines.Backend.all
  in
  match results with
  | [] -> failwith "no engine admitted the workflow"
  | (reference_backend, reference) :: rest ->
    List.iter
      (fun (b, out) ->
         if out <> reference then
           failwith
             (Printf.sprintf "%s disagrees with %s:\n%s\nvs\n%s"
                (Engines.Backend.name b)
                (Engines.Backend.name reference_backend)
                out reference))
      rest;
    true

(* CI overrides the seed for the randomized third run *)
let seed =
  match Option.bind (Sys.getenv_opt "MUSKETEER_TEST_SEED") int_of_string_opt with
  | Some n -> n
  | None -> 1717

let test_engines_agree () =
  try
    Qcheck_lite.check ~count:25 ~seed ~name:"one for all"
      Qcheck_lite.spec_arbitrary agree
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* sanity-check that the property is not vacuously true: every
   general-purpose (relational) engine must admit a plain select — the
   vertex-centric engines legitimately cannot *)
let test_all_engines_admit_simple () =
  let spec =
    { Qcheck_lite.rows = [ (1, 10); (2, 20); (1, 30) ];
      ops = [ Qcheck_lite.Select_gt 5 ] }
  in
  List.iter
    (fun b ->
       Alcotest.(check bool)
         (Engines.Backend.name b ^ " admits select")
         true
         (run_on b spec <> None))
    [ Engines.Backend.Hadoop; Engines.Backend.Spark;
      Engines.Backend.Naiad; Engines.Backend.Metis;
      Engines.Backend.Serial_c ]

(* ---- parallel kernels are byte-identical to serial ----

   The serial reference runs under [Pool.with_jobs 1] (the exact
   pre-parallelism code path); each Par kernel is then pinned to
   jobs ∈ {1, 2, 4} and its raw CSV — order-sensitive, not sorted —
   must match byte for byte. Generated inputs include empty tables,
   single rows and all-equal keys. *)

let par_jobs_levels = [ 1; 2; 4 ]

let par_pred = Relation.Expr.(col "v" > int 50)

let par_aggs =
  Relation.Aggregate.
    [ make (Sum "v") ~as_name:"s"; make Count ~as_name:"n";
      make (Min "v") ~as_name:"lo"; make (Max "v") ~as_name:"hi";
      make (Avg "v") ~as_name:"m" ]

let par_kernels_agree (rows_l, rows_r) =
  let open Relation in
  let left = Qcheck_lite.table_of_rows rows_l in
  let right = Qcheck_lite.table_of_rows rows_r in
  let expect name reference jobs actual =
    if Table.to_csv reference <> Table.to_csv actual then
      failwith
        (Printf.sprintf "%s: jobs=%d output differs from serial" name jobs)
  in
  let serial f = Pool.with_jobs 1 f in
  let s_select = serial (fun () -> Kernel.select left par_pred) in
  let s_project = serial (fun () -> Kernel.project left [ "v" ]) in
  let s_map =
    serial (fun () ->
        Kernel.map_column left ~target:"v" ~expr:Expr.(col "v" + int 1))
  in
  let s_join =
    serial (fun () -> Kernel.join left right ~left_key:"k" ~right_key:"k")
  in
  let s_group =
    serial (fun () -> Kernel.group_by left ~keys:[ "k" ] ~aggs:par_aggs)
  in
  List.iter
    (fun jobs ->
       expect "select" s_select jobs (Par.select ~jobs left par_pred);
       expect "project" s_project jobs (Par.project ~jobs left [ "v" ]);
       expect "map" s_map jobs
         (Par.map_column ~jobs left ~target:"v"
            ~expr:Expr.(col "v" + int 1));
       expect "join" s_join jobs
         (Par.join ~jobs left right ~left_key:"k" ~right_key:"k");
       expect "group_by" s_group jobs
         (Par.group_by ~jobs left ~keys:[ "k" ] ~aggs:par_aggs))
    par_jobs_levels;
  true

let test_par_kernels_agree () =
  try
    Qcheck_lite.check ~count:40 ~seed ~name:"parallel = serial"
      Qcheck_lite.edge_rows_pair_arbitrary par_kernels_agree
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* whole pipelines (plan + engine execution) must also be jobs-invariant:
   the same workflow run at jobs ∈ {1, 2, 4} yields byte-identical
   output relations *)
let test_pipeline_jobs_invariant () =
  let spec =
    { Qcheck_lite.rows =
        List.init 600 (fun i -> (i mod 13, (i * 37) mod 100));
      ops =
        [ Qcheck_lite.Map_add 5; Qcheck_lite.Select_gt 20;
          Qcheck_lite.Group_sum ] }
  in
  let at_jobs jobs =
    Relation.Pool.with_jobs jobs (fun () ->
        match run_on Engines.Backend.Spark spec with
        | Some t -> Relation.Table.to_csv t
        | None -> Alcotest.fail "Spark rejected the pipeline")
  in
  let reference = at_jobs 1 in
  List.iter
    (fun jobs ->
       Alcotest.(check string)
         (Printf.sprintf "jobs=%d matches jobs=1" jobs)
         reference (at_jobs jobs))
    [ 2; 4 ]

(* ---- late-materialized views across engines ----

   The generated pipelines again, behind a self-JOIN whose output stays a
   view until a kernel needs its columns: a MAP reads both sides through
   their indexes and a PROJECT drops the rest. Every admissible engine
   agrees, at jobs 1 and at jobs 4. *)
let joined_graph (spec : Qcheck_lite.workflow_spec) =
  let b = Ir.Builder.create () in
  let r = Ir.Builder.input b "r" in
  let j = Ir.Builder.join b ~left_key:"k" ~right_key:"k" r r in
  let m =
    Ir.Builder.map b ~target:"v" ~expr:Relation.Expr.(col "v" - col "r_v") j
  in
  let h =
    List.fold_left (Qcheck_lite.apply_op b)
      (Ir.Builder.project b ~columns:[ "k"; "v" ] m)
      spec.ops
  in
  let out =
    Ir.Builder.select b ~name:"out" ~pred:Relation.Expr.(col "k" > int (-1)) h
  in
  Ir.Builder.finish b ~outputs:[ out ]

let test_views_agree () =
  try
    Qcheck_lite.check ~count:15 ~seed ~name:"view pipelines, one for all"
      Qcheck_lite.spec_arbitrary (fun spec ->
        List.for_all
          (fun jobs ->
             Relation.Pool.with_jobs jobs (fun () ->
                 agree ~graph_of:joined_graph spec))
          [ 1; 4 ])
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

let () =
  Alcotest.run "differential"
    [ ("one-for-all",
       [ Alcotest.test_case "generated workflows agree across engines"
           `Slow test_engines_agree;
         Alcotest.test_case "every engine admits a simple select" `Quick
           test_all_engines_admit_simple;
         Alcotest.test_case "view pipelines agree, jobs 1 and 4" `Slow
           test_views_agree ]);
      ("parallel",
       [ Alcotest.test_case "parallel kernels byte-identical to serial"
           `Quick test_par_kernels_agree;
         Alcotest.test_case "pipelines are jobs-invariant" `Quick
           test_pipeline_jobs_invariant ]) ]
