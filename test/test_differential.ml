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

(* ---- late-materialized views across engines ----

   The generated pipelines again, behind a self-JOIN whose output stays a
   view until a kernel needs its columns: a MAP reads both sides through
   their indexes and a PROJECT drops the rest. Every admissible engine
   agrees. *)
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
      Qcheck_lite.spec_arbitrary (agree ~graph_of:joined_graph)
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

(* ---- report identity: modeled numbers do not depend on the kernels ----

   Engines are cost models over measured volumes, so a modeled volume
   is a function of a relation's contents. Every zoo workflow, at the
   CLI's input sizes, planned and run with the columnar kernels on and
   with them off (inputs loaded under the same gate, so rows and
   columns both feed the kernels): the engine reports and every job's
   per-operator stats are bit-identical. *)

let zoo = Experiments.Common.zoo

let report_bits (r : Engines.Report.t) =
  String.concat " "
    ([ r.job_label; Engines.Backend.name r.backend;
       Printf.sprintf "%h in=%h out=%h it=%d" r.makespan_s r.input_mb
         r.output_mb r.iterations ]
     @ List.map
         (fun (name, v) -> Printf.sprintf "%s=%h" name v)
         (Engines.Report.breakdown_fields r.breakdown)
     @ List.map (fun (id, mb) -> Printf.sprintf "%d:%h" id mb) r.op_output_mb)

let stat_bits (s : Engines.Exec_helper.op_stat) =
  Printf.sprintf "%d %s in=%h out=%h%s" s.node_id s.kind_name s.in_mb s.out_mb
    (if s.shuffled then " shuffled" else "")

(* the reports of one planned run, then the op_stats of each of its
   jobs executed in plan order, each job's outputs written back *)
let modeled_numbers ~columnar load =
  Relation.Column.with_enabled columnar @@ fun () ->
  let hdfs, graph = load () in
  let m = Musketeer.create ~cluster () in
  match Musketeer.plan m ~workflow:"zoo" ~hdfs graph with
  | None -> Alcotest.fail "no plan"
  | Some (plan, g') ->
    let reports =
      match
        Musketeer.execute_plan ~record_history:false m ~workflow:"zoo"
          ~hdfs:(Engines.Hdfs.snapshot hdfs) ~graph:g' plan
      with
      | Ok r -> List.map report_bits r.Musketeer.Executor.reports
      | Error e -> Alcotest.fail (Engines.Report.error_to_string e)
    in
    let stats =
      List.concat_map
        (fun (_, ids) ->
           let r =
             Engines.Exec_helper.execute ~hdfs
               (Musketeer.Jobgraph.extract g' ids)
           in
           List.iter
             (fun (name, t, mb) -> Engines.Hdfs.put hdfs name ~modeled_mb:mb t)
             r.Engines.Exec_helper.outputs;
           List.map stat_bits r.Engines.Exec_helper.op_stats)
        plan.Musketeer.Partitioner.jobs
    in
    (reports, stats)

let test_zoo_report_identity () =
  List.iter
    (fun (name, load) ->
       let on_reports, on_stats = modeled_numbers ~columnar:true load
       and off_reports, off_stats = modeled_numbers ~columnar:false load in
       Alcotest.(check (list string)) (name ^ ": reports") off_reports
         on_reports;
       Alcotest.(check (list string)) (name ^ ": op_stats") off_stats on_stats)
    zoo

let () =
  Alcotest.run "differential"
    [ ("one-for-all",
       [ Alcotest.test_case "generated workflows agree across engines"
           `Slow test_engines_agree;
         Alcotest.test_case "every engine admits a simple select" `Quick
           test_all_engines_admit_simple;
         Alcotest.test_case "view pipelines agree, jobs 1 and 4" `Slow
           test_views_agree ]);
      ("reports",
       [ Alcotest.test_case "zoo: columnar on = off" `Quick
           test_zoo_report_identity ]) ]
