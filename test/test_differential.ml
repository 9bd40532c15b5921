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

(* ---- any mapping computes the oracle's answer ----

   The paper's thesis in full: however a workflow is cut into jobs and
   whichever admissible engines run them, it computes what the
   reference interpreter computes on the row kernels. Each workflow
   runs under the merged plan, the one-job-per-operator plan and a
   random convex cut of its optimized IR, every job on a random
   admissible engine; a workflow with a WHILE also runs forced onto
   Hadoop, so the executor expands the loop per iteration. Jobs pass
   intermediates through HDFS by relation name, so two relations under
   one name show up here as a wrong answer. *)

module Rng = Qcheck_lite.Rng

let sorted_csv t = Relation.Table.to_csv (Relation.Table.sort_with t compare)

let oracle hdfs graph =
  let store =
    Ir.Interp.store_of_list
      (List.map
         (fun r -> (r, Engines.Hdfs.table hdfs r))
         (Engines.Hdfs.list hdfs))
  in
  List.map (fun (r, t) -> (r, sorted_csv t)) (Ir.Interp.outputs ~store graph)

let admissible g ids =
  List.filter
    (fun b -> Musketeer.Support.check_bool b g ids)
    Engines.Backend.all

let random_engines rng g jobs =
  List.map
    (fun (_, ids) ->
       match admissible g ids with
       | [] -> Alcotest.failf "no engine admits job [%s]"
                 (String.concat "; " (List.map string_of_int ids))
       | bs -> (Rng.pick rng bs, ids))
    jobs

(* contiguous runs of the id order are convex (edges point forward),
   and so is each weakly connected part of one; ids arrive in order,
   so a node links to a part only through its own inputs *)
let random_cut rng (g : Ir.Dag.t) =
  let ops =
    List.filter_map
      (fun (n : Ir.Operator.node) ->
         match n.kind with Ir.Operator.Input _ -> None | _ -> Some n.id)
      g.nodes
  in
  let runs, last =
    List.fold_left
      (fun (runs, run) id ->
         if run <> [] && Rng.bool rng then (List.rev run :: runs, [ id ])
         else (runs, id :: run))
      ([], []) ops
  in
  let runs = List.rev (if last = [] then runs else List.rev last :: runs) in
  let parts run =
    List.fold_left
      (fun parts id ->
         let linked, rest =
           List.partition
             (fun part ->
                List.exists
                  (fun p -> List.mem p (Ir.Dag.node g id).Ir.Operator.inputs)
                  part)
             parts
         in
         (id :: List.concat linked) :: rest)
      [] run
    |> List.map (List.sort compare)
    |> List.sort compare
  in
  List.map
    (fun ids -> (Engines.Backend.Serial_c, ids))
    (List.concat_map parts runs)

(* an engine that rejects a job at run time (a modeled Spark OOM) was
   not admissible after all: the job moves to the next-best engine *)
let replan_on_rejection =
  { Musketeer.Recovery.none with Musketeer.Recovery.allow_replan = true }

let mapping_m = Musketeer.create ~cluster:(Engines.Cluster.ec2 ~nodes:16) ()

(* every mapping's outputs against the oracle's; [] when all agree *)
let mapping_mismatches ~rng ~workflow hdfs graph =
  let expected = oracle hdfs graph in
  let plan ?backends ?merging () =
    match
      Musketeer.plan mapping_m ?backends ?merging ~workflow ~hdfs graph
    with
    | Some p -> p
    | None -> Alcotest.failf "%s: no plan" workflow
  in
  let merged, g' = plan () in
  let unmerged, g'' = plan ~merging:false () in
  let mappings =
    [ ("merged", g', random_engines rng g' merged.Musketeer.Partitioner.jobs);
      ("unmerged", g'',
       random_engines rng g'' unmerged.Musketeer.Partitioner.jobs);
      ("random cut", g', random_engines rng g' (random_cut rng g')) ]
    @
    if Engines.Exec_helper.has_while graph then
      let hadoop, gh = plan ~backends:[ Engines.Backend.Hadoop ] () in
      [ ("hadoop", gh, hadoop.Musketeer.Partitioner.jobs) ]
    else []
  in
  List.filter_map
    (fun (label, g, jobs) ->
       let describe () =
         Printf.sprintf "%s %s [%s]" workflow label
           (String.concat " "
              (List.map
                 (fun (b, ids) ->
                    Printf.sprintf "%s{%s}" (Engines.Backend.name b)
                      (String.concat "," (List.map string_of_int ids)))
                 jobs))
       in
       match
         Musketeer.execute_plan ~record_history:false mapping_m ~workflow
           ~recovery:replan_on_rejection
           ~hdfs:(Engines.Hdfs.snapshot hdfs) ~graph:g
           { Musketeer.Partitioner.jobs; cost_s = 0. }
       with
       | Error e ->
         Some
           (describe () ^ " failed: " ^ Engines.Report.error_to_string e)
       | Ok r ->
         let got =
           List.map
             (fun (name, _) ->
                (name,
                 Option.map sorted_csv
                   (List.assoc_opt name r.Musketeer.Executor.outputs)))
             expected
         in
         if got = List.map (fun (n, csv) -> (n, Some csv)) expected then None
         else Some (describe () ^ " differs from the oracle"))
    mappings

let test_zoo_mappings () =
  let rng = Rng.create seed in
  let bad =
    List.concat_map
      (fun (workflow, load) ->
         let hdfs, graph = load () in
         mapping_mismatches ~rng ~workflow hdfs graph)
      zoo
  in
  Alcotest.(check (list string)) "every mapping = oracle" [] bad

(* names a program binds more than once (test/rebinding.ml) *)
let test_rebinding_mappings () =
  let rng = Rng.create seed in
  let bad =
    List.concat_map
      (fun (workflow, graph, inputs) ->
         let hdfs = Engines.Hdfs.create () in
         List.iter
           (fun (r, t) -> Engines.Hdfs.put hdfs r ~modeled_mb:64. t)
           inputs;
         mapping_mismatches ~rng ~workflow hdfs (graph ()))
      Rebinding.cases
  in
  Alcotest.(check (list string)) "every mapping = oracle" [] bad

let test_generated_mappings () =
  let agrees (spec : Qcheck_lite.workflow_spec) =
    let rng = Rng.create (Hashtbl.hash (Qcheck_lite.spec_to_string spec)) in
    let branches =
      Qcheck_lite.graph_of_branches ~flipped:false
        { Qcheck_lite.ops_a = spec.ops; ops_b = List.rev spec.ops }
    in
    List.for_all
      (fun graph ->
         match
           mapping_mismatches ~rng ~workflow:"gen"
             (Qcheck_lite.hdfs_of_spec spec) graph
         with
         | [] -> true
         | bad -> failwith (String.concat "\n" bad))
      [ Qcheck_lite.graph_of_spec spec; branches ]
  in
  try
    Qcheck_lite.check ~count:25 ~seed ~name:"every mapping = oracle"
      Qcheck_lite.spec_arbitrary agrees
  with Qcheck_lite.Falsified msg -> Alcotest.fail msg

let () =
  Alcotest.run "differential"
    [ ("one-for-all",
       [ Alcotest.test_case "generated workflows agree across engines"
           `Slow test_engines_agree;
         Alcotest.test_case "every engine admits a simple select" `Quick
           test_all_engines_admit_simple;
         Alcotest.test_case "view pipelines agree" `Slow test_views_agree;
         Alcotest.test_case "zoo: every mapping = oracle" `Quick
           test_zoo_mappings;
         Alcotest.test_case "names bound twice: every mapping = oracle"
           `Quick test_rebinding_mappings;
         Alcotest.test_case "generated DAGs: every mapping = oracle" `Slow
           test_generated_mappings ]);
      ("reports",
       [ Alcotest.test_case "zoo: columnar on = off" `Quick
           test_zoo_report_identity ]) ]
