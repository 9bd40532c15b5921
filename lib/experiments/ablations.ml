(** Ablations of the design choices DESIGN.md calls out, beyond the
    paper's own figures:

    - code-generation optimizations (shared scans + look-ahead type
      inference) on/off, per back-end;
    - Naiad's vertex-level GROUP BY vs the collect-based one, isolated
      from the I/O effects Figure 7 mixes in;
    - conservative first-run bounds vs full history: how the same
      workflow's plan tightens (§5.2);
    - the DP heuristic's single linearization vs multiple orders vs the
      exhaustive optimum on a Figure-16-shaped workflow (§8);
    - the two extension engines (Giraph, X-Stream) against the paper's
      graph engines on PageRank. *)

open Musketeer

(* (a) codegen optimizations per backend on TPC-H Q17 *)
let codegen_ablation ppf =
  let m = Musketeer.create ~cluster:(Common.ec2 16) () in
  let hdfs = Common.load_tpch ~scale_factor:10 in
  let graph = Workloads.Workflows.tpch_q17 () in
  let rows =
    List.map
      (fun (name, backend) ->
         let run mode =
           Common.cell
             (Common.run_forced ~mode m ~workflow:"q17" ~hdfs ~backend graph)
         in
         [ name; run Executor.Baseline; run Executor.Generated;
           run Executor.Generated_naive ])
      [ ("Hadoop", Engines.Backend.Hadoop); ("Spark", Engines.Backend.Spark);
        ("Naiad", Engines.Backend.Naiad) ]
  in
  Common.table ppf
    ~title:"Ablation: codegen optimizations (TPC-H Q17, EC2-16)"
    ~header:[ "back-end"; "hand-tuned"; "generated"; "no shared scans" ]
    rows

(* (b) Naiad GROUP BY implementation, everything else optimized *)
let group_by_ablation ppf =
  let m = Musketeer.create ~cluster:(Common.ec2 16) () in
  let hdfs = Common.load_tpch ~scale_factor:10 in
  let graph = Workloads.Workflows.tpch_q17 () in
  let time vertex_group_by =
    let job =
      Engines.Job.make
        ~options:
          { Engines.Job.optimized_options with
            naiad_vertex_group_by = vertex_group_by }
        ~label:"q17" ~backend:Engines.Backend.Naiad graph
    in
    match
      Engines.Registry.run Engines.Backend.Naiad ~cluster:(Musketeer.cluster m)
        ~hdfs:(Engines.Hdfs.snapshot hdfs) job
    with
    | Ok r -> Common.seconds r.Engines.Report.makespan_s
    | Error e -> Engines.Report.error_to_string e
  in
  Common.table ppf
    ~title:"Ablation: Naiad GROUP BY implementation (TPC-H Q17)"
    ~header:[ "implementation"; "makespan" ]
    [ [ "vertex-level (associative decomposition)"; time true ];
      [ "collect-on-one-machine (Lindi)"; time false ] ]

(* (c) conservative first-run plan vs full-history plan *)
let history_ablation ppf =
  let m = Musketeer.create ~cluster:(Common.ec2 16) () in
  let hdfs = Common.load_tpch ~scale_factor:10 in
  let graph = Workloads.Workflows.tpch_q17 () in
  let fresh = Musketeer.with_history m (Musketeer.History.create ()) in
  let describe m' =
    match Musketeer.plan m' ~workflow:"q17" ~hdfs graph with
    | None -> ("-", "-")
    | Some (plan, _) ->
      (Common.describe_plan plan, Common.seconds plan.Partitioner.cost_s)
  in
  let cold_plan, cold_cost = describe fresh in
  (* profiling run, then re-plan *)
  let hist = Musketeer.History.create () in
  let warm = Musketeer.with_history m hist in
  (match Musketeer.plan warm ~merging:false ~workflow:"q17" ~hdfs graph with
   | Some (p, g') ->
     ignore
       (Musketeer.execute_plan warm ~workflow:"q17"
          ~hdfs:(Engines.Hdfs.snapshot hdfs) ~graph:g' p)
   | None -> ());
  let warm_plan, warm_cost = describe warm in
  Common.table ppf
    ~title:"Ablation: conservative first run vs full history (TPC-H Q17)"
    ~header:[ "condition"; "plan"; "estimated cost" ]
    [ [ "no history (conservative bounds)"; cold_plan; cold_cost ];
      [ "full history (merges unlocked)"; warm_plan; warm_cost ] ]

(* (d) partitioning algorithm quality on a Figure-16-shaped DAG *)
let fig16_ablation ppf =
  let m = Musketeer.create ~cluster:(Common.ec2 16) () in
  let profile = Musketeer.profile m in
  (* the §8 example: a deep branch ordered before the JOIN+PROJECT that
     MapReduce could merge *)
  let graph =
    Frontends.Beer.parse
      "s1 = SELECT k, v FROM f1 WHERE v > 0;\n\
       g1 = SELECT k, SUM(v) AS v FROM s1 GROUP BY k;\n\
       s2 = SELECT k, v FROM f2 WHERE v < 100;\n\
       j1 = s2 JOIN f3 ON k = k;\n\
       p1 = SELECT k, v FROM j1;\n\
       out = g1 JOIN p1 ON k = k;\n\
       OUTPUT out;\n"
  in
  let hdfs =
    Common.hdfs_with
      [ ("f1", Workloads.Datagen.uniform_pairs ~rows:5_000_000 ());
        ("f2", Workloads.Datagen.uniform_pairs ~seed:15 ~rows:5_000_000 ());
        ("f3", Workloads.Datagen.uniform_pairs ~seed:16 ~rows:5_000_000 ()) ]
  in
  (* full history so the conservative-bound rule is not what separates
     the algorithms *)
  let hist = Musketeer.History.create () in
  List.iter
    (fun (n : Ir.Operator.node) ->
       Musketeer.History.record hist ~workflow:"fig16" ~node_id:n.id
         ~output_mb:60.)
    graph.Ir.Operator.nodes;
  let m' = Musketeer.with_history m hist in
  let est = Musketeer.estimator m' ~workflow:"fig16" ~hdfs graph in
  let backends = [ Engines.Backend.Hadoop ] in
  let cost algo label =
    match algo ~profile ~est ~backends graph with
    | Some plan ->
      [ label;
        Printf.sprintf "%d jobs" (List.length plan.Partitioner.jobs);
        Common.seconds plan.Partitioner.cost_s ]
    | None -> [ label; "-"; "-" ]
  in
  Common.table ppf
    ~title:"Ablation: partitioning algorithms on the Fig-16 workflow (Hadoop)"
    ~header:[ "algorithm"; "jobs"; "estimated cost" ]
    [ cost Partitioner.dynamic "DP (single linearization)";
      cost
        (fun ~profile ~est ~backends g ->
           Partitioner.dynamic_multi_order ~orders:24 ~profile ~est ~backends
             g)
        "DP (multiple linearizations)";
      cost Partitioner.exhaustive "exhaustive (optimal)" ]

(* (e) extension engines on PageRank *)
let extension_engines_ablation ppf =
  let graph = Workloads.Workflows.pagerank_gas () in
  let rows =
    List.map
      (fun (name, backend, nodes) ->
         let m = Musketeer.create ~cluster:(Common.ec2 nodes) () in
         let hdfs = Common.load_graph Workloads.Datagen.twitter in
         [ name; string_of_int nodes;
           Common.cell
             (Common.run_forced m ~workflow:"pagerank" ~hdfs ~backend graph)
         ])
      [ ("PowerGraph", Engines.Backend.Power_graph, 16);
        ("Giraph (ext)", Engines.Backend.Giraph, 16);
        ("GraphChi", Engines.Backend.Graph_chi, 1);
        ("X-Stream (ext)", Engines.Backend.X_stream, 1) ]
  in
  Common.table ppf
    ~title:"Ablation: extension engines, PageRank on Twitter"
    ~header:[ "engine"; "nodes"; "makespan" ]
    rows

(* (f) failure recovery cost per engine (Table 3's FT column) *)
let failure_ablation ppf =
  let m = Musketeer.create ~cluster:(Common.ec2 16) () in
  let hdfs = Common.load_tpch ~scale_factor:10 in
  let graph = Workloads.Workflows.tpch_q17 () in
  let rows =
    List.filter_map
      (fun backend ->
         match
           Musketeer.plan m ~backends:[ backend ] ~workflow:"q17" ~hdfs graph
         with
         | None -> None
         | Some (plan, g') -> (
           match
             Musketeer.execute_plan ~record_history:false m ~workflow:"q17"
               ~hdfs:(Engines.Hdfs.snapshot hdfs) ~graph:g' plan
           with
           | Error _ -> None
           | Ok result -> (
             match result.Executor.reports with
             | [] -> None
             | first :: _ ->
               let overhead =
                 Engines.Faults.failure_overhead backend first
                   ~at_fraction:0.5
               in
               Some
                 [ Engines.Backend.name backend;
                   (match Engines.Faults.recovery_of backend with
                    | Engines.Faults.Restart -> "restart"
                    | Engines.Faults.Reexecute_tasks g ->
                      Printf.sprintf "re-exec (unit %.0f%%)" (100. *. g));
                   Printf.sprintf "%+.0f%%" (100. *. (overhead -. 1.)) ])))
      [ Engines.Backend.Hadoop; Engines.Backend.Spark;
        Engines.Backend.Naiad; Engines.Backend.Metis;
        Engines.Backend.Serial_c ]
  in
  Common.table ppf
    ~title:
      "Ablation: cost of a worker failure at 50% of the first Q17 job \
       (Table 3 FT column)"
    ~header:[ "engine"; "recovery"; "makespan overhead" ]
    rows

let run ppf =
  codegen_ablation ppf;
  group_by_ablation ppf;
  history_ablation ppf;
  fig16_ablation ppf;
  extension_engines_ablation ppf;
  failure_ablation ppf
