(** Figure 14 — quality of Musketeer's automated back-end choices
    (§6.7): 33 configurations of the paper's workflows at varying input
    sizes, compared against the ground-truth best mapping.

    For each configuration we establish ground truth by running every
    feasible single-backend mapping, then score four deciders:
    - Musketeer with no workflow history (first run);
    - Musketeer with partial history (half the operators profiled);
    - Musketeer with full history (an operator-by-operator profiling
      run first, as the paper does);
    - the fixed decision tree of {!Musketeer.Mapper}.

    A choice within 10% of the best option is "good", within 30%
    "reasonable", otherwise "poor". Expected: ~50% good without
    history, >80% with partial history, all good with full history,
    and the decision tree clearly worse. *)

type config = {
  cfg_label : string;
  workflow : string;
  graph : unit -> Ir.Operator.graph;
  hdfs : unit -> Engines.Hdfs.t;
  cluster : Engines.Cluster.t;
}

let configs () =
  let c16 = Common.ec2 16 in
  let tpch sf =
    { cfg_label = Printf.sprintf "tpch-q17 sf%d" sf; workflow = "q17";
      graph = Workloads.Workflows.tpch_q17;
      hdfs = (fun () -> Common.load_tpch ~scale_factor:sf); cluster = c16 }
  and shopper users =
    { cfg_label = Printf.sprintf "top-shopper %gM"
        (float_of_int users /. 1e6);
      workflow = "top-shopper"; graph = Workloads.Workflows.top_shopper;
      hdfs = (fun () -> Common.load_purchases ~users); cluster = c16 }
  and netflix movies =
    { cfg_label = Printf.sprintf "netflix %dk movies" (movies / 1000);
      workflow = "netflix"; graph = Workloads.Workflows.netflix;
      hdfs = (fun () -> Common.load_netflix ~movies); cluster = c16 }
  and pagerank spec nodes =
    { cfg_label =
        Printf.sprintf "pagerank %s @%d" spec.Workloads.Datagen.spec_name
          nodes;
      workflow = "pagerank";
      graph = (fun () -> Workloads.Workflows.pagerank_gas ());
      hdfs = (fun () -> Common.load_graph spec); cluster = Common.ec2 nodes }
  and project mb =
    { cfg_label = Printf.sprintf "project %.1fGB" (mb /. 1024.);
      workflow = "project"; graph = Workloads.Workflows.project_only;
      hdfs =
        (fun () ->
           Common.hdfs_with
             [ ("lines",
                Workloads.Datagen.two_column_ascii ~modeled_mb:mb ()) ]);
      cluster = Common.local7 }
  and join symmetric =
    { cfg_label = (if symmetric then "join symmetric" else "join asymmetric");
      workflow = "join"; graph = Workloads.Workflows.simple_join;
      hdfs =
        (fun () ->
           if symmetric then
             Common.hdfs_with
               [ ("left", Workloads.Datagen.uniform_pairs ~rows:39_000_000 ());
                 ("right",
                  Workloads.Datagen.uniform_pairs ~seed:14 ~rows:39_000_000 ()) ]
           else begin
             let l, r = Workloads.Datagen.asymmetric_join_tables () in
             Common.hdfs_with [ ("left", l); ("right", r) ]
           end);
      cluster = Common.local7 }
  and sssp () =
    { cfg_label = "sssp twitter"; workflow = "sssp";
      graph = (fun () -> Workloads.Workflows.sssp ~max_rounds:8 ());
      hdfs = Common.load_sssp; cluster = c16 }
  and kmeans points =
    { cfg_label = Printf.sprintf "kmeans %dM pts" (points / 1_000_000);
      workflow = "kmeans";
      graph = (fun () -> Workloads.Workflows.kmeans ~iterations:3 ());
      hdfs = (fun () -> Common.load_kmeans ~points ~k:100); cluster = c16 }
  in
  [ tpch 5; tpch 10; tpch 25; tpch 50; tpch 75; tpch 100;
    shopper 10_000; shopper 100_000; shopper 1_000_000; shopper 10_000_000;
    shopper 50_000_000;
    netflix 1000; netflix 4000; netflix 8000; netflix 17000;
    pagerank Workloads.Datagen.orkut 16;
    pagerank Workloads.Datagen.orkut 100;
    pagerank Workloads.Datagen.twitter 16;
    pagerank Workloads.Datagen.twitter 100;
    pagerank Workloads.Datagen.livejournal 16;
    project 128.; project 512.; project 2048.; project 8192.;
    project 32768.;
    join false; join true;
    sssp ();
    kmeans 1_000_000; kmeans 10_000_000; kmeans 100_000_000;
    shopper 25_000_000; netflix 12000 ]

type quality =
  | Good
  | Reasonable
  | Poor
  | Failed

let classify ~best s =
  if s <= 1.10 *. best then Good
  else if s <= 1.30 *. best then Reasonable
  else Poor

let input_mb_of hdfs graph =
  List.fold_left
    (fun acc r ->
       if Engines.Hdfs.mem hdfs r then acc +. Engines.Hdfs.modeled_mb hdfs r
       else acc)
    0.
    (Ir.Dag.input_relations graph)

(* evaluate the four deciders on one configuration *)
let evaluate cfg =
  let base = Musketeer.create ~cluster:cfg.cluster () in
  let hdfs = cfg.hdfs () in
  let graph = cfg.graph () in
  (* ground truth: every feasible single-backend mapping *)
  let truth =
    List.filter_map
      (fun backend ->
         match
           Common.run_forced (Musketeer.with_history base (Musketeer.History.create ()))
             ~workflow:cfg.workflow ~hdfs ~backend graph
         with
         | Ok s -> Some s
         | Error _ -> None)
      Engines.Backend.all
  in
  match truth with
  | [] -> None
  | _ ->
    let best = List.fold_left min infinity truth in
    let score m =
      match
        Common.run_auto ~profiled:false m ~workflow:cfg.workflow ~hdfs graph
      with
      | Ok (s, _) -> classify ~best s
      | Error _ -> Failed
    in
    (* no history *)
    let fresh = Musketeer.with_history base (Musketeer.History.create ()) in
    let no_history = score fresh in
    (* build full history with an operator-by-operator profiling run *)
    let profiled =
      Common.steady_state base ~workflow:cfg.workflow ~hdfs graph
    in
    let full_hist = Musketeer.history profiled in
    let full_history = score profiled in
    (* partial history = the upstream half of the operators, as an
       incrementally-acquired (interrupted) profiling run would leave *)
    let max_id =
      List.fold_left
        (fun acc (n : Ir.Operator.node) -> max acc n.id)
        0 graph.Ir.Operator.nodes
    in
    let partial =
      Musketeer.with_history base
        (Musketeer.History.filtered full_hist ~keep:(fun id ->
             2 * id <= max_id + 2))
    in
    let partial_history = score partial in
    (* decision tree *)
    let tree_backend =
      Musketeer.Mapper.decision_tree ~cluster:cfg.cluster
        ~input_mb:(input_mb_of hdfs graph) graph
    in
    let tree =
      match
        Common.run_forced ~profiled:false fresh ~workflow:cfg.workflow ~hdfs
          ~backend:tree_backend graph
      with
      | Ok s -> classify ~best s
      | Error _ -> Failed
    in
    Some (cfg.cfg_label, no_history, partial_history, full_history, tree)

let quality_to_string = function
  | Good -> "good"
  | Reasonable -> "reasonable"
  | Poor -> "poor"
  | Failed -> "failed"

let summarize results pick =
  let total = List.length results in
  let count q =
    List.length (List.filter (fun r -> pick r = q) results)
  in
  Printf.sprintf "%d%% good / %d%% reasonable / %d%% poor"
    (100 * count Good / total)
    (100 * count Reasonable / total)
    (100 * (count Poor + count Failed) / total)

let run ppf =
  let results = List.filter_map evaluate (configs ()) in
  Common.table ppf
    ~title:
      (Printf.sprintf "Figure 14: automated mapping quality (%d configs)"
         (List.length results))
    ~header:[ "configuration"; "no history"; "partial"; "full"; "dec. tree" ]
    (List.map
       (fun (label, n, p, f, t) ->
          [ label; quality_to_string n; quality_to_string p;
            quality_to_string f; quality_to_string t ])
       results);
  Format.fprintf ppf "@.summary:@.";
  Format.fprintf ppf "  no history : %s@."
    (summarize results (fun (_, n, _, _, _) -> n));
  Format.fprintf ppf "  partial    : %s@."
    (summarize results (fun (_, _, p, _, _) -> p));
  Format.fprintf ppf "  full       : %s@."
    (summarize results (fun (_, _, _, f, _) -> f));
  Format.fprintf ppf "  dec. tree  : %s@."
    (summarize results (fun (_, _, _, _, t) -> t))
