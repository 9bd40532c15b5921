(** Figure 8 — Musketeer's dynamic mapping for PageRank vs the
    best-in-class hand-written system at 1, 16 and 100 nodes (§6.2),
    plus resource efficiency on the Twitter graph (8c).

    Expected: at each scale Musketeer's automatic choice lands within a
    small factor of the best stand-alone baseline (GraphChi on one
    node; PowerGraph or Naiad at 16; Naiad at 100), and its resource
    efficiency tracks the best baselines'. *)

let baseline_systems nodes =
  if nodes = 1 then
    [ ("GraphChi", Engines.Backend.Graph_chi);
      ("Spark", Engines.Backend.Spark);
      ("Hadoop", Engines.Backend.Hadoop) ]
  else
    [ ("GraphLINQ", Engines.Backend.Naiad);
      ("PowerGraph", Engines.Backend.Power_graph);
      ("Spark", Engines.Backend.Spark);
      ("Hadoop", Engines.Backend.Hadoop) ]

type scale_result = {
  nodes : int;
  best_name : string;
  best_s : float;
  musketeer_s : float;
  musketeer_plan : string;
}

let at_scale ~spec nodes =
  let m = Musketeer.create ~cluster:(Common.ec2 nodes) () in
  let hdfs = Common.load_graph spec in
  let graph = Workloads.Workflows.pagerank_gas () in
  let baselines =
    List.filter_map
      (fun (name, backend) ->
         match
           Common.run_forced ~mode:Musketeer.Executor.Baseline m
             ~workflow:"pagerank" ~hdfs ~backend graph
         with
         | Ok s -> Some (name, s)
         | Error _ -> None)
      (baseline_systems nodes)
  in
  let best_name, best_s =
    List.fold_left
      (fun (bn, bs) (name, s) -> if s < bs then (name, s) else (bn, bs))
      ("-", infinity) baselines
  in
  match Common.run_auto m ~workflow:"pagerank" ~hdfs graph with
  | Ok (musketeer_s, musketeer_plan) ->
    Some { nodes; best_name; best_s; musketeer_s; musketeer_plan }
  | Error _ -> None

(* aggregate node-seconds normalized to the best single-node run (§6.1) *)
let efficiency ~single_node_best ~makespan ~nodes =
  single_node_best /. (makespan *. float_of_int nodes)

let run ppf =
  let scales = [ 1; 16; 100 ] in
  let graph_section title spec =
    let rows =
      List.filter_map (fun nodes -> at_scale ~spec nodes) scales
    in
    Common.table ppf ~title
      ~header:
        [ "nodes"; "best baseline"; "baseline"; "Musketeer"; "plan" ]
      (List.map
         (fun r ->
            [ string_of_int r.nodes; r.best_name; Common.seconds r.best_s;
              Common.seconds r.musketeer_s; r.musketeer_plan ])
         rows);
    rows
  in
  let _ = graph_section "Figure 8a: PageRank Orkut" Workloads.Datagen.orkut in
  let twitter_rows =
    graph_section "Figure 8b: PageRank Twitter" Workloads.Datagen.twitter
  in
  (* 8c: resource efficiency on Twitter, normalized to the fastest
     single-node execution *)
  match
    List.find_opt (fun (r : scale_result) -> r.nodes = 1) twitter_rows
  with
  | None -> ()
  | Some single ->
    let single_node_best = single.best_s in
    Common.table ppf
      ~title:"Figure 8c: resource efficiency, PageRank Twitter"
      ~header:[ "nodes"; "best baseline"; "Musketeer" ]
      (List.map
         (fun (r : scale_result) ->
            [ string_of_int r.nodes;
              Printf.sprintf "%.0f%%"
                (100. *. efficiency ~single_node_best ~makespan:r.best_s
                   ~nodes:r.nodes);
              Printf.sprintf "%.0f%%"
                (100.
                 *. efficiency ~single_node_best ~makespan:r.musketeer_s
                      ~nodes:r.nodes) ])
         twitter_rows)
