(** Figure 3 — five-iteration PageRank on Orkut (3M/117M) and Twitter
    (43M/1.4B), across systems and cluster scales (§2.2).

    Expected shape: graph-oriented paradigms dominate; GraphLINQ on
    Naiad is fastest at 100 nodes; PowerGraph beats it at 16 nodes
    thanks to its vertex-cut sharding; GraphChi on one machine stays
    remarkably close; general-purpose systems (Spark, Hadoop) trail,
    Hadoop catastrophically (one job chain per iteration). *)

type config = {
  cfg_name : string;
  backend : Engines.Backend.t;
  nodes : int;
}

let configs =
  [ { cfg_name = "Hadoop@16"; backend = Engines.Backend.Hadoop; nodes = 16 };
    { cfg_name = "Hadoop@100"; backend = Engines.Backend.Hadoop; nodes = 100 };
    { cfg_name = "Spark@16"; backend = Engines.Backend.Spark; nodes = 16 };
    { cfg_name = "Spark@100"; backend = Engines.Backend.Spark; nodes = 100 };
    { cfg_name = "GraphLINQ@16"; backend = Engines.Backend.Naiad; nodes = 16 };
    { cfg_name = "GraphLINQ@100"; backend = Engines.Backend.Naiad;
      nodes = 100 };
    { cfg_name = "PowerGraph@16"; backend = Engines.Backend.Power_graph;
      nodes = 16 };
    { cfg_name = "PowerGraph@100"; backend = Engines.Backend.Power_graph;
      nodes = 100 };
    { cfg_name = "GraphChi@1"; backend = Engines.Backend.Graph_chi;
      nodes = 1 } ]

let makespan ~spec ~cfg =
  let m = Musketeer.create ~cluster:(Common.ec2 cfg.nodes) () in
  let hdfs = Common.load_graph spec in
  Common.run_forced ~mode:Musketeer.Executor.Baseline m ~workflow:"pagerank"
    ~hdfs ~backend:cfg.backend
    (Workloads.Workflows.pagerank_gas ())

let rows () =
  List.map
    (fun cfg ->
       ( cfg.cfg_name,
         makespan ~spec:Workloads.Datagen.orkut ~cfg,
         makespan ~spec:Workloads.Datagen.twitter ~cfg ))
    configs

let run ppf =
  Common.table ppf
    ~title:"Figure 3: PageRank makespan, 5 iterations (EC2 m1.xlarge)"
    ~header:[ "system"; "Orkut (3M/117M)"; "Twitter (43M/1.4B)" ]
    (List.map
       (fun (name, orkut, twitter) ->
          [ name; Common.cell orkut; Common.cell twitter ])
       (rows ()))
