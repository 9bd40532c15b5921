(** Figure 11 — generated-code overhead for five-iteration PageRank on
    the Twitter graph, for every back-end that can run it (§6.4).
    Average overhead stays below 30%. *)

let backends =
  [ ("Hadoop", Engines.Backend.Hadoop, 100);
    ("Spark", Engines.Backend.Spark, 100);
    ("Naiad", Engines.Backend.Naiad, 100);
    ("PowerGraph", Engines.Backend.Power_graph, 16);
    ("GraphChi", Engines.Backend.Graph_chi, 1) ]

let overheads () =
  List.map
    (fun (name, backend, nodes) ->
       let m = Musketeer.create ~cluster:(Common.ec2 nodes) () in
       let hdfs = Common.load_graph Workloads.Datagen.twitter in
       let graph = Workloads.Workflows.pagerank_gas () in
       let generated =
         Common.run_forced ~mode:Musketeer.Executor.Generated m
           ~workflow:"pagerank" ~hdfs ~backend graph
       and baseline =
         Common.run_forced ~mode:Musketeer.Executor.Baseline m
           ~workflow:"pagerank" ~hdfs ~backend graph
       in
       (name, nodes, generated, baseline))
    backends

let run ppf =
  Common.table ppf
    ~title:"Figure 11: PageRank (Twitter) generated-code overhead"
    ~header:[ "back-end"; "nodes"; "generated"; "baseline"; "overhead" ]
    (List.map
       (fun (name, nodes, generated, baseline) ->
          let pct =
            match generated, baseline with
            | Ok g, Ok b -> Printf.sprintf "%+.1f%%" (100. *. ((g -. b) /. b))
            | _ -> "-"
          in
          [ name; string_of_int nodes; Common.cell generated;
            Common.cell baseline; pct ])
       (overheads ()))
