(** Figure 15 — automated mapping on two previously unseen workflows
    (§6.7): single-source shortest paths on the Twitter graph with edge
    costs, and k-means over 100M random points (100 clusters, 2-D,
    5 iterations).

    SSSP fits the vertex-centric paradigm; k-means does not (its CROSS
    JOIN is deliberately kept, §6.7 footnote — it drives Spark out of
    memory). Musketeer's automated choice (marked with a club, as in
    the paper) should land on Naiad for both. *)

let backends =
  [ ("Hadoop", Engines.Backend.Hadoop); ("Spark", Engines.Backend.Spark);
    ("Naiad", Engines.Backend.Naiad);
    ("PowerGraph", Engines.Backend.Power_graph);
    ("GraphChi", Engines.Backend.Graph_chi);
    ("Metis", Engines.Backend.Metis) ]

let study ~workflow ~hdfs ~graph =
  let m = Musketeer.create ~cluster:(Common.ec2 16) () in
  let per_backend =
    List.map
      (fun (name, backend) ->
         (name, Common.run_forced m ~workflow ~hdfs ~backend graph))
      backends
  in
  let choice =
    match Musketeer.plan m ~workflow ~hdfs graph with
    | Some (plan, _) -> Common.describe_plan plan
    | None -> "-"
  in
  (per_backend, choice)

let run ppf =
  let section title ~workflow ~hdfs ~graph =
    let per_backend, choice = study ~workflow ~hdfs ~graph in
    Common.table ppf ~title ~header:[ "back-end"; "makespan" ]
      (List.map
         (fun (name, r) ->
            let marker =
              (* the club marks Musketeer's automated choice *)
              if
                String.length choice >= String.length name
                && String.sub choice 0 (String.length name) = name
              then " *club*"
              else ""
            in
            [ name ^ marker; Common.cell r ])
         per_backend);
    Format.fprintf ppf "Musketeer's automated choice: %s@." choice
  in
  section "Figure 15a: SSSP on Twitter with costs (EC2, 5 rounds shown)"
    ~workflow:"sssp" ~hdfs:(Common.load_sssp ())
    ~graph:(Workloads.Workflows.sssp ~max_rounds:8 ());
  section "Figure 15b: k-means, 100M points, k=100 (EC2)"
    ~workflow:"kmeans"
    ~hdfs:(Common.load_kmeans ~points:100_000_000 ~k:100)
    ~graph:(Workloads.Workflows.kmeans ~iterations:5 ())
