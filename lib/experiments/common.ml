let local7 = Engines.Cluster.local_seven

let ec2 nodes = Engines.Cluster.ec2 ~nodes

(* ---- loaders ---- *)

let hdfs_with bindings =
  let hdfs = Engines.Hdfs.create () in
  List.iter (fun (name, sized) -> Workloads.Datagen.put hdfs name sized) bindings;
  hdfs

let load_tpch ~scale_factor =
  let lineitem, part = Workloads.Datagen.tpch ~scale_factor () in
  hdfs_with [ ("lineitem", lineitem); ("part", part) ]

let load_purchases ~users =
  hdfs_with [ ("purchases", Workloads.Datagen.purchases ~users ()) ]

let load_netflix ~movies =
  let ratings, movie_list = Workloads.Datagen.netflix ~movies () in
  hdfs_with [ ("ratings", ratings); ("movies", movie_list) ]

let load_graph spec =
  let edges, vertices = Workloads.Datagen.graph_tables spec ~edges:() in
  hdfs_with [ ("edges", edges); ("vertices", vertices) ]

let load_communities () =
  let a, b = Workloads.Datagen.community_pair () in
  hdfs_with [ ("edges_a", a); ("edges_b", b) ]

let load_sssp () =
  let edges, seeds =
    Workloads.Datagen.sssp_tables Workloads.Datagen.twitter ()
  in
  hdfs_with [ ("sssp_edges", edges); ("sssp_seeds", seeds) ]

let load_kmeans ~points ~k =
  let pts, cents = Workloads.Datagen.kmeans_points ~points ~k () in
  hdfs_with [ ("points", pts); ("centroids", cents) ]

let zoo =
  let module W = Workloads.Workflows in
  [ ("tpch", fun () -> (load_tpch ~scale_factor:10, W.tpch_q17 ()));
    ("top-shopper",
     fun () -> (load_purchases ~users:10_000_000, W.top_shopper ()));
    ("netflix", fun () -> (load_netflix ~movies:8000, W.netflix ()));
    ("pagerank",
     fun () -> (load_graph Workloads.Datagen.orkut, W.pagerank_gas ()));
    ("components",
     fun () ->
       ( load_graph Workloads.Datagen.orkut,
         W.connected_components ~iterations:8 () ));
    ("cross-community",
     fun () -> (load_communities (), W.cross_community_pagerank ()));
    ("sssp", fun () -> (load_sssp (), W.sssp ~max_rounds:8 ()));
    ("kmeans",
     fun () -> (load_kmeans ~points:100_000_000 ~k:100, W.kmeans ()));
    ("join",
     fun () ->
       let l, r = Workloads.Datagen.asymmetric_join_tables () in
       (hdfs_with [ ("left", l); ("right", r) ], W.simple_join ()));
    ("project",
     fun () ->
       ( hdfs_with
           [ ("lines",
              Workloads.Datagen.two_column_ascii ~modeled_mb:2048. ()) ],
         W.project_only () )) ]

(* ---- execution helpers ---- *)

let describe_plan (p : Musketeer.Partitioner.plan) =
  String.concat "+"
    (List.map
       (fun (backend, ids) ->
          Printf.sprintf "%s[%d]" (Engines.Backend.name backend)
            (List.length ids))
       p.Musketeer.Partitioner.jobs)

(* operator-by-operator profiling run into a private history, so the
   subsequent measurement sees a deployed workflow in steady state *)
let steady_state m ~workflow ~hdfs graph =
  let m' = Musketeer.with_history m (Musketeer.History.create ()) in
  (match Musketeer.plan m' ~merging:false ~workflow ~hdfs graph with
   | Some (plan, g') -> (
     match
       Musketeer.execute_plan ~record_history:true m' ~workflow
         ~hdfs:(Engines.Hdfs.snapshot hdfs) ~graph:g' plan
     with
     | Ok _ -> ()
     | Error e ->
       (* a history recorded from a failed run would skew every
          measurement taken after it *)
       failwith
         (Printf.sprintf "%s: profiling run failed: %s" workflow
            (Engines.Report.error_to_string e)))
   | None -> ());
  m'

let run_forced ?mode ?(profiled = true) m ~workflow ~hdfs ~backend graph =
  let m = if profiled then steady_state m ~workflow ~hdfs graph else m in
  match
    Musketeer.plan m ~backends:[ backend ] ~workflow ~hdfs graph
  with
  | None ->
    Error (Printf.sprintf "%s cannot run it" (Engines.Backend.name backend))
  | Some (plan, g') -> (
    match
      Musketeer.execute_plan ?mode ~record_history:false m ~workflow
        ~hdfs:(Engines.Hdfs.snapshot hdfs) ~graph:g' plan
    with
    | Ok result -> Ok result.Musketeer.Executor.makespan_s
    | Error e -> Error (Engines.Report.error_to_string e))

let run_auto ?mode ?merging ?(profiled = true) m ~workflow ~hdfs graph =
  let m = if profiled then steady_state m ~workflow ~hdfs graph else m in
  match Musketeer.plan m ?merging ~workflow ~hdfs graph with
  | None -> Error "no feasible plan"
  | Some (plan, g') -> (
    match
      Musketeer.execute_plan ?mode ~record_history:false m ~workflow
        ~hdfs:(Engines.Hdfs.snapshot hdfs) ~graph:g' plan
    with
    | Ok result ->
      Ok (result.Musketeer.Executor.makespan_s, describe_plan plan)
    | Error e -> Error (Engines.Report.error_to_string e))

let run_with_plan ?mode m ~workflow ~hdfs ~graph jobs =
  let plan = { Musketeer.Partitioner.jobs; cost_s = 0. } in
  match
    Musketeer.execute_plan ?mode ~record_history:false m ~workflow
      ~hdfs:(Engines.Hdfs.snapshot hdfs) ~graph plan
  with
  | Ok result -> Ok result.Musketeer.Executor.makespan_s
  | Error e -> Error (Engines.Report.error_to_string e)

(* ---- formatting ---- *)

let table ppf ~title ~header rows =
  let all = header :: rows in
  let columns = List.length header in
  let width i =
    List.fold_left
      (fun acc row ->
         match List.nth_opt row i with
         | Some cell -> max acc (String.length cell)
         | None -> acc)
      0 all
  in
  let widths = List.init columns width in
  let print_row row =
    List.iteri
      (fun i cell ->
         let w = List.nth widths i in
         if i = 0 then Format.fprintf ppf "%-*s" w cell
         else Format.fprintf ppf "  %*s" w cell)
      row;
    Format.pp_print_newline ppf ()
  in
  Format.fprintf ppf "@.== %s ==@." title;
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let seconds s =
  if s >= 100. then Printf.sprintf "%.0fs" s else Printf.sprintf "%.1fs" s

let cell = function
  | Ok s -> seconds s
  | Error msg ->
    if String.length msg > 18 then String.sub msg 0 18 else msg
