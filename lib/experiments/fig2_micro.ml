(** Figure 2 — query-processing micro-benchmarks on the 7-node local
    cluster (§2.1).

    (a) PROJECT: extract one column from two-column ASCII input,
    128 MB – 32 GB. Expected shape: Metis wins small inputs, Hadoop wins
    at scale, Spark trails Hadoop (RDD materialization with no re-use),
    Lindi-on-Naiad suffers from its single reader thread, Hive adds
    query-layer overhead over Hadoop.

    (b) JOIN: an asymmetric LiveJournal vertices-by-edges join (serial C
    wins — the computation cannot amortize distributed overheads) and a
    symmetric 39M-by-39M row join producing ~1.5B rows (Hadoop wins on
    parallel HDFS streaming). *)

let project_sizes_mb = [ 128.; 512.; 2048.; 8192.; 32768. ]

type system_under_test = {
  sut_name : string;
  backend : Engines.Backend.t;
  mode : Musketeer.Executor.mode;
}

let project_systems =
  [ { sut_name = "Hive"; backend = Engines.Backend.Hadoop;
      mode = Musketeer.Executor.Native_frontend };
    { sut_name = "Hadoop"; backend = Engines.Backend.Hadoop;
      mode = Musketeer.Executor.Baseline };
    { sut_name = "Spark"; backend = Engines.Backend.Spark;
      mode = Musketeer.Executor.Baseline };
    { sut_name = "Metis"; backend = Engines.Backend.Metis;
      mode = Musketeer.Executor.Baseline };
    { sut_name = "Lindi"; backend = Engines.Backend.Naiad;
      mode = Musketeer.Executor.Native_frontend } ]

let join_systems =
  { sut_name = "C"; backend = Engines.Backend.Serial_c;
    mode = Musketeer.Executor.Baseline }
  :: project_systems

let project_makespans ~size_mb =
  let m = Musketeer.create ~cluster:Common.local7 () in
  let hdfs =
    Common.hdfs_with
      [ ("lines", Workloads.Datagen.two_column_ascii ~modeled_mb:size_mb ()) ]
  in
  let graph = Workloads.Workflows.project_only () in
  List.map
    (fun sut ->
       ( sut.sut_name,
         Common.run_forced ~mode:sut.mode m ~workflow:"project" ~hdfs
           ~backend:sut.backend graph ))
    project_systems

let join_makespans ~symmetric =
  let m = Musketeer.create ~cluster:Common.local7 () in
  let hdfs =
    if symmetric then
      Common.hdfs_with
        [ ("left", Workloads.Datagen.uniform_pairs ~rows:39_000_000 ());
          ("right",
           Workloads.Datagen.uniform_pairs ~seed:14 ~rows:39_000_000 ()) ]
    else begin
      let l, r = Workloads.Datagen.asymmetric_join_tables () in
      Common.hdfs_with [ ("left", l); ("right", r) ]
    end
  in
  let graph = Workloads.Workflows.simple_join () in
  List.map
    (fun sut ->
       ( sut.sut_name,
         Common.run_forced ~mode:sut.mode m ~workflow:"join" ~hdfs
           ~backend:sut.backend graph ))
    join_systems

let run ppf =
  let rows =
    List.map
      (fun size_mb ->
         Printf.sprintf "%.1f GB" (size_mb /. 1024.)
         :: List.map (fun (_, r) -> Common.cell r) (project_makespans ~size_mb))
      project_sizes_mb
  in
  Common.table ppf ~title:"Figure 2a: PROJECT makespan (7-node local cluster)"
    ~header:("input" :: List.map (fun s -> s.sut_name) project_systems)
    rows;
  let join_row label symmetric =
    label
    :: List.map (fun (_, r) -> Common.cell r) (join_makespans ~symmetric)
  in
  Common.table ppf ~title:"Figure 2b: JOIN makespan (7-node local cluster)"
    ~header:("workload" :: List.map (fun s -> s.sut_name) join_systems)
    [ join_row "asymmetric (LJ)" false; join_row "symmetric (39Mx39M)" true ]
