(** Table 1 — the calibrated rate parameters of Musketeer's cost
    function (§5.2): PULL, LOAD, PROCESS and PUSH per back-end, plus the
    per-job overhead and shuffle bandwidth the simulators expose. Also
    Table 3 — the feature matrix of contemporary data processing
    systems — and the §7 student-baseline anecdote. *)

module Profile = Musketeer.Profile

let table1 ppf =
  Format.fprintf ppf
    "@.== Table 1: calibrated rate parameters (7-node local cluster) ==@.";
  Profile.pp ppf (Profile.calibrate ~cluster:Common.local7 ());
  Format.fprintf ppf
    "@.== Table 1 (cont.): calibrated rates (EC2, 100 nodes) ==@.";
  Profile.pp ppf (Profile.calibrate ~cluster:(Common.ec2 100) ())

let table3 ppf =
  Format.fprintf ppf
    "@.== Table 3: contemporary data processing systems (* = supported) \
     ==@.";
  Format.fprintf ppf "%-18s %-22s %-8s %-9s %-9s %-6s %-5s %s@." "system"
    "paradigm" "unit" "iteration" "sharding" "work" "FT" "language";
  List.iter
    (fun row -> Format.fprintf ppf "%a@." Engines.Capabilities.pp_row row)
    Engines.Capabilities.all

(* §7: the simple JOIN workflow, Musketeer-generated Hadoop job vs an
   average-programmer baseline (mis-tuned configuration, no combiner,
   per-operator scans). The paper reports 608 s vs 223 s. *)
let student_join ppf =
  let m = Musketeer.create ~cluster:Common.local7 () in
  let l, r = Workloads.Datagen.asymmetric_join_tables () in
  let hdfs =
    Common.hdfs_with
      [ ("left", { l with modeled_mb = l.modeled_mb *. 4. });
        ("right", { r with modeled_mb = r.modeled_mb *. 4. }) ]
  in
  let graph = Workloads.Workflows.simple_join () in
  let musketeer =
    Common.run_forced ~mode:Musketeer.Executor.Generated m ~workflow:"join"
      ~hdfs ~backend:Engines.Backend.Hadoop graph
  in
  (* the student's job: extra passes and badly tuned processing *)
  let student =
    let job =
      Engines.Job.make
        ~options:
          { Engines.Job.scan_passes = 7; process_multiplier = 5.5;
            shuffle_multiplier = 4.;
            naiad_parallel_io = false; naiad_vertex_group_by = false }
        ~label:"student-join" ~backend:Engines.Backend.Hadoop graph
    in
    match
      Engines.Registry.run Engines.Backend.Hadoop
        ~cluster:(Musketeer.cluster m)
        ~hdfs:(Engines.Hdfs.snapshot hdfs) job
    with
    | Ok report -> Ok report.Engines.Report.makespan_s
    | Error e -> Error (Engines.Report.error_to_string e)
  in
  Common.table ppf
    ~title:"Section 7: JOIN workflow, Musketeer vs student baseline (Hadoop)"
    ~header:[ "implementation"; "makespan" ]
    [ [ "best student baseline"; Common.cell student ];
      [ "Musketeer-generated"; Common.cell musketeer ] ]
