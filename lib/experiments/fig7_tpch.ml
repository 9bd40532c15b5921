(** Figure 7 — TPC-H query 17 on EC2, scale factors 10–100 (§6.2).

    Four series:
    - Hive executing on its native Hadoop back-end (three-plus jobs, the
      MapReduce paradigm forces one shuffle per job);
    - Musketeer mapping the same Hive workflow to Naiad (~2x faster:
      one job, shared scans);
    - Lindi's native Naiad execution (poor scaling: single-reader I/O
      and a non-associative collect-based GROUP BY);
    - Musketeer's generated Naiad code from the Lindi workflow (same as
      from Hive — the front-end no longer matters), up to ~9x faster
      than stock Lindi at scale 100. *)

let scale_factors = [ 10; 25; 50; 75; 100 ]

let series ~scale_factor =
  let m = Musketeer.create ~cluster:(Common.ec2 16) () in
  let hdfs = Common.load_tpch ~scale_factor in
  let graph = Workloads.Workflows.tpch_q17 () in
  let hive_on_hadoop =
    Common.run_forced ~mode:Musketeer.Executor.Native_frontend m
      ~workflow:"q17" ~hdfs ~backend:Engines.Backend.Hadoop graph
  and musketeer_naiad =
    Common.run_forced ~mode:Musketeer.Executor.Generated m ~workflow:"q17"
      ~hdfs ~backend:Engines.Backend.Naiad graph
  and lindi_native =
    Common.run_forced ~mode:Musketeer.Executor.Native_frontend m
      ~workflow:"q17" ~hdfs ~backend:Engines.Backend.Naiad graph
  in
  (hive_on_hadoop, musketeer_naiad, lindi_native)

let run ppf =
  let rows =
    List.map
      (fun scale_factor ->
         let hive, musketeer, lindi = series ~scale_factor in
         let speedup =
           match lindi, musketeer with
           | Ok l, Ok m when m > 0. -> Printf.sprintf "%.1fx" (l /. m)
           | _ -> "-"
         in
         [ string_of_int scale_factor; Common.cell hive;
           Common.cell musketeer; Common.cell lindi; speedup ])
      scale_factors
  in
  Common.table ppf ~title:"Figure 7: TPC-H Q17 makespan (EC2, 16 nodes)"
    ~header:
      [ "scale"; "Hive/Hadoop"; "Musketeer->Naiad"; "Lindi native";
        "Musketeer vs Lindi" ]
    rows
