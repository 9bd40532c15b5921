(* Fault-injection ablation: makespan under an injected worker failure.

   For each engine that can run TPC-H Q17 alone, run the forced plan
   fault-free, then again with a deterministic worker failure injected
   at 50% of the first job (seed 42, probability 1). Fault-tolerant
   engines absorb the failure internally (Table 3: re-execute lost
   tasks); the others abort and the executor's recovery policy retries
   them, charging the analytic restart cost. Either way the observed
   makespan should match the `Faults.makespan_with_failure` prediction
   applied to the fault-free first job — the ablation validates the
   executor's recovery accounting against the analytic model. *)

let fault_plan =
  { Engines.Faults.seed = 42;
    probability = 1.;
    faults = [ Engines.Faults.Worker_failure { at_fraction = 0.5 } ] }

let recovery_policy =
  { Musketeer.Recovery.default with Musketeer.Recovery.max_retries = 3 }

let run ppf =
  let m = Musketeer.create ~cluster:(Common.ec2 16) () in
  let hdfs = Common.load_tpch ~scale_factor:10 in
  let graph = Workloads.Workflows.tpch_q17 () in
  let execute ?recovery ?inject ~backend plan g' =
    match
      Musketeer.execute_plan ?recovery ?inject ~candidates:[ backend ]
        ~record_history:false m ~workflow:"q17"
        ~hdfs:(Engines.Hdfs.snapshot hdfs) ~graph:g' plan
    with
    | Ok result ->
      Ok
        ( result.Musketeer.Executor.makespan_s,
          result.Musketeer.Executor.reports )
    | Error e -> Error (Engines.Report.error_to_string e)
  in
  let rows =
    List.filter_map
      (fun backend ->
         match
           Musketeer.plan m ~backends:[ backend ] ~workflow:"q17" ~hdfs graph
         with
         | None -> None
         | Some (plan, g') ->
           let base = execute ~backend plan g' in
           let faulted =
             execute ~recovery:recovery_policy
               ~inject:(Engines.Injector.create fault_plan) ~backend plan g'
           in
           let predicted =
             match base with
             | Error _ -> Error "no baseline"
             | Ok (_, []) -> Error "no reports"
             | Ok (total, first :: _) ->
               Ok
                 (total -. first.Engines.Report.makespan_s
                  +. Engines.Faults.makespan_with_failure backend first
                       ~at_fraction:0.5)
           in
           let mode =
             match Engines.Faults.recovery_of backend with
             | Engines.Faults.Restart -> "executor retry (restart)"
             | Engines.Faults.Reexecute_tasks g ->
               Printf.sprintf "engine re-exec (unit %.0f%%)" (100. *. g)
           in
           Some
             [ Engines.Backend.name backend; mode;
               Common.cell (Result.map fst base);
               Common.cell (Result.map fst faulted);
               Common.cell predicted ])
      [ Engines.Backend.Hadoop; Engines.Backend.Spark;
        Engines.Backend.Naiad; Engines.Backend.Metis;
        Engines.Backend.Serial_c ]
  in
  Common.table ppf
    ~title:
      "Fault recovery: Q17 makespan with a worker failure at 50% of the \
       first job (seed 42) vs the analytic prediction"
    ~header:
      [ "engine"; "recovery"; "fault-free"; "under failure"; "predicted" ]
    rows;
  let events = Obs.Metrics.recoveries Obs.Metrics.default in
  if events <> [] then Obs.Metrics.pp_recoveries ppf Obs.Metrics.default
