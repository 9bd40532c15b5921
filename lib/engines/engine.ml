type t = {
  backend : Backend.t;
  supports : Ir.Operator.graph -> (unit, string) result;
  price :
    cluster:Cluster.t -> Job.t -> Exec_helper.result ->
    (Report.t, Report.error) result;
  run :
    ?inject:Injector.t -> ?share:Share.t -> cluster:Cluster.t ->
    hdfs:Hdfs.t -> Job.t -> (Report.t, Report.error) result;
}

type spec = {
  spec_backend : Backend.t;
  spec_supports : Ir.Operator.graph -> (unit, string) result;
  spec_rates :
    cluster:Cluster.t -> job:Job.t -> volumes:Perf.volumes -> Perf.rates;
  spec_admit :
    cluster:Cluster.t -> job:Job.t -> volumes:Perf.volumes ->
    stats:Exec_helper.op_stat list -> (unit, Report.error) result;
  spec_comm_penalty_s :
    cluster:Cluster.t -> job:Job.t -> stats:Exec_helper.op_stat list -> float;
  spec_adjust_volumes :
    job:Job.t -> stats:Exec_helper.op_stat list -> Perf.volumes ->
    Perf.volumes;
}

let default_spec backend =
  { spec_backend = backend;
    spec_supports = (fun _ -> Ok ());
    spec_rates =
      (fun ~cluster:_ ~job:_ ~volumes:_ ->
         { Perf.overhead_s = 1.; pull_mb_s = 100.; load_mb_s = None;
           process_mb_s = 100.; comm_mb_s = 100.; push_mb_s = 100.;
           iter_overhead_s = 1. });
    spec_admit = (fun ~cluster:_ ~job:_ ~volumes:_ ~stats:_ -> Ok ());
    spec_comm_penalty_s = (fun ~cluster:_ ~job:_ ~stats:_ -> 0.);
    spec_adjust_volumes = (fun ~job:_ ~stats:_ volumes -> volumes) }

let gas_message_volumes ~(job : Job.t) ~stats volumes =
  let message_mb = ref 0. and process_mb = ref 0. in
  List.iter
    (fun (s : Exec_helper.op_stat) ->
       match s.kind_name with
       | "GROUP BY" | "AGG" ->
         message_mb := !message_mb +. s.in_mb;
         process_mb := !process_mb +. (1.5 *. s.in_mb)
       | "JOIN" -> process_mb := !process_mb +. (1.8 *. s.in_mb)
       | "MAP" -> process_mb := !process_mb +. (1.1 *. s.in_mb)
       | _ ->
         (* DIFFERENCE/UNION/PROJECT only encode the superstep in the
            dataflow IR; a GAS runtime walks its shards instead *)
         ())
    stats;
  { volumes with
    Perf.comm_mb = !message_mb *. job.options.Job.shuffle_multiplier;
    process_mb = !process_mb *. job.options.Job.process_multiplier }

(* Prices an executed job whose graph the engine supports: code-quality
   volume adjustments, the engine's own reshaping, admission, rates,
   makespan and the comm penalty. Pure: no fault draw, no HDFS write,
   no metric. *)
let price_supported spec ~cluster (job : Job.t) (exec : Exec_helper.result) =
  let opts = job.options in
  let volumes =
    { exec.volumes with
      Perf.scan_extra_mb =
        float_of_int (max 0 (opts.Job.scan_passes - 1))
        *. exec.volumes.Perf.input_mb;
      process_mb = exec.volumes.Perf.process_mb *. opts.Job.process_multiplier;
      comm_mb = exec.volumes.Perf.comm_mb *. opts.Job.shuffle_multiplier }
  in
  let volumes = spec.spec_adjust_volumes ~job ~stats:exec.op_stats volumes in
  match spec.spec_admit ~cluster ~job ~volumes ~stats:exec.op_stats with
  | Error e -> Error e
  | Ok () ->
    let rates = spec.spec_rates ~cluster ~job ~volumes in
    let breakdown, makespan = Perf.makespan rates volumes in
    let penalty = spec.spec_comm_penalty_s ~cluster ~job ~stats:exec.op_stats in
    Ok
      { Report.job_label = job.label; backend = spec.spec_backend;
        makespan_s = makespan +. penalty;
        breakdown =
          { breakdown with Report.comm_s = breakdown.Report.comm_s +. penalty };
        input_mb = volumes.Perf.input_mb;
        output_mb = volumes.Perf.output_mb;
        iterations = volumes.Perf.iterations;
        op_output_mb =
          List.map
            (fun (s : Exec_helper.op_stat) -> (s.node_id, s.out_mb))
            exec.op_stats }

(* A service's shared store may have a co-admitted workflow already
   paying for some of the job's scans: the bytes came from HDFS either
   way, only the charge is waived. Claims run in fetch order, and the
   unwaived fetches are summed in that order, as the fetches were. *)
let claim_scans share (exec : Exec_helper.result) =
  match share with
  | None -> exec
  | Some share ->
    let input_mb =
      List.fold_left
        (fun s (relation, mb) ->
           if Share.claim share ~relation ~mb then s else s +. mb)
        0. exec.scans
    in
    { exec with
      volumes = { exec.volumes with Perf.input_mb; load_mb = input_mb } }

(* Injected faults strike after pricing, before anything materializes:
   a faulted job never leaves partial state. *)
let draw_fault inject backend (report : Report.t) =
  match Option.bind inject Injector.draw with
  | None -> Ok report
  | Some fault ->
    Obs.Trace.add_attr "fault"
      (Obs.Trace.String (Faults.fault_to_string fault));
    Obs.Metrics.incr Obs.Metrics.default
      ("faults.injected." ^ Backend.name backend);
    (match fault with
     | Faults.Engine_rejection msg ->
       Error (Report.Out_of_memory ("injected: " ^ msg))
     | Faults.Straggler { slowdown } ->
       (* absorbed in place: the job still succeeds, just slower — the
          supervisor detects this via the injector's straggler count
          or the deadline and may speculate *)
       let extra = (slowdown -. 1.) *. report.makespan_s in
       Obs.Metrics.incr Obs.Metrics.default "faults.straggler";
       Obs.Metrics.incr Obs.Metrics.default
         ("faults.straggler." ^ Backend.name backend);
       Obs.Metrics.observe Obs.Metrics.default "faults.straggler.slowdown"
         slowdown;
       Obs.Trace.add_attr "straggler_slowdown" (Obs.Trace.Float slowdown);
       Ok
         { report with
           makespan_s = slowdown *. report.makespan_s;
           breakdown =
             { report.breakdown with
               Report.process_s = report.breakdown.Report.process_s +. extra } }
     | Faults.Worker_failure { at_fraction } -> (
       match Faults.recovery_of backend with
       | Faults.Restart ->
         (* no fault tolerance (Table 3): the job aborts and the executor
            must recover *)
         Error (Report.Worker_lost { at_fraction })
       | Faults.Reexecute_tasks _ ->
         (* the engine re-executes the lost tasks itself at the Table 3
            price; the job still succeeds *)
         let makespan' =
           Faults.makespan_with_failure backend report ~at_fraction
         in
         let extra = makespan' -. report.makespan_s in
         Obs.Trace.add_attr "recovered_s" (Obs.Trace.Float extra);
         Ok
           { report with
             makespan_s = makespan';
             breakdown =
               { report.breakdown with
                 Report.overhead_s =
                   report.breakdown.Report.overhead_s +. extra } }))

let publish ~hdfs share (exec : Exec_helper.result) (report : Report.t) =
  Obs.Trace.with_span "engine.publish" @@ fun () ->
  let kept = ref 0 in
  List.iter
    (fun (name, table, mb) ->
       Hdfs.put hdfs name ~modeled_mb:mb table;
       let stored = Hdfs.table hdfs name in
       if Relation.Table.is_view stored || Relation.Table.matches stored <> None
       then incr kept;
       Hdfs.note_write hdfs ~mb;
       (* an overwritten relation invalidates every shared entry that
          read it, scans and subplans alike *)
       Option.iter (fun share -> Share.note_write share name) share)
    exec.outputs;
  Obs.Trace.add_attr "views_kept" (Obs.Trace.Int !kept);
  Hdfs.note_read hdfs ~mb:report.input_mb

let of_spec spec =
  let price ~cluster (job : Job.t) exec =
    match spec.spec_supports job.graph with
    | Error reason -> Error (Report.Unsupported reason)
    | Ok () -> price_supported spec ~cluster job exec
  in
  let run ?inject ?share ~cluster ~hdfs (job : Job.t) =
    Obs.Trace.with_span
      ~attrs:[ ("backend", Obs.Trace.String (Backend.name spec.spec_backend));
               ("label", Obs.Trace.String job.Job.label) ]
      "engine.run"
    @@ fun () ->
    match spec.spec_supports job.graph with
    | Error reason -> Error (Report.Unsupported reason)
    | Ok () ->
      let ( let* ) = Result.bind in
      let exec = claim_scans share (Exec_helper.execute ~hdfs job.graph) in
      let* report = price_supported spec ~cluster job exec in
      let* report = draw_fault inject spec.spec_backend report in
      publish ~hdfs share exec report;
      Ok report
  in
  { backend = spec.spec_backend; supports = spec.spec_supports; price; run }
