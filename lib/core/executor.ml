let log_src = Logs.Src.create "musketeer.executor" ~doc:"job dispatch"

module Log = (val Logs.src_log log_src)

type mode =
  | Generated
  | Generated_naive
  | Baseline
  | Native_frontend

type result = {
  reports : Engines.Report.t list;
  makespan_s : float;
  outputs : (string * Relation.Table.t) list;
}

exception Execution_failed of Engines.Report.error

let job_for ~mode ~label ~backend g =
  match mode with
  | Generated -> (Codegen.generate ~label ~backend g).Codegen.job
  | Generated_naive ->
    (Codegen.generate ~share_scans:false ~infer_types:false ~label ~backend g)
      .Codegen.job
  | Baseline -> Codegen.baseline_job ~label ~backend g
  | Native_frontend -> Codegen.native_frontend_job ~label ~backend g

(* run one engine job, recording observed sizes into history *)
let dispatch ~mode ~profile ~history ~workflow ~record_history ~hdfs ~inject
    ~share ~label ~backend g mapping =
  Obs.Trace.with_span
    ~attrs:[ ("backend", Obs.Trace.String (Engines.Backend.name backend));
             ("operators", Obs.Trace.Int (Ir.Dag.operator_count g)) ]
    ("job:" ^ label)
  @@ fun () ->
  let cluster = Profile.cluster profile in
  let job = job_for ~mode ~label ~backend g in
  Log.debug (fun m ->
      m "dispatch %s to %s" label (Engines.Backend.name backend));
  (* resource probe around the dispatch: wall time, GC pressure and
     throughput land on this job's span and in the registry *)
  let probe = Obs.Probe.start () in
  match Engines.Registry.run ?inject ?share backend ~cluster ~hdfs job with
  | Error e ->
    Obs.Trace.add_attr "error" (Obs.Trace.String
                                  (Engines.Report.error_to_string e));
    Obs.Metrics.incr Obs.Metrics.default
      ("jobs.failed." ^ Engines.Backend.name backend);
    Log.err (fun m ->
        m "%s failed on %s: %s" label
          (Engines.Backend.name backend)
          (Engines.Report.error_to_string e));
    raise (Execution_failed e)
  | Ok report ->
    Obs.Probe.attach ~backend:(Engines.Backend.name backend)
      ~input_mb:report.Engines.Report.input_mb
      ~output_mb:report.Engines.Report.output_mb
      (Obs.Probe.stop probe);
    (* the simulated makespan breakdown (§6.1) rides on the span *)
    Obs.Trace.add_attr "makespan_s"
      (Obs.Trace.Float report.Engines.Report.makespan_s);
    List.iter
      (fun (field, v) -> Obs.Trace.add_attr field (Obs.Trace.Float v))
      (Engines.Report.breakdown_fields report.Engines.Report.breakdown);
    Obs.Trace.add_attr "input_mb"
      (Obs.Trace.Float report.Engines.Report.input_mb);
    Obs.Trace.add_attr "output_mb"
      (Obs.Trace.Float report.Engines.Report.output_mb);
    Obs.Trace.add_attr "iterations"
      (Obs.Trace.Int report.Engines.Report.iterations);
    Obs.Metrics.incr Obs.Metrics.default
      ("jobs." ^ Engines.Backend.name backend);
    Obs.Metrics.observe Obs.Metrics.default "job.makespan_s"
      report.Engines.Report.makespan_s;
    Log.info (fun m ->
        m "%s on %s: %.1fs (in %.0f MB, out %.0f MB)" label
          (Engines.Backend.name backend) report.Engines.Report.makespan_s
          report.Engines.Report.input_mb report.Engines.Report.output_mb);
    if record_history then
      List.iter
        (fun (job_node_id, mb) ->
           match List.assoc_opt job_node_id mapping with
           | Some workflow_id ->
             History.record history ~workflow ~node_id:workflow_id
               ~output_mb:mb
           | None -> ())
        report.Engines.Report.op_output_mb;
    report

(* WHILE on a MapReduce engine: per-iteration job chains (§4.2). The
   body's jobs run against a scope of their own, a snapshot of HDFS:
   only the loop's result enters the caller's HDFS, with the scope's
   read and written totals. *)
let expand_while ~spend ~mode ~profile ~history ~workflow ~record_history ~hdfs
    ~inject ~share ~breaker ~graph ~recovery ~backend (n : Ir.Operator.node) =
  let condition, max_iterations, body =
    match n.kind with
    | Ir.Operator.While { condition; max_iterations; body } ->
      (condition, max_iterations, body)
    | _ -> invalid_arg "Executor.expand_while: not a WHILE node"
  in
  let scope = Engines.Hdfs.snapshot hdfs in
  (* a binding that changes a relation in the scope invalidates the
     shared entries that read it, as a job's write does *)
  let bind r (e : Engines.Hdfs.entry) =
    let unchanged = Engines.Hdfs.mem scope r && Engines.Hdfs.get scope r == e in
    if not unchanged then begin
      Engines.Hdfs.put scope r ~modeled_mb:e.modeled_mb e.table;
      Option.iter (fun share -> Engines.Share.note_write share r) share
    end
  in
  (* planned once the loop's inputs are bound in the scope *)
  let body_plan =
    lazy
      (let est =
         Estimator.build
           ~input_mb:(fun r ->
             if Engines.Hdfs.mem scope r then
               Some (Engines.Hdfs.modeled_mb scope r)
             else None)
           ~history:(History.create ()) ~workflow body
       in
       match Partitioner.dynamic ~profile ~est ~backends:[ backend ] body with
       | Some plan -> plan
       | None ->
         raise
           (Execution_failed
              (Engines.Report.Unsupported
                 (Printf.sprintf "cannot partition WHILE body for %s"
                    (Engines.Backend.name backend)))))
  in
  let reports = ref [] in
  let pass i =
    (* one sibling span per dynamically expanded iteration (§4.2) *)
    Obs.Trace.with_span
      ~attrs:[ ("loop", Obs.Trace.String n.Ir.Operator.output);
               ("iteration", Obs.Trace.Int i) ]
      "while.iter"
    @@ fun () ->
    List.iteri
      (fun j (job_backend, ids) ->
         let job_graph, mapping = Jobgraph.extract_mapped body ids in
         let label =
           Printf.sprintf "%s/iter%d/job%d" n.Ir.Operator.output i j
         in
         (* retries rewind to the job's pre-attempt snapshot, so a
            half-written iteration cannot leak into the re-run *)
         let pre = Engines.Hdfs.snapshot scope in
         let reset () = Engines.Hdfs.restore scope ~from:pre in
         let run =
           Recovery.run_job ?breaker
             ~policy:{ recovery with Recovery.allow_replan = false }
             ~profile ~graph:body ~est:None ~candidates:[] ~workflow ~label
             ~ids ~reset
             ~dispatch:(fun b ->
               try
                 Ok
                   [ dispatch ~mode ~profile ~history ~workflow
                       ~record_history:false ~hdfs:scope ~inject ~share
                       ~label ~backend:b job_graph mapping ]
               with Execution_failed e -> Error e)
             job_backend
         in
         spend run.Recovery.retries;
         match run.Recovery.result with
         | Ok outcome ->
           reports := List.rev_append outcome.Recovery.reports !reports
         | Error e -> raise (Execution_failed e))
      (Lazy.force body_plan).Partitioner.jobs;
    (* read before the driver rebinds anything in the scope *)
    let produced =
      List.map
        (fun r -> (r, Engines.Hdfs.get scope r))
        (Ir.Dag.output_relations body)
    in
    fun r -> List.assoc r produced
  in
  let result, _ =
    Ir.Interp.loop ~bind ~pass
      ~table:(fun (e : Engines.Hdfs.entry) -> e.table)
      ~condition ~max_iterations body
      (List.map
         (fun id ->
            Engines.Hdfs.get hdfs (Ir.Dag.node graph id).Ir.Operator.output)
         n.inputs)
  in
  Engines.Hdfs.note_read hdfs
    ~mb:(Engines.Hdfs.total_read_mb scope -. Engines.Hdfs.total_read_mb hdfs);
  Engines.Hdfs.note_write hdfs
    ~mb:
      (Engines.Hdfs.total_written_mb scope
       -. Engines.Hdfs.total_written_mb hdfs);
  Engines.Hdfs.put hdfs n.Ir.Operator.output ~modeled_mb:result.modeled_mb
    result.table;
  Option.iter
    (fun share -> Engines.Share.note_write share n.Ir.Operator.output)
    share;
  if record_history then
    History.record history ~workflow ~node_id:n.Ir.Operator.id
      ~output_mb:result.modeled_mb;
  List.rev !reports

let run_plan ?(mode = Generated) ?(record_history = true)
    ?(recovery = Recovery.none) ?(candidates = Engines.Backend.all)
    ?(supervision = Supervisor.disabled) ?breaker ?inject ?sharing:share
    ~profile ~history ~workflow ~hdfs ~graph ~plan () =
  Obs.Trace.with_span
    ~attrs:[ ("workflow", Obs.Trace.String workflow);
             ("jobs", Obs.Trace.Int (List.length plan.Partitioner.jobs)) ]
    "execute"
  @@ fun () ->
  (* rebuild the planner's volume estimator against the pre-run HDFS
     state so every job's cost-model prediction can be joined with its
     observed makespan — the live mapping-quality signal (Figure 14) *)
  let est =
    try
      Some
        (Estimator.build
           ~input_mb:(fun r ->
             if Engines.Hdfs.mem hdfs r then
               Some (Engines.Hdfs.modeled_mb hdfs r)
             else None)
           ~history ~workflow graph)
    with _ -> None
  in
  let predicted_s backend ids =
    match est with
    | None -> None
    | Some est -> (
      match Cost.job_cost ~profile ~est backend ids with
      | Cost.Finite s -> Some s
      | Cost.Infeasible _ -> None)
  in
  (* the workflow deadline is distributed over jobs by predicted
     share; computed once against the original plan *)
  let predicted_total_s =
    List.fold_left
      (fun acc (backend, ids) ->
         match acc, predicted_s backend ids with
         | Some acc, Some p -> Some (acc +. p)
         | _ -> None)
      (Some 0.) plan.Partitioner.jobs
  in
  let supervising = Supervisor.active supervision in
  let retries = ref 0 in
  let spend n = retries := !retries + n in
  let spent result = { Recovery.result; retries = !retries } in
  try
    (* jobs run off a mutable queue: adaptive re-planning may replace
       the remaining suffix mid-run *)
    let remaining = ref plan.Partitioner.jobs in
    let acc = ref [] in
    let i = ref 0 in
    while !remaining <> [] do
      let backend, ids = List.hd !remaining in
      remaining := List.tl !remaining;
      let prediction = predicted_s backend ids in
      let label = Printf.sprintf "%s/job%d" workflow !i in
      incr i;
      (* re-attempts restore the job's pre-run HDFS snapshot:
         recovery resumes from the intermediates upstream jobs
         already materialized, never re-running them *)
      let pre = Engines.Hdfs.snapshot hdfs in
      let reset () = Engines.Hdfs.restore hdfs ~from:pre in
      let dispatch_on b =
        try
          if Recovery.expandable_while ~graph b ids then
            Ok
              (expand_while ~spend ~mode ~profile ~history ~workflow
                 ~record_history ~hdfs ~inject ~share ~breaker ~graph
                 ~recovery ~backend:b
                 (Ir.Dag.node graph (List.hd ids)))
          else begin
            let job_graph, mapping = Jobgraph.extract_mapped graph ids in
            Ok
              [ dispatch ~mode ~profile ~history ~workflow ~record_history
                  ~hdfs ~inject ~share ~label ~backend:b job_graph mapping ]
          end
        with Execution_failed e -> Error e
      in
      (* the run's own injector tells whether this job straggled *)
      let stragglers () =
        Option.fold ~none:0 ~some:Engines.Injector.stragglers inject
      in
      let stragglers_before = stragglers () in
      let outcome =
        let run =
          Recovery.run_job ?breaker ~policy:recovery ~profile ~graph ~est
            ~candidates ~workflow ~label ~ids ~reset
            ~dispatch:dispatch_on backend
        in
        spend run.Recovery.retries;
        match run.Recovery.result with
        | Ok outcome -> outcome
        | Error e -> raise (Execution_failed e)
      in
      let verdict =
        if supervising then
          let straggler_injected = stragglers () > stragglers_before in
          Supervisor.supervise_job ~breaker ~config:supervision ~profile ~graph
            ~est ~candidates ~hdfs ~label ~ids ~reset
            ~dispatch:dispatch_on ~predicted_s:prediction
            ~predicted_total_s ~straggler_injected
            ~backend:outcome.Recovery.backend outcome.Recovery.reports
        else
          Supervisor.no_action ~backend:outcome.Recovery.backend
            outcome.Recovery.reports
      in
      let job_reports = verdict.Supervisor.reports in
      let observed_s =
        List.fold_left
          (fun acc (r : Engines.Report.t) -> acc +. r.makespan_s)
          0. job_reports
      in
      (* a replanned or out-speculated job ran elsewhere: joining its
         observation with the original engine's estimate would pollute
         the mapping-quality signal *)
      (match prediction with
       | Some predicted_s
         when observed_s > 0.
              && (not outcome.Recovery.replanned)
              && not verdict.Supervisor.speculation_won ->
         let backend_name = Engines.Backend.name backend in
         Obs.Metrics.record_prediction Obs.Metrics.default ~workflow
           ~job:label ~backend:backend_name
           ~raw_predicted_s:(predicted_s /. Profile.factor profile backend_name)
           ~predicted_s ~observed_s ()
       | _ -> ());
      (* size-misprediction telemetry: planner's estimate vs. the
         materialized size, for every node this job wrote to HDFS *)
      (match est with
       | Some est ->
         List.iter
           (fun id ->
              let rel = (Ir.Dag.node graph id).Ir.Operator.output in
              if Engines.Hdfs.mem hdfs rel then
                Obs.Metrics.observe Obs.Metrics.default
                  "estimator.size_rel_error"
                  (Estimator.size_rel_error est id
                     ~observed_mb:(Engines.Hdfs.modeled_mb hdfs rel)))
           ids
       | None -> ());
      acc := List.rev_append job_reports !acc;
      if supervising && !remaining <> [] then
        match
          Supervisor.maybe_replan ~breaker ~config:supervision ~profile ~history
            ~workflow ~hdfs ~graph ~est ~candidates ~completed:ids
            ~remaining:!remaining
        with
        | Some jobs -> remaining := jobs
        | None -> ()
    done;
    let reports = List.rev !acc in
    let makespan_s =
      List.fold_left
        (fun acc (r : Engines.Report.t) -> acc +. r.makespan_s)
        0. reports
    in
    Obs.Trace.add_attr "makespan_s" (Obs.Trace.Float makespan_s);
    if record_history then
      History.record_runtime history ~workflow ~makespan_s;
    let outputs =
      List.filter_map
        (fun rel ->
           if Engines.Hdfs.mem hdfs rel then
             (* a stored output may be a view; callers get columns *)
             Some
               (rel, Relation.Table.materialize (Engines.Hdfs.table hdfs rel))
           else None)
        (Ir.Dag.output_relations graph)
    in
    spent (Ok { reports; makespan_s; outputs })
  with Execution_failed e -> spent (Error e)
