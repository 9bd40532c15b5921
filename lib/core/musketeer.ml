module Profile = Profile
module History = History
module Estimator = Estimator
module Support = Support
module Cost = Cost
module Partitioner = Partitioner
module Jobgraph = Jobgraph
module Idiom = Idiom
module Optimizer = Optimizer
module Column_pruning = Column_pruning
module Codegen = Codegen
module Render = Render
module Executor = Executor
module Recovery = Recovery
module Supervisor = Supervisor
module Mapper = Mapper
module Explain = Explain
module Calibrate = Calibrate
module Plan_cache = Plan_cache
module Subplan = Subplan
module Rebuild = Rebuild
module Obs = Obs

type t = {
  profile : Profile.t;
  history : History.t;
}

let create ?probe_mb ~cluster () =
  { profile = Profile.calibrate ?probe_mb ~cluster (); history = History.create () }

let with_history t history = { t with history }

let with_calibration t factors =
  { t with profile = Profile.with_calibration t.profile factors }

let profile t = t.profile

let history t = t.history

let cluster t = Profile.cluster t.profile

let catalog_of_hdfs hdfs relation =
  Relation.Table.schema (Engines.Hdfs.table hdfs relation)

let estimator t ~workflow ~hdfs g =
  Estimator.build
    ~input_mb:(fun r ->
      if Engines.Hdfs.mem hdfs r then Some (Engines.Hdfs.modeled_mb hdfs r)
      else None)
    ~history:t.history ~workflow g

let optimize_ir ~hdfs g = Optimizer.optimize ~catalog:(catalog_of_hdfs hdfs) g

let plan ?(backends = Engines.Backend.all) ?(merging = true)
    ?(optimize = true) ?cache ?breaker t ~workflow ~hdfs g =
  Obs.Trace.with_span
    ~attrs:[ ("workflow", Obs.Trace.String workflow);
             ("backends", Obs.Trace.Int (List.length backends)) ]
    "plan"
  @@ fun () ->
  (* quarantined engines are not planning candidates — unless the
     quarantine would leave none at all *)
  let backends =
    match breaker with
    | Some b -> Engines.Breaker.filter_candidates b backends
    | None -> backends
  in
  let compute () =
    let g = if optimize then optimize_ir ~hdfs g else g in
    let est = estimator t ~workflow ~hdfs g in
    let plan =
      if merging then
        Partitioner.partition ~profile:t.profile ~est ~backends g
      else Partitioner.no_merging ~profile:t.profile ~est ~backends g
    in
    Option.map (fun p -> (p, g)) plan
  in
  match cache with
  | None -> compute ()
  | Some cache -> (
    (* keyed on the submitted graph; a hit skips optimize + estimate +
       partition entirely. The fingerprint pins the planning
       environment — breaker-filtered backends, calibration factors,
       flags, input sizes — so environment drift
       invalidates rather than serves a stale plan. *)
    let hash = Ir.Dag.canonical_hash g in
    let fingerprint =
      Plan_cache.fingerprint ~profile:t.profile ~backends ~merging ~optimize
        ~workflow ~hdfs g
    in
    let outcome = Plan_cache.find cache ~hash ~fingerprint in
    Obs.Trace.add_attr "plan.cache"
      (Obs.Trace.String (Plan_cache.lookup_label outcome));
    match outcome with
    | Plan_cache.Hit { Plan_cache.plan; graph } -> Some (plan, graph)
    | Plan_cache.Miss | Plan_cache.Invalidated ->
      let result = compute () in
      Option.iter
        (fun (p, g') ->
           Plan_cache.store cache ~hash ~fingerprint
             { Plan_cache.plan = p; graph = g' })
        result;
      result)

let execute_plan_spent ?mode ?record_history ?recovery ?candidates
    ?supervision ?breaker ?inject ?sharing t ~workflow ~hdfs ~graph p =
  Executor.run_plan ?mode ?record_history ?recovery ?candidates ?supervision
    ?breaker ?inject ?sharing ~profile:t.profile ~history:t.history ~workflow
    ~hdfs ~graph ~plan:p ()

let execute_plan ?mode ?record_history ?recovery ?candidates ?supervision
    ?breaker ?inject ?sharing t ~workflow ~hdfs ~graph p =
  (execute_plan_spent ?mode ?record_history ?recovery ?candidates ?supervision
     ?breaker ?inject ?sharing t ~workflow ~hdfs ~graph p)
    .Recovery.result

let execute ?backends ?merging ?optimize ?mode ?recovery ?supervision
    ?breaker ?inject t ~workflow ~hdfs g =
  match plan ?backends ?merging ?optimize ?breaker t ~workflow ~hdfs g with
  | None ->
    Error
      (Engines.Report.Unsupported
         "no back-end combination can express this workflow")
  | Some (p, g') -> (
    (* re-planning is confined to the engines the caller allowed *)
    let candidates =
      Option.value backends ~default:Engines.Backend.all
    in
    match
      execute_plan ?mode ?recovery ?supervision ?breaker ?inject ~candidates
        t ~workflow ~hdfs ~graph:g' p
    with
    | Ok result -> Ok (result, p)
    | Error e -> Error e)

let explain ?backends t ~workflow ~hdfs graph =
  Explain.explain ?backends ~profile:t.profile ~history:t.history ~workflow
    ~hdfs graph

let show_code ~graph (p : Partitioner.plan) =
  List.mapi
    (fun i (backend, ids) ->
       let job_graph = Jobgraph.extract graph ids in
       ( Printf.sprintf "job %d (%s)" i (Engines.Backend.name backend),
         Render.render backend ~shared_scans:true job_graph ))
    p.Partitioner.jobs
