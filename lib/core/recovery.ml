(* Executor-side fault recovery (paper §6.3, Table 3).

   A failed job is first re-executed on its planned engine (bounded
   retries with optional exponential backoff), then re-planned onto the
   next-best feasible engine by re-scoring the sub-DAG with the cost
   model — the "all for one" graceful degradation. Upstream jobs are
   never re-run: their outputs are already materialized in HDFS, and
   the executor resets HDFS to the job's pre-run snapshot between
   attempts so a half-expanded WHILE cannot corrupt loop state.

   Recovery time is priced with the same analytic model the ablation
   compares against ({!Engines.Faults.makespan_with_failure}): a lost
   worker on a non-FT engine wastes the fraction of the job that had
   executed; an engine rejection costs one detection delay. *)

type policy = {
  max_retries : int;
  allow_replan : bool;
  backoff_base_s : float;
}

let none = { max_retries = 0; allow_replan = false; backoff_base_s = 0. }

let default = { max_retries = 2; allow_replan = true; backoff_base_s = 0. }

type outcome = {
  reports : Engines.Report.t list;
  backend : Engines.Backend.t;
  attempts : int;
  replanned : bool;
  recovery_s : float;
}

type 'a spent = {
  result : ('a, Engines.Report.error) result;
  retries : int;
}

(* WHILE nodes on per-iteration engines are not one admissible job but
   the executor can still expand them *)
let expandable_while ~graph backend ids =
  match Support.while_support backend, ids with
  | Support.Expand_per_iteration, [ id ] -> (
    match (Ir.Dag.node graph id).Ir.Operator.kind with
    | Ir.Operator.While _ -> true
    | _ -> false)
  | _ -> false

(* outcomes land on the caller's breaker, if it passed one *)
let record breaker ok backend =
  Option.iter
    (fun b ->
       if ok then Engines.Breaker.record_success b backend
       else Engines.Breaker.record_failure b backend)
    breaker

let alternatives ?breaker ~profile ~graph ~est ~candidates ~exclude ids =
  let excluded b = List.exists (Engines.Backend.equal b) exclude in
  let score b =
    match est with
    | Some est -> (
      match Cost.job_cost ~profile ~est b ids with
      | Cost.Finite s -> Some s
      | Cost.Infeasible _ -> None)
    | None ->
      (* no estimator: admission check only, keep the candidate order *)
      let ok =
        expandable_while ~graph b ids
        || (match Engines.Registry.supports b (Jobgraph.extract graph ids) with
            | Ok () -> true
            | Error _ -> false)
      in
      if ok then Some 0. else None
  in
  (match breaker with
   | Some b -> Engines.Breaker.filter b candidates
   | None -> candidates)
  |> List.filter (fun b -> not (excluded b))
  |> List.filter_map (fun b -> Option.map (fun s -> (s, b)) (score b))
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.map snd

(* price one failed attempt, using the final successful makespan as the
   proxy for what the failed attempt would have taken *)
let failure_cost_s ~final_makespan_s (backend, (e : Engines.Report.error)) =
  match e with
  | Engines.Report.Worker_lost { at_fraction } ->
    let proxy =
      { Engines.Report.job_label = "recovery-proxy"; backend;
        makespan_s = final_makespan_s;
        breakdown = Engines.Report.zero_breakdown; input_mb = 0.;
        output_mb = 0.; iterations = 1; op_output_mb = [] }
    in
    Engines.Faults.makespan_with_failure backend proxy ~at_fraction
    -. final_makespan_s
  | Engines.Report.Out_of_memory _ | Engines.Report.Unsupported _ ->
    (* rejections surface at admission: one detection delay *)
    Engines.Faults.detection_delay_s

let backoff_total_s ~policy ~failures =
  if policy.backoff_base_s <= 0. then 0.
  else
    (* retry k waits base * 2^(k-1); summed over all failed attempts *)
    policy.backoff_base_s *. ((2. ** float_of_int failures) -. 1.)

(* distribute the recovery seconds across the job's reports
   proportionally to their makespan share (a WHILE expansion yields one
   report per iteration job — the big iterations absorbed most of the
   re-run, so they carry most of the charge); even split when the
   makespans are all zero. The sum of makespans grows by exactly
   [recovery_s] — asserted in test_recovery. *)
let charge_recovery recovery_s (reports : Engines.Report.t list) =
  if recovery_s <= 0. || reports = [] then reports
  else
    let total =
      List.fold_left
        (fun acc (r : Engines.Report.t) -> acc +. r.makespan_s)
        0. reports
    in
    let n = float_of_int (List.length reports) in
    let share (r : Engines.Report.t) =
      if total > 0. then recovery_s *. r.makespan_s /. total
      else recovery_s /. n
    in
    List.map
      (fun (r : Engines.Report.t) ->
         let s = share r in
         { r with
           makespan_s = r.makespan_s +. s;
           breakdown =
             { r.breakdown with
               Engines.Report.overhead_s =
                 r.breakdown.Engines.Report.overhead_s +. s } })
      reports

let attempt_span ~label ~backend ~attempt f =
  Obs.Trace.with_span
    ~attrs:[ ("job", Obs.Trace.String label);
             ("backend",
              Obs.Trace.String (Engines.Backend.name backend));
             ("attempt", Obs.Trace.Int attempt) ]
    "job.attempt" f

let run_job ?breaker ~policy ~profile ~graph ~est ~candidates ~workflow ~label
    ~ids ~reset ~dispatch backend =
  let planned = backend in
  let retries = ref 0 in
  let rec go backend ~retries_left ~tried ~failures ~attempt =
    match attempt_span ~label ~backend ~attempt (fun () -> dispatch backend) with
    | Ok reports ->
      record breaker true backend;
      let total =
        List.fold_left
          (fun acc (r : Engines.Report.t) -> acc +. r.makespan_s)
          0. reports
      in
      let ordered = List.rev failures in
      let recovery_s =
        List.fold_left
          (fun acc f -> acc +. failure_cost_s ~final_makespan_s:total f)
          0. ordered
        +. backoff_total_s ~policy ~failures:(List.length ordered)
      in
      let replanned = not (Engines.Backend.equal backend planned) in
      (match ordered with
       | [] -> ()
       | (_, first_error) :: _ ->
         Obs.Metrics.record_recovery Obs.Metrics.default ~workflow ~job:label
           ~from_backend:(Engines.Backend.name planned)
           ~to_backend:(Engines.Backend.name backend)
           ~attempts:attempt
           ~first_error:(Engines.Report.error_to_string first_error)
           ~recovery_s);
      let reports = charge_recovery recovery_s reports in
      Ok { reports; backend; attempts = attempt; replanned; recovery_s }
    | Error e ->
      record breaker false backend;
      Obs.Metrics.incr Obs.Metrics.default "recovery.failed_attempts";
      let failures = (backend, e) :: failures in
      if retries_left > 0 then begin
        Obs.Metrics.incr Obs.Metrics.default "recovery.retries";
        incr retries;
        reset ();
        go backend ~retries_left:(retries_left - 1) ~tried ~failures
          ~attempt:(attempt + 1)
      end
      else if policy.allow_replan then begin
        let tried = backend :: tried in
        match
          alternatives ?breaker ~profile ~graph ~est ~candidates
            ~exclude:tried ids
        with
        | [] -> Error e
        | next :: _ ->
          Obs.Metrics.incr Obs.Metrics.default "recovery.fallbacks";
          reset ();
          go next ~retries_left:policy.max_retries ~tried ~failures
            ~attempt:(attempt + 1)
      end
      else Error e
  in
  let result =
    go backend ~retries_left:policy.max_retries ~tried:[] ~failures:[]
      ~attempt:1
  in
  { result; retries = !retries }
