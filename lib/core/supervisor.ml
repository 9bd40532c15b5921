(* Runtime supervision: deadlines, straggler speculation, adaptive
   re-planning. See supervisor.mli for the model. *)

let log_src = Logs.Src.create "musketeer.supervisor" ~doc:"runtime supervision"

module Log = (val Logs.src_log log_src)

type config = {
  deadline_factor : float option;
  workflow_deadline_s : float option;
  speculate : bool;
  replan_rel_error : float option;
}

let disabled =
  { deadline_factor = None; workflow_deadline_s = None; speculate = false;
    replan_rel_error = None }

let default =
  { deadline_factor = Some 2.0; workflow_deadline_s = None; speculate = true;
    replan_rel_error = Some 0.5 }

let active c =
  c.deadline_factor <> None
  || c.workflow_deadline_s <> None
  || c.speculate
  || c.replan_rel_error <> None

let effective_deadline_s c ~predicted_s ~predicted_total_s =
  let of_factor =
    match c.deadline_factor, predicted_s with
    | Some f, Some p -> Some (f *. p)
    | _ -> None
  in
  let of_workflow =
    (* distribute the workflow deadline over jobs by predicted share *)
    match c.workflow_deadline_s, predicted_s, predicted_total_s with
    | Some d, Some p, Some total when total > 0. -> Some (d *. p /. total)
    | _ -> None
  in
  match of_factor, of_workflow with
  | Some a, Some b -> Some (Float.min a b)
  | (Some _ as d), None | None, d -> d

type verdict = {
  reports : Engines.Report.t list;
  backend : Engines.Backend.t;
  straggler : bool;
  deadline_breached : bool;
  speculated : bool;
  speculation_won : bool;
}

let no_action ~backend reports =
  { reports; backend; straggler = false; deadline_breached = false;
    speculated = false; speculation_won = false }

let total_makespan reports =
  List.fold_left
    (fun acc (r : Engines.Report.t) -> acc +. r.makespan_s)
    0. reports

(* add [s] wasted seconds to the overhead phase of the first report:
   pure waste — engine time the cancelled loser consumed — charged on
   top of the winner's makespan, not into it *)
let charge_waste s (reports : Engines.Report.t list) =
  match reports with
  | [] -> reports
  | (first : Engines.Report.t) :: rest ->
    { first with
      breakdown =
        { first.breakdown with
          Engines.Report.overhead_s =
            first.breakdown.Engines.Report.overhead_s +. s } }
    :: rest

let supervise_job ~breaker ~config ~profile ~graph ~est ~candidates ~hdfs
    ~label ~ids ~reset ~dispatch ~predicted_s ~predicted_total_s
    ~straggler_injected ~backend reports =
  let observed_s = total_makespan reports in
  let deadline =
    effective_deadline_s config ~predicted_s ~predicted_total_s
  in
  (* deadlines inherit calibration through Cost's predictions; expose
     the effective value so drift is visible in traces and the ledger *)
  (match deadline with
   | Some d ->
     Obs.Trace.add_attr "deadline_s" (Obs.Trace.Float d);
     Obs.Metrics.observe Obs.Metrics.default "supervisor.deadline_s" d
   | None -> ());
  let deadline_breached =
    match deadline with Some d -> observed_s > d | None -> false
  in
  if deadline_breached then begin
    Obs.Metrics.incr Obs.Metrics.default "supervisor.deadline_breaches";
    Log.info (fun m ->
        m "%s breached its deadline (%.1fs > %.1fs)" label observed_s
          (Option.value deadline ~default:Float.nan))
  end;
  let straggler = straggler_injected || deadline_breached in
  if straggler then
    Obs.Metrics.incr Obs.Metrics.default "supervisor.stragglers";
  let base =
    { (no_action ~backend reports) with straggler; deadline_breached }
  in
  if not (straggler && config.speculate) then base
  else
    (* when would the copy have been launched? at the deadline when we
       have one, otherwise when the prediction elapsed *)
    let launch_s =
      match deadline with
      | Some d -> Some d
      | None -> (
        match predicted_s, config.deadline_factor with
        | Some p, Some f -> Some (f *. p)
        | Some p, None -> Some p
        | None, _ -> None)
    in
    match launch_s with
    | None -> base
    | Some launch_s when launch_s >= observed_s ->
      (* the original finished before the copy would even have started *)
      base
    | Some launch_s -> (
      match
        Recovery.alternatives ?breaker ~profile ~graph ~est ~candidates
          ~exclude:[ backend ] ids
      with
      | [] -> base
      | alt :: _ ->
        Obs.Metrics.incr Obs.Metrics.default "supervisor.speculations";
        (* keep the straggler's finished state at hand, then rewind to
           the job's pre-run snapshot for the copy *)
        let post = Engines.Hdfs.snapshot hdfs in
        reset ();
        let result =
          Obs.Trace.with_span
            ~attrs:[ ("job", Obs.Trace.String label);
                     ("from",
                      Obs.Trace.String (Engines.Backend.name backend));
                     ("to", Obs.Trace.String (Engines.Backend.name alt));
                     ("launch_s", Obs.Trace.Float launch_s) ]
            "job.speculate"
            (fun () -> dispatch alt)
        in
        match result with
        | Error e ->
          (* the copy died; the straggler stands. The copy consumed
             from its launch until the straggler finished. *)
          Recovery.record breaker false alt;
          Engines.Hdfs.restore hdfs ~from:post;
          let wasted_s = observed_s -. launch_s in
          Obs.Metrics.add_gauge Obs.Metrics.default
            "supervisor.speculation_wasted_s" wasted_s;
          Log.info (fun m ->
              m "%s: speculative copy on %s failed (%s); straggler stands"
                label (Engines.Backend.name alt)
                (Engines.Report.error_to_string e));
          { base with
            reports = charge_waste wasted_s reports;
            speculated = true }
        | Ok alt_reports ->
          Recovery.record breaker true alt;
          let alt_s = total_makespan alt_reports in
          let race =
            Engines.Faults.speculate ~straggler_s:observed_s
              ~launch_s ~alt_s
          in
          Obs.Metrics.add_gauge Obs.Metrics.default
            "supervisor.speculation_wasted_s" race.Engines.Faults.wasted_s;
          if race.Engines.Faults.speculative_won then begin
            Obs.Metrics.incr Obs.Metrics.default
              "supervisor.speculation_wins";
            Log.info (fun m ->
                m "%s: speculative copy on %s won (%.1fs vs %.1fs)" label
                  (Engines.Backend.name alt)
                  race.Engines.Faults.winner_makespan_s observed_s);
            (* the copy's outputs stand (HDFS already holds them). Its
               wall clock includes waiting until the launch; the
               cancelled straggler's consumed time is pure waste. *)
            let reports' =
              match alt_reports with
              | (first : Engines.Report.t) :: rest ->
                { first with
                  makespan_s = first.makespan_s +. launch_s;
                  breakdown =
                    { first.breakdown with
                      Engines.Report.overhead_s =
                        first.breakdown.Engines.Report.overhead_s
                        +. launch_s } }
                :: rest
              | [] -> []
            in
            { reports = charge_waste race.Engines.Faults.wasted_s reports';
              backend = alt; straggler; deadline_breached;
              speculated = true; speculation_won = true }
          end
          else begin
            (* the straggler finished first after all: discard the
               copy's outputs, charge its consumed time as waste *)
            Engines.Hdfs.restore hdfs ~from:post;
            Log.info (fun m ->
                m "%s: straggler finished before the copy (%.1fs vs %.1fs)"
                  label observed_s (launch_s +. alt_s));
            { base with
              reports =
                charge_waste race.Engines.Faults.wasted_s reports;
              speculated = true }
          end)

let maybe_replan ~breaker ~config ~profile ~history ~workflow ~hdfs ~graph ~est
    ~candidates ~completed ~remaining =
  match config.replan_rel_error, est, remaining with
  | None, _, _ | _, None, _ | _, _, [] -> None
  | Some threshold, Some est0, _ ->
    let mispredicted =
      List.filter
        (fun id ->
           let rel = (Ir.Dag.node graph id).Ir.Operator.output in
           Engines.Hdfs.mem hdfs rel
           &&
           let predicted = Estimator.output_mb est0 id in
           let observed = Engines.Hdfs.modeled_mb hdfs rel in
           let base = Float.max (Float.abs predicted) 1e-6 in
           Float.abs (observed -. predicted) /. base > threshold)
        completed
    in
    if mispredicted = [] then None
    else begin
      Obs.Metrics.incr Obs.Metrics.default "supervisor.mispredictions";
      let remaining_ids = List.concat_map snd remaining in
      match
        (* the suffix of a valid execution order is convex, but guard
           anyway — a failed extraction just means no replan *)
        try Some (Jobgraph.extract_mapped graph remaining_ids)
        with Invalid_argument _ -> None
      with
      | None -> None
      | Some (sub, mapping) -> (
        let est' =
          (* observed sizes substituted: completed intermediates are
             materialized in HDFS and become the sub-DAG's inputs *)
          try
            Some
              (Estimator.build
                 ~input_mb:(fun r ->
                   if Engines.Hdfs.mem hdfs r then
                     Some (Engines.Hdfs.modeled_mb hdfs r)
                   else None)
                 ~history ~workflow sub)
          with _ -> None
        in
        match est' with
        | None -> None
        | Some est' -> (
          let backends =
            match breaker with
            | Some b -> Engines.Breaker.filter_candidates b candidates
            | None -> candidates
          in
          match Partitioner.partition ~profile ~est:est' ~backends sub with
          | None -> None
          | Some new_plan -> (
            let to_sub = List.map (fun (a, b) -> (b, a)) mapping in
            (* re-price the old remaining plan under the corrected
               estimates, for an apples-to-apples comparison *)
            let old_cost_s =
              try
                Cost.seconds
                  (Cost.plan_cost ~profile ~est:est'
                     (List.map
                        (fun (b, ids) ->
                           (b, List.map (fun id -> List.assoc id to_sub) ids))
                        remaining))
              with Not_found -> Float.infinity
            in
            let new_cost_s = new_plan.Partitioner.cost_s in
            if new_cost_s > old_cost_s +. 1e-9 then None
            else (
              try
                let jobs' =
                  List.map
                    (fun (b, ids) ->
                       (b, List.map (fun id -> List.assoc id mapping) ids))
                    new_plan.Partitioner.jobs
                in
                Obs.Metrics.incr Obs.Metrics.default "supervisor.replans";
                if Float.is_finite old_cost_s then
                  Obs.Metrics.set_gauge Obs.Metrics.default
                    "supervisor.replan_delta_s" (old_cost_s -. new_cost_s);
                Obs.Trace.add_attr "replanned_jobs"
                  (Obs.Trace.Int (List.length jobs'));
                Log.info (fun m ->
                    m
                      "%s: replanned %d remaining job(s) after size \
                       misprediction (%.1fs -> %.1fs predicted)"
                      workflow (List.length jobs') old_cost_s new_cost_s);
                Some jobs'
              with Not_found -> None))))
    end
