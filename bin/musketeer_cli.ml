(* Musketeer command-line interface.

   Subcommands:
     plan      plan a workflow from the built-in zoo and show the mapping
     run       plan + execute, printing per-job reports and result samples
     run-file  run a user workflow file against user CSV relations
     serve     persistent multi-tenant serving: plan cache, weighted
               fair admission, cross-workflow shared scans
     stats     run a workflow (repeatedly) and dump the metrics registry
     parse     parse a front-end source file and print its IR DAG
     calibrate print the calibrated rate parameters (paper Table 1)
     engines   print the system feature matrix (paper Table 3)
     report    read a --ledger file back: error trend, engine league
               table, regressions (--check gates CI)

   `--ledger FILE` on run / run-file / stats appends one JSONL record
   per executed run and fits per-engine cost-model correction factors
   from the file's history (disable with --no-calibrate).

   The zoo workflows ship with synthetic inputs at the paper's modeled
   scales, so `musketeer run -w pagerank -n 100` reproduces a Figure 8
   data point from the shell. `--trace FILE` on plan / run / run-file /
   explain / stats records a Chrome trace_event JSON trace of the whole
   pipeline (open in chrome://tracing or https://ui.perfetto.dev). *)

open Cmdliner

(* the workflow zoo by name; each entry loads fresh inputs and graph *)
let zoo = Experiments.Common.zoo

(* ---- arguments ---- *)

let workflow_arg =
  let workflow_conv = Arg.enum (List.map (fun (n, _) -> (n, n)) zoo) in
  Arg.(
    required
    & opt (some workflow_conv) None
    & info [ "w"; "workflow" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Workflow from the built-in zoo: %s."
             (String.concat ", " (List.map fst zoo))))

let nodes_arg =
  Arg.(
    value & opt int 16
    & info [ "n"; "nodes" ] ~docv:"N"
        ~doc:"Cluster size (EC2 m1.xlarge-style nodes).")

let backend_arg =
  let backend_conv =
    Arg.enum
      (List.map (fun b -> (String.lowercase_ascii (Engines.Backend.name b), b))
         Engines.Backend.all)
  in
  Arg.(
    value & opt (some backend_conv) None
    & info [ "b"; "backend" ] ~docv:"BACKEND"
        ~doc:
          "Force a single back-end (Hadoop, Spark, Naiad, PowerGraph, \
           GraphChi, Metis, SerialC); omit for automatic mapping.")

let show_code_arg =
  Arg.(
    value & flag
    & info [ "show-code" ] ~doc:"Print the generated back-end code per job.")

let file_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Front-end source file.")

let frontend_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("beer", `Beer); ("hive", `Hive); ("gas", `Gas);
             ("pig", `Pig) ])
        `Beer
    & info [ "frontend" ] ~docv:"LANG" ~doc:"Front-end language of the file.")

let dot_arg =
  Arg.(
    value & flag
    & info [ "dot" ] ~doc:"Print the IR DAG in Graphviz dot format.")

let tables_arg =
  Arg.(
    value & opt_all string []
    & info [ "table" ] ~docv:"NAME=FILE:SCHEMA[@MB]"
        ~doc:
          "Load a relation from a comma-separated file, e.g. \
           purchases=p.csv:uid:int,region:string,amount:int@2048 (the \
           optional @MB models the HDFS size). Repeatable.")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the pipeline (parse, optimize, \
           partition, codegen, per-job dispatch) and write it to FILE \
           as Chrome trace_event JSON; open in chrome://tracing or \
           Perfetto. FILE.jsonl additionally gets the structured \
           event log.")

let inject_arg =
  Arg.(
    value & opt (some string) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Inject faults into engine runs: a ';'-separated budget of \
           $(b,worker@F) (worker failure after fraction F of a job), \
           $(b,oom) / $(b,reject) (engine rejection) and \
           $(b,straggler*X) (slowdown by factor X), optionally followed \
           by $(b,:p=P) (per-job injection probability, default 1). \
           E.g. --inject 'worker@0.5;straggler*2:p=0.8'. Deterministic \
           for a given --seed; see docs/fault-tolerance.md.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:"Seed for the fault injector's deterministic RNG.")

let retries_arg =
  Arg.(
    value & opt int 2
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Re-execute a failed job up to N times on its planned engine \
           before re-planning it onto the next-best engine (graceful \
           degradation); 0 retries with fallback still enabled.")

let deadline_factor_arg =
  Arg.(
    value & opt (some float) None
    & info [ "deadline-factor" ] ~docv:"F"
        ~doc:
          "Enable runtime supervision with a per-job soft deadline of F \
           times the cost-model prediction; a job that blows it is \
           declared a straggler and a speculative duplicate is raced on \
           the next-best engine (unless --no-speculation). See \
           docs/fault-tolerance.md.")

let deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Workflow-level soft deadline in simulated seconds, \
           distributed over jobs proportionally to their predicted \
           share; tightens (or replaces) --deadline-factor.")

let no_speculation_arg =
  Arg.(
    value & flag
    & info [ "no-speculation" ]
        ~doc:
          "Detect stragglers (and count deadline breaches) but never \
           launch speculative duplicates.")

let replan_threshold_arg =
  Arg.(
    value & opt (some float) None
    & info [ "replan-threshold" ] ~docv:"E"
        ~doc:
          "Enable adaptive re-planning: after each job, if some \
           materialized output size misses its estimate by more than \
           relative error E, the remaining jobs are re-partitioned with \
           the observed sizes substituted.")

let breaker_arg =
  Arg.(
    value & opt (some int) None
    & info [ "breaker" ] ~docv:"K"
        ~doc:
          "Enable per-engine circuit breakers: after K failures within \
           the sliding outcome window an engine is quarantined \
           (excluded from planning and fallbacks) with exponential \
           cool-down, then re-admitted via a half-open probe. States \
           show up in the stats subcommand.")

(* supervision is opt-in: only a deadline / replan flag switches it on *)
let supervision_of deadline_factor deadline no_speculation replan_threshold =
  if deadline_factor = None && deadline = None && replan_threshold = None
  then Musketeer.Supervisor.disabled
  else
    { Musketeer.Supervisor.deadline_factor;
      workflow_deadline_s = deadline;
      speculate = not no_speculation;
      replan_rel_error = replan_threshold }

let breaker_of =
  Option.map (fun k -> Engines.Breaker.create ~threshold:(max 1 k) ())

(* parse --inject into its fault plan (fatal when malformed) *)
let fault_plan_of inject seed =
  Option.map
    (fun spec ->
       match Engines.Faults.parse_plan ~seed spec with
       | Error msg ->
         Format.eprintf "bad --inject spec: %s@." msg;
         exit 1
       | Ok plan ->
         Format.eprintf "injecting: %a@." Engines.Faults.pp_plan plan;
         plan)
    inject

(* the --retries-derived recovery policy and a maker of fresh
   injectors, one per execution: each run draws from the whole fault
   budget, and nothing but the execution draws from it *)
let injection inject seed retries =
  let recovery =
    { Musketeer.Recovery.default with
      Musketeer.Recovery.max_retries = max 0 retries }
  in
  let plan = fault_plan_of inject seed in
  (recovery, fun () -> Option.map Engines.Injector.create plan)

let ledger_arg =
  Arg.(
    value & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "Append one run record per executed workflow (chosen mapping, \
           per-job predicted/observed makespans, recoveries, fusion and \
           shared-scan savings, kernel histograms) to FILE as JSONL, \
           and fit per-engine calibration factors from its existing \
           records before planning. See docs/observability.md.")

let no_calibrate_arg =
  Arg.(
    value & flag
    & info [ "no-calibrate" ]
        ~doc:
          "Do not apply ledger-fitted calibration factors to the cost \
           model; with --ledger, records are still appended (raw and \
           calibrated predictions then coincide).")

(* load the ledger and fit per-engine correction factors (none with
   --no-calibrate); fatal on a newer-major schema or a corrupt
   (non-final) line *)
let calibration_of ledger no_calibrate =
  match ledger with
  | None -> []
  | Some filename -> (
    match Obs.Ledger.load ~filename () with
    | exception Obs.Ledger.Schema_error msg ->
      Format.eprintf "ledger %s: %s@." filename msg;
      exit 1
    | exception Obs.Json.Parse_error msg ->
      Format.eprintf "ledger %s is corrupt: %s@." filename msg;
      exit 1
    | records ->
      if no_calibrate then []
      else begin
        let factors = Musketeer.Calibrate.of_ledger records in
        (match factors with
         | [] -> ()
         | factors ->
           Format.eprintf "calibration (%d ledger runs): %s@."
             (List.length records)
             (String.concat ", "
                (List.map
                   (fun (b, f) -> Printf.sprintf "%s x%.3f" b f)
                   factors)));
        factors
      end)

let append_ledger ledger ~workflow ~graph ~plan ~since ~makespan_s =
  match ledger with
  | None -> ()
  | Some filename ->
    let partition =
      List.map
        (fun (b, ids) -> (Engines.Backend.name b, ids))
        plan.Musketeer.Partitioner.jobs
    in
    let record =
      Obs.Ledger.snapshot ~since ~workflow
        ~ir_hash:(Ir.Dag.canonical_hash graph) ~partition ~makespan_s ()
    in
    (try Obs.Ledger.append ~filename record
     with Sys_error msg -> Format.eprintf "cannot write ledger: %s@." msg)

let repeat_arg =
  Arg.(
    value & opt int 2
    & info [ "repeat" ] ~docv:"N"
        ~doc:
          "Execute the workflow N times (history accumulates between \
           runs, so later runs show the cost model's history-informed \
           accuracy, paper Figure 14).")

let history_arg =
  Arg.(
    value & opt (some string) None
    & info [ "history" ] ~docv:"FILE"
        ~doc:
          "Load workflow history from FILE if it exists and save it back \
           after the run (unlocks merges across JOINs, paper section 5.2).")

let parse_frontend frontend source =
  match frontend with
  | `Beer -> Frontends.Beer.parse source
  | `Hive -> Frontends.Hive.parse source
  | `Pig -> Frontends.Pig.parse source
  | `Gas ->
    Frontends.Gas.parse_to_graph source ~vertices:"vertices" ~edges:"edges"

let with_parse_errors f =
  try f () with
  | Frontends.Beer.Parse_error (msg, line)
  | Frontends.Hive.Parse_error (msg, line)
  | Frontends.Pig.Parse_error (msg, line)
  | Frontends.Gas.Parse_error (msg, line) ->
    Format.eprintf "parse error (line %d): %s@." line msg;
    exit 1
  | Workloads.Csv_loader.Bad_spec msg ->
    Format.eprintf "bad --table spec: %s@." msg;
    exit 1

(* run [f] under a trace collector when [--trace FILE] was given, then
   export the collected spans (Chrome trace + JSONL sidecar) *)
let with_trace trace_file f =
  match trace_file with
  | None -> f ()
  | Some file ->
    let trace, result = Obs.Trace.collecting f in
    (try
       Obs.Export.write_file (Obs.Export.chrome_trace trace) ~filename:file;
       Obs.Export.write_file (Obs.Export.jsonl trace)
         ~filename:(file ^ ".jsonl");
       Format.eprintf "trace: %d spans written to %s (events: %s.jsonl)@."
         (Obs.Trace.span_count trace) file file
     with Sys_error msg -> Format.eprintf "cannot write trace: %s@." msg);
    result

let pp_run_telemetry ppf () =
  let metrics = Obs.Metrics.default in
  if Obs.Metrics.recoveries metrics <> [] then
    Format.fprintf ppf "@.%a" Obs.Metrics.pp_recoveries metrics;
  if Obs.Metrics.predictions metrics <> [] then
    Format.fprintf ppf "@.%a" Obs.Metrics.pp_predictions metrics

(* ---- commands ---- *)

(* the cluster's manager, calibrated with [factors] *)
let manager ~factors cluster =
  Musketeer.with_calibration (Musketeer.create ~cluster ()) factors

let setup ?(factors = []) workflow nodes =
  let m = manager ~factors (Engines.Cluster.ec2 ~nodes) in
  let hdfs, graph = List.assoc workflow zoo () in
  (m, hdfs, graph)

let plan_cmd =
  let run workflow nodes backend dot trace =
    with_trace trace @@ fun () ->
    let m, hdfs, graph = setup workflow nodes in
    let backends = Option.map (fun b -> [ b ]) backend in
    match Musketeer.plan m ?backends ~workflow:"cli" ~hdfs graph with
    | None -> Format.printf "no feasible plan@."
    | Some (plan, g') ->
      if dot then print_string (Musketeer.Explain.plan_dot g' plan)
      else begin
        Format.printf "IR DAG:@.%a@." Ir.Dag.pp g';
        Format.printf "plan:@.%a" Musketeer.Partitioner.pp_plan plan
      end
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Show the IR and the chosen job mapping (with --dot, a \
          Graphviz rendering colored per job).")
    Term.(
      const run $ workflow_arg $ nodes_arg $ backend_arg $ dot_arg
      $ trace_arg)

let run_cmd =
  let run workflow nodes backend show_code trace inject seed retries
      deadline_factor deadline no_speculation replan_threshold breaker
      ledger no_calibrate =
    let breaker = breaker_of breaker in
    let factors = calibration_of ledger no_calibrate in
    let supervision =
      supervision_of deadline_factor deadline no_speculation
        replan_threshold
    in
    with_trace trace @@ fun () ->
    let recovery, injector = injection inject seed retries in
    let m, hdfs, graph = setup ~factors workflow nodes in
    let backends = Option.map (fun b -> [ b ]) backend in
    match Musketeer.plan m ?backends ?breaker ~workflow ~hdfs graph with
    | None -> Format.printf "no feasible plan@."
    | Some (plan, g') ->
      Format.printf "plan:@.%a@." Musketeer.Partitioner.pp_plan plan;
      if show_code then
        List.iter
          (fun (label, source) ->
             Format.printf "@.---- %s ----@.%s@." label source)
          (Musketeer.show_code ~graph:g' plan);
      let since = Obs.Ledger.mark Obs.Metrics.default in
      (match
         Musketeer.execute_plan ~recovery ~supervision ?breaker
           ?inject:(injector ()) ?candidates:backends m ~workflow ~hdfs
           ~graph:g' plan
       with
       | Error e ->
         Format.printf "execution failed: %s@."
           (Engines.Report.error_to_string e)
       | Ok result ->
         List.iter
           (fun report -> Format.printf "%a@." Engines.Report.pp report)
           result.Musketeer.Executor.reports;
         Format.printf "@.workflow makespan: %.1fs@."
           result.Musketeer.Executor.makespan_s;
         pp_run_telemetry Format.std_formatter ();
         append_ledger ledger ~workflow ~graph:g' ~plan ~since
           ~makespan_s:result.Musketeer.Executor.makespan_s;
         List.iter
           (fun (name, table) ->
              Format.printf "@.output %s:@.%a" name
                (Relation.Table.pp_sample ~n:10)
                table)
           result.Musketeer.Executor.outputs)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Plan and execute a workflow on the simulated cluster.")
    Term.(
      const run $ workflow_arg $ nodes_arg $ backend_arg $ show_code_arg
      $ trace_arg $ inject_arg $ seed_arg $ retries_arg
      $ deadline_factor_arg $ deadline_arg
      $ no_speculation_arg $ replan_threshold_arg $ breaker_arg
      $ ledger_arg $ no_calibrate_arg)

let parse_cmd =
  let run frontend file dot =
    let source = In_channel.with_open_text file In_channel.input_all in
    let graph = parse_frontend frontend source in
    if dot then print_string (Ir.Dag.to_dot graph)
    else begin
      Format.printf "%a" Ir.Dag.pp graph;
      Format.printf "(%d operators)@." (Ir.Dag.operator_count graph)
    end
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:"Parse a BEER / HiveQL / GAS source file and print its IR.")
    Term.(
      const (fun frontend file dot ->
          with_parse_errors (fun () -> run frontend file dot))
      $ frontend_arg $ file_arg $ dot_arg)

let run_file_cmd =
  let run frontend file tables nodes backend show_code history_file trace
      inject seed retries deadline_factor deadline no_speculation
      replan_threshold breaker ledger no_calibrate =
    let breaker = breaker_of breaker in
    let factors = calibration_of ledger no_calibrate in
    let supervision =
      supervision_of deadline_factor deadline no_speculation
        replan_threshold
    in
    with_trace trace @@ fun () ->
    let recovery, injector = injection inject seed retries in
    let source = In_channel.with_open_text file In_channel.input_all in
    let graph = parse_frontend frontend source in
    let hdfs = Engines.Hdfs.create () in
    Workloads.Csv_loader.load_bindings hdfs tables;
    let m = manager ~factors (Engines.Cluster.ec2 ~nodes) in
    let m =
      match history_file with
      | Some f when Sys.file_exists f ->
        Musketeer.with_history m (Musketeer.History.load ~filename:f)
      | Some _ -> Musketeer.with_history m (Musketeer.History.create ())
      | None -> m
    in
    let backends = Option.map (fun b -> [ b ]) backend in
    let workflow = Filename.remove_extension (Filename.basename file) in
    match Musketeer.plan m ?backends ?breaker ~workflow ~hdfs graph with
    | None -> Format.printf "no feasible plan@."
    | Some (plan, g') ->
      Format.printf "plan:@.%a@." Musketeer.Partitioner.pp_plan plan;
      if show_code then
        List.iter
          (fun (label, job_source) ->
             Format.printf "@.---- %s ----@.%s@." label job_source)
          (Musketeer.show_code ~graph:g' plan);
      let since = Obs.Ledger.mark Obs.Metrics.default in
      (match
         Musketeer.execute_plan ~recovery ~supervision ?breaker
           ?inject:(injector ()) ?candidates:backends m ~workflow ~hdfs
           ~graph:g' plan
       with
       | Error e ->
         Format.printf "execution failed: %s@."
           (Engines.Report.error_to_string e)
       | Ok result ->
         List.iter
           (fun report -> Format.printf "%a@." Engines.Report.pp report)
           result.Musketeer.Executor.reports;
         Format.printf "@.workflow makespan: %.1fs@."
           result.Musketeer.Executor.makespan_s;
         pp_run_telemetry Format.std_formatter ();
         append_ledger ledger ~workflow ~graph:g' ~plan ~since
           ~makespan_s:result.Musketeer.Executor.makespan_s;
         List.iter
           (fun (name, table) ->
              Format.printf "@.output %s:@.%a" name
                (Relation.Table.pp_sample ~n:20)
                table)
           result.Musketeer.Executor.outputs;
         (match history_file with
          | Some f ->
            Musketeer.History.save (Musketeer.history m) ~filename:f;
            Format.printf "history saved to %s@." f
          | None -> ()))
  in
  Cmd.v
    (Cmd.info "run-file"
       ~doc:
         "Parse a workflow file, load CSV relations, plan and execute it \
          on the simulated cluster.")
    Term.(
      const
        (fun frontend file tables nodes backend show_code history trace inject
          seed retries deadline_factor deadline no_speculation
          replan_threshold breaker ledger no_calibrate ->
          with_parse_errors (fun () ->
              run frontend file tables nodes backend show_code history trace
                inject seed retries deadline_factor deadline
                no_speculation replan_threshold breaker ledger no_calibrate))
      $ frontend_arg $ file_arg $ tables_arg $ nodes_arg $ backend_arg
      $ show_code_arg $ history_arg $ trace_arg $ inject_arg $ seed_arg
      $ retries_arg $ deadline_factor_arg
      $ deadline_arg $ no_speculation_arg $ replan_threshold_arg
      $ breaker_arg $ ledger_arg $ no_calibrate_arg)

let explain_cmd =
  let run workflow nodes backend trace ledger no_calibrate =
    (* read-only: factors shape the explained costs, nothing is appended *)
    let factors = calibration_of ledger no_calibrate in
    with_trace trace @@ fun () ->
    let m, hdfs, graph = setup ~factors workflow nodes in
    let backends = Option.map (fun b -> [ b ]) backend in
    let report = Musketeer.explain ?backends m ~workflow:"cli" ~hdfs graph in
    Musketeer.Explain.pp Format.std_formatter report
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the optimized IR, the per-operator volume estimates and \
          why the chosen mapping beats the alternatives (with --ledger, \
          costs are shown raw and calibrated).")
    Term.(
      const run $ workflow_arg $ nodes_arg $ backend_arg $ trace_arg
      $ ledger_arg $ no_calibrate_arg)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Dump the metrics registry as JSON (counters, gauges, \
           histograms, predictions, recoveries) instead of the \
           human-readable tables.")

let stats_cmd =
  let run workflow nodes backend repeat trace inject seed retries
      deadline_factor deadline no_speculation replan_threshold breaker
      ledger no_calibrate json =
    let breaker = breaker_of breaker in
    let factors = calibration_of ledger no_calibrate in
    let supervision =
      supervision_of deadline_factor deadline no_speculation
        replan_threshold
    in
    with_trace trace @@ fun () ->
    let recovery, injector = injection inject seed retries in
    let m = manager ~factors (Engines.Cluster.ec2 ~nodes) in
    let backends = Option.map (fun b -> [ b ]) backend in
    for i = 1 to max 1 repeat do
      (* fresh inputs per run; history persists in [m] between runs, so
         run 2+ shows the history-informed prediction accuracy *)
      let hdfs, graph = List.assoc workflow zoo () in
      let since = Obs.Ledger.mark Obs.Metrics.default in
      (* with --json, stdout is reserved for the JSON document *)
      let progress = if json then Format.err_formatter else Format.std_formatter in
      match
        Musketeer.execute m ?backends ~recovery ~supervision ?breaker
          ?inject:(injector ()) ~workflow ~hdfs graph
      with
      | Error e ->
        Format.fprintf progress "run %d failed: %s@." i
          (Engines.Report.error_to_string e)
      | Ok (result, plan) ->
        Format.fprintf progress "run %d: makespan %.1fs@." i
          result.Musketeer.Executor.makespan_s;
        append_ledger ledger ~workflow ~graph ~plan ~since
          ~makespan_s:result.Musketeer.Executor.makespan_s
    done;
    if json then
      print_endline
        (Obs.Json.to_string (Obs.Metrics.to_json Obs.Metrics.default))
    else begin
      Format.printf "@.%a" Musketeer.Obs.Metrics.pp Obs.Metrics.default;
      Option.iter (Format.printf "@.%a" Engines.Breaker.pp) breaker
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Execute a workflow --repeat times and dump the metrics \
          registry: jobs per backend, rewrite hits, partitioner search \
          sizes, per-job predicted-vs-observed makespan error (the \
          live Figure 14 signal) and — with --breaker — the circuit \
          breaker states. --json makes the dump machine-readable.")
    Term.(
      const run $ workflow_arg $ nodes_arg $ backend_arg $ repeat_arg
      $ trace_arg $ inject_arg $ seed_arg $ retries_arg
      $ deadline_factor_arg $ deadline_arg $ no_speculation_arg
      $ replan_threshold_arg $ breaker_arg $ ledger_arg $ no_calibrate_arg
      $ json_arg)

let calibrate_cmd =
  let run nodes =
    let m = Musketeer.create ~cluster:(Engines.Cluster.ec2 ~nodes) () in
    Format.printf "calibrated rates for %a:@.%a"
      Engines.Cluster.pp
      (Musketeer.cluster m)
      Musketeer.Profile.pp (Musketeer.profile m)
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Print the calibrated rate parameters (paper Table 1).")
    Term.(const run $ nodes_arg)

(* ---- serve: persistent multi-tenant serving ---- *)

(* "name[:weight],..." — shared syntax of --mix and --tenants *)
let parse_weighted ~what spec =
  List.map
    (fun item ->
       match String.split_on_char ':' (String.trim item) with
       | [ name ] when name <> "" -> (name, 1.)
       | [ name; w ] when name <> "" -> (
         match float_of_string_opt w with
         | Some w when w > 0. -> (name, w)
         | _ ->
           Format.eprintf "bad %s weight in %S (want name:positive)@." what
             item;
           exit 1)
       | _ ->
         Format.eprintf "bad %s entry %S (want name[:weight])@." what item;
         exit 1)
    (String.split_on_char ',' spec)

let mix_arg =
  Arg.(
    value & opt string "join,project"
    & info [ "mix" ] ~docv:"W[:WEIGHT],..."
        ~doc:
          (Printf.sprintf
             "Workflow mix served: comma-separated zoo names, each with \
              an optional :WEIGHT traffic share (default 1). Available: \
              %s."
             (String.concat ", " (List.map fst zoo))))

let tenants_arg =
  Arg.(
    value & opt string "gold:3,bronze:1"
    & info [ "tenants" ] ~docv:"NAME[:WEIGHT],..."
        ~doc:
          "Tenants submitting the load, each with an optional :WEIGHT. \
           The weight is both the tenant's traffic share in the \
           generated load and its fair-queueing weight at admission.")

let rate_arg =
  Arg.(
    value & opt float 0.5
    & info [ "rate" ] ~docv:"R"
        ~doc:"Mean arrivals per virtual second (open-loop Poisson).")

let count_arg =
  Arg.(
    value & opt int 20
    & info [ "count" ] ~docv:"N" ~doc:"Number of submissions to serve.")

let concurrency_arg =
  Arg.(
    value & opt int 4
    & info [ "concurrency" ] ~docv:"K"
        ~doc:"Admission slots: workflows in flight at once.")

let cache_capacity_arg =
  Arg.(
    value & opt int 128
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"Plan-cache entries before LRU eviction.")

let subresult_cache_mb_arg =
  Arg.(
    value & opt float 256.
    & info [ "subresult-cache-mb" ] ~docv:"MB"
        ~doc:
          "Budget (modeled MB) of the materialized sub-result cache: \
           common DAG prefixes execute once and repeat traffic \
           attaches to the cached materialization. 0 disables \
           subplan sharing entirely.")

let check_identity_arg =
  Arg.(
    value & flag
    & info [ "check-identity" ]
        ~doc:
          "After serving, re-run each distinct workflow one-shot \
           against a snapshot of the initial HDFS and exit non-zero \
           unless every completed submission produced byte-identical \
           outputs, and unless zero store flights are left \
           open — the CI smoke gate for the serving layer. Shed, \
           SLO-expired and errored submissions are reported but never \
           compared (they completed nothing).")

(* ---- serve-only overload-hardening knobs ---- *)

let slo_arg =
  Arg.(
    value & opt (some float) None
    & info [ "slo" ] ~docv:"SECONDS"
        ~doc:
          "Per-request deadline in virtual seconds from arrival: a \
           submission still queued past its deadline is cancelled \
           (SLO-expired) before admission. An execution that has \
           already started always runs to its byte-identical \
           completion — deadlines never truncate results. Feeds the \
           slo-met and goodput summary lines.")

let queue_cap_arg =
  Arg.(
    value & opt int 0
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:
          "Bound each tenant's admission queue at N queued \
           submissions; an arrival pushing a queue past its bound \
           triggers --shed-policy. 0 (the default) leaves per-tenant \
           queues unbounded.")

let global_queue_cap_arg =
  Arg.(
    value & opt int 0
    & info [ "global-queue-cap" ] ~docv:"N"
        ~doc:
          "Bound the total queued submissions across all tenants; \
           overflow triggers --shed-policy. 0 (the default) = \
           unbounded.")

let shed_policy_arg =
  Arg.(
    value & opt string "reject-newest"
    & info [ "shed-policy" ] ~docv:"POLICY"
        ~doc:
          "Victim selection when a queue bound or the pressure signal \
           trips: $(b,reject-newest) drops the arriving submission, \
           $(b,shed-lowest-weight) drops the newest queued item of the \
           lowest-weight backlogged tenant, $(b,oldest-first) drops \
           the globally oldest queued item. See docs/serving.md.")

let pressure_arg =
  Arg.(
    value & opt float 0.
    & info [ "pressure-threshold" ] ~docv:"SECONDS"
        ~doc:
          "Queue-delay EWMA that counts as pressure 1.0 and arms the \
           graceful-degradation ladder: 1x disables speculation, 1.5x \
           stops new sub-result materializations, 2x closes the \
           co-admission window (no shared scans/subplans), 3x sheds \
           arrivals outright. 0 (the default) disables the signal; \
           none of the rungs can change the bytes of a completed \
           submission.")

let retry_budget_arg =
  Arg.(
    value & opt float (-1.)
    & info [ "retry-budget" ] ~docv:"TOKENS"
        ~doc:
          "Per-tenant retry token bucket: each engine-level retry \
           costs one token, refilled at one token per virtual second; \
           an empty bucket caps the effective retry count at 0 \
           (fallback re-planning still applies). Negative (the \
           default) = unlimited.")

let restart_after_arg =
  Arg.(
    value & opt (some int) None
    & info [ "restart-after" ] ~docv:"N"
        ~doc:
          "Crash-recovery drill (requires --ledger): serve the first \
           N submissions, tear the service down (plan cache, breaker \
           states, store epochs and calibration all lost), \
           then restore a fresh service from the ledger and serve the \
           remainder. The summary covers both halves.")

let serve_cmd =
  let run mix_spec tenants_spec rate count seed nodes concurrency
      cache_capacity subresult_cache_mb check_identity trace breaker
      ledger no_calibrate inject retries deadline_factor deadline
      no_speculation replan_threshold slo queue_cap global_queue_cap
      shed_policy_s pressure_threshold retry_budget restart_after =
    (* a workflow-level deadline budget cannot be distributed over an
       open-ended stream of submissions — refuse it loudly rather than
       silently applying it per submission *)
    if deadline <> None then begin
      Format.eprintf
        "serve cannot honor a workflow-level --deadline; use --slo \
         SECONDS for per-request deadlines@.";
      exit 1
    end;
    let shed_policy =
      match Serve.Service.shed_policy_of_string shed_policy_s with
      | Some p -> p
      | None ->
        Format.eprintf
          "unknown --shed-policy %S (expected reject-newest, \
           shed-lowest-weight or oldest-first)@."
          shed_policy_s;
        exit 1
    in
    let inject_plan = fault_plan_of inject seed in
    (* recovery is armed only under injection: a fault-free serve run
       keeps the seed behavior (failures fail) and the identity
       baseline stays comparable *)
    let recovery =
      if inject_plan = None then Musketeer.Recovery.none
      else
        { Musketeer.Recovery.default with
          Musketeer.Recovery.max_retries = max 0 retries }
    in
    let supervision =
      supervision_of deadline_factor None no_speculation replan_threshold
    in
    if restart_after <> None && ledger = None then begin
      Format.eprintf "--restart-after requires --ledger@.";
      exit 1
    end;
    let factors = calibration_of ledger no_calibrate in
    let tenants = parse_weighted ~what:"tenant" tenants_spec in
    let hdfs = Engines.Hdfs.create () in
    (* merge every mix workflow's loader HDFS into one shared instance;
       duplicate relation names are fine — the zoo loaders are
       deterministic, so overwrites are byte-identical *)
    let mix =
      List.map
        (fun (name, weight) ->
           match List.assoc_opt name zoo with
           | None ->
             Format.eprintf "unknown workflow %S in --mix (known: %s)@."
               name
               (String.concat ", " (List.map fst zoo));
             exit 1
           | Some load ->
             let wf_hdfs, graph = load () in
             List.iter
               (fun rel ->
                  let e = Engines.Hdfs.get wf_hdfs rel in
                  Engines.Hdfs.put hdfs rel
                    ~modeled_mb:e.Engines.Hdfs.modeled_mb
                    e.Engines.Hdfs.table)
               (Engines.Hdfs.list wf_hdfs);
             { Serve.Client.workflow = name; graph; weight })
        (parse_weighted ~what:"mix" mix_spec)
    in
    (* pre-serve snapshot: the one-shot identity baseline runs on this *)
    let base = Engines.Hdfs.snapshot hdfs in
    let submissions =
      Serve.Client.generate ~seed ~rate_per_s:rate ~count ~tenants ~mix ()
    in
    let config =
      { Serve.Service.default_config with
        Serve.Service.concurrency; cache_capacity; subresult_cache_mb;
        weights = tenants; ledger;
        tenant_queue_cap = max 0 queue_cap;
        global_queue_cap = max 0 global_queue_cap;
        shed_policy;
        pressure_threshold_s = Float.max 0. pressure_threshold;
        default_slo_s = slo;
        retry_budget;
        recovery; supervision; inject = inject_plan;
        breaker = breaker_of breaker }
    in
    with_trace trace @@ fun () ->
    let cluster = Engines.Cluster.ec2 ~nodes in
    let m = manager ~factors cluster in
    let outcomes, svc =
      match restart_after with
      | None -> Serve.Service.run ~config m ~hdfs submissions
      | Some n ->
        let rec split_at n = function
          | l when n <= 0 -> ([], l)
          | [] -> ([], [])
          | x :: tl ->
            let a, b = split_at (n - 1) tl in
            (x :: a, b)
        in
        let before, after = split_at n submissions in
        let svc1 = Serve.Service.create ~config m ~hdfs in
        let outcomes1 = Serve.Service.drive svc1 before in
        (* simulated crash: every piece of warm state dies with the
           process — only the ledger file and HDFS survive. The new
           service starts with a fresh history, no calibration and
           fresh breakers *)
        let m' = Musketeer.create ~cluster () in
        let svc2 = Serve.Service.create ~config m' ~hdfs in
        let records =
          match ledger with
          | None -> []
          | Some filename -> (
            match Obs.Ledger.load ~filename () with
            | records -> records
            | exception Obs.Ledger.Schema_error msg ->
              Format.eprintf "ledger %s: %s@." filename msg;
              exit 1)
        in
        let stats =
          Serve.Service.restore ~calibrate:(not no_calibrate) svc2
            ~mix:
              (List.map
                 (fun (e : Serve.Client.mix_entry) -> (e.workflow, e.graph))
                 mix)
            records
        in
        Format.printf "%a@." Serve.Service.pp_restore_stats stats;
        let outcomes2 = Serve.Service.drive svc2 after in
        (outcomes1 @ outcomes2, svc2)
    in
    List.iter
      (fun (o : Serve.Service.outcome) ->
         match o.error with
         | Some e ->
           Format.eprintf "submission %s/%s @ %.2fs failed: %s@."
             o.sub.Serve.Service.tenant o.sub.Serve.Service.workflow
             o.sub.Serve.Service.arrival_s e
         | None -> ())
      outcomes;
    Serve.Service.pp_summary Format.std_formatter
      (Serve.Service.summarize svc outcomes);
    if check_identity then begin
      (* reference outputs: one-shot run per distinct workflow on a
         fresh snapshot of the pre-serve HDFS, fresh manager (empty
         history), no cache, no sharing — the plain [run] path *)
      let sorted_csv outputs =
        List.sort compare
          (List.map
             (fun (name, table) -> (name, Relation.Table.to_csv table))
             outputs)
      in
      let reference = Hashtbl.create 8 in
      List.iter
        (fun (e : Serve.Client.mix_entry) ->
           if not (Hashtbl.mem reference e.workflow) then begin
             let h = Engines.Hdfs.snapshot base in
             let m' = Musketeer.create ~cluster () in
             match
               Musketeer.plan m' ~workflow:e.workflow ~hdfs:h e.graph
             with
             | None ->
               Format.eprintf "identity baseline: no plan for %s@."
                 e.workflow;
               exit 1
             | Some (plan, g') -> (
               match
                 Musketeer.execute_plan ~record_history:false m'
                   ~workflow:e.workflow ~hdfs:h ~graph:g' plan
               with
               | Error err ->
                 Format.eprintf "identity baseline %s failed: %s@."
                   e.workflow
                   (Engines.Report.error_to_string err);
                 exit 1
               | Ok result ->
                 Hashtbl.add reference e.workflow
                   (sorted_csv result.Musketeer.Executor.outputs))
           end)
        mix;
      let mismatches = ref 0 in
      let compared = ref 0 in
      let skipped = ref 0 in
      List.iter
        (fun (o : Serve.Service.outcome) ->
           (* shed / expired / errored submissions completed nothing —
              there are no bytes to compare *)
           match o.status, o.error with
           | Serve.Service.(Shed _ | Expired), _ | _, Some _ ->
             incr skipped
           | Serve.Service.Served, None ->
             incr compared;
             let got = sorted_csv o.outputs in
             let want = Hashtbl.find reference o.sub.Serve.Service.workflow in
             if got <> want then begin
               incr mismatches;
               Format.eprintf
                 "identity MISMATCH: %s/%s @ %.2fs differs from its \
                  one-shot run@."
                 o.sub.Serve.Service.tenant o.sub.Serve.Service.workflow
                 o.sub.Serve.Service.arrival_s
             end)
        outcomes;
      let leaked = Serve.Service.open_flights svc in
      if leaked > 0 then
        Format.eprintf
          "@.flight leak: %d store flights left open after the \
           drive@."
          leaked;
      if !mismatches > 0 || leaked > 0 then begin
        Format.eprintf "@.identity check FAILED: %d of %d completed \
                        submissions mismatched, %d leaked flights@."
          !mismatches !compared leaked;
        exit 1
      end
      else
        Format.printf
          "@.identity ok: %d completed submissions byte-identical to \
           one-shot runs (%d shed/expired/errored skipped), 0 leaked \
           flights@."
          !compared !skipped
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent serving layer against a synthetic \
          multi-tenant load: plan cache, weighted fair admission and \
          cross-workflow shared scans amortize work across \
          submissions, and the overload hardening (bounded queues with \
          --queue-cap/--global-queue-cap and --shed-policy, per-request \
          --slo deadlines, a --pressure-threshold degradation ladder, \
          a --retry-budget token bucket, --inject chaos and a \
          --restart-after crash-recovery drill) keeps it predictable \
          under stress. Prints throughput, goodput, latency \
          percentiles, shed/expired counts, cache hit rate and \
          per-tenant queue delays; --check-identity verifies completed \
          outputs byte-match one-shot runs and that no shared-scan or \
          subplan flight leaks. See docs/serving.md and \
          docs/fault-tolerance.md.")
    Term.(
      const run $ mix_arg $ tenants_arg $ rate_arg $ count_arg $ seed_arg
      $ nodes_arg $ concurrency_arg $ cache_capacity_arg
      $ subresult_cache_mb_arg $ check_identity_arg $ trace_arg
      $ breaker_arg $ ledger_arg $ no_calibrate_arg
      $ inject_arg $ retries_arg $ deadline_factor_arg $ deadline_arg
      $ no_speculation_arg $ replan_threshold_arg $ slo_arg $ queue_cap_arg
      $ global_queue_cap_arg $ shed_policy_arg $ pressure_arg
      $ retry_budget_arg $ restart_after_arg)

(* ---- report: read the ledger back ---- *)

let percentile values q =
  match values with
  | [] -> None
  | _ ->
    let a = Array.of_list values in
    Array.sort compare a;
    let n = Array.length a in
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor h) in
    let hi = min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    Some (a.(lo) +. (frac *. (a.(hi) -. a.(lo))))

let abs_rel_errors (r : Obs.Ledger.record) =
  List.filter_map
    (fun (p : Obs.Metrics.prediction) ->
       if p.observed_s > 0. then
         Some (Float.abs (p.predicted_s -. p.observed_s) /. p.observed_s)
       else None)
    r.Obs.Ledger.predictions

(* per-run trend rows: (index, workflow, makespan, n, p50, p90) *)
let error_trend records =
  List.mapi
    (fun i (r : Obs.Ledger.record) ->
       let errors = abs_rel_errors r in
       ( i + 1, r.Obs.Ledger.workflow, r.Obs.Ledger.makespan_s,
         List.length errors,
         percentile errors 0.5, percentile errors 0.9 ))
    records

(* per-engine league table: (backend, n, median obs/raw ratio, p50, p90) *)
let engine_league records =
  let tbl : (string, (float * float) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (r : Obs.Ledger.record) ->
       List.iter
         (fun (p : Obs.Metrics.prediction) ->
            if p.observed_s > 0. && p.raw_predicted_s > 1e-9 then begin
              let cell =
                match Hashtbl.find_opt tbl p.backend with
                | Some c -> c
                | None ->
                  let c = ref [] in
                  Hashtbl.add tbl p.backend c;
                  c
              in
              let err =
                Float.abs (p.predicted_s -. p.observed_s) /. p.observed_s
              in
              cell := (p.observed_s /. p.raw_predicted_s, err) :: !cell
            end)
         r.Obs.Ledger.predictions)
    records;
  Hashtbl.fold
    (fun backend cell acc ->
       let ratios = List.map fst !cell and errors = List.map snd !cell in
       ( backend, List.length ratios,
         Option.value ~default:1. (percentile ratios 0.5),
         Option.value ~default:0. (percentile errors 0.5),
         Option.value ~default:0. (percentile errors 0.9) )
       :: acc)
    tbl []
  |> List.sort compare

(* workflows whose latest run is slower than the run before it:
   (workflow, previous makespan, last makespan, relative increase) *)
let regressions records =
  let by_wf : (string, Obs.Ledger.record list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (r : Obs.Ledger.record) ->
       match Hashtbl.find_opt by_wf r.Obs.Ledger.workflow with
       | Some c -> c := r :: !c
       | None -> Hashtbl.add by_wf r.Obs.Ledger.workflow (ref [ r ]))
    records;
  Hashtbl.fold
    (fun workflow cell acc ->
       match !cell with
       (* reversed: head is the latest run *)
       | last :: prev :: _
         when prev.Obs.Ledger.makespan_s > 0.
              && last.Obs.Ledger.makespan_s > prev.Obs.Ledger.makespan_s ->
         let delta =
           (last.Obs.Ledger.makespan_s -. prev.Obs.Ledger.makespan_s)
           /. prev.Obs.Ledger.makespan_s
         in
         (workflow, prev.Obs.Ledger.makespan_s, last.Obs.Ledger.makespan_s,
          delta)
         :: acc
       | _ -> acc)
    by_wf []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* serving-mode records (schema 1.1): plan-cache outcomes and
   per-tenant queue delays, present when the ledger was written by
   [musketeer serve] *)
let serve_rows records =
  List.filter_map (fun (r : Obs.Ledger.record) -> r.Obs.Ledger.serve) records

let serve_cache_counts rows =
  List.fold_left
    (fun (h, m, i) (s : Obs.Ledger.serve_info) ->
       match s.cache with
       | "hit" -> (h + 1, m, i)
       | "invalidated" -> (h, m, i + 1)
       | _ -> (h, m + 1, i))
    (0, 0, 0) rows

(* total shared prefixes attached and their modeled MB (schema 1.2;
   older serve records read back as zero) *)
let serve_subplan_totals rows =
  List.fold_left
    (fun (hits, mb) (s : Obs.Ledger.serve_info) ->
       (hits + s.subplan_hits, mb +. s.subplan_attached_mb))
    (0, 0.) rows

(* per-tenant table: (tenant, n, queue p50, queue p99, latency p99) *)
let serve_tenant_table rows =
  let tbl : (string, Obs.Ledger.serve_info list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (s : Obs.Ledger.serve_info) ->
       match Hashtbl.find_opt tbl s.tenant with
       | Some c -> c := s :: !c
       | None -> Hashtbl.add tbl s.tenant (ref [ s ]))
    rows;
  Hashtbl.fold
    (fun tenant cell acc ->
       let qs =
         List.map (fun (s : Obs.Ledger.serve_info) -> s.queue_delay_s) !cell
       in
       let ls =
         List.map (fun (s : Obs.Ledger.serve_info) -> s.latency_s) !cell
       in
       ( tenant, List.length !cell,
         Option.value ~default:0. (percentile qs 0.5),
         Option.value ~default:0. (percentile qs 0.99),
         Option.value ~default:0. (percentile ls 0.99) )
       :: acc)
    tbl []
  |> List.sort compare

let report_json records =
  let opt = function Some v -> Obs.Json.Number v | None -> Obs.Json.Null in
  Obs.Json.Obj
    [ ("runs",
       Obs.Json.List
         (List.map
            (fun (i, wf, makespan, n, p50, p90) ->
               Obs.Json.Obj
                 [ ("run", Obs.Json.Number (float_of_int i));
                   ("workflow", Obs.Json.String wf);
                   ("makespan_s", Obs.Json.Number makespan);
                   ("predictions", Obs.Json.Number (float_of_int n));
                   ("abs_rel_error_p50", opt p50);
                   ("abs_rel_error_p90", opt p90) ])
            (error_trend records)));
      ("engines",
       Obs.Json.List
         (List.map
            (fun (backend, n, ratio, p50, p90) ->
               Obs.Json.Obj
                 [ ("backend", Obs.Json.String backend);
                   ("predictions", Obs.Json.Number (float_of_int n));
                   ("observed_over_predicted_p50", Obs.Json.Number ratio);
                   ("abs_rel_error_p50", Obs.Json.Number p50);
                   ("abs_rel_error_p90", Obs.Json.Number p90) ])
            (engine_league records)));
      ("regressions",
       Obs.Json.List
         (List.map
            (fun (wf, prev, last, delta) ->
               Obs.Json.Obj
                 [ ("workflow", Obs.Json.String wf);
                   ("previous_makespan_s", Obs.Json.Number prev);
                   ("last_makespan_s", Obs.Json.Number last);
                   ("rel_increase", Obs.Json.Number delta) ])
            (regressions records)));
      ("serve",
       match serve_rows records with
       | [] -> Obs.Json.Null
       | rows ->
         let hits, misses, invalidations = serve_cache_counts rows in
         let total = hits + misses + invalidations in
         Obs.Json.Obj
           [ ("records", Obs.Json.Number (float_of_int total));
             ("cache_hits", Obs.Json.Number (float_of_int hits));
             ("cache_misses", Obs.Json.Number (float_of_int misses));
             ("cache_invalidations",
              Obs.Json.Number (float_of_int invalidations));
             ("cache_hit_rate",
              Obs.Json.Number
                (if total = 0 then 0.
                 else float_of_int hits /. float_of_int total));
             ("subplan_hits",
              Obs.Json.Number
                (float_of_int (fst (serve_subplan_totals rows))));
             ("subplan_attached_mb",
              Obs.Json.Number (snd (serve_subplan_totals rows)));
             ("tenants",
              Obs.Json.List
                (List.map
                   (fun (tenant, n, q50, q99, l99) ->
                      Obs.Json.Obj
                        [ ("tenant", Obs.Json.String tenant);
                          ("records", Obs.Json.Number (float_of_int n));
                          ("queue_delay_p50_s", Obs.Json.Number q50);
                          ("queue_delay_p99_s", Obs.Json.Number q99);
                          ("latency_p99_s", Obs.Json.Number l99) ])
                   (serve_tenant_table rows))) ]) ]

let pp_report ppf records =
  let fmt_opt = function
    | Some v -> Printf.sprintf "%6.1f%%" (100. *. v)
    | None -> "    n/a"
  in
  Format.fprintf ppf "ledger: %d run record%s@." (List.length records)
    (if List.length records = 1 then "" else "s");
  Format.fprintf ppf "@.prediction error per run:@.";
  Format.fprintf ppf "  %4s %-16s %10s %6s %8s %8s@." "run" "workflow"
    "makespan" "preds" "|e| p50" "|e| p90";
  List.iter
    (fun (i, wf, makespan, n, p50, p90) ->
       Format.fprintf ppf "  %4d %-16s %9.1fs %6d %8s %8s@." i wf makespan n
         (fmt_opt p50) (fmt_opt p90))
    (error_trend records);
  (match engine_league records with
   | [] -> ()
   | league ->
     Format.fprintf ppf "@.engine league table (all runs):@.";
     Format.fprintf ppf "  %-12s %6s %10s %8s %8s@." "backend" "preds"
       "obs/pred" "|e| p50" "|e| p90";
     List.iter
       (fun (backend, n, ratio, p50, p90) ->
          Format.fprintf ppf "  %-12s %6d %9.3fx %7.1f%% %7.1f%%@." backend n
            ratio (100. *. p50) (100. *. p90))
       league);
  (match regressions records with
   | [] ->
     Format.fprintf ppf "@.no workflow regressed vs. its previous run@."
   | regs ->
     Format.fprintf ppf "@.workflows slower than their previous run:@.";
     List.iter
       (fun (wf, prev, last, delta) ->
          Format.fprintf ppf "  %-16s %8.1fs -> %8.1fs  (+%.1f%%)@." wf prev
            last (100. *. delta))
       regs);
  match serve_rows records with
  | [] -> ()
  | rows ->
    let hits, misses, invalidations = serve_cache_counts rows in
    let total = hits + misses + invalidations in
    Format.fprintf ppf
      "@.serving (%d records): plan cache %.0f%% hit (%d hit / %d miss \
       / %d invalidated)@."
      total
      (if total = 0 then 0.
       else 100. *. float_of_int hits /. float_of_int total)
      hits misses invalidations;
    (let sp_hits, sp_mb = serve_subplan_totals rows in
     if sp_hits > 0 then
       Format.fprintf ppf
         "  subplans: %d shared prefixes attached (%.0f MB skipped)@."
         sp_hits sp_mb);
    Format.fprintf ppf "  %-12s %6s %10s %10s %12s@." "tenant" "n"
      "queue p50" "queue p99" "latency p99";
    List.iter
      (fun (tenant, n, q50, q99, l99) ->
         Format.fprintf ppf "  %-12s %6d %9.2fs %9.2fs %11.2fs@." tenant n
           q50 q99 l99)
      (serve_tenant_table rows)

let ledger_required_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:"The run ledger to read (written by run/run-file/stats).")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Exit non-zero when some workflow's latest run is more than \
           --threshold slower than its previous run — a CI perf gate.")

let threshold_arg =
  Arg.(
    value & opt float 0.1
    & info [ "threshold" ] ~docv:"E"
        ~doc:
          "Relative makespan increase tolerated by --check (default \
           0.1 = 10%).")

let report_cmd =
  let run filename json check threshold =
    let records =
      match Obs.Ledger.load ~filename () with
      | exception Obs.Ledger.Schema_error msg ->
        Format.eprintf "ledger %s: %s@." filename msg;
        exit 1
      | exception Obs.Json.Parse_error msg ->
        Format.eprintf "ledger %s is corrupt: %s@." filename msg;
        exit 1
      | [] ->
        Format.eprintf "ledger %s has no records@." filename;
        exit 1
      | records -> records
    in
    let torn = Obs.Metrics.counter Obs.Metrics.default "ledger.torn_lines" in
    if torn > 0 then
      Format.eprintf "warning: skipped %d torn final line(s)@." torn;
    if json then print_endline (Obs.Json.to_string (report_json records))
    else pp_report Format.std_formatter records;
    if check then begin
      let over =
        List.filter
          (fun (_, _, _, delta) -> delta > threshold)
          (regressions records)
      in
      match over with
      | [] ->
        Format.printf "@.check ok: no regression above %.0f%%@."
          (100. *. threshold)
      | (wf, prev, last, delta) :: _ ->
        Format.eprintf
          "@.check FAILED: %s regressed %.1f%% (%.1fs -> %.1fs), \
           threshold %.0f%%@."
          wf (100. *. delta) prev last (100. *. threshold);
        exit 1
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Read a run ledger and report the prediction-error trend per \
          run, a per-engine league table and workflows slower than \
          their previous run; --check turns regressions into a \
          non-zero exit for CI.")
    Term.(
      const run $ ledger_required_arg $ json_arg $ check_arg
      $ threshold_arg)

let engines_cmd =
  let run () = Experiments.Tables.table3 Format.std_formatter in
  Cmd.v
    (Cmd.info "engines"
       ~doc:"Print the data-processing-system feature matrix (Table 3).")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "musketeer" ~version:"1.0.0"
      ~doc:"All for one, one for all in data processing systems."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ plan_cmd; run_cmd; run_file_cmd; serve_cmd; stats_cmd;
            parse_cmd; explain_cmd; calibrate_cmd; engines_cmd;
            report_cmd ]))
