open Relation

type t = {
  cluster : Engines.Cluster.t;
  table : (Engines.Backend.t * Engines.Perf.rates) list;
  factors : (string * float) list;  (* sorted by backend name *)
}

let cluster t = t.cluster

let with_calibration t factors =
  { t with factors = List.sort compare factors }

let calibration t = t.factors

let factor t backend =
  Option.value ~default:1.0 (List.assoc_opt backend t.factors)

let rates t backend =
  match List.assoc_opt backend t.table with
  | Some r -> r
  | None -> invalid_arg ("Profile.rates: " ^ Engines.Backend.name backend)

(* ---- probe data ---- *)

let pair_schema =
  Schema.make [ { Schema.name = "k"; ty = Value.Tint };
                { Schema.name = "v"; ty = Value.Tint } ]

let pair_table n seed =
  let state = Random.State.make [| seed |] in
  Table.create_unchecked pair_schema
    (Array.init n (fun i ->
         [| Value.Int (Random.State.int state (max 1 (n / 2)));
            Value.Int i |]))

let rank_schema =
  Schema.make
    [ { Schema.name = "id"; ty = Value.Tint };
      { Schema.name = "rank"; ty = Value.Tfloat };
      { Schema.name = "degree"; ty = Value.Tint } ]

let edge_schema =
  Schema.make [ { Schema.name = "src"; ty = Value.Tint };
                { Schema.name = "dst"; ty = Value.Tint } ]

(* ring + self-loop graph: every vertex has in-edges, degree 2 *)
let probe_graph n =
  let ranks =
    Table.create_unchecked rank_schema
      (Array.init n (fun i ->
           [| Value.Int i; Value.Float 1.0; Value.Int 2 |]))
  in
  let edges =
    Table.create_unchecked edge_schema
      (Array.init (2 * n) (fun e ->
           let i = e / 2 in
           if e mod 2 = 0 then [| Value.Int i; Value.Int ((i + 1) mod n) |]
           else [| Value.Int i; Value.Int i |]))
  in
  (ranks, edges)

(* ---- probe job graphs ---- *)

let scan_graph () =
  let b = Ir.Builder.create () in
  let inp = Ir.Builder.input b "cal_scan" in
  let sel =
    Ir.Builder.select b ~name:"cal_scan_out" ~pred:(Expr.bool true) inp
  in
  Ir.Builder.finish b ~outputs:[ sel ]

let join_graph () =
  let b = Ir.Builder.create () in
  let l = Ir.Builder.input b "cal_l" in
  let r = Ir.Builder.input b "cal_r" in
  let j =
    Ir.Builder.join b ~name:"cal_join_out" ~left_key:"k" ~right_key:"k" l r
  in
  Ir.Builder.finish b ~outputs:[ j ]

let pagerank_graph ~iterations =
  let body_b = Ir.Builder.create () in
  let ranks = Ir.Builder.input body_b "cal_ranks" in
  let edges = Ir.Builder.input body_b "cal_edges" in
  let j =
    Ir.Builder.join body_b ~left_key:"src" ~right_key:"id" edges ranks
  in
  let contrib =
    Ir.Builder.map body_b ~target:"contrib"
      ~expr:Expr.(col "rank" / col "degree")
      j
  in
  let msgs = Ir.Builder.project body_b ~columns:[ "dst"; "contrib" ] contrib in
  let sums =
    Ir.Builder.group_by body_b ~keys:[ "dst" ]
      ~aggs:[ Aggregate.make (Aggregate.Sum "contrib") ~as_name:"recv" ]
      msgs
  in
  let j2 = Ir.Builder.join body_b ~left_key:"id" ~right_key:"dst" ranks sums in
  let newrank =
    Ir.Builder.map body_b ~target:"rank"
      ~expr:Expr.(float 0.15 + (float 0.85 * col "recv"))
      j2
  in
  let out =
    Ir.Builder.project body_b ~name:"cal_ranks"
      ~columns:[ "id"; "rank"; "degree" ] newrank
  in
  let body =
    Ir.Builder.finish_body body_b ~carried:[ ("cal_ranks", out) ]
  in
  let b = Ir.Builder.create () in
  let ranks0 = Ir.Builder.input b "cal_ranks" in
  let edges0 = Ir.Builder.input b "cal_edges" in
  let loop =
    Ir.Builder.while_ b ~name:"cal_pr_out"
      ~condition:(Ir.Operator.Fixed_iterations iterations)
      ~max_iterations:(iterations + 1) ~body [ ranks0; edges0 ]
  in
  Ir.Builder.finish b ~outputs:[ loop ]

(* ---- rate derivation ---- *)

let rate volume seconds = if seconds <= 0. then None else Some (volume /. seconds)

let or_default opt default = Option.value opt ~default

(* A probe graph, executed once: its rows and volumes do not depend on
   the engine, so every backend prices this one result. *)
type probe = {
  label : string;
  graph : Ir.Operator.graph;
  exec : Engines.Exec_helper.result;
}

let job backend probe =
  Engines.Job.make ~options:Engines.Job.baseline_options ~label:probe.label
    ~backend probe.graph

let price ~cluster backend probe =
  Engines.Registry.price backend ~cluster (job backend probe) probe.exec

type probes = { scan : probe; join : probe; pr_1 : probe; pr_4 : probe }

let probe_general ~cluster backend probes =
  match price ~cluster backend probes.scan with
  | Error _ -> None
  | Ok scan_report ->
    let b = scan_report.Engines.Report.breakdown in
    let pull = or_default (rate scan_report.Engines.Report.input_mb b.Engines.Report.pull_s) 100. in
    let push = or_default (rate scan_report.Engines.Report.output_mb b.Engines.Report.push_s) 100. in
    let process =
      or_default
        (rate probes.scan.exec.volumes.Engines.Perf.process_mb
           b.Engines.Report.process_s)
        500.
    in
    let load = rate scan_report.Engines.Report.input_mb b.Engines.Report.load_s in
    let comm =
      match price ~cluster backend probes.join with
      | Ok join_report ->
        or_default
          (rate probes.join.exec.volumes.Engines.Perf.comm_mb
             join_report.Engines.Report.breakdown.Engines.Report.comm_s)
          500.
      | Error _ -> 500.
    in
    Some
      { Engines.Perf.overhead_s = b.Engines.Report.overhead_s; pull_mb_s = pull;
        load_mb_s = load; process_mb_s = process; comm_mb_s = comm;
        push_mb_s = push;
        (* refined below for engines that iterate natively *)
        iter_overhead_s = b.Engines.Report.overhead_s }

let probe_iteration ~cluster backend probes base =
  match price ~cluster backend probes.pr_1, price ~cluster backend probes.pr_4 with
  | Ok r1, Ok r4 ->
    (* per-iteration volume costs are inside both makespans; the probe
       isolates the fixed synchronization cost by predicting the volume
       delta with the already-derived rates *)
    let v1 = probes.pr_1.exec.volumes and v4 = probes.pr_4.exec.volumes in
    let delta_process =
      (v4.Engines.Perf.process_mb -. v1.Engines.Perf.process_mb) /. base.Engines.Perf.process_mb_s
    and delta_comm =
      (v4.Engines.Perf.comm_mb -. v1.Engines.Perf.comm_mb) /. base.Engines.Perf.comm_mb_s
    in
    let measured = r4.Engines.Report.makespan_s -. r1.Engines.Report.makespan_s in
    let iter_overhead =
      Float.max 0.05 ((measured -. delta_process -. delta_comm) /. 3.)
    in
    { base with Engines.Perf.iter_overhead_s = iter_overhead }
  | _ -> base

let probe_gas ~cluster backend probes =
  let probe = { probes.pr_4 with label = "cal_gas" } in
  match price ~cluster backend probe with
  | Error _ -> None
  | Ok r ->
    (* a GAS runtime only ships the gathered messages; derive the rates
       from the volumes the engine actually moves, or the calibration
       would overstate its bandwidth *)
    let v =
      Engines.Engine.gas_message_volumes ~job:(job backend probe)
        ~stats:probe.exec.op_stats probe.exec.volumes
    in
    let b = r.Engines.Report.breakdown in
    let pull = or_default (rate r.Engines.Report.input_mb b.Engines.Report.pull_s) 100. in
    let push = or_default (rate r.Engines.Report.output_mb b.Engines.Report.push_s) 100. in
    let process = or_default (rate v.Engines.Perf.process_mb b.Engines.Report.process_s) 300. in
    let comm = or_default (rate v.Engines.Perf.comm_mb b.Engines.Report.comm_s) 300. in
    let load = rate r.Engines.Report.input_mb b.Engines.Report.load_s in
    let base =
      { Engines.Perf.overhead_s = b.Engines.Report.overhead_s; pull_mb_s = pull;
        load_mb_s = load; process_mb_s = process; comm_mb_s = comm;
        push_mb_s = push; iter_overhead_s = 1. }
    in
    Some (probe_iteration ~cluster backend probes base)

let calibrate ?(probe_mb = 1024.) ~cluster () =
  Obs.Trace.with_span
    ~attrs:[ ("nodes", Obs.Trace.Int cluster.Engines.Cluster.nodes) ]
    "calibrate"
  @@ fun () ->
  let hdfs = Engines.Hdfs.create () in
  Engines.Hdfs.put hdfs "cal_scan" ~modeled_mb:probe_mb (pair_table 4096 1);
  Engines.Hdfs.put hdfs "cal_l" ~modeled_mb:(probe_mb /. 2.) (pair_table 2048 2);
  Engines.Hdfs.put hdfs "cal_r" ~modeled_mb:(probe_mb /. 2.) (pair_table 2048 3);
  let ranks, edges = probe_graph 512 in
  Engines.Hdfs.put hdfs "cal_ranks" ~modeled_mb:(probe_mb /. 8.) ranks;
  Engines.Hdfs.put hdfs "cal_edges" ~modeled_mb:probe_mb edges;
  let execute name graph =
    Obs.Trace.with_span ~attrs:[ ("probe", Obs.Trace.String name) ]
      "calibrate.execute"
    @@ fun () ->
    let exec = Engines.Exec_helper.execute ~hdfs graph in
    Obs.Trace.add_attr "rows_in"
      (Obs.Trace.Int
         (List.fold_left
            (fun s (relation, _) ->
               s + Table.row_count (Engines.Hdfs.table hdfs relation))
            0 exec.Engines.Exec_helper.scans));
    { label = "cal_" ^ name; graph; exec }
  in
  let scan = execute "scan" (scan_graph ()) in
  let join = execute "join" (join_graph ()) in
  let pr_1 = execute "pr_1" (pagerank_graph ~iterations:1) in
  let pr_4 = execute "pr_4" (pagerank_graph ~iterations:4) in
  let probes = { scan; join; pr_1; pr_4 } in
  let probe backend =
    Obs.Trace.with_span
      ~attrs:[ ("backend", Obs.Trace.String (Engines.Backend.name backend)) ]
      "calibrate.price"
    @@ fun () ->
    let result =
      if Engines.Backend.gas_only backend then probe_gas ~cluster backend probes
      else
        match probe_general ~cluster backend probes with
        | Some base when Engines.Backend.general_purpose backend ->
          Some (probe_iteration ~cluster backend probes base)
        | other -> other
    in
    Option.map (fun r -> (backend, r)) result
  in
  (* the two extension engines are calibrated too, so planning with
     ~backends:Engines.Backend.extended works out of the box *)
  { cluster; table = List.filter_map probe Engines.Backend.extended;
    factors = [] }

let pp ppf t =
  Format.fprintf ppf
    "%-12s %9s %9s %9s %9s %9s %9s@."
    "Back-end" "OVERHEAD" "PULL" "LOAD" "PROCESS" "COMM" "PUSH";
  List.iter
    (fun (backend, r) ->
       Format.fprintf ppf "%-12s %8.1fs %7.0f/s %9s %7.0f/s %7.0f/s %7.0f/s@."
         (Engines.Backend.name backend) r.Engines.Perf.overhead_s r.Engines.Perf.pull_mb_s
         (match r.Engines.Perf.load_mb_s with
          | None -> "-"
          | Some l -> Printf.sprintf "%.0f/s" l)
         r.Engines.Perf.process_mb_s r.Engines.Perf.comm_mb_s r.Engines.Perf.push_mb_s)
    t.table
