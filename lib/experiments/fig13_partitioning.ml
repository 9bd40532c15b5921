(** Figure 13 — runtime of the DAG-partitioning algorithms over the
    first x operators of the extended NetFlix workflow (§6.6).

    This is the repository's one *real-time* measurement: the exhaustive
    search is exponential (practical up to ~13 operators, as the paper
    cuts over), the dynamic-programming heuristic stays in the
    millisecond range at 18 operators. [measurements] is also exposed to
    the Bechamel harness in bench/main.ml; [sets_scored] counts the
    same searches' work without a clock. *)

let prefix_graph full x =
  let op_ids =
    List.filter_map
      (fun (n : Ir.Operator.node) ->
         match n.kind with Ir.Operator.Input _ -> None | _ -> Some n.id)
      (Ir.Dag.topological_order full)
  in
  let ids = List.filteri (fun i _ -> i < x) op_ids in
  Musketeer.Jobgraph.extract full ids

let setup () =
  let m = Musketeer.create ~cluster:(Common.ec2 16) () in
  let hdfs = Common.load_netflix ~movies:17000 in
  let full = Workloads.Workflows.netflix_extended () in
  (m, hdfs, full)

(* on the shared observability clock, so experiment timings and
   pipeline traces are directly comparable *)
let time_once f = snd (Obs.Trace.time f)

(* Millisecond-scale searches are vulnerable to a single ill-timed GC
   pause (the test suite runs these after experiments that leave a large
   heap). Take the best of three for fast measurements; long runs are
   self-averaging and not worth repeating. *)
let time_best f =
  let s = time_once f in
  if s >= 0.05 then s
  else min s (min (time_once f) (time_once f))

(** (operators, exhaustive seconds option, memoized-exhaustive seconds,
    dynamic seconds). Exhaustive is skipped (None) once a previous size
    exceeded [budget_s]. *)
let measurements ?(max_ops = 18) ?(budget_s = 5.) () =
  let m, hdfs, full = setup () in
  let profile = Musketeer.profile m in
  let backends = Engines.Backend.all in
  let exhausted = ref false in
  List.filter_map
    (fun x ->
       if x > Ir.Dag.operator_count full then None
       else begin
         let g = prefix_graph full x in
         let est =
           Musketeer.estimator m ~workflow:"netflix-prefix" ~hdfs g
         in
         let dyn =
           time_best (fun () ->
               Musketeer.Partitioner.dynamic ~profile ~est ~backends g)
         in
         let memo =
           time_best (fun () ->
               Musketeer.Partitioner.exhaustive_memoized ~profile ~est
                 ~backends g)
         in
         let exh =
           if !exhausted then None
           else begin
             let s =
               time_best (fun () ->
                   Musketeer.Partitioner.exhaustive ~profile ~est ~backends g)
             in
             if s > budget_s then exhausted := true;
             Some s
           end
         in
         Some (x, exh, memo, dyn)
       end)
    (List.init max_ops (fun i -> i + 1))

(* the histogram keeps every observation, so its sum grows by exactly
   the sets one search priced *)
let scored_total () =
  match
    Obs.Metrics.histogram Obs.Metrics.default "partition.sets_scored"
  with
  | Some h -> h.Obs.Metrics.mean *. float_of_int h.Obs.Metrics.count
  | None -> 0.

let count_scored search =
  let before = scored_total () in
  ignore (search ());
  int_of_float (Float.round (scored_total () -. before))

(** (operators, exhaustive sets, dynamic sets) for each size in [ops]:
    the candidate operator sets each search prices, read off the
    partitioner's [partition.sets_scored] histogram. Deterministic,
    unlike {!measurements}. Exhaustive is skipped (None) above
    [max_exhaustive] operators. *)
let sets_scored ?(max_exhaustive = 14) ops =
  let m, hdfs, full = setup () in
  let profile = Musketeer.profile m in
  let backends = Engines.Backend.all in
  List.map
    (fun x ->
       let g = prefix_graph full x in
       let est = Musketeer.estimator m ~workflow:"netflix-prefix" ~hdfs g in
       let exh =
         if x > max_exhaustive then None
         else
           Some
             (count_scored (fun () ->
                  Musketeer.Partitioner.exhaustive ~profile ~est ~backends g))
       in
       ( x,
         exh,
         count_scored (fun () ->
             Musketeer.Partitioner.dynamic ~profile ~est ~backends g) ))
    ops

let run ppf =
  Common.table ppf
    ~title:
      "Figure 13: partitioning runtime over NetFlix-prefix DAGs (measured)"
    ~header:[ "operators"; "exhaustive"; "exhaustive+memo"; "dynamic" ]
    (List.map
       (fun (x, exh, memo, dyn) ->
          [ string_of_int x;
            (match exh with
             | Some s -> Printf.sprintf "%.1f ms" (1000. *. s)
             | None -> "skipped (>budget)");
            Printf.sprintf "%.2f ms" (1000. *. memo);
            Printf.sprintf "%.2f ms" (1000. *. dyn) ])
       (measurements ()))
