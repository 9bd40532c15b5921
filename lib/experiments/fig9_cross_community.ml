(** Figure 9 — combining back-end execution engines within the hybrid
    cross-community PageRank workflow (§6.3): the edge sets of two web
    communities are intersected (batch phase), then PageRank runs on
    the common sub-graph (iterative phase).

    Single-system executions are compared against Musketeer-explored
    combinations (general-purpose engine for the batch phase,
    specialized engine for the iterative one). The "Lindi & GraphLINQ"
    configuration keeps both phases inside one Naiad job, avoiding the
    HDFS round-trip between phases entirely — the best result, as in
    the paper. *)

let graph = Workloads.Workflows.cross_community_pagerank ()

let op_ids =
  List.filter_map
    (fun (n : Ir.Operator.node) ->
       match n.kind with Ir.Operator.Input _ -> None | _ -> Some n.id)
    graph.Ir.Operator.nodes

let while_id =
  List.find_map
    (fun (n : Ir.Operator.node) ->
       match n.kind with Ir.Operator.While _ -> Some n.id | _ -> None)
    graph.Ir.Operator.nodes
  |> Option.get

let batch_ids = List.filter (fun id -> id <> while_id) op_ids

(* split a node set into jobs a MapReduce-style engine accepts
   (at most one shuffle per job, §4.3.2) *)
let split_for backend ids =
  if Engines.Backend.general_purpose backend then [ ids ]
  else begin
    let jobs = ref [] and current = ref [] and shuffles = ref 0 in
    List.iter
      (fun id ->
         let kind = (Ir.Dag.node graph id).Ir.Operator.kind in
         let s = if Ir.Operator.needs_shuffle kind then 1 else 0 in
         if !shuffles + s > 1 then begin
           jobs := List.rev !current :: !jobs;
           current := [ id ];
           shuffles := s
         end
         else begin
           current := id :: !current;
           shuffles := !shuffles + s
         end)
      ids;
    if !current <> [] then jobs := List.rev !current :: !jobs;
    List.rev !jobs
  end

type combo = {
  combo_name : string;
  jobs : (Engines.Backend.t * int list) list;
  mode : Musketeer.Executor.mode;
}

let combo name ?(mode = Musketeer.Executor.Generated) batch loop =
  { combo_name = name;
    jobs =
      List.map (fun ids -> (batch, ids)) (split_for batch batch_ids)
      @ [ (loop, [ while_id ]) ];
    mode }

let single name ?(mode = Musketeer.Executor.Generated) backend =
  { combo_name = name;
    jobs =
      List.map (fun ids -> (backend, ids)) (split_for backend batch_ids)
      @ [ (backend, [ while_id ]) ];
    mode }

let one_naiad_job name mode =
  { combo_name = name; jobs = [ (Engines.Backend.Naiad, op_ids) ]; mode }

let combos () =
  [ single "Hadoop only" Engines.Backend.Hadoop;
    single "Spark only" Engines.Backend.Spark;
    (* stock Lindi materializes between the phases *)
    { combo_name = "Lindi only";
      jobs =
        [ (Engines.Backend.Naiad, batch_ids);
          (Engines.Backend.Naiad, [ while_id ]) ];
      mode = Musketeer.Executor.Native_frontend };
    combo "Hadoop + PowerGraph" Engines.Backend.Hadoop
      Engines.Backend.Power_graph;
    combo "Hadoop + GraphChi" Engines.Backend.Hadoop
      Engines.Backend.Graph_chi;
    combo "Spark + PowerGraph" Engines.Backend.Spark
      Engines.Backend.Power_graph;
    combo "Hadoop + Naiad" Engines.Backend.Hadoop Engines.Backend.Naiad;
    one_naiad_job "Lindi & GraphLINQ (one Naiad job)"
      Musketeer.Executor.Generated ]

let makespans () =
  let m = Musketeer.create ~cluster:Common.local7 () in
  let hdfs = Common.load_communities () in
  List.map
    (fun c ->
       ( c.combo_name,
         Common.run_with_plan ~mode:c.mode m ~workflow:"cross-community"
           ~hdfs ~graph c.jobs ))
    (combos ())

let run ppf =
  Common.table ppf
    ~title:"Figure 9: cross-community PageRank, combined back-ends (local)"
    ~header:[ "configuration"; "makespan" ]
    (List.map
       (fun (name, r) -> [ name; Common.cell r ])
       (makespans ()))
