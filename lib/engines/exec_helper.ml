open Relation

type op_stat = {
  node_id : int;
  kind_name : string;
  in_mb : float;
  out_mb : float;
  shuffled : bool;
}

type result = {
  volumes : Perf.volumes;
  outputs : (string * Table.t * float) list;
  op_stats : op_stat list;
}

exception Execution_error of string

let exec_error fmt = Printf.ksprintf (fun s -> raise (Execution_error s)) fmt

(* Modeled output size via selectivity measured on the executed rows. *)
let propagate kind ~in_modeled ~in_bytes ~out_bytes =
  if in_bytes = 0 then (Ir.Sizing.of_kind kind ~inputs:[ in_modeled ]).expected
  else in_modeled *. (float_of_int out_bytes /. float_of_int in_bytes)

type accum = {
  mutable input_mb : float;
  mutable process_mb : float;
  mutable comm_mb : float;
  mutable iterations : int;
  mutable stats : op_stat list;
}

(* a span whose attributes are built only when a collector listens *)
let span name attrs f =
  if Obs.Trace.enabled () then Obs.Trace.with_span ~attrs:(attrs ()) name f
  else f ()

(* A fused chain runs as SELECT/PROJECT/MAP kernels over one view. The
   view is settled only at each MAP and at the tail, where one-pass
   fused evaluation gathered, so every size is the fused one. A chain
   the columnar kernels cannot run end to end runs on rows from its
   source as one unit, as the fused row pass did. *)
let run_chain src kinds =
  let step t : Ir.Operator.kind -> Table.t option = function
    | Ir.Operator.Select { pred } -> Columnar.try_select t pred
    | Ir.Operator.Project { columns } -> Columnar.try_project t columns
    | Ir.Operator.Map { target; expr } ->
      Columnar.try_map_column t ~target ~expr
    | k -> invalid_arg ("Exec_helper.run_chain: " ^ Ir.Operator.kind_name k)
  in
  match
    List.fold_left
      (fun t k -> Option.bind t (fun t -> step t k))
      (Some src) kinds
  with
  | Some out -> Table.settle out
  | None ->
    Column.with_enabled false (fun () ->
        List.fold_left (fun t kind -> Ir.Interp.eval_kind kind [ t ]) src kinds)

(* Evaluates a graph; [bound] overrides relation lookups (used for WHILE
   bodies); returns per-node (table, modeled_mb) plus output bindings in
   node order (later bindings shadow earlier ones on lookup).

   When fusion is on ({!Ir.Fusion.enabled}), chains planned by
   {!Ir.Fusion.plan} execute in one {!run_chain} at the chain tail;
   interior nodes are skipped entirely — never materialized, never
   entered in [values]/[by_name] (the planner guarantees nothing reads
   them). Their op_stats are still emitted, with modeled volumes from
   {!Ir.Sizing}, so cost-model and Fig-14 telemetry stay populated.
   [protect] names relations the caller will look up by name in the
   returned [by_name] (the WHILE driver's condition relations). *)
let rec eval_graph ?(protect = []) ~hdfs
    ~(bound : (string, Table.t * float) Hashtbl.t) ~acc
    (g : Ir.Operator.graph) =
  let fused = Ir.Fusion.enabled () in
  let fplan = if fused then Ir.Fusion.plan ~protect g else Ir.Fusion.empty in
  let values : (int, Table.t * float) Hashtbl.t = Hashtbl.create 16 in
  let by_name : (string, Table.t * float) Hashtbl.t = Hashtbl.create 16 in
  (* one HDFS fetch per distinct relation per job: duplicate INPUT nodes
     (several consumers of one relation) share the scan *)
  let scans : (string, Table.t * float) Hashtbl.t = Hashtbl.create 4 in
  let eval_input relation =
    match Hashtbl.find_opt bound relation with
    | Some v -> v
    | None -> (
      match Hashtbl.find_opt scans relation with
      | Some (t, mb) when fused ->
        Obs.Metrics.incr Obs.Metrics.default "scan.shared";
        Obs.Metrics.add_gauge Obs.Metrics.default "scan.shared_mb_saved" mb;
        (t, mb)
      | Some _ | None -> (
        try
          let e = Hdfs.get hdfs relation in
          (* a service-scoped share may have a co-admitted workflow
             already paying for this scan; the bytes still come from
             HDFS either way, only the charge is waived *)
          let free =
            match Scan_share.active () with
            | Some share ->
              Scan_share.claim share ~relation ~mb:e.Hdfs.modeled_mb
            | None -> false
          in
          if not free then acc.input_mb <- acc.input_mb +. e.Hdfs.modeled_mb;
          Hashtbl.replace scans relation (e.Hdfs.table, e.Hdfs.modeled_mb);
          (e.Hdfs.table, e.Hdfs.modeled_mb)
        with Hdfs.No_such_relation r ->
          exec_error "missing input relation %S" r))
  in
  let eval_chain (tail : Ir.Operator.node) (chain : Ir.Fusion.chain) =
    let src_table, src_modeled =
      match Hashtbl.find_opt values chain.Ir.Fusion.source with
      | Some v -> v
      | None ->
        exec_error "fused chain at node %d evaluated before source %d"
          tail.id chain.Ir.Fusion.source
    in
    let members =
      List.map (Ir.Dag.node g) chain.Ir.Fusion.members
    in
    let kinds = List.map (fun (m : Ir.Operator.node) -> m.kind) members in
    let out =
      span "kernel.fused"
        (fun () ->
           [ ("chain_len", Obs.Trace.Int (List.length members));
             ("ops",
              Obs.Trace.String
                (String.concat "," (List.map Ir.Operator.kind_name kinds)));
             ("rows_in", Obs.Trace.Int (Table.row_count src_table)) ])
      @@ fun () -> run_chain src_table kinds
    in
    (* modeled volumes: interiors estimated via Sizing (their tables
       never exist to measure); the tail uses end-to-end measured
       selectivity, which is exactly what per-node measured ratios
       telescope to on the unfused path *)
    let src_bytes = Table.encoded_bytes src_table in
    let interior_mb = ref 0. in
    let rec model in_mb = function
      | [] -> ()
      | [ (m : Ir.Operator.node) ] ->
        let out_mb =
          if src_bytes = 0 then
            (Ir.Sizing.of_kind m.kind ~inputs:[ in_mb ]).expected
          else
            src_modeled
            *. (float_of_int (Table.encoded_bytes out)
                /. float_of_int src_bytes)
        in
        acc.stats <-
          { node_id = m.id; kind_name = Ir.Operator.kind_name m.kind;
            in_mb; out_mb; shuffled = false }
          :: acc.stats;
        Hashtbl.replace values m.id (out, out_mb);
        Hashtbl.replace by_name m.output (out, out_mb)
      | (m : Ir.Operator.node) :: rest ->
        (* interior PROJECTs use per-column encoded widths off the chain
           source (column widths are scale-free, so the source's are
           valid after interior filters); other interiors keep the
           generic Sizing defaults *)
        let out_mb =
          match m.kind with
          | Ir.Operator.Project { columns } -> (
            match Ir.Sizing.project_mb src_table columns ~in_mb with
            | Some mb -> mb
            | None -> (Ir.Sizing.of_kind m.kind ~inputs:[ in_mb ]).expected)
          | kind -> (Ir.Sizing.of_kind kind ~inputs:[ in_mb ]).expected
        in
        interior_mb := !interior_mb +. out_mb;
        acc.stats <-
          { node_id = m.id; kind_name = Ir.Operator.kind_name m.kind;
            in_mb; out_mb; shuffled = false }
          :: acc.stats;
        model out_mb rest
    in
    model src_modeled members;
    acc.process_mb <-
      acc.process_mb +. (src_modeled *. Perf.fused_weight kinds);
    Obs.Metrics.incr Obs.Metrics.default "fusion.chains";
    Obs.Metrics.incr Obs.Metrics.default ~by:(List.length members)
      "fusion.ops_fused";
    Obs.Metrics.add_gauge Obs.Metrics.default "fusion.intermediate_mb_saved"
      !interior_mb
  in
  List.iter
    (fun (n : Ir.Operator.node) ->
       match Ir.Fusion.role fplan n.id with
       | Ir.Fusion.Interior _ -> ()
       | Ir.Fusion.Tail chain -> eval_chain n chain
       | Ir.Fusion.Solo ->
         let ins =
           List.map
             (fun i ->
                match Hashtbl.find_opt values i with
                | Some v -> v
                | None ->
                  exec_error "node %d evaluated before input %d" n.id i)
             n.inputs
         in
         let in_tables = List.map fst ins in
         let in_modeled = List.fold_left (fun s (_, mb) -> s +. mb) 0. ins in
         let in_bytes =
           List.fold_left (fun s t -> s + Table.encoded_bytes t) 0 in_tables
         in
         let table, modeled =
           match n.kind with
           | Ir.Operator.Input { relation } -> eval_input relation
           | Ir.Operator.While { condition; max_iterations; body } ->
             eval_while ~hdfs ~acc ~condition ~max_iterations ~body ins
           | kind ->
             let out =
               span "kernel"
                 (fun () ->
                    [ ("op", Obs.Trace.String (Ir.Operator.kind_name kind));
                      ("rows_in",
                       Obs.Trace.Int
                         (List.fold_left
                            (fun s t -> s + Table.row_count t) 0 in_tables)) ])
               @@ fun () ->
               let out = Ir.Interp.eval_kind kind in_tables in
               (* the path the kernel took, read off its output *)
               if Obs.Trace.enabled () then
                 Obs.Trace.add_attr "path"
                   (Obs.Trace.String
                      (if Table.is_view out then "view"
                       else if Table.is_columnar out then "columnar"
                       else "row"));
               out
             in
             let mb =
               propagate kind ~in_modeled ~in_bytes
                 ~out_bytes:(Table.encoded_bytes out)
             in
             acc.process_mb <-
               acc.process_mb +. (in_modeled *. Perf.op_weight kind);
             if Ir.Operator.needs_shuffle kind then
               acc.comm_mb <- acc.comm_mb +. in_modeled;
             acc.stats <-
               { node_id = n.id; kind_name = Ir.Operator.kind_name kind;
                 in_mb = in_modeled; out_mb = mb;
                 shuffled = Ir.Operator.needs_shuffle kind }
               :: acc.stats;
             (out, mb)
         in
         Hashtbl.replace values n.id (table, modeled);
         Hashtbl.replace by_name n.output (table, modeled))
    g.nodes;
  (values, by_name)

and eval_while ~hdfs ~acc ~condition ~max_iterations ~body ins =
  let body_inputs = Ir.Dag.sources body in
  if List.length body_inputs <> List.length ins then
    exec_error "WHILE: body has %d inputs, %d provided"
      (List.length body_inputs) (List.length ins);
  let bound : (string, Table.t * float) Hashtbl.t = Hashtbl.create 8 in
  List.iter2
    (fun (n : Ir.Operator.node) v ->
       match n.kind with
       | Ir.Operator.Input { relation } -> Hashtbl.replace bound relation v
       | _ -> assert false)
    body_inputs ins;
  let first_output =
    match body.Ir.Operator.outputs with
    | id :: _ -> (Ir.Dag.node body id).Ir.Operator.output
    | [] -> exec_error "WHILE: body has no outputs"
  in
  (* the loop driver reads the condition relation out of [by_name] each
     iteration; the fusion planner must keep its producer materialized *)
  let protect =
    match condition with
    | Ir.Operator.Until_empty r | Ir.Operator.Until_fixpoint r -> [ r ]
    | Ir.Operator.Fixed_iterations _ -> []
  in
  let result = ref None in
  let rec iterate i =
    let _, by_name = eval_graph ~protect ~hdfs ~bound ~acc body in
    let find r =
      match Hashtbl.find_opt by_name r with
      | Some (t, mb) -> (t, mb)
      | None -> exec_error "WHILE: body did not produce %S" r
    in
    let current r = fst (find r) in
    let previous r =
      match Hashtbl.find_opt bound r with
      | Some (t, _) -> t
      | None -> exec_error "WHILE: %S is not loop-carried" r
    in
    let finished =
      Ir.Interp.loop_finished condition ~iteration:i ~max_iterations ~current
        ~previous
    in
    List.iter
      (fun r -> Hashtbl.replace bound r (find r))
      body.Ir.Operator.loop_carried;
    result := Some (find first_output);
    if finished then acc.iterations <- max acc.iterations i
    else iterate (i + 1)
  in
  iterate 1;
  match !result with
  | Some v -> v
  | None -> assert false

(* [max_jobs] caps kernel parallelism at the engine's simulated worker
   count for the duration of the run: a simulated single-core engine
   must not fan out onto the whole domain pool. *)
let execute ?max_jobs ~hdfs (g : Ir.Operator.graph) =
  let acc =
    { input_mb = 0.; process_mb = 0.; comm_mb = 0.; iterations = 1;
      stats = [] }
  in
  let bound = Hashtbl.create 1 in
  let values, _ =
    match max_jobs with
    | None -> eval_graph ~hdfs ~bound ~acc g
    | Some cap -> Pool.with_cap cap (fun () -> eval_graph ~hdfs ~bound ~acc g)
  in
  let st = Pool.stats () in
  Obs.Metrics.set_gauge Obs.Metrics.default "pool.domains"
    (float_of_int st.Pool.domains);
  Obs.Metrics.set_gauge Obs.Metrics.default "pool.batches"
    (float_of_int st.Pool.batches);
  Obs.Metrics.set_gauge Obs.Metrics.default "pool.tasks"
    (float_of_int st.Pool.tasks);
  let out_nodes =
    match g.outputs with
    | [] -> Ir.Dag.sinks g
    | ids -> List.map (Ir.Dag.node g) ids
  in
  let outputs =
    List.map
      (fun (n : Ir.Operator.node) ->
         let t, mb = Hashtbl.find values n.id in
         (n.output, Table.materialize t, mb))
      out_nodes
  in
  let output_mb = List.fold_left (fun s (_, _, mb) -> s +. mb) 0. outputs in
  { volumes =
      { Perf.input_mb = acc.input_mb; output_mb; load_mb = acc.input_mb;
        process_mb = acc.process_mb; scan_extra_mb = 0.;
        comm_mb = acc.comm_mb; iterations = acc.iterations };
    outputs;
    op_stats = List.rev acc.stats }

let is_graph_idiom (g : Ir.Operator.graph) = Ir.Gas_check.graph_is_gas g

let shuffle_count (g : Ir.Operator.graph) =
  List.length
    (List.filter
       (fun (n : Ir.Operator.node) -> Ir.Operator.needs_shuffle n.kind)
       g.nodes)

let has_while (g : Ir.Operator.graph) =
  List.exists
    (fun (n : Ir.Operator.node) ->
       match n.kind with Ir.Operator.While _ -> true | _ -> false)
    g.nodes
