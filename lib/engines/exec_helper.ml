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
  scans : (string * float) list;
}

exception Execution_error of string

let exec_error fmt = Printf.ksprintf (fun s -> raise (Execution_error s)) fmt

(* Modeled output size via selectivity measured on the executed rows. *)
let propagate kind ~in_modeled ~in_bytes ~out_bytes =
  if in_bytes = 0 then (Ir.Sizing.of_kind kind ~inputs:[ in_modeled ]).expected
  else in_modeled *. (float_of_int out_bytes /. float_of_int in_bytes)

type accum = {
  mutable scans : (string * float) list;  (* newest first *)
  mutable process_mb : float;
  mutable comm_mb : float;
  mutable iterations : int;
  mutable stats : op_stat list;
}

(* a span whose attributes are built only when a collector listens *)
let span name attrs f =
  if Obs.Trace.enabled () then Obs.Trace.with_span ~attrs:(attrs ()) name f
  else f ()

(* A fused chain runs as SELECT/PROJECT/MAP kernels over one view. A
   chain the columnar kernels cannot run end to end runs on rows from
   its source as one unit, as the fused row pass did, counted as
   [kernel.row.chain] beside the refusal's [kernel.fallback.<reason>]. *)
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
  | Some out -> out
  | None ->
    Obs.Metrics.incr Obs.Metrics.default "kernel.row.chain";
    Column.with_enabled false (fun () ->
        List.fold_left (fun t kind -> Ir.Interp.eval_kind kind [ t ]) src kinds)

(* What pricing a chain reads off the table its row-local members start
   from: the chain's source, or the output of a JOIN head, which never
   exists as a table when the head runs fused. *)
type chain_source = {
  src_modeled : float;
  src_bytes : int;
  src_schema : Schema.t;
  src_column_bytes : int array Lazy.t;
}

let source_of_table t modeled =
  { src_modeled = modeled; src_bytes = Table.encoded_bytes t;
    src_schema = Table.schema t;
    src_column_bytes = lazy (Table.column_bytes t) }

(* Evaluates a graph; [bound] overrides relation lookups (used for WHILE
   bodies); returns per-node (table, modeled_mb) plus output bindings in
   node order (later bindings shadow earlier ones on lookup).

   When fusion is on ({!Ir.Fusion.enabled}), chains planned by
   {!Ir.Fusion.plan} execute in one {!run_chain} at the chain tail, or
   at a JOIN head, which runs with its SELECT as one kernel
   ({!Relation.Columnar.try_join_select}); interior nodes are skipped
   entirely — never materialized, never entered in [values]/[by_name]
   (the planner guarantees nothing reads them). Their op_stats are
   still emitted, with modeled volumes from {!Ir.Sizing}, so cost-model
   and Fig-14 telemetry stay populated. A JOIN head emits its solo
   op_stat at its own position, from the sizes its output would have;
   the row-local members are priced at the tail as a chain of them
   alone would be, so every modeled number is the one unfused JOIN
   execution gives. [protect] names relations the caller will look up
   by name in the returned [by_name] (the WHILE driver's condition
   relations). *)
let rec eval_graph ?(protect = []) ~hdfs
    ~(bound : (string, Table.t * float) Hashtbl.t) ~acc
    (g : Ir.Operator.graph) =
  let fused = Ir.Fusion.enabled () in
  let fplan = if fused then Ir.Fusion.plan ~protect g else Ir.Fusion.empty in
  let values : (int, Table.t * float) Hashtbl.t = Hashtbl.create 16 in
  let by_name : (string, Table.t * float) Hashtbl.t = Hashtbl.create 16 in
  (* outputs of chains run at their JOIN head, by tail id, until the
     tail prices them *)
  let ran : (int, Table.t * chain_source) Hashtbl.t = Hashtbl.create 4 in
  (* one HDFS fetch per distinct relation per job: duplicate INPUT nodes
     (several consumers of one relation) share the scan *)
  let fetched : (string, Table.t * float) Hashtbl.t = Hashtbl.create 4 in
  let eval_input relation =
    match Hashtbl.find_opt bound relation with
    | Some v -> v
    | None -> (
      match Hashtbl.find_opt fetched relation with
      | Some (t, mb) when fused ->
        Obs.Metrics.incr Obs.Metrics.default "scan.shared";
        Obs.Metrics.add_gauge Obs.Metrics.default "scan.shared_mb_saved" mb;
        (t, mb)
      | Some _ | None -> (
        try
          let e = Hdfs.get hdfs relation in
          acc.scans <- (relation, e.Hdfs.modeled_mb) :: acc.scans;
          Hashtbl.replace fetched relation (e.Hdfs.table, e.Hdfs.modeled_mb);
          (e.Hdfs.table, e.Hdfs.modeled_mb)
        with Hdfs.No_such_relation r ->
          exec_error "missing input relation %S" r))
  in
  let inputs_of (n : Ir.Operator.node) =
    List.map
      (fun i ->
         match Hashtbl.find_opt values i with
         | Some v -> v
         | None -> exec_error "node %d evaluated before input %d" n.id i)
      n.inputs
  in
  (* a solo operator's op_stat and volumes, from its inputs and the
     encoded bytes of its output *)
  let account (n : Ir.Operator.node) ins ~out_bytes =
    let kind = n.kind in
    let in_modeled = List.fold_left (fun s (_, mb) -> s +. mb) 0. ins in
    let in_bytes =
      List.fold_left (fun s (t, _) -> s + Table.encoded_bytes t) 0 ins
    in
    let mb = propagate kind ~in_modeled ~in_bytes ~out_bytes in
    acc.process_mb <- acc.process_mb +. (in_modeled *. Perf.op_weight kind);
    if Ir.Operator.needs_shuffle kind then
      acc.comm_mb <- acc.comm_mb +. in_modeled;
    acc.stats <-
      { node_id = n.id; kind_name = Ir.Operator.kind_name kind;
        in_mb = in_modeled; out_mb = mb;
        shuffled = Ir.Operator.needs_shuffle kind }
      :: acc.stats;
    mb
  in
  let fused_span members rows_in f =
    let kinds = List.map (fun (m : Ir.Operator.node) -> m.kind) members in
    span "kernel.fused"
      (fun () ->
         [ ("chain_len", Obs.Trace.Int (List.length members));
           ("ops",
            Obs.Trace.String
              (String.concat "," (List.map Ir.Operator.kind_name kinds)));
           ("rows_in", Obs.Trace.Int rows_in) ])
      f
  in
  (* the whole chain at its JOIN head: the JOIN and its SELECT as one
     kernel, then the other row-local members over its output. A
     refused fusion runs the plain JOIN and the chain from it. *)
  let eval_join_head (head : Ir.Operator.node) (chain : Ir.Fusion.chain) =
    let ins = inputs_of head in
    let left, right =
      match ins with
      | [ (l, _); (r, _) ] -> (l, r)
      | _ -> exec_error "JOIN node %d needs two inputs" head.id
    in
    let left_key, right_key =
      match head.kind with
      | Ir.Operator.Join { left_key; right_key } -> (left_key, right_key)
      | k ->
        exec_error "chain head %d is a %s" head.id (Ir.Operator.kind_name k)
    in
    let members = List.map (Ir.Dag.node g) chain.Ir.Fusion.members in
    let local =
      List.map (fun (m : Ir.Operator.node) -> m.kind) (List.tl members)
    in
    let out, src =
      fused_span members (Table.row_count left + Table.row_count right)
      @@ fun () ->
      let fused =
        match local with
        | Ir.Operator.Select { pred } :: _ ->
          Columnar.try_join_select left right ~left_key ~right_key ~pred
        | _ -> None
      in
      match fused with
      | Some js ->
        let out_bytes = Array.fold_left ( + ) 0 js.join_bytes in
        let mb = account head ins ~out_bytes in
        (* the JOIN's table is one more intermediate never built *)
        Obs.Metrics.add_gauge Obs.Metrics.default
          "fusion.intermediate_mb_saved" mb;
        ( run_chain js.table (List.tl local),
          { src_modeled = mb; src_bytes = out_bytes;
            src_schema = Table.schema js.table;
            src_column_bytes = Lazy.from_val js.join_bytes } )
      | None ->
        let join = Kernel.join left right ~left_key ~right_key in
        let mb = account head ins ~out_bytes:(Table.encoded_bytes join) in
        (run_chain join local, source_of_table join mb)
    in
    Hashtbl.replace ran (List.hd (List.rev chain.members)) (out, src)
  in
  let eval_chain (tail : Ir.Operator.node) (chain : Ir.Fusion.chain) =
    let members = List.map (Ir.Dag.node g) (Ir.Fusion.row_local chain) in
    let kinds = List.map (fun (m : Ir.Operator.node) -> m.kind) members in
    let out, src =
      match Hashtbl.find_opt ran tail.id with
      | Some r -> r
      | None ->
        let src_table, src_modeled =
          match Hashtbl.find_opt values chain.Ir.Fusion.source with
          | Some v -> v
          | None ->
            exec_error "fused chain at node %d evaluated before source %d"
              tail.id chain.Ir.Fusion.source
        in
        ( fused_span members (Table.row_count src_table) (fun () ->
              run_chain src_table kinds),
          source_of_table src_table src_modeled )
    in
    (* modeled volumes: interiors estimated via Sizing (their tables
       never exist to measure); the tail uses end-to-end measured
       selectivity, which is exactly what per-node measured ratios
       telescope to on the unfused path *)
    let interior_mb = ref 0. in
    let rec model in_mb = function
      | [] -> ()
      | [ (m : Ir.Operator.node) ] ->
        let out_mb =
          if src.src_bytes = 0 then
            (Ir.Sizing.of_kind m.kind ~inputs:[ in_mb ]).expected
          else
            src.src_modeled
            *. (float_of_int (Table.encoded_bytes out)
                /. float_of_int src.src_bytes)
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
            match
              Ir.Sizing.project_mb src.src_schema src.src_column_bytes
                columns ~in_mb
            with
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
    model src.src_modeled members;
    acc.process_mb <-
      acc.process_mb +. (src.src_modeled *. Perf.fused_weight kinds);
    Obs.Metrics.incr Obs.Metrics.default "fusion.chains";
    Obs.Metrics.incr Obs.Metrics.default
      ~by:(List.length chain.Ir.Fusion.members) "fusion.ops_fused";
    Obs.Metrics.add_gauge Obs.Metrics.default "fusion.intermediate_mb_saved"
      !interior_mb
  in
  List.iter
    (fun (n : Ir.Operator.node) ->
       match Ir.Fusion.role fplan n.id with
       | Ir.Fusion.Interior _ -> ()
       | Ir.Fusion.Head chain -> eval_join_head n chain
       | Ir.Fusion.Tail chain -> eval_chain n chain
       | Ir.Fusion.Solo ->
         let ins = inputs_of n in
         let table, modeled =
           match n.kind with
           | Ir.Operator.Input { relation } -> eval_input relation
           | Ir.Operator.While { condition; max_iterations; body } ->
             eval_while ~hdfs ~acc ~condition ~max_iterations ~body ins
           | kind ->
             let in_tables = List.map fst ins in
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
             (out, account n ins ~out_bytes:(Table.encoded_bytes out))
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

let execute ~hdfs (g : Ir.Operator.graph) =
  let acc =
    { scans = []; process_mb = 0.; comm_mb = 0.; iterations = 1;
      stats = [] }
  in
  let bound = Hashtbl.create 1 in
  let values, _ = eval_graph ~hdfs ~bound ~acc g in
  let out_nodes =
    match g.outputs with
    | [] -> Ir.Dag.sinks g
    | ids -> List.map (Ir.Dag.node g) ids
  in
  let outputs =
    List.map
      (fun (n : Ir.Operator.node) ->
         let t, mb = Hashtbl.find values n.id in
         (n.output, t, mb))
      out_nodes
  in
  let output_mb = List.fold_left (fun s (_, _, mb) -> s +. mb) 0. outputs in
  let scans = List.rev acc.scans in
  let input_mb = List.fold_left (fun s (_, mb) -> s +. mb) 0. scans in
  { volumes =
      { Perf.input_mb; output_mb; load_mb = input_mb;
        process_mb = acc.process_mb; scan_extra_mb = 0.;
        comm_mb = acc.comm_mb; iterations = acc.iterations };
    outputs;
    op_stats = List.rev acc.stats;
    scans }

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
