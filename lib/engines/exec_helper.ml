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

(* What a node leaves for its consumers and for pricing: its table and
   modeled size. A JOIN run with its SELECT leaves no table of its own:
   the SELECT takes the pair kernel's output, and pricing reads the
   JOIN's logical column sizes, computed from counts. Neither do the
   CROSS and the MAP of an arg-min diamond: their consumers take the
   diamond kernel's output, and pricing reads their sizes from counts.
   Nor does a MAP run inside the GROUP BY that reads it. *)
type out =
  | Table of Table.t
  | Joined of Columnar.join_select
  | Argmin of Columnar.argmin * int array  (* the CROSS's or MAP's bytes *)
  | Grouped of Columnar.map_group_by

type value = { out : out; mb : float }

let column_bytes = function
  | Table t -> Table.column_bytes t
  | Joined js -> js.join_bytes
  | Argmin (_, bytes) -> bytes
  | Grouped k -> k.map_bytes

let bytes out = Array.fold_left ( + ) 0 (column_bytes out)

let table_of (n : Ir.Operator.node) v =
  match v.out with
  | Table t -> t
  | Joined _ -> exec_error "node %d has no table: it ran with its SELECT" n.id
  | Argmin _ ->
    exec_error "node %d has no table: it ran in an arg-min kernel" n.id
  | Grouped _ ->
    exec_error "node %d has no table: it ran inside its GROUP BY" n.id

(* Evaluates a graph; [bound] overrides relation lookups (used for WHILE
   bodies); returns per-node values plus output bindings in node order
   (later bindings shadow earlier ones on lookup).

   Every node runs on its own kernel, except a JOIN heading a chain of
   {!Ir.Fusion.plan}: it runs with its SELECT as one kernel
   ({!Relation.Columnar.try_join_select}), or as the plain JOIN when
   that kernel refuses; an arg-min diamond, run by its CROSS; and a MAP
   read only by a GROUP BY, run with it
   ({!Relation.Columnar.try_map_group_by}) or one by one when that
   kernel refuses.

   The plan's chains are priced as merged operators (paper §5):
   interiors get {!Ir.Sizing} priors, the tail the chain's end-to-end
   measured selectivity, and the process volume is charged once
   ({!Perf.charges}); the row-local members' op_stats are recorded at
   the tail. A JOIN head is priced as the solo JOIN, and every other
   node from its measured bytes. [protect] names relations the caller
   will look up by name in the returned [by_name] (the WHILE driver's
   condition relations). *)
let rec eval_graph ?(protect = []) ~hdfs
    ~(bound : (string, Table.t * float) Hashtbl.t) ~acc
    (g : Ir.Operator.graph) =
  let fplan = Ir.Fusion.plan ~protect g in
  let charges = Perf.charges fplan g ~within:(fun _ -> true) in
  let values : (int, value) Hashtbl.t = Hashtbl.create 16 in
  let by_name : (string, Table.t * float) Hashtbl.t = Hashtbl.create 16 in
  (* one HDFS fetch and one scan charge per distinct relation per job:
     duplicate INPUT nodes (several consumers of one relation) share
     the scan *)
  let fetched : (string, Table.t * float) Hashtbl.t = Hashtbl.create 4 in
  let eval_input relation =
    match Hashtbl.find_opt bound relation with
    | Some v -> v
    | None -> (
      match Hashtbl.find_opt fetched relation with
      | Some (t, mb) ->
        Obs.Metrics.incr Obs.Metrics.default "scan.shared";
        Obs.Metrics.add_gauge Obs.Metrics.default "scan.shared_mb_saved" mb;
        (t, mb)
      | None -> (
        try
          let e = Hdfs.get hdfs relation in
          acc.scans <- (relation, e.Hdfs.modeled_mb) :: acc.scans;
          Hashtbl.replace fetched relation (e.Hdfs.table, e.Hdfs.modeled_mb);
          (e.Hdfs.table, e.Hdfs.modeled_mb)
        with Hdfs.No_such_relation r ->
          exec_error "missing input relation %S" r))
  in
  let value id =
    match Hashtbl.find_opt values id with
    | Some v -> v
    | None -> exec_error "node %d read before it was evaluated" id
  in
  let inputs_of (n : Ir.Operator.node) = List.map value n.inputs in
  let solo (n : Ir.Operator.node) tables =
    span "kernel"
      (fun () ->
         [ ("op", Obs.Trace.String (Ir.Operator.kind_name n.kind));
           ("rows_in",
            Obs.Trace.Int
              (List.fold_left (fun s t -> s + Table.row_count t) 0 tables)) ])
    @@ fun () ->
    let out = Ir.Interp.eval_kind n.kind tables in
    (* the path the kernel took, read off its output *)
    if Obs.Trace.enabled () then
      Obs.Trace.add_attr "path"
        (Obs.Trace.String
           (if Table.is_view out then "view"
            else if Table.matches out <> None then "matches"
            else if Table.is_columnar out then "columnar"
            else "row"));
    out
  in
  (* a JOIN head and its SELECT as one kernel *)
  let join_select (head : Ir.Operator.node) (c : Ir.Fusion.chain) left right =
    match (head.kind, (Ir.Dag.node g (List.nth c.members 1)).kind) with
    | Ir.Operator.Join { left_key; right_key }, Ir.Operator.Select { pred } -> (
      match
        span "kernel.fused"
          (fun () ->
             [ ("ops", Obs.Trace.String "JOIN,SELECT");
               ("rows_in",
                Obs.Trace.Int (Table.row_count left + Table.row_count right))
             ])
          (fun () ->
             Columnar.try_join_select left right ~left_key ~right_key ~pred)
      with
      | Some js -> Joined js
      | None -> Table (solo head [ left; right ]))
    | _ -> exec_error "chain head %d is not a JOIN feeding a SELECT" head.id
  in
  (* an arg-min diamond's CROSS runs the diamond's kernel; its MAP,
     GROUP BY and JOIN take their parts of the kernel's output *)
  let argmin (a : Ir.Fusion.argmin) (cross : Ir.Operator.node) left right =
    match
      span "kernel.fused"
        (fun () ->
           [ ("ops", Obs.Trace.String "CROSS,MAP,GROUP BY,JOIN,SELECT");
             ("rows_in",
              Obs.Trace.Int (Table.row_count left + Table.row_count right)) ])
        (fun () ->
           Columnar.try_argmin left right ~target:a.target ~expr:a.expr
             ~key:a.key ~min_as:a.min_as ~min_column:a.min_column)
    with
    | Some k -> Argmin (k, k.cross_bytes)
    | None -> Table (solo cross [ left; right ])
  in
  let argmin_at id =
    List.find_opt
      (fun (a : Ir.Fusion.argmin) -> a.cross = id)
      (Ir.Fusion.argmins fplan)
  in
  (* a MAP read only by a GROUP BY runs the GROUP BY's kernel; the
     GROUP BY takes its table *)
  let map_group_by (mg : Ir.Fusion.map_group_by) (map : Ir.Operator.node) t =
    match
      span "kernel.fused"
        (fun () ->
           [ ("ops", Obs.Trace.String "MAP,GROUP BY");
             ("rows_in", Obs.Trace.Int (Table.row_count t)) ])
        (fun () ->
           Columnar.try_map_group_by t ~target:mg.mg_target ~expr:mg.mg_expr
             ~keys:mg.mg_keys ~aggs:mg.mg_aggs)
    with
    | Some k -> Grouped k
    | None -> Table (solo map [ t ])
  in
  let map_group_by_at id =
    List.find_opt
      (fun (mg : Ir.Fusion.map_group_by) -> mg.mg_map = id)
      (Ir.Fusion.map_group_bys fplan)
  in
  let run (n : Ir.Operator.node) ins =
    match (ins, n.kind) with
    | [ { out = Table l; _ }; { out = Table r; _ } ], _ -> (
      match (argmin_at n.id, Ir.Fusion.role fplan n.id) with
      | Some a, _ -> argmin a n l r
      | None, Ir.Fusion.Head c -> join_select n c l r
      | None, _ -> Table (solo n [ l; r ]))
    | [ { out = Argmin (k, _); _ } ], Ir.Operator.Map _ ->
      Argmin (k, k.map_bytes)
    | [ { out = Argmin (k, _); _ } ], Ir.Operator.Group_by _ -> Table k.groups
    | [ { out = Argmin (k, _); _ }; { out = Table best; _ } ],
      Ir.Operator.Join { right_key; _ } ->
      Joined (Columnar.argmin_join k best ~right_key)
    | [ { out = Joined js; _ } ], _ -> Table js.table
    | [ { out = Grouped k; _ } ], Ir.Operator.Group_by _ -> Table k.grouped
    | [ { out = Table t; _ } ], Ir.Operator.Map _ -> (
      match map_group_by_at n.id with
      | Some mg -> map_group_by mg n t
      | None -> Table (solo n [ t ]))
    | _ -> Table (solo n (List.map (table_of n) ins))
  in
  (* a chain's row-local members start from the one input of the first *)
  let source (c : Ir.Fusion.chain) =
    value (List.hd (Ir.Dag.node g (List.hd (Ir.Fusion.row_local c))).inputs)
  in
  let prior kind in_mb = (Ir.Sizing.of_kind kind ~inputs:[ in_mb ]).expected in
  (* modeled output size by pricing role *)
  let size (n : Ir.Operator.node) ins out =
    match Ir.Fusion.role fplan n.id with
    | Ir.Fusion.Solo | Ir.Fusion.Head _ ->
      propagate n.kind
        ~in_modeled:(List.fold_left (fun s v -> s +. v.mb) 0. ins)
        ~in_bytes:(List.fold_left (fun s v -> s + bytes v.out) 0 ins)
        ~out_bytes:(bytes out)
    | Ir.Fusion.Interior c -> (
      let in_mb = (List.hd ins).mb in
      (* interior PROJECTs use per-column encoded widths off the chain
         source (column widths are scale-free, so the source's are
         valid after interior filters) *)
      match n.kind with
      | Ir.Operator.Project { columns } -> (
        let src = source c in
        let schema =
          match src.out with
          | Table t | Joined { table = t; _ } -> Table.schema t
          | Argmin _ | Grouped _ ->
            exec_error "chain %d reads a fused kernel's node" n.id
        in
        match
          Ir.Sizing.project_mb schema (lazy (column_bytes src.out)) columns
            ~in_mb
        with
        | Some mb -> mb
        | None -> prior n.kind in_mb)
      | kind -> prior kind in_mb)
    | Ir.Fusion.Tail c ->
      (* end-to-end measured selectivity: what per-node measured
         ratios would telescope to *)
      let src = source c in
      let src_bytes = bytes src.out in
      if src_bytes = 0 then prior n.kind (List.hd ins).mb
      else src.mb *. (float_of_int (bytes out) /. float_of_int src_bytes)
  in
  (* a sized node's op_stat and volumes *)
  let record (n : Ir.Operator.node) =
    let in_mb = List.fold_left (fun s v -> s +. v.mb) 0. (inputs_of n) in
    acc.process_mb <-
      acc.process_mb +. Perf.process_mb charges n.id n.kind ~in_mb;
    let shuffled = Ir.Operator.needs_shuffle n.kind in
    if shuffled then acc.comm_mb <- acc.comm_mb +. in_mb;
    acc.stats <-
      { node_id = n.id; kind_name = Ir.Operator.kind_name n.kind; in_mb;
        out_mb = (value n.id).mb; shuffled }
      :: acc.stats
  in
  let bind (n : Ir.Operator.node) v =
    Hashtbl.replace values n.id v;
    match v.out with
    | Table t -> Hashtbl.replace by_name n.output (t, v.mb)
    | Joined _ | Argmin _ | Grouped _ -> ()
  in
  List.iter
    (fun (n : Ir.Operator.node) ->
       let ins = inputs_of n in
       match n.kind with
       | Ir.Operator.Input { relation } ->
         let t, mb = eval_input relation in
         bind n { out = Table t; mb }
       | Ir.Operator.While { condition; max_iterations; body } ->
         let t, mb =
           eval_while ~hdfs ~acc ~condition ~max_iterations ~body
             (List.map (fun v -> (table_of n v, v.mb)) ins)
         in
         bind n { out = Table t; mb }
       | _ -> (
         let out = run n ins in
         let v = { out; mb = size n ins out } in
         bind n v;
         match Ir.Fusion.role fplan n.id with
         | Ir.Fusion.Solo | Ir.Fusion.Head _ -> (
           record n;
           match out with
           | Joined _ | Argmin _ | Grouped _ ->
             (* the JOIN's, CROSS's or MAP's table is one more
                intermediate never built *)
             Obs.Metrics.add_gauge Obs.Metrics.default
               "fusion.intermediate_mb_saved" v.mb
           | Table _ -> ())
         | Ir.Fusion.Interior _ -> ()
         | Ir.Fusion.Tail c ->
           let members = List.map (Ir.Dag.node g) (Ir.Fusion.row_local c) in
           List.iter record members;
           let interior_mb =
             List.fold_left
               (fun s (m : Ir.Operator.node) ->
                  if m.id = n.id then s else s +. (value m.id).mb)
               0. members
           in
           Obs.Metrics.incr Obs.Metrics.default "fusion.chains";
           Obs.Metrics.incr Obs.Metrics.default
             ~by:(List.length c.Ir.Fusion.members) "fusion.ops_fused";
           Obs.Metrics.add_gauge Obs.Metrics.default
             "fusion.intermediate_mb_saved" interior_mb))
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
     iteration; the fusion planner must not make its producer a chain
     interior, priced from a prior *)
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
         let v = Hashtbl.find values n.id in
         (n.output, table_of n v, v.mb))
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
