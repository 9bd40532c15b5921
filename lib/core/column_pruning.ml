open Relation

module String_set = Set.Make (String)

let set_of_list = String_set.of_list

(* the name a right-side join/cross column gets in the output *)
let right_out_name ls c = if Schema.mem ls c then "r_" ^ c else c

let required_of_schemas ~schemas (g : Ir.Dag.t) =
  let req : (int, String_set.t) Hashtbl.t = Hashtbl.create 16 in
  let get id =
    Option.value (Hashtbl.find_opt req id) ~default:String_set.empty
  in
  let add id cols = Hashtbl.replace req id (String_set.union (get id) cols) in
  let all_of id = set_of_list (Schema.column_names (Hashtbl.find schemas id)) in
  (* workflow outputs are fully live *)
  List.iter (fun id -> add id (all_of id)) g.Ir.Operator.outputs;
  List.iter
    (fun (n : Ir.Operator.node) ->
       let live = get n.id in
       match n.kind, n.inputs with
       | Ir.Operator.Input _, _ -> ()
       | Ir.Operator.Select { pred }, [ i ] ->
         add i (String_set.union live (set_of_list (Expr.columns pred)))
       | Ir.Operator.Project { columns }, [ i ] ->
         (* the projection's declaration is fixed: it reads its columns *)
         add i (set_of_list columns)
       | Ir.Operator.Map { target; expr }, [ i ] ->
         add i
           (String_set.union
              (String_set.remove target live)
              (set_of_list (Expr.columns expr)))
       | Ir.Operator.Join { left_key; right_key }, [ l; r ] ->
         let ls = Hashtbl.find schemas l and rs = Hashtbl.find schemas r in
         add l
           (String_set.add left_key
              (String_set.inter live
                 (set_of_list (Schema.column_names ls))));
         let right_live =
           List.filter
             (fun c ->
                c <> right_key
                && String_set.mem (right_out_name ls c) live)
             (Schema.column_names rs)
         in
         add r (String_set.add right_key (set_of_list right_live))
       | Ir.Operator.Left_outer_join { left_key; right_key; _ }, [ l; r ] ->
         let ls = Hashtbl.find schemas l in
         add l
           (String_set.add left_key
              (String_set.inter live
                 (set_of_list (Schema.column_names ls))));
         (* defaults are positional over the right's non-key columns, so
            the right side stays fully live *)
         ignore right_key;
         add r (all_of r)
       | (Ir.Operator.Semi_join { left_key; right_key }
         | Ir.Operator.Anti_join { left_key; right_key }), [ l; r ] ->
         add l (String_set.add left_key live);
         (* only the key matters on the right *)
         add r (String_set.singleton right_key)
       | Ir.Operator.Cross, [ l; r ] ->
         let ls = Hashtbl.find schemas l and rs = Hashtbl.find schemas r in
         add l
           (String_set.inter live (set_of_list (Schema.column_names ls)));
         let right_live =
           List.filter
             (fun c -> String_set.mem (right_out_name ls c) live)
             (Schema.column_names rs)
         in
         add r (set_of_list right_live)
       | (Ir.Operator.Union | Ir.Operator.Intersect
         | Ir.Operator.Difference), [ l; r ] ->
         (* row-identity operators: every column participates *)
         add l (all_of l);
         add r (all_of r)
       | Ir.Operator.Distinct, [ i ] -> add i (all_of i)
       | Ir.Operator.Group_by { keys; aggs }, [ i ] ->
         let agg_cols =
           List.filter_map
             (fun (a : Aggregate.t) -> Aggregate.input_column a.fn)
             aggs
         in
         add i (set_of_list (keys @ agg_cols))
       | Ir.Operator.Agg { aggs }, [ i ] ->
         add i
           (set_of_list
              (List.filter_map
                 (fun (a : Aggregate.t) -> Aggregate.input_column a.fn)
                 aggs))
       | (Ir.Operator.Sort { by; _ } | Ir.Operator.Top_k { by; _ }), [ i ] ->
         add i (String_set.add by live)
       | (Ir.Operator.Udf _ | Ir.Operator.While _ | Ir.Operator.Black_box _),
         inputs ->
         (* opaque: everything they are fed stays live *)
         List.iter (fun i -> add i (all_of i)) inputs
       | _, _ -> List.iter (fun i -> add i (all_of i)) n.inputs)
    (List.rev (Ir.Dag.topological_order g));
  let result = Hashtbl.create 16 in
  Hashtbl.iter
    (fun id cols -> Hashtbl.replace result id (String_set.elements cols))
    req;
  result

let required_columns ~catalog g =
  required_of_schemas ~schemas:(Ir.Typing.infer ~catalog g) g

let prune_inputs ~schemas (g : Ir.Dag.t) =
  let required = required_of_schemas ~schemas g in
  let is_project id =
    match (Ir.Dag.node g id).Ir.Operator.kind with
    | Ir.Operator.Project _ -> true
    | _ -> false
  in
  (* the first INPUT with a column nobody reads, and the columns it keeps *)
  let candidate =
    List.find_map
      (fun (n : Ir.Operator.node) ->
         match n.kind with
         | Ir.Operator.Input _ ->
           let live =
             Option.value (Hashtbl.find_opt required n.id) ~default:[]
           in
           let schema_cols =
             Schema.column_names (Hashtbl.find schemas n.id)
           in
           if live <> []
           && List.length live < List.length schema_cols
           && (not (List.mem n.id g.Ir.Operator.outputs))
           (* consumers that already project gain nothing (and guard the
              rewrite fixpoint) *)
           && not (List.for_all is_project (Ir.Dag.consumers g n.id))
           then Some (n.id, List.filter (fun c -> List.mem c live) schema_cols)
           else None
         | _ -> None)
      g.Ir.Operator.nodes
  in
  Option.map
    (fun (target, columns) ->
       Rebuild.rewrite g ~decide:(fun (n : Ir.Operator.node) ->
           if n.id <> target then Rebuild.Keep
           else
             Rebuild.Replace
               (fun b _ ->
                  Ir.Builder.project b ~columns
                    (Rebuild.copy_node b ~name:n.output n.kind []))))
    candidate
